"""Where the commands write: a file replaced only on success, or stdout."""

import contextlib
import os
import stat
import sys


@contextlib.contextmanager
def _atomic_out(path, newline=None):
    """UTF-8 text handle whose contents replace ``path`` only when the block
    completes.  A target ``open(path, "w")`` would refuse is refused; a new
    file gets that call's mode and an existing one keeps its mode.  The
    result is a new file: hard links to the old one keep the old contents
    and its owner is the writer.  No ``path`` means stdout, as it is set;
    a stdout closed at start raises BrokenPipeError, as a closed pipe does."""
    if not path:
        if sys.stdout is None:
            raise BrokenPipeError("stdout is closed")
        yield sys.stdout
        return
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        # A device or pipe such as /dev/stdout cannot be replaced.
        with open(path, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        return
    if st is not None:
        os.close(os.open(path, os.O_WRONLY))  # permission check; no truncate
    target = os.path.realpath(path)
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = path
        raise
    try:
        with open(fd, "w", newline=newline, encoding="utf-8") as fh:
            if st is not None:
                os.chmod(fd, stat.S_IMODE(st.st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(text, out_path):
    with _atomic_out(out_path) as fh:
        fh.write(text)


def _emit_json(doc, out_path):
    import json   # only the commands that write JSON load it
    _emit(json.dumps(doc, indent=2) + "\n", out_path)
