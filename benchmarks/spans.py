"""Span tracing from outside the program.

`Tracer.wrap` replaces a public function of `slope_atlas` with a wrapper
that records one span per call: name, start, end, parent span, thread and
the thread-CPU time spent inside.  Spans live in per-thread arrays until the
run ends, when `write` dumps them and `layer_stats` derives the per-layer
numbers:

* ``calls``  -- number of spans;
* ``busy_s`` -- thread-CPU time inside the spans (children included);
* ``wait_s`` -- wall time inside the spans minus ``busy_s``: time the
  thread was runnable but not running, which under the batch thread pool is
  mostly waiting for the interpreter lock;
* ``self_s`` -- wall time of a span minus the part of its interval that its
  direct child spans cover (children on other threads included);
* ``pNN_us`` / ``pNN_ms`` -- percentiles of per-call wall time.

A span's parent is the innermost open span on its own thread.  A span
opened on a thread with no open span (a pool worker) takes as parent the
innermost open span of the main thread, which started the pool.
"""

from __future__ import annotations

import collections
import functools
import gzip
import itertools
import sys
import threading
import time
from array import array

_perf = time.perf_counter
_cpu = time.thread_time


class _Buffer:
    def __init__(self, tid):
        self.tid = tid
        self.stack = []
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cpu = array("d")
        self.counts = collections.Counter()


class Tracer:
    def __init__(self):
        self.label = ""
        self._names = []
        self._name_ids = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._main = None
        self._patched = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self._names))
                if nid == len(self._names):
                    self._names.append(name)
        return nid

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.get_ident())
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
                if threading.current_thread() is threading.main_thread():
                    self._main = buf
        return buf

    def count(self, key, n=1):
        """Add to a named counter (thread-local, summed at the end)."""
        self._buffer().counts[key] += n

    def _wrapper(self, fn, name, labelled, on_result):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                main = self._main
                parent = main.stack[-1] if main is not None and main.stack \
                    else 0
            sid = next(self._ids)
            stack.append(sid)
            c0 = _cpu()
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                c1 = _cpu()
                stack.pop()
                buf.sid.append(sid)
                buf.parent.append(parent)
                buf.name.append(self._name_id(f"{name}.{self.label}")
                                if labelled else nid)
                buf.start.append(t0)
                buf.end.append(t1)
                buf.cpu.append(c1 - c0)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def wrap(self, fn, name, *, labelled=False, on_result=None):
        """Replace ``fn`` wherever a loaded ``slope_atlas`` module binds it
        at module level (so ``from .x import fn`` copies are caught too)."""
        wrapper = self._wrapper(fn, name, labelled, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("slope_atlas"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patched.append((mod, attr, fn, wrapper))
                    setattr(mod, attr, wrapper)

    def wrap_method(self, cls, attr, name):
        fn = cls.__dict__[attr]
        wrapper = self._wrapper(fn, name, False, None)
        self._patched.append((cls, attr, fn, wrapper))
        setattr(cls, attr, wrapper)

    def unwrap(self):
        """Put the original functions back (recorded spans are kept)."""
        for owner, attr, fn, _ in reversed(self._patched):
            setattr(owner, attr, fn)

    def rewrap(self):
        """Install the wrappers again after `unwrap`."""
        for owner, attr, _, wrapper in self._patched:
            setattr(owner, attr, wrapper)

    # -- results ------------------------------------------------------------

    def counts(self):
        total = collections.Counter()
        for buf in self._buffers:
            total.update(buf.counts)
        return total

    def write(self, path, header=""):
        """Dump every span as gzip-compressed TSV, thread by thread."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            if header:
                fh.write(f"# {header}\n")
            fh.write("sid\tparent\tname\ttid\tstart_s\tend_s\tcpu_s\n")
            for buf in self._buffers:
                for sid, parent, nid, t0, t1, cpu in zip(
                        buf.sid, buf.parent, buf.name, buf.start, buf.end,
                        buf.cpu):
                    fh.write(f"{sid}\t{parent}\t{self._names[nid]}\t"
                             f"{buf.tid}\t{t0:.9f}\t{t1:.9f}\t{cpu:.9f}\n")

    def layer_stats(self):
        """{span name: {"calls", "wall_s", "busy_s", "wait_s", "self_s",
        "durations"}} over every recorded span.

        Direct children on the parent's own thread run one after another,
        so their durations add up; children on other threads may overlap
        each other, so their intervals are merged."""
        tid_of = {}
        same = collections.Counter()
        other = collections.defaultdict(list)
        for buf in self._buffers:
            for sid in buf.sid:
                tid_of[sid] = buf.tid
        for buf in self._buffers:
            for parent, t0, t1 in zip(buf.parent, buf.start, buf.end):
                if not parent:
                    continue
                if tid_of.get(parent) == buf.tid:
                    same[parent] += t1 - t0
                else:
                    other[parent].append((t0, t1))
        stats = {}
        for buf in self._buffers:
            for sid, nid, t0, t1, cpu in zip(buf.sid, buf.name, buf.start,
                                             buf.end, buf.cpu):
                name = self._names[nid]
                st = stats.get(name)
                if st is None:
                    st = stats[name] = {"calls": 0, "wall_s": 0.0,
                                        "busy_s": 0.0, "self_s": 0.0,
                                        "durations": array("d")}
                dur = t1 - t0
                st["calls"] += 1
                st["wall_s"] += dur
                st["busy_s"] += cpu
                st["durations"].append(dur)
                covered = same.get(sid, 0.0)
                if sid in other:
                    covered += _covered(other[sid], t0, t1)
                st["self_s"] += dur - covered
        for st in stats.values():
            st["wait_s"] = max(0.0, st["wall_s"] - st["busy_s"])
        return stats


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
