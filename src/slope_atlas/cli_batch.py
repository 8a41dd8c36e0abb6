"""The `batch` command: classify a CSV of slope pairs row by row."""

import csv
import re
import sys

from .cli_output import _atomic_out
from .rational import format_terms, shown_token, slope_terms
from .whitehead import _cell, _decide, plot_class

# Most distinct slope tokens a batch run keeps parsed at once.
_BATCH_TOKENS = 4096
# Finds a character that a CSV cell must quote: comma, quote, CR or LF.
_csv_special = re.compile('[,"\r\n]').search


def parse_batch_header(row):
    """Validate the batch header; returns True when a label column is
    present."""
    if row in (["id", "s1", "s2"], ["id", "s1", "s2", "label"]):
        return len(row) == 4
    raise ValueError(f"bad header {shown_token(','.join(row))!r}: expected "
                     "'id,s1,s2' or 'id,s1,s2,label'")


def _token_cell(text):
    """A batch run's entry for the slope field ``text``, read as lowest
    terms (num, den): the slope's text, the text of abs(num) and its cell."""
    num, den = slope_terms(text)
    return format_terms(num, den), str(abs(num)), _cell(num, den)


def _pair_entry(f1, f2):
    """A batch run's entry for the slope cells (f1, f2): its qhs cell, its
    lspace, foliation, euler_zero and left_orderable cells joined, its
    left_orderable value and plot class, and a row count."""
    d = _decide(f1, f2)
    lo = d.left_orderable.value
    return ["true" if d.is_qhs else "false",
            f"{d.lspace.value},{d.taut_foliation.value},"
            f"{d.euler_vanishing.value},{lo}", lo, plot_class(d), 0]


def _csv_quoted(text):
    """``text`` as a quoted CSV cell, its quotes doubled."""
    return '"' + text.replace('"', '""') + '"'


def cmd_batch(args):
    """Classify the input CSV row by row in one pass; memory stays flat."""
    header = "id,s1,s2,qhs,h1,h2,lspace,foliation,euler_zero,left_orderable"
    agree = failures = 0
    # Stripped slope token -> its _token_cell; cleared when full.
    seen = {}
    get, put = seen.get, seen.setdefault
    # (cell, cell) -> _pair_entry; only 49 cell pairs exist, so it is
    # never cleared.
    pairs = {}
    with open(args.input, newline="", encoding="utf-8-sig") as fh:
        rows, end = csv.reader(fh), 0
        try:
            first = next(rows, None)
            if first is None:
                raise ValueError(f"{args.input}: empty file, missing header")
            has_label = parse_batch_header(first)
            width = len(first)
            with _atomic_out(args.out, newline="") as out:
                write = out.write
                write(header + (",label,agrees\n" if has_label else "\n"))
                # A quoted field may span lines, so each record is numbered
                # by the first physical line after the previous record.
                end = rows.line_num
                for row in rows:
                    lineno, end = end + 1, rows.line_num
                    if not row:
                        continue
                    if len(seen) >= _BATCH_TOKENS:
                        seen.clear()
                    try:
                        if len(row) != width:
                            raise ValueError(
                                f"expected {width} fields, got {len(row)}")
                        t1, t2 = row[1].strip(), row[2].strip()
                        c1 = get(t1) or put(t1, _token_cell(row[1]))
                        c2 = get(t2) or put(t2, _token_cell(row[2]))
                    except ValueError as exc:
                        failures += 1
                        print(f"{args.input}:{lineno}: {exc}",
                              file=sys.stderr)
                        continue
                    # Outside the try: an error from the rules aborts the run.
                    key = c1[2], c2[2]
                    pair = pairs.get(key)
                    if pair is None:
                        pair = pairs[key] = _pair_entry(*key)
                    pair[4] += 1
                    ident = row[0].strip()
                    if _csv_special(ident):
                        ident = _csv_quoted(ident)
                    tail = ""
                    if has_label:
                        label = row[3].strip()
                        ok = label == pair[2]
                        agree += ok
                        if _csv_special(label):
                            label = _csv_quoted(label)
                        tail = f",{label},{'true' if ok else 'false'}"
                    write(f"{ident},{c1[0]},{c2[0]},{pair[0]},{c1[1]},"
                          f"{c2[1]},{pair[1]}{tail}\n")
        except csv.Error as exc:
            raise ValueError(f"{args.input}:{end + 1}: {exc}") from None
    done = 0
    tally = dict.fromkeys(["lspace", "foliation", "non-qhs"] + [
        f"left-orderable {k}" for k in ("yes", "no", "unknown", "na")], 0)
    for _, _, lo, cls, n in pairs.values():
        done += n
        tally[cls] += n
        tally["left-orderable " + lo] += n
    print(f"rows: {done}")
    for key, n in tally.items():
        print(f"{key}: {n}")
    if has_label:
        print(f"label agreement: {agree}/{done}")
    if failures:
        print(f"failed rows: {failures}", file=sys.stderr)
        return 2
    return 0
