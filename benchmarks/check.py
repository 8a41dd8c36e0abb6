"""Output checks.

The text checks return ``(attempted, failed)``: the number of operations
whose output they looked at and how many of them were wrong; the cone
checks judge one call.  Expected outputs are rebuilt here from in-process
`parse_slope` / `classify` calls (or, for the cones, `fundamental_ray`, an
independent switch-equation check and pinned counts), never by re-running
the code path being measured.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction


PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "pinned.json")
DEFAULT_SEED = 1


def load_pinned():
    with open(PINNED_PATH) as fh:
        return json.load(fh)


def sha256(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def compare_lines(expected, actual):
    """(attempted, failed) for a line-by-line comparison; a missing or
    extra line counts as one failure."""
    failed = sum(e != a for e, a in zip(expected, actual))
    failed += abs(len(expected) - len(actual))
    return len(expected), failed


def check_digest(name, data, pinned):
    """One operation: ``data`` must match the digest pinned for the
    default seed."""
    return 1, int(sha256(data) != pinned["digests"][name])


# --- batch -------------------------------------------------------------------

def _verdict_fields(v):
    return ["true" if v.is_qhs else "false",
            str(v.homology[0]), str(v.homology[1]),
            v.lspace.value, v.taut_foliation.value,
            v.euler_vanishing.value, v.left_orderable.value]


def _coarse_class(v):
    if not v.is_qhs:
        return "non-qhs"
    return "lspace" if v.lspace.value == "yes" else "foliation"


def expected_batch(csv_text, malformed):
    """Expected output CSV lines and stdout lines of `batch` on the
    generated input."""
    from slope_atlas.slopes import parse_slope
    from slope_atlas.whitehead import classify

    bad = set(malformed)
    out = ["id,s1,s2,qhs,h1,h2,lspace,foliation,euler_zero,left_orderable,"
           "label,agrees"]
    classes = {"lspace": 0, "foliation": 0, "non-qhs": 0}
    lo = {"yes": 0, "no": 0, "unknown": 0, "na": 0}
    agree = 0
    for lineno, line in enumerate(csv_text.splitlines()[1:], start=2):
        if lineno in bad:
            continue
        ident, t1, t2, label = line.split(",")
        s1, s2 = parse_slope(t1), parse_slope(t2)
        v = classify(s1, s2)
        classes[_coarse_class(v)] += 1
        lo[v.left_orderable.value] += 1
        ok = label == v.left_orderable.value
        agree += ok
        out.append(",".join([ident, str(s1), str(s2), *_verdict_fields(v),
                             label, "true" if ok else "false"]))
    rows = len(out) - 1
    summary = [f"rows: {rows}", f"lspace: {classes['lspace']}",
               f"foliation: {classes['foliation']}",
               f"non-qhs: {classes['non-qhs']}"]
    summary += [f"left-orderable {k}: {lo[k]}" for k in lo]
    summary.append(f"label agreement: {agree}/{rows}")
    return out, summary


def check_batch(expected, malformed, input_name, returncode, out_text,
                stdout, stderr):
    """Rows and summary against ``expected``; each malformed row counts as
    correct when stderr reports it with its line number.  Exit code 2 is
    the documented result for an input with malformed rows."""
    exp_rows, exp_summary = expected
    attempted, failed = compare_lines(exp_rows, out_text.splitlines())
    a, f = compare_lines(exp_summary, stdout.splitlines())
    attempted += a
    failed += f
    reported = set()
    prefix = f"{input_name}:"
    for line in stderr.splitlines():
        if line.startswith(prefix):
            head = line[len(prefix):].split(":", 1)[0]
            if head.isdigit():
                reported.add(int(head))
    attempted += len(malformed)
    failed += len(set(malformed) - reported)
    # One more operation: the exit status and the failure count line.
    attempted += 1
    want_status = 2 if malformed else 0
    tail = stderr.splitlines()[-1:] if malformed else []
    want_tail = [f"failed rows: {len(malformed)}"] if malformed else []
    failed += int(returncode != want_status or tail != want_tail
                  or bool(reported - set(malformed)))
    return attempted, failed


# --- plot --------------------------------------------------------------------

def grid_fractions(bounds):
    """Distinct p/q on the grid, as Fractions, in increasing order (the
    grids used here have q >= 1, so every slope is finite)."""
    pmin, pmax, qmin, qmax = bounds
    if qmin < 1:
        raise ValueError("plot grids here need denominators >= 1")
    return sorted({Fraction(p, q) for p in range(pmin, pmax + 1)
                   for q in range(qmin, qmax + 1)})


def _slope_text(f):
    return str(f.numerator) if f.denominator == 1 else \
        f"{f.numerator}/{f.denominator}"


def plot_records(bounds):
    """[(s1, s2, class)] with exact Fractions, in output order."""
    from slope_atlas.slopes import parse_slope
    from slope_atlas.whitehead import classify

    fracs = grid_fractions(bounds)
    slopes = [parse_slope(_slope_text(f)) for f in fracs]
    out = []
    for f1, s1 in zip(fracs, slopes):
        for f2, s2 in zip(fracs, slopes):
            out.append((f1, f2, _coarse_class(classify(s1, s2))))
    return out


def expected_tsv(records):
    lines = ["s1\ts2\tclass"]
    lines += [f"{_slope_text(a)}\t{_slope_text(b)}\t{c}"
              for a, b, c in records]
    return lines


_COLORS = {"lspace": "red", "foliation": "blue", "non-qhs": "gray"}


def expected_svg(records):
    lo = min(min(a, b) for a, b, _ in records)
    hi = max(max(a, b) for a, b, _ in records)

    def coord(v, flip):
        frac = (v - lo) / (hi - lo)
        if flip:
            frac = 1 - frac
        return f"{float(40 + frac * 560):.2f}"

    lines = ['<svg xmlns="http://www.w3.org/2000/svg" width="640" '
             'height="640" viewBox="0 0 640 640">',
             '<rect width="640" height="640" fill="white"/>',
             '<rect x="40" y="40" width="560" height="560" fill="none" '
             'stroke="black"/>']
    lines += [f'<circle cx="{coord(a, False)}" cy="{coord(b, True)}" r="3" '
              f'fill="{_COLORS[c]}"/>' for a, b, c in records]
    lines += ['<text x="40" y="24" font-size="12">'
              'red: lspace  blue: foliation  gray: non-qhs</text>', "</svg>"]
    return lines


# --- cones -------------------------------------------------------------------

def generated_ok(c, result, bound):
    """A generated complex carries exactly the fundamental ray."""
    from slope_atlas.branched import fundamental_ray
    return tuple(result) == fundamental_ray(c, bound)


def free_ok(doc, result, bound, count):
    """Every system solves the switches of ``doc`` within the bound, the
    systems are distinct and sorted, and there are ``count`` of them."""
    order = tuple(s["id"] for s in doc["sectors"])
    arcs = [(a["big"], a["a"], a["b"]) for a in doc["arcs"]]
    if len(result) != count:
        return False
    prev = None
    for ws in result:
        w = dict(ws.weights)
        vec = tuple(w.get(sid, -1) for sid in order)
        if (tuple(sid for sid, _ in ws.weights) != order
                or not all(0 <= x <= bound for x in vec)
                or not all(w[b] == w[x] + w[y] for b, x, y in arcs)
                or (prev is not None and prev >= vec)):
            return False
        prev = vec
    return True
