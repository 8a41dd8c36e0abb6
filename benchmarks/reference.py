"""Fixed reference work that stands for the machine's speed.

    python3 benchmarks/reference.py [PART ...]

Runs the named parts and exits; `run.py` times the whole process.  It
imports nothing from the program, so no change to slope-atlas can change
its cost.  `run.py` runs it right before and right after each measured
process and divides by the mean of the two, which cancels the speed of a
shared host as it drifts.  Each part mirrors one kind of work in the
benchmark (`REF_PARTS` in `run.py` says which workload uses which):

* ``text``: `Fraction`s, tuple-keyed dicts, and formatting and joining a
  few megabytes of text, like `batch` and `plot`;
* ``lattice``: a backtracking search that copies small dicts, like
  `carried_weight_cone`, with tens of thousands of solutions collected as
  tuples, deduplicated, sorted and wrapped, like a free cone's;
* ``start``: imports of standard modules like those slope-atlas imports,
  which with the interpreter start is the reference for set-up time.
"""

from __future__ import annotations

import sys
from fractions import Fraction


def text():
    rows = []
    table = {}
    for i in range(1, 30_001):
        p, q = i % 97 - 48, i % 31 + 1
        f = Fraction(p, q) + Fraction(q, i)
        table[(p, q)] = table.get((p, q), 0) + f.numerator % 7
        rows.append(f'<circle cx="{float(f) % 640:.2f}" cy="{i % 640}" '
                    f'r="3" fill="{("red", "blue", "gray")[i % 3]}"/>')
    rows.sort()
    return len("\n".join(rows)) + sum(table.values())


def _fill(names, bound, state, found):
    i = len(state)
    if i == 3 and state[names[0]] != state[names[1]] + state[names[2]]:
        return
    if i == len(names):
        found.append(tuple((n, state[n]) for n in names))
        return
    for value in range(bound + 1):
        nxt = dict(state)
        nxt[names[i]] = value
        _fill(names, bound, nxt, found)


class _System:
    __slots__ = ("weights",)

    def __init__(self, weights):
        self.weights = weights


def lattice():
    found = []
    _fill([f"F{i}" for i in range(8)], 4, {}, found)
    unique = sorted(set(found), key=lambda ws: tuple(w for _, w in ws))
    return len([_System(ws) for ws in unique])


def start():
    import argparse  # noqa: F401
    import csv  # noqa: F401
    import dataclasses  # noqa: F401
    import enum  # noqa: F401
    import json  # noqa: F401
    from concurrent import futures  # noqa: F401


PARTS = {"text": text, "lattice": lattice, "start": start}


def main(argv):
    for name in argv:
        PARTS[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
