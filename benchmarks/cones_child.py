"""Weight-cone work for the `cones-generated` and `cones-free` workloads.

    python3 benchmarks/cones_child.py SPEC.json OUT.json
    python3 benchmarks/cones_child.py SPEC.json --setup-only

Runs as its own process so that its peak RSS and start-up are those of the
work alone; `run.py` imports the same functions for the traced in-process
run.  SPEC.json is written by `run.py` from the generators in `gen.py` and
holds one family: generated monodromies or free complexes.  After the
set-up (import, complex construction, sink-disc scan) one pass over the
complexes runs, each `carried_weight_cone` call timed on its own; then
every result is checked, and the summed call time, the call and system
counts and the check counts go to OUT.json.
"""

from __future__ import annotations

import json
import sys
import time

import check


def build(spec):
    """Work items [(family, name, complex, bound, extra)]: ``extra`` is the
    sink-disc scan for a generated complex and the parsed JSON document
    for a free one."""
    from slope_atlas import branched
    from slope_atlas.monodromy import Monodromy

    items = []
    for a0, twists in spec["monodromies"]:
        m = Monodromy(a0, tuple(twists))
        for kind, c in branched.complexes_for(m).items():
            items.append(("generated", f"{m} {kind}", c, spec["bound"],
                          branched.detect_sink_discs(c)))
    for name, text, bounds in spec["free"]:
        c = branched.BranchComplex.from_json(text)
        doc = json.loads(text)
        items.extend(("free", name, c, b, doc) for b in bounds)
    return items


def run_pass(items):
    """[seconds, result] per item, each call timed on its own."""
    from slope_atlas import branched

    out = []
    perf = time.perf_counter
    for _, _, c, bound, _ in items:
        t0 = perf()
        result = branched.carried_weight_cone(c, bound)
        out.append((perf() - t0, result))
    return out


def check_pass(items, timed, pinned):
    """(attempted, failed): one operation per call.  A generated complex
    must have no sink disc and carry the fundamental ray; a free one must
    give exactly its pinned systems."""
    failed = 0
    for (family, name, c, bound, extra), (_, result) in zip(items, timed):
        if family == "generated":
            ok = extra == () and check.generated_ok(c, result, bound)
        else:
            count = pinned["free_counts"][f"{name}@{bound}"]
            ok = check.free_ok(extra, result, bound, count)
        failed += not ok
    return len(items), failed


def main(argv):
    with open(argv[0]) as fh:
        spec = json.load(fh)
    items = build(spec)
    if argv[1] == "--setup-only":
        return 0
    timed = run_pass(items)
    attempted, failed = check_pass(items, timed, check.load_pinned())
    with open(argv[1], "w") as fh:
        json.dump({"seconds": sum(t for t, _ in timed), "calls": len(items),
                   "systems": sum(len(r) for _, r in timed),
                   "attempted": attempted, "failed": failed}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
