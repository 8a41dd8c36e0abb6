"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same bytes.  The program under test only ever sees what these functions
produce (a CSV file, a command line, monodromy exponents or complex JSON).
"""

from __future__ import annotations

import itertools
import json
import random

# --- batch -------------------------------------------------------------------
#
# Why: `batch` is the only path through the CLI's thread pool, CSV read and
# write, per-row diagnostics and the summary.  The token mix covers every
# branch of `classify` (zero numerators, infinity, L-space and foliation
# sides, integer and non-integer slopes) and `parse_slope`'s sign handling on
# large fractions.  Valid tokens match `-?\d+(/-?\d+)?|inf` in plain ASCII,
# never with a zero denominator, so a stricter parser that accepts exactly
# that grammar changes no row's outcome.  About 0.5% of rows carry a
# malformed token so that the per-row diagnostic path runs.  The pool makes
# one pass vary by up to 2x on its own, so the file is kept small (a pass
# takes about 0.4 s) and a run averages many passes.

BATCH_ROWS = 5_000
MALFORMED_RATE = 0.005
MALFORMED_TOKENS = ("x", "1/0/2", "", "1.5")
LABELS = ("yes", "no", "unknown", "na")


def _fraction_token(rng, limit):
    p = rng.randint(1, limit)
    q = rng.randint(1, limit)
    form = rng.randrange(4)
    if form == 0:
        return f"{p}/{q}"
    if form == 1:
        return f"-{p}/{q}"
    if form == 2:
        return f"{p}/-{q}"
    return f"-{p}/-{q}"


def slope_token(rng):
    """One valid slope token."""
    r = rng.random()
    if r < 0.30:
        return str(rng.randint(-20, 20))
    if r < 0.35:
        return "inf"
    if r < 0.40:
        return rng.choice(("0", f"0/{rng.randint(1, 50)}",
                           f"0/-{rng.randint(1, 50)}"))
    if r < 0.70:
        return _fraction_token(rng, 20)
    return _fraction_token(rng, 10**6)


def batch_csv(seed, rows=BATCH_ROWS):
    """CSV text with header id,s1,s2,label and the 1-based line numbers of
    the malformed rows."""
    rng = random.Random(f"batch-{seed}")
    lines = ["id,s1,s2,label"]
    malformed = []
    for i in range(rows):
        s1, s2 = slope_token(rng), slope_token(rng)
        if rng.random() < MALFORMED_RATE:
            bad = rng.choice(MALFORMED_TOKENS)
            if rng.random() < 0.5:
                s1 = bad
            else:
                s2 = bad
            malformed.append(len(lines) + 1)
        lines.append(f"r{i},{s1},{s2},{rng.choice(LABELS)}")
    return "\n".join(lines) + "\n", malformed


# --- plot --------------------------------------------------------------------
#
# Why: `plot` runs serial `classify` on small slopes with no pool, and its SVG
# form is the only user of the exact `Fraction` coordinate renderer, so the
# two formats are separate workloads.  The grids are fixed so that the TSV
# and SVG digests can be pinned; the seed has nothing to vary here.  The SVG
# grid (183 slopes) is smaller than the TSV one (319 slopes, 101,761 pairs),
# because a full-size SVG process takes about 4 s and too few of them fit in
# one run to give a steady mean.

PLOT_BOUNDS = {"tsv": (-16, 16, 1, 16), "svg": (-12, 12, 1, 12)}


# --- cones -------------------------------------------------------------------
#
# Why (generated): the weight-cone search on the complexes built for real
# monodromies is search-bound with tiny output (the fundamental ray), which
# is what an exact-cone rewrite speeds up.  Every k from 1 to 5 gets ten
# monodromies (145 complexes in all, about 2 s of search per pass, so that a
# run holds enough passes for a steady mean), each with fixed |a_0| and
# |a_i|; the seed picks the signs.  The signs change the boundary labels and
# orientations but not the shape of the complexes (both orientations are
# always built), so every seed costs the same search; shuffling the twists
# instead moved the search time by about 15% from seed to seed.
#
# Why (free): hand-written complexes whose switches leave sectors
# unconstrained are output-bound (tens of thousands of systems); a rewrite
# that finds the cone fast but enumerates its lattice points slowly shows
# here.  The seed renames and reorders sectors and swaps small sides, which
# leaves every system count unchanged.

CONE_BOUND = 4
CONES_PER_K = 10
MAX_TWIST = 6
A0_VALUES = (-3, -2, -1, 0, 1, 2, 3)


def generated_monodromies(seed, per_k=CONES_PER_K):
    """[(a0, (a1, ..., ak)), ...] with k = 1..5, |a_i| <= 6, |a0| <= 3."""
    rng = random.Random(f"cones-generated-{seed}")
    out = []
    for k in range(1, 6):
        for j in range(per_k):
            mags = [1 + (j + 5 * i) % MAX_TWIST for i in range(k)]
            twists = tuple(m if rng.random() < 0.5 else -m for m in mags)
            a0 = A0_VALUES[j % len(A0_VALUES)]
            out.append((a0 if rng.random() < 0.5 else -a0, twists))
    return out


# Hand-built free complexes: (name, sector count, switches, bounds).  Each
# switch is (big, small_a, small_b) over sector indices; a repeated small
# side means big = 2 * small.  Sectors that no switch names are free.  The
# first sector is written as a boundary half disc, the rest as discs.
FREE_COMPLEXES = (
    ("eight-one", 8, ((0, 1, 2),), (2, 3, 4)),
    ("eight-double", 8, ((0, 1, 1),), (3, 4)),
)


def system_count(n, switches, bound):
    """Brute-force number of weight systems, the source of the pinned
    free-family counts."""
    total = 0
    for w in itertools.product(range(bound + 1), repeat=n):
        if all(w[b] == w[x] + w[y] for b, x, y in switches):
            total += 1
    return total


def free_complexes(seed):
    """[(name, complex JSON text, bounds), ...] for the free family."""
    rng = random.Random(f"cones-free-{seed}")
    out = []
    for name, n, switches, bounds in FREE_COMPLEXES:
        ids = [f"F{j}" for j in rng.sample(range(100), n)]
        order = list(range(n))
        rng.shuffle(order)
        sectors = [{"id": ids[j], "kind": "half_disc" if j == 0 else "disc",
                    "meets_boundary": j == 0} for j in order]
        arcs = []
        for a, (big, x, y) in enumerate(switches):
            if rng.random() < 0.5:
                x, y = y, x
            arcs.append({"id": f"E{a}", "big": ids[big], "a": ids[x],
                         "b": ids[y]})
        doc = {"sectors": sectors, "arcs": arcs}
        out.append((name, json.dumps(doc, sort_keys=True), bounds))
    return out
