"""Branch complexes: construction, sink scans, carried weight systems."""

from __future__ import annotations

import copy
import gc
import itertools
import json
import math
import operator
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slope_atlas import branched, monodromy
from slope_atlas.branched import (
    BranchArc,
    BranchComplex,
    Sector,
    SectorKind,
    WeightSystem,
    build_coherent_arc_complex,
    build_parallel_arc_complex,
    carried_weight_cone,
    complexes_for,
    detect_sink_discs,
    fundamental_ray,
    isolated_sectors,
)
from slope_atlas.monodromy import Monodromy, coherent_orientations


# ---------------------------------------------------------------------------
# Independent oracles.
# ---------------------------------------------------------------------------

def check_weights(c, weights):
    """Whether a sector-id -> weight mapping solves every switch equation
    with nonnegative values."""
    if set(weights) != set(c.sector_ids()):
        return False
    if any(w < 0 for w in weights.values()):
        return False
    return all(weights[a.big] == weights[a.small_a] + weights[a.small_b]
               for a in c.arcs)


def weight_cone_oracle(c, bound):
    """Enumerate every bounded assignment directly; only usable on small
    complexes."""
    ids = c.sector_ids()
    out = []
    for combo in itertools.product(range(bound + 1), repeat=len(ids)):
        weights = dict(zip(ids, combo))
        if check_weights(c, weights):
            out.append(tuple((sid, weights[sid]) for sid in ids))
    return tuple(WeightSystem(ws)
                 for ws in sorted(out, key=lambda ws: tuple(w for _, w in ws)))


def _product_cone(c, bound):
    """The row-reduced search that the pruned one replaced, kept as a
    reference: the switch equations are row-reduced over the rationals and
    every free assignment in 0..bound is tried in full."""
    order = c.sector_ids()
    col = {sid: j for j, sid in enumerate(order)}
    reduced = {}   # pivot column -> row {column: coefficient}, pivot 1
    for a in c.arcs:
        row = {}
        for sid, sign in ((a.big, 1), (a.small_a, -1), (a.small_b, -1)):
            row[col[sid]] = row.get(col[sid], 0) + sign
        for j, prow in reduced.items():
            if row.get(j):
                _add_multiple(row, prow, -row[j])
        row = {j: v for j, v in row.items() if v}
        if not row:
            continue
        pivot = max(row)
        lead = row[pivot]
        # Rows led by +-1 stay integral; others need exact division.
        row = {j: v * lead if abs(lead) == 1 else Fraction(v) / lead
               for j, v in row.items()}
        for prow in reduced.values():
            if prow.get(pivot):
                _add_multiple(prow, row, -prow[pivot])
        reduced[pivot] = row
    free = [j for j in range(len(order)) if j not in reduced]
    # d * w[pivot] = sum(coeffs[i] * w[free[i]]) in integers.
    solved = []
    for pivot, row in reduced.items():
        d = math.lcm(*(v.denominator for v in row.values()))
        solved.append((pivot, d, [int(-row.get(f, 0) * d) for f in free]))
    out = []
    for point in itertools.product(range(bound + 1), repeat=len(free)):
        w = [0] * len(order)
        for f, v in zip(free, point):
            w[f] = v
        for pivot, d, coeffs in solved:
            q, r = divmod(sum(map(operator.mul, coeffs, point)), d)
            if r or not 0 <= q <= bound:
                break
            w[pivot] = q
        else:
            out.append(tuple(w))
    out.sort()
    return tuple(WeightSystem(tuple(zip(order, w))) for w in out)


def _add_multiple(row, prow, factor):
    """row += factor * prow, in place."""
    for j, v in prow.items():
        row[j] = row.get(j, 0) + factor * v


def sink_oracle(c):
    """Definition-level scan: a sector every incident arc points into."""
    out = []
    for s in c.sectors:
        incident = [a for a in c.arcs
                    if s.id in (a.big, a.small_a, a.small_b)]
        if not incident:
            continue
        if all(a.big == s.id and s.id not in (a.small_a, a.small_b)
               for a in incident):
            out.append(s.id)
    return tuple(out)


def flip_arc(c, arc_id, promote):
    """Swap the big side of one arc with the named small side."""
    new_arcs = []
    for a in c.arcs:
        if a.id != arc_id:
            new_arcs.append(a)
        elif a.small_a == promote:
            new_arcs.append(BranchArc(a.id, promote, a.big, a.small_b))
        else:
            assert a.small_b == promote
            new_arcs.append(BranchArc(a.id, promote, a.small_a, a.big))
    return BranchComplex(c.sectors, tuple(new_arcs))


def _plain_complex(ids, *switches):
    """Disc sectors named by the characters of ``ids``; one arc per
    (big, small_a, small_b) switch."""
    return BranchComplex(
        tuple(Sector(sid, SectorKind.DISC, False) for sid in ids),
        tuple(BranchArc(f"C{i}", *sw) for i, sw in enumerate(switches)))


def _assert_ids_shared(cone):
    """Every system of one result holds the one ids tuple of the call, and
    its values are its weights in sector order."""
    for ws in cone:
        assert ws.ids is cone[0].ids
        assert ws.values == tuple(w for _, w in ws.weights)


def _arc_map(c):
    return {a.id: a for a in c.arcs}


# ---------------------------------------------------------------------------
# Parallel-arc construction.
# ---------------------------------------------------------------------------

def test_parallel_structure_frozen_small():
    c = build_parallel_arc_complex(Monodromy(1, (1, -1)))
    assert c.sector_ids() == ("D1", "D2", "A1S1", "A1S2", "A2S1", "A2S2")
    assert len(c.arcs) == 6
    arcs = _arc_map(c)
    assert arcs["A1E1"] == BranchArc("A1E1", "A1S2", "A1S1", "D1")
    assert arcs["A1E2"] == BranchArc("A1E2", "A1S1", "A1S2", "D2")
    assert arcs["X1"] == BranchArc("X1", "A1S1", "A2S2", "D1")
    assert arcs["X2"] == BranchArc("X2", "A2S1", "A1S2", "D2")
    sectors = {s.id: s for s in c.sectors}
    assert sectors["D1"].kind is SectorKind.HALF_DISC
    assert sectors["D1"].meets_boundary
    assert sectors["A1S1"].kind is SectorKind.DISC
    assert not sectors["A1S1"].meets_boundary
    assert detect_sink_discs(c) == ()


def test_parallel_structure_counts():
    c = build_parallel_arc_complex(Monodromy(2, (1, 1, 1)))
    assert len(c.sectors) == 3 + 18
    assert len(c.arcs) == 21
    # one crossing arc per annulus, per-annulus chains of length k|a0|
    assert sum(1 for a in c.arcs if a.id.startswith("X")) == 3


def test_parallel_requires_vertical_twisting():
    with pytest.raises(ValueError):
        build_parallel_arc_complex(Monodromy(0, (1, -1)))


def test_parallel_single_annulus_wraps_onto_itself():
    c = build_parallel_arc_complex(Monodromy(1, (1,)))
    assert c.sector_ids() == ("D1", "A1S1")
    for a in c.arcs:
        assert a.big == "A1S1" and a.small_a == "A1S1" and a.small_b == "D1"
    assert detect_sink_discs(c) == ()
    assert carried_weight_cone(c, 3) == fundamental_ray(c, 3)


def test_parallel_custom_sources_validated():
    m = Monodromy(1, (1, -1))
    with pytest.raises(ValueError):
        build_parallel_arc_complex(m, d_sources=[[1, 2]])
    with pytest.raises(ValueError):
        build_parallel_arc_complex(m, d_sources=[[1], [2]])
    with pytest.raises(ValueError):
        build_parallel_arc_complex(m, d_sources=[[1, 1], [1, 2]])


def test_parallel_random_sources_keep_invariants():
    rng = random.Random(31)
    for _ in range(25):
        k = rng.randint(1, 3)
        a0 = rng.choice((-2, -1, 1, 2))
        m = Monodromy(a0, tuple(rng.choice((-2, -1, 1, 2))
                                for _ in range(k)))
        per = k * abs(a0)
        srcs = []
        for _ in range(k):
            src = list(range(1, k + 1))
            src += [rng.randint(1, k) for _ in range(per - k)]
            rng.shuffle(src)
            srcs.append(src)
        c = build_parallel_arc_complex(m, d_sources=srcs)
        assert detect_sink_discs(c) == ()
        assert isolated_sectors(c) == ()
        assert carried_weight_cone(c, 2) == fundamental_ray(c, 2)


# ---------------------------------------------------------------------------
# Coherent-orientation construction.
# ---------------------------------------------------------------------------

def test_coherent_structure_frozen_example():
    m = Monodromy(1, (5, 10, -5))
    first, second = coherent_orientations(m)
    c = build_coherent_arc_complex(m, first)
    assert len(c.sectors) == 23 and len(c.arcs) == 20
    arcs = _arc_map(c)
    assert arcs["C1"] == BranchArc("C1", "S2", "S1", "D1")
    assert arcs["C5"] == BranchArc("C5", "S6", "S5", "D1")
    assert arcs["C6"] == BranchArc("C6", "S7", "S6", "D2")
    assert arcs["C20"] == BranchArc("C20", "S1", "S20", "D3")
    rev = build_coherent_arc_complex(m, second)
    assert _arc_map(rev)["C1"] == BranchArc("C1", "S1", "S2", "D1")
    assert detect_sink_discs(c) == () and detect_sink_discs(rev) == ()


def test_coherent_rejects_foreign_orientation():
    m = Monodromy(1, (5, 10, -5))
    other = coherent_orientations(Monodromy(1, (1, -1)))[0]
    with pytest.raises(ValueError):
        build_coherent_arc_complex(m, other)


def test_coherent_custom_sources_validated():
    m = Monodromy(1, (1, -1))
    o = coherent_orientations(m)[0]
    with pytest.raises(ValueError):
        build_coherent_arc_complex(m, o, sources=[1])
    with pytest.raises(ValueError):
        build_coherent_arc_complex(m, o, sources=[1, 1])
    c = build_coherent_arc_complex(m, o, sources=[2, 1])
    assert _arc_map(c)["C1"].small_b == "D2"
    assert carried_weight_cone(c, 2) == fundamental_ray(c, 2)


def test_complexes_for_collects_all():
    got = complexes_for(Monodromy(1, (1, -1)))
    assert set(got) == {"parallel", "coherent", "coherent_reversed"}
    assert set(complexes_for(Monodromy(0, (1, -1)))) == {
        "coherent", "coherent_reversed"}


def test_complexes_for_builds_the_orientations_once(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return coherent_orientations(m)

    # is_coherent looks the function up in monodromy, complexes_for in
    # branched; count both.
    monkeypatch.setattr(monodromy, "coherent_orientations", counted)
    monkeypatch.setattr(branched, "coherent_orientations", counted)
    m = Monodromy(1, (5, 10, -5))
    got = complexes_for(m)
    assert len(calls) == 1
    first, second = coherent_orientations(m)
    assert got["coherent"] == build_coherent_arc_complex(m, first)
    assert got["coherent_reversed"] == build_coherent_arc_complex(m, second)
    assert len(calls) == 3   # the public builder still checks its input


# ---------------------------------------------------------------------------
# Sink detection.
# ---------------------------------------------------------------------------

def test_generated_complexes_have_no_sinks():
    rng = random.Random(33)
    for _ in range(40):
        k = rng.randint(1, 3)
        a0 = rng.randint(-2, 2)
        m = Monodromy(a0, tuple(rng.choice((-2, -1, 1, 2))
                                for _ in range(k)))
        for c in complexes_for(m).values():
            assert detect_sink_discs(c) == ()
            assert sink_oracle(c) == ()
            assert isolated_sectors(c) == ()


def test_mutated_parallel_complex_grows_a_sink():
    c = build_parallel_arc_complex(Monodromy(1, (1, -1)))
    bad = flip_arc(c, "A1E1", "A1S1")
    assert detect_sink_discs(bad) == ("A1S1",)
    assert sink_oracle(bad) == ("A1S1",)


def test_mutated_coherent_complex_grows_a_sink_and_new_weights():
    m = Monodromy(1, (1, -1))
    c = build_coherent_arc_complex(m, coherent_orientations(m)[0])
    assert c.sector_ids() == ("D1", "D2", "S1", "S2")
    assert len(c.arcs) == 2
    bad = flip_arc(c, "C1", "S1")
    assert detect_sink_discs(bad) == ("S1",)
    assert sink_oracle(bad) == ("S1",)
    # the broken chain stops pinning the vertical weights to zero
    cone = carried_weight_cone(bad, 2)
    assert len(cone) == 6
    for ws in fundamental_ray(bad, 2):
        assert ws in cone
    assert any(dict(ws.weights)["D1"] > 0 for ws in cone)
    assert cone == weight_cone_oracle(bad, 2)


def test_detector_agrees_with_oracle_on_random_mutations():
    rng = random.Random(34)
    for _ in range(60):
        k = rng.randint(1, 3)
        a0 = rng.choice((-2, -1, 1, 2))
        m = Monodromy(a0, tuple(rng.choice((-2, -1, 1, 2))
                                for _ in range(k)))
        c = rng.choice(list(complexes_for(m).values()))
        arc = rng.choice(c.arcs)
        promote = rng.choice((arc.small_a, arc.small_b))
        if promote == arc.big:
            continue
        bad = flip_arc(c, arc.id, promote)
        assert detect_sink_discs(bad) == sink_oracle(bad)


def test_half_sink_detection():
    sectors = (Sector("D1", SectorKind.HALF_DISC, True),
               Sector("S1", SectorKind.DISC, False))
    c = BranchComplex(sectors, (BranchArc("C1", "D1", "S1", "S1"),))
    assert detect_sink_discs(c) == ("D1",)
    assert sink_oracle(c) == ("D1",)


def test_isolated_sector_reported_separately():
    sectors = (Sector("D1", SectorKind.HALF_DISC, True),
               Sector("S1", SectorKind.DISC, False),
               Sector("S2", SectorKind.DISC, False),
               Sector("Z", SectorKind.DISC, False))
    arcs = (BranchArc("C1", "S1", "S2", "D1"),)
    c = BranchComplex(sectors, arcs)
    assert isolated_sectors(c) == ("Z",)
    assert detect_sink_discs(c) == ("S1",)


# ---------------------------------------------------------------------------
# Weight systems.
# ---------------------------------------------------------------------------

def test_weight_cone_matches_oracle_small():
    cases = [
        build_parallel_arc_complex(Monodromy(1, (1, -1))),
        build_parallel_arc_complex(Monodromy(2, (1,))),
        build_parallel_arc_complex(Monodromy(-1, (2,))),
    ]
    m = Monodromy(1, (1, -1))
    for o in coherent_orientations(m):
        cases.append(build_coherent_arc_complex(m, o))
    for c in cases:
        for bound in (0, 1, 2):
            got = carried_weight_cone(c, bound)
            assert got == weight_cone_oracle(c, bound)
            assert got == fundamental_ray(c, bound)
    # Complexes whose row-reduced pivots can come out non-integral or
    # negative, which the generated complexes never produce.
    coherent = build_coherent_arc_complex(m, coherent_orientations(m)[0])
    degenerate = [
        flip_arc(coherent, "C1", "S1"),
        _plain_complex("AB", ("A", "B", "B")),              # B = A/2
        _plain_complex("ABC", ("A", "B", "B"), ("B", "C", "C")),
        _plain_complex("ABC", ("A", "B", "B"), ("C", "A", "B")),
        _plain_complex("ABC", ("A", "A", "B"), ("C", "B", "A")),
        _plain_complex("ABCZ", ("C", "A", "B")),            # Z is unnamed
        _plain_complex("ABCDEF", ("A", "B", "C"), ("D", "E", "F")),
    ]
    for c in degenerate:
        for bound in (0, 1, 2, 3):
            assert carried_weight_cone(c, bound) == weight_cone_oracle(c, bound)


def _generated_monodromies():
    """Ten seeded monodromies for each k = 1..5, with |a_i| <= 6 and
    |a_0| <= 3; the magnitudes 1 and 6 and every a_0 appear for each k."""
    rng = random.Random(35)
    out = []
    for k in range(1, 6):
        for j in range(10):
            mags = [1 + (j + i) % 6 if j < 6 else rng.randint(1, 6)
                    for i in range(k)]
            out.append(Monodromy(rng.choice((-1, 1)) * (j % 4),
                                 tuple(rng.choice((-1, 1)) * a
                                       for a in mags)))
    return out


def test_weight_cone_matches_product_search_on_generated_family():
    monodromies = _generated_monodromies()
    assert {m.a0 for m in monodromies} == set(range(-3, 4))
    for m in monodromies:
        for c in complexes_for(m).values():
            for bound in range(5):
                cone = carried_weight_cone(c, bound)
                assert cone == _product_cone(c, bound)
                _assert_ids_shared(cone)


def test_weight_cone_matches_product_search_on_free_complexes():
    # The two free shapes of the benchmark: 5^7 free assignments at bound
    # 4, beyond the reach of the random-complex property below.
    ids = "ABCDEFGH"
    for switch in (("A", "B", "C"), ("A", "B", "B")):
        c = _plain_complex(ids, switch)
        for bound in range(5):
            cone = carried_weight_cone(c, bound)
            assert cone == _product_cone(c, bound)
            _assert_ids_shared(cone)


def test_weight_cone_shares_ids_in_every_free_layout():
    # Every placement of the switch's sectors among 8 columns, at bound 2.
    # The pivot is the largest of its columns and completes at the next
    # largest, so the layouts include a pivot before the last free column
    # (A = B + C), a pivot as the last column (A = B + H), a pivot that
    # completes at depth 0 (B = 2A), and a row on the last free column
    # (G = A + H, H = 2G).  With the count, the switch check and the strict
    # order, each result is exactly the cone.
    ids = "ABCDEFGH"
    layouts = [(big, a, b) for big, a, b in itertools.permutations(ids, 3)
               if a < b]
    layouts += [(big, a, a) for big, a in itertools.permutations(ids, 2)]
    for switch in layouts:
        cone = carried_weight_cone(_plain_complex(ids, switch), 2)
        # 6 (a, b) pairs with a + b <= 2, or 2 values of a with 2a <= 2.
        assert len(cone) == 1458, switch
        rows = [tuple(w for _, w in ws.weights) for ws in cone]
        big, a, b = map(ids.index, switch)
        assert all(r[big] == r[a] + r[b] and max(r) <= 2 for r in rows)
        assert all(x < y for x, y in zip(rows, rows[1:])), switch
        _assert_ids_shared(cone)


def test_weight_cone_memory_follows_systems_not_bound():
    # w[i+1] = 2 * w[i] along 20 sectors: at any bound below 2^19 only
    # the zero system remains.  The search keeps no table per sector and
    # value: `table` is the size of one small tuple for each, and the
    # search's peak must stay far below it.
    ids = [f"S{j}" for j in range(20)]
    c = BranchComplex(
        tuple(Sector(sid, SectorKind.DISC, False) for sid in ids),
        tuple(BranchArc(f"C{j}", ids[j + 1], ids[j], ids[j])
              for j in range(19)))
    bound = 2000
    table = len(ids) * (bound + 1) * sys.getsizeof(("S0", bound))
    tracemalloc.start()
    try:
        cone = carried_weight_cone(c, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cone == (WeightSystem(tuple((sid, 0) for sid in ids)),)
    assert peak < table // 20


def test_weight_cone_keeps_the_collector_state(monkeypatch):
    c = _plain_complex("ABCDEFGH", ("A", "B", "C"))
    assert gc.isenabled()
    carried_weight_cone(c, 1)
    assert gc.isenabled()
    gc.disable()
    try:
        carried_weight_cone(c, 1)
        assert not gc.isenabled()
    finally:
        gc.enable()

    def failing(ws, values):
        raise RuntimeError("no system")

    # The search sets each system's slots itself, so the failure goes there.
    monkeypatch.setattr(branched, "_set_values", failing)
    with pytest.raises(RuntimeError, match="no system"):
        carried_weight_cone(c, 1)
    assert gc.isenabled()


def test_weight_cone_systems_meet_the_record_contract():
    # The search allocates its systems without WeightSystem.__init__, so
    # they must still meet the contract of test_value_class_contract.
    cone = carried_weight_cone(_plain_complex("ABCDEFGH", ("A", "B", "C")), 2)
    assert len(cone) == 1458
    for ws in cone:
        made = WeightSystem(ws.weights)
        assert type(ws) is WeightSystem
        assert ws == made and not ws != made
        assert hash(ws) == hash(made) == hash((ws.weights,))
        assert repr(ws) == repr(made) == (
            f"WeightSystem(weights={ws.weights!r})")
        assert ws != ws.weights and sys.getsizeof(ws) == sys.getsizeof(made)
    for ws in (cone[0], cone[729], cone[-1]):
        with pytest.raises(AttributeError):
            ws.weights = ws.weights
        with pytest.raises(AttributeError):
            del ws.weights
        for clone in (pickle.loads(pickle.dumps(ws)), copy.copy(ws),
                      copy.deepcopy(ws)):
            assert type(clone) is WeightSystem and clone == ws
            assert repr(clone) == repr(ws)


@pytest.mark.parametrize("wrap", [tuple, list, iter],
                         ids=["tuple", "list", "iterator"])
def test_weight_system_stores_ids_and_values_apart(wrap):
    pairs = (("A", 1), ("B", 0), ("C", 1))
    ws = WeightSystem(wrap([wrap(p) for p in pairs]))
    assert ws.ids == ("A", "B", "C") and ws.values == (1, 0, 1)
    assert ws.weights == pairs and ws == WeightSystem(pairs)
    for bad in (("A", 1, 2), ("A",)):
        with pytest.raises(ValueError):
            WeightSystem(wrap([wrap(("B", 0)), wrap(bad)]))


def test_weight_cone_runs_no_collection():
    # 46,875 systems at bound 4; with the collector running, their
    # allocations start a young collection every few hundred.
    c = _plain_complex("ABCDEFGH", ("A", "B", "C"))
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        cone = carried_weight_cone(c, 4)
    finally:
        gc.callbacks.remove(count)
    assert len(cone) == 46875
    assert starts == []


_IDS = "ABCDEFG"


@st.composite
def _small_complexes(draw):
    """Up to 7 disc sectors and 5 switches over them: small sides may
    repeat or equal the big side, and unnamed sectors stay isolated."""
    ids = _IDS[:draw(st.integers(1, len(_IDS)))]
    side = st.sampled_from(ids)
    switches = draw(st.lists(st.tuples(side, side, side), max_size=5))
    return _plain_complex(ids, *switches)


@settings(max_examples=150, deadline=None)
@given(_small_complexes(), st.integers(0, 3))
@example(_plain_complex("AB", ("A", "B", "B")), 3)        # pivot 2
@example(_plain_complex("ABC", ("A", "B", "B"), ("B", "C", "C")), 3)
@example(_plain_complex("ABC", ("A", "A", "B"), ("C", "B", "A")), 3)
@example(_plain_complex("ABCD", ("C", "A", "B")), 2)      # D isolated
@example(_plain_complex("ABCD", ("D", "C", "C"), ("D", "A", "B")), 2)
@example(_plain_complex("ABC", ("A", "A", "A"), ("B", "C", "B")), 2)
@example(_plain_complex("ABC", ("C", "A", "B"), ("A", "B", "B")), 3)
@example(_plain_complex("ABC", ("C", "A", "A"), ("C", "B", "B")), 3)
@example(_plain_complex("ABCD", ("D", "A", "C"), ("D", "B", "C")), 3)
@example(_plain_complex("A", ("A", "A", "A")), 2)         # no free sector
def test_weight_cone_matches_oracle_on_random_complexes(c, bound):
    # The examples give pivots 2 and 4, big == small_a, an isolated sector,
    # a sector pinned to 0, and 2C = A + B, whose parity is settled only
    # once both A and B are set.  The last three force the rare elimination
    # paths: 2B = A back-substituted into C = A + B scales that row to
    # 2C = 3A; C = 2A and C = 2B leave 2A = 2B, divided by 2; and D = B + C
    # reduced by D = A + C cancels C as well as D, so A = B gets pivot B.
    # A = A + A pins its only sector to 0, so no sector is free.
    cone = carried_weight_cone(c, bound)
    assert cone == weight_cone_oracle(c, bound)
    _assert_ids_shared(cone)


def test_weight_cone_of_many_isolated_sectors_at_bound_zero():
    # Every sector is free; the search must not recurse once per sector.
    ids = [f"Z{j}" for j in range(1200)]
    c = BranchComplex(tuple(Sector(sid, SectorKind.DISC, False)
                            for sid in ids), ())
    zero = WeightSystem(tuple((sid, 0) for sid in ids))
    assert carried_weight_cone(c, 0) == (zero,)


def test_weight_cone_frozen_example():
    c = build_parallel_arc_complex(Monodromy(1, (1, -1)))
    cone = carried_weight_cone(c, 3)
    assert len(cone) == 4
    for t, ws in enumerate(cone):
        table = dict(ws.weights)
        assert table["D1"] == 0 and table["D2"] == 0
        assert table["A1S1"] == table["A2S2"] == t


def test_weight_cone_large_case_still_pure_ray():
    m = Monodromy(1, (5, 10, -5))
    c = build_coherent_arc_complex(m, coherent_orientations(m)[0])
    cone = carried_weight_cone(c, 2)
    assert cone == fundamental_ray(c, 2)
    assert len(cone) == 3
    # Five free sectors each: 101^5 full assignments per coherent complex.
    for m in (Monodromy(2, (-6, -5, 4, -3, -2)),
              Monodromy(3, (-1, 6, -5, 4, 3))):
        for c in complexes_for(m).values():
            assert carried_weight_cone(c, 100) == fundamental_ray(c, 100)


def test_weight_cone_monotone_in_bound():
    c = build_parallel_arc_complex(Monodromy(1, (1, -1)))
    small = set(carried_weight_cone(c, 1))
    big = set(carried_weight_cone(c, 2))
    assert small <= big


def test_weight_cone_rejects_negative_bound():
    c = build_parallel_arc_complex(Monodromy(1, (1,)))
    with pytest.raises(ValueError):
        carried_weight_cone(c, -1)


def test_weight_cone_rejects_non_int_bound():
    # A float bound is never equal to an integer weight, so the search
    # would count up without end; the check must come before it.  The
    # reference ray takes its bound on the same terms.
    c = _plain_complex("AB", ("A", "B", "B"))
    for cone in (carried_weight_cone, fundamental_ray):
        for bound in (2.5, True, Fraction(3), "3", -1):
            with pytest.raises(ValueError, match="nonnegative int"):
                cone(c, bound)


def test_solutions_verify_and_check_weights_rejects_bad():
    c = build_parallel_arc_complex(Monodromy(1, (1, -1)))
    for ws in carried_weight_cone(c, 3):
        table = dict(ws.weights)
        for a in c.arcs:
            assert table[a.big] == table[a.small_a] + table[a.small_b]
    good = dict.fromkeys(c.sector_ids(), 0)
    assert check_weights(c, good)
    assert not check_weights(c, {**good, "A1S1": 1})
    assert not check_weights(c, {sid: -1 for sid in c.sector_ids()})
    assert not check_weights(c, {"D1": 0})


def test_weight_system_lookup():
    c = build_parallel_arc_complex(Monodromy(3, (-1, 6, -5, 4, 3)))
    ws = carried_weight_cone(c, 2)[2]
    table = dict(ws.weights)
    assert len(table) == 80 and set(table) == set(c.sector_ids())
    clone = WeightSystem(ws.weights)
    assert clone == ws and hash(clone) == hash(ws) and repr(clone) == repr(ws)


def test_fundamental_ray_shape():
    c = build_parallel_arc_complex(Monodromy(1, (1, -1)))
    ray = fundamental_ray(c, 3)
    assert len(ray) == 4
    assert dict(ray[0].weights) == dict.fromkeys(c.sector_ids(), 0)
    last = dict(ray[3].weights)
    assert last["A2S1"] == 3 and last["D2"] == 0


# ---------------------------------------------------------------------------
# Serialization and validation.
# ---------------------------------------------------------------------------

def test_json_round_trip():
    for m in (Monodromy(1, (1, -1)), Monodromy(2, (1, 1, 1))):
        for c in complexes_for(m).values():
            assert BranchComplex.from_json(c.to_json()) == c
            kinds = [s["kind"] for s in json.loads(c.to_json())["sectors"]]
            assert kinds == [str(s.kind) for s in c.sectors]
    assert [str(kind) for kind in SectorKind] == ["disc", "half_disc"]


_DROP = object()   # as a replacement value: delete the entry instead


def _edited_complex_json(path, value):
    """The JSON of a half disc A and a disc B = 2A, with the entry at
    ``path`` replaced by ``value``."""
    c = BranchComplex((Sector("A", SectorKind.HALF_DISC, True),
                       Sector("B", SectorKind.DISC, False)),
                      (BranchArc("C0", "B", "A", "A"),))
    doc = json.loads(c.to_json())
    *head, key = path
    target = doc
    for step in head:
        target = target[step]
    if value is _DROP:
        del target[key]
    else:
        target[key] = value
    return json.dumps(doc)


@pytest.mark.parametrize("path, value, field", [
    (("sectors", 0, "meets_boundary"), "false", "meets_boundary"),
    (("sectors", 0, "meets_boundary"), 0, "meets_boundary"),
    (("sectors", 0, "meets_boundary"), _DROP, "meets_boundary"),
    (("sectors", 0, "id"), 7, "id"),
    (("sectors", 0, "id"), None, "id"),
    (("sectors", 1, "kind"), ["disc"], "kind"),
    (("sectors", 1, "kind"), "annulus", "SectorKind"),
    (("sectors", 1), "B", "id"),
    (("arcs", 0, "big"), 0, "big"),
    (("arcs", 0, "b"), _DROP, "'b'"),
    (("arcs", 0, "id"), ["C0"], "id"),
    (("arcs", 0), None, "id"),
    (("sectors",), {"A": "disc"}, "sectors"),
    (("arcs",), _DROP, "arcs"),
])
def test_from_json_rejects_a_malformed_field(path, value, field):
    # The first case is the string "false", which bool() reads as True.
    with pytest.raises(ValueError, match=field):
        BranchComplex.from_json(_edited_complex_json(path, value))


def test_from_json_rejects_a_document_that_is_not_an_object():
    for text in ("[]", "3", '"complex"', "null"):
        with pytest.raises(ValueError, match="sectors"):
            BranchComplex.from_json(text)
    with pytest.raises(ValueError):
        BranchComplex.from_json("{")


def test_complex_validation():
    d1 = Sector("D1", SectorKind.HALF_DISC, True)
    s1 = Sector("S1", SectorKind.DISC, False)
    with pytest.raises(ValueError):
        BranchComplex((d1, d1), ())
    with pytest.raises(ValueError):
        BranchComplex((d1, s1), (BranchArc("C1", "S1", "S9", "D1"),))
    with pytest.raises(ValueError):
        BranchComplex((d1, s1), (BranchArc("C1", "S1", "S1", "D1"),
                                 BranchArc("C1", "S1", "S1", "D1")))
    with pytest.raises(ValueError):
        Sector("D9", SectorKind.HALF_DISC, False)
