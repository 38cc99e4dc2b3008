"""The integer analysis kernels against independent oracles.

Ind(c) must equal ``interlacement_index``, a count read off the raw
Gauss code with no arc labels.  The oracle writhe table of a diagram is
built from that count and the signs alone, so it shares no code with the
kernel.  On the table codes and on random diagrams, the walk and the
lane pass, each called directly whatever the size, must give the dJ
table rows of the oracle tables of the validated smoothed diagrams
``d.smooth(c)``, also on codes whose indices pass one byte, where the
two kernels give equal reports.  On either side of ``_LANE_MIN`` the
two kernels, and the reports ``f_sequence`` builds from each, agree.
The ``FReport`` views T_n and ``smoothed_row(n)``, read from the one
dJ_n(D_c) table, must equal the dwrithes of those oracle tables for
every n, and F^n must equal its defining sum over the crossings, built
from the oracle indices, dJ values and T_n.  A planted fault, a walk
that smooths along the other segment (``other_segment``: its rows
negated), must fail the table check.  The traced peak of one
``f_sequence`` at 2048 crossings is bounded.

Read from the one pass of ``test_universe.sweep`` over every code with
at most three crossings: both kernels against the oracle's dJ table;
every R1-, R2- and R3 neighbour keeps the F-fingerprint (the R3 ones
under the "r3" check) and the neighbours are ``MOVE_DIGESTS``; control
moves, which are not Reidemeister moves, change the fingerprint as
often as ``CONTROL_MOVE_COUNTS`` says, so the move check can fail.
"""

import tracemalloc

import pytest
from hypothesis import given, settings

import vknot.invariants
from conftest import (
    assert_kernels_match_oracle,
    diagrams,
    dj_table,
    f_by_definition,
    interlacement_index,
    map_terms,
    other_segment,
    random_code,
    smoothed_writhes,
    writhe_table,
)
from test_universe import CONTROL_MOVE_COUNTS, MOVE_DIGESTS, control_totals, sweep
from vknot.gauss import Diagram, parse_gauss
from vknot.invariants import _lane_table, _walk_table, f_sequence
from vknot.table import Verdict, verify_record


def dj(table: dict[int, int], n: int) -> int:
    return table.get(n, 0) - table.get(-n, 0)


def test_kernel_matches_oracle_on_table(table_records):
    for record in table_records:
        d = record.diagram
        for variant in (d, d.reverse(), d.mirror()):
            assert_kernels_match_oracle(variant)


@pytest.mark.parametrize("seed", range(24))
def test_kernel_matches_oracle_on_random_diagrams(seed):
    # 24 sizes spread over 1..64, both ends included.
    assert_kernels_match_oracle(parse_gauss(random_code(1 + (seed * 37) % 64, seed)))


@settings(max_examples=150, deadline=None)
@given(diagrams(max_crossings=8))
def test_kernel_matches_oracle_property(d):
    assert_kernels_match_oracle(d)


@pytest.mark.parametrize("code", ["O1+ U1+", "U1- O1-"])
def test_kernel_kink_smooths_to_empty_word(code):
    d = parse_gauss(code)
    assert smoothed_writhes(d) == {"1": {}}
    assert _walk_table(d) == _lane_table(d) == []
    assert f_sequence(d).smoothed_dj == ((0,),)


@pytest.mark.parametrize(
    "code",
    [
        "O2+ U1- O1- U3+ O3+ U2+",  # U1 directly before O1
        "O1+ U2- O2- U1+",  # U1 last and O1 first: S empty across the wrap
    ],
)
def test_kernel_adjacent_under_over_passes(code):
    assert_kernels_match_oracle(parse_gauss(code))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_matches_oracle_on_every_small_code(m):
    assert sweep(m).faults["kernel"] == []


@pytest.mark.parametrize("m", [1, 2, 3])
def test_moves_keep_fingerprint_on_every_small_code(m):
    # The R3 moves are analysed, with every other R3 candidate, by the
    # "r3" check.
    s = sweep(m)
    assert s.faults["moves"] == s.faults["r3"] == []
    assert s.moves == MOVE_DIGESTS[m]


def test_control_moves_change_fingerprint_on_every_small_code():
    assert sweep(2).faults["control"] == sweep(3).faults["control"] == []
    assert control_totals(3) == CONTROL_MOVE_COUNTS[3]


def test_kernel_unknot():
    assert smoothed_writhes(parse_gauss("")) == {}
    assert _walk_table(parse_gauss("")) == _lane_table(parse_gauss("")) == []
    assert f_sequence(parse_gauss("")).smoothed_dj == ((),)


# -- wide indices: the lane pass past one byte -----------------------------------------

# Every pair of the n crossings of COMPLETE[n] interlaces, so Ind(k) =
# n + 1 - 2k: with n = 140, n_max = 139, while every smoothing has only
# index 0.  After a kink, the smoothing at the kink keeps the indices of
# the rest: with 127 more crossings its codes reach 255, the last that
# fits the one-byte fold (m = 128), and with 128 more they pass it.
COMPLETE = {n: " ".join([f"O{i}+" for i in range(1, n + 1)] + [f"U{i}+" for i in range(1, n + 1)])
            for n in (127, 128, 140)}
WIDE_CODES = [COMPLETE[140], "O0+ U0+ " + COMPLETE[127], "O0+ U0+ " + COMPLETE[128]]


@pytest.mark.parametrize("code", WIDE_CODES, ids=["complete140", "kink+complete127", "kink+complete128"])
def test_lane_pass_on_wide_indices(code, monkeypatch):
    d = parse_gauss(code)
    lanes = f_sequence(d)
    assert lanes.n_max == {140: 139, 128: 126, 129: 127}[d.n_crossings]
    smoothed = dj_table(smoothed_writhes(d).values())
    assert _lane_table(d) == _walk_table(d) == smoothed
    assert lanes.smoothed_dj == tuple(smoothed) + ((0,) * d.n_crossings,) * (lanes.n_max + 1 - len(smoothed))
    monkeypatch.setattr(vknot.invariants, "_LANE_MIN", d.n_crossings + 1)
    assert f_sequence(d) == lanes  # the walk's report, fingerprint included


# PLATEAU[m]: the passes of crossing 0 side by side at the top of a climb
# of every other crossing, so that in its lane G_c(o_c) + G_c(u_c) reaches
# 2(m-1), the bound of ``_lane_table``: 126 in the one-byte lanes of
# m = 64; at m = 66 one-byte lanes give a wrong table.
PLATEAU = {m: " ".join([f"U{i}+" for i in range(1, m)] + ["O0+ U0+"] + [f"O{i}+" for i in range(1, m)])
           for m in (64, 66)}


@pytest.mark.parametrize("m", [64, 66])
def test_lane_width_bound_is_reached(m):
    assert_kernels_match_oracle(parse_gauss(PLATEAU[m]))


@pytest.mark.parametrize("m", range(1, vknot.invariants._LANE_MIN + 3))
def test_kernels_agree_across_the_crossover(m, monkeypatch):
    # Both kernels' rows, and f_sequence forced onto the lane pass
    # (_LANE_MIN = 0) and onto the walk, with n_max the larger of the
    # diagram's own index bound and the rows.
    for seed in range(6):
        d = parse_gauss(random_code(m, 400 + seed))
        bound = max(map(abs, interlacement_index(d).values()))
        rows = _walk_table(d)
        assert rows == _lane_table(d), (m, seed)
        monkeypatch.setattr(vknot.invariants, "_LANE_MIN", 0)
        lanes = f_sequence(d)
        assert lanes.n_max == max(bound, len(rows)), (m, seed)
        monkeypatch.setattr(vknot.invariants, "_LANE_MIN", m + 1)
        assert f_sequence(d) == lanes, (m, seed)


def assert_lane_pass_matches_walk(sizes=(128, 256, 512), seeds=range(1, 4)) -> None:
    """The lane pass against the walk, the dJ table rows, on seeded
    random codes of each size and on ``WIDE_CODES``.  The oracle tests
    stop at 64 crossings; CI runs this on the two-byte lanes of 65, 96
    and 127 crossings, past the one-byte fold at 128, and with 200 seeds
    at each size from 6 to 16, across ``_LANE_MIN``."""
    for code in [random_code(m, seed) for m in sizes for seed in seeds] + WIDE_CODES:
        d = parse_gauss(code)
        assert _lane_table(d) == _walk_table(d), (d.n_crossings, code[:40])


def test_lane_pass_peak_memory_at_2048_crossings():
    # Above 128 crossings the lane pass reads its m^2 codes as one array
    # of machine ints.  Traced peak of this f_sequence on CPython 3.11:
    # 99.6 MB, against 124.2 MB when the codes were a tuple of Python
    # ints; the bound is 10% above the new peak.
    d = parse_gauss(random_code(2048, 0))
    tracemalloc.start()
    try:
        f_sequence(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 110_000_000, peak


# -- views of the dJ_n(D_c) table ----------------------------------------------------


def assert_views_match_smoothings(d: Diagram) -> None:
    report = f_sequence(d)
    writhes, smoothed, ind = writhe_table(d), smoothed_writhes(d), interlacement_index(d)
    # Two past the table's last row (n_max+1), which every view reads as zeros.
    for n in range(1, report.n_max + 4):
        d_n = dj(writhes, n)
        dc = {c: dj(table, n) for c, table in smoothed.items()}
        t_n = {c for c in dc if abs(dc[c]) == abs(d_n)}
        assert report.t_set(n) == t_n, (str(d), n)
        assert report.index.keys() == dc.keys(), str(d)
        assert report.smoothed_row(n) == tuple(dc[c] for c in report.index), (str(d), n)
        assert report.f_at(n) == f_by_definition([(d.sign(c), ind[c], dc[c]) for c in dc], d_n), (str(d), n)


def test_views_match_smoothings_on_table(table_records):
    for record in table_records:
        assert_views_match_smoothings(record.diagram)


@pytest.mark.parametrize("seed", range(12))
def test_views_match_smoothings_on_random_diagrams(seed):
    assert_views_match_smoothings(parse_gauss(random_code(4 + 3 * seed, 100 + seed)))


# -- Ind(c) from the raw Gauss code ------------------------------------------------


def test_index_oracle_on_table(table_records):
    for record in table_records:
        d = record.diagram
        for variant in (d, d.reverse(), d.mirror()):
            assert f_sequence(variant).index == interlacement_index(variant), record.name


@pytest.mark.parametrize("m", [1, *range(4, 65, 4)])
def test_index_oracle_on_random_diagrams(m):
    d = parse_gauss(random_code(m, 200 + m))
    assert f_sequence(d).index == interlacement_index(d)


@settings(max_examples=200, deadline=None)
@given(diagrams(max_crossings=10))
def test_index_oracle_property(d):
    assert f_sequence(d).index == interlacement_index(d)


# -- a planted fault: the other smoothing segment ------------------------------------


other_segment_walk = other_segment(_walk_table)


def obeys_reversal_law(d: Diagram) -> bool:
    """F^n(reverse D)(t, l) = F^n(D)(t^-1, l^-1) for every n."""
    fwd, rev = f_sequence(d), f_sequence(d.reverse())
    return all(
        rev.f_at(n) == map_terms(fwd.f_at(n), lambda et, el, c: (-et, -el, c))
        for n in range(1, max(fwd.n_max, rev.n_max) + 2)
    )


def test_table_rejects_the_other_smoothing_segment(table_records, monkeypatch):
    # The other segment smooths to a diagram whose F agrees with the table
    # exactly on the knots that obey the reversal law; the other 48 fail.
    monkeypatch.setattr(vknot.invariants, "_walk_table", other_segment_walk)
    verdicts = [verify_record(record) for record in table_records]
    monkeypatch.undo()
    statuses = [v.status for v in verdicts]
    assert [statuses.count(s) for s in Verdict] == [68, 13, 35]
    exact = [v.name for v in verdicts if v.status is Verdict.EXACT_MATCH]
    assert exact == [r.name for r in table_records if obeys_reversal_law(r.diagram)]
