"""The integer analysis kernels and the analysis built on them against
the engine-free oracle of ``conftest``.

``assert_analysis_matches_oracle`` runs the whole oracle on a diagram
and its ``f_sequence`` report: both kernels' dJ table rows, each called
directly whatever the size, against the oracle tables of the validated
smoothed diagrams ``d.smooth(c)``; Ind(c) against
``interlacement_index``, a count read off the raw Gauss code; J_k, n_max
and the stable tail; the arc labels; and dJ_n, dJ_n(D_c), T_n and F^n by
its definition for every n up to two past the last row.  It runs on the
table codes with their reverses and mirrors, three seeded corpora of
random codes, random diagrams of at most ten crossings, codes whose
indices pass one byte, codes that reach the lane width bound and codes
with adjacent Under and Over passes.  On either side of ``_LANE_MIN``
the reports ``f_sequence`` builds from each kernel agree.  A planted
fault, a walk that smooths along the other segment (``other_segment``:
its rows negated), must fail the table check.  The traced peak of one
``f_sequence`` at 2048 crossings is bounded.

Read from the one pass of ``test_universe.sweep`` over every code with
at most three crossings: the whole oracle, under the "oracle" check;
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
    assert_analysis_matches_oracle,
    diagrams,
    map_terms,
    other_segment,
    random_code,
    smoothed_writhes,
)
from test_universe import CONTROL_MOVE_COUNTS, MOVE_DIGESTS, control_totals, sweep
from vknot.gauss import Diagram, parse_gauss
from vknot.invariants import _lane_table, _walk_table, f_sequence
from vknot.table import Verdict, verify_record


def assert_code_matches_oracle(code: str) -> None:
    """The whole oracle on the diagram of ``code`` and its analysis."""
    d = parse_gauss(code)
    assert_analysis_matches_oracle(d, f_sequence(d))


def test_kernel_matches_oracle_on_table(table_records):
    for record in table_records:
        d = record.diagram
        for variant in (d, d.reverse(), d.mirror()):
            assert_analysis_matches_oracle(variant, f_sequence(variant))


# Three seeded corpora of random codes, 53 (m, seed) pairs in all.
@pytest.mark.parametrize("seed", range(24))
def test_kernel_matches_oracle_on_random_diagrams(seed):
    # 24 sizes spread over 1..64, both ends included.
    assert_code_matches_oracle(random_code(1 + (seed * 37) % 64, seed))


@pytest.mark.parametrize("seed", range(12))
def test_views_match_smoothings_on_random_diagrams(seed):
    assert_code_matches_oracle(random_code(4 + 3 * seed, 100 + seed))


@pytest.mark.parametrize("m", [1, *range(4, 65, 4)])
def test_index_oracle_on_random_diagrams(m):
    assert_code_matches_oracle(random_code(m, 200 + m))


@settings(max_examples=200, deadline=None)
@given(diagrams(max_crossings=10))
def test_kernel_matches_oracle_property(d):
    assert_analysis_matches_oracle(d, f_sequence(d))


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
    assert_code_matches_oracle(code)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_matches_oracle_on_every_small_code(m):
    assert sweep(m).faults["oracle"] == []


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
    assert_analysis_matches_oracle(d, lanes)
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
    assert_code_matches_oracle(PLATEAU[m])


@pytest.mark.parametrize("m", range(1, vknot.invariants._LANE_MIN + 3))
def test_kernels_agree_across_the_crossover(m, monkeypatch):
    # The report of f_sequence forced onto the lane pass (_LANE_MIN = 0)
    # against the oracle, and equal to the one forced onto the walk.
    for seed in range(6):
        d = parse_gauss(random_code(m, 400 + seed))
        monkeypatch.setattr(vknot.invariants, "_LANE_MIN", 0)
        lanes = f_sequence(d)
        assert_analysis_matches_oracle(d, lanes)
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
