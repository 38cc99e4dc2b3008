"""The integer analysis kernel against independent oracles.

Ind(c) must equal ``interlacement_index``, a count read off the raw
Gauss code with no arc labels.  The oracle writhe table of a diagram is
built from that count and the signs alone, so it shares no code with the
kernel.  For every crossing c the kernel's writhe table J_k(D_c), and
the support of all smoothings together, must equal the oracle table of
the validated smoothed diagram ``d.smooth(c)``.  The ``FReport`` views
T_n and the per-crossing reports, read from the one dJ_n(D_c) table,
must equal the dwrithes of those oracle tables for every n.
"""

import pytest
from hypothesis import given, settings

from conftest import diagrams, random_code
from vknot.gauss import Diagram, parse_gauss
from vknot.invariants import _index_table, _smoothed_writhes, _Word, f_sequence


def interlacement_index(d: Diagram) -> dict[str, int]:
    """Ind(c) as the sum over the passes strictly between the Over and the
    Under pass of c, in cyclic order, of s_j for an Over pass and -s_j for
    an Under pass.  Reads only the raw entries: no arc labels."""
    entries = d.entries
    size = len(entries)
    over_at = {e.crossing: i for i, e in enumerate(entries) if e.over}
    under_at = {e.crossing: i for i, e in enumerate(entries) if not e.over}
    ind = {}
    for c, start in over_at.items():
        total = 0
        i = (start + 1) % size
        while i != under_at[c]:
            total += entries[i].sign if entries[i].over else -entries[i].sign
            i = (i + 1) % size
        ind[c] = total
    return ind


def writhe_table(d: Diagram) -> dict[int, int]:
    """J_k(D) for every index value k, from ``interlacement_index`` and the signs."""
    table: dict[int, int] = {}
    for c, k in interlacement_index(d).items():
        table[k] = table.get(k, 0) + d.sign(c)
    return table


def dj(table: dict[int, int], n: int) -> int:
    return table.get(n, 0) - table.get(-n, 0)


def support(writhes: dict[str, dict[int, int]]) -> frozenset[int]:
    return frozenset(abs(k) for table in writhes.values() for k in table if k != 0)


def oracle(d: Diagram) -> tuple[dict[str, dict[int, int]], frozenset[int]]:
    writhes = {c: writhe_table(d.smooth(c)) for c in d.crossings()}
    return writhes, support(writhes)


def kernel(d: Diagram) -> tuple[dict[str, dict[int, int]], frozenset[int]]:
    word = _Word(d)
    writhes = {name: _smoothed_writhes(word, c) for c, name in enumerate(word.ids)}
    return writhes, support(writhes)


def test_kernel_matches_oracle_on_table(table_records):
    for record in table_records:
        d = record.diagram()
        for variant in (d, d.reverse(), d.mirror()):
            assert kernel(variant) == oracle(variant), (record.name, str(variant))


@pytest.mark.parametrize("seed", range(24))
def test_kernel_matches_oracle_on_random_diagrams(seed):
    # 24 sizes spread over 1..64, both ends included.
    d = parse_gauss(random_code(1 + (seed * 37) % 64, seed))
    assert kernel(d) == oracle(d)


@settings(max_examples=150, deadline=None)
@given(diagrams(max_crossings=8))
def test_kernel_matches_oracle_property(d):
    assert kernel(d) == oracle(d)


@pytest.mark.parametrize("code", ["O1+ U1+", "U1- O1-"])
def test_kernel_kink_smooths_to_empty_word(code):
    d = parse_gauss(code)
    assert kernel(d) == oracle(d) == ({"1": {}}, frozenset())


@pytest.mark.parametrize(
    "code",
    [
        "O2+ U1- O1- U3+ O3+ U2+",  # U1 directly before O1
        "O1+ U2- O2- U1+",  # U1 last and O1 first: S empty across the wrap
    ],
)
def test_kernel_adjacent_under_over_passes(code):
    d = parse_gauss(code)
    assert kernel(d) == oracle(d)


def test_kernel_unknot():
    assert kernel(parse_gauss("")) == oracle(parse_gauss("")) == ({}, frozenset())


# -- views of the dJ_n(D_c) table ----------------------------------------------------


def assert_views_match_smoothings(d: Diagram) -> None:
    report = f_sequence(d)
    writhes, smoothed = writhe_table(d), oracle(d)[0]
    # Two past the table's last row (n_max+1), which every view reads as zeros.
    for n in range(1, report.n_max + 4):
        d_n = dj(writhes, n)
        dc = {c: dj(table, n) for c, table in smoothed.items()}
        assert report.t_set(n) == {c for c in dc if abs(dc[c]) == abs(d_n)}, (str(d), n)
        got = {r.crossing: r.smoothed_dwrithe for r in report.crossing_reports([n])}
        assert got == {c: {n: v} for c, v in dc.items()}, (str(d), n)
        assert report.smoothed_row(n) == tuple(dc[c] for c in report.index), (str(d), n)


def test_views_match_smoothings_on_table(table_records):
    for record in table_records:
        assert_views_match_smoothings(record.diagram())


@pytest.mark.parametrize("seed", range(12))
def test_views_match_smoothings_on_random_diagrams(seed):
    assert_views_match_smoothings(parse_gauss(random_code(4 + 3 * seed, 100 + seed)))


# -- Ind(c) from the raw Gauss code ------------------------------------------------


def test_index_oracle_on_table(table_records):
    for record in table_records:
        d = record.diagram()
        for variant in (d, d.reverse(), d.mirror()):
            assert _index_table(variant) == interlacement_index(variant), record.name


@pytest.mark.parametrize("m", [1, *range(4, 65, 4)])
def test_index_oracle_on_random_diagrams(m):
    d = parse_gauss(random_code(m, 200 + m))
    assert _index_table(d) == interlacement_index(d)


@settings(max_examples=200, deadline=None)
@given(diagrams(max_crossings=10))
def test_index_oracle_property(d):
    assert _index_table(d) == interlacement_index(d)
