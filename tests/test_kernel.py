"""The integer smoothing kernel against the ``Diagram.smooth`` oracle.

For every crossing c the kernel's writhe table J_k(D_c), and the support
of all smoothings together, must equal what the validated smoothed
diagram gives: ``_writhe_table(d.smooth(c), _index_table(d.smooth(c)))``.
"""

import pytest
from hypothesis import given, settings

from conftest import diagrams, random_code
from vknot.gauss import Diagram, parse_gauss
from vknot.invariants import _index_table, _smoothed_data, _Word, _writhe_table


def oracle(d: Diagram) -> tuple[dict[str, dict[int, int]], frozenset[int]]:
    writhes = {}
    support: set[int] = set()
    for c in d.crossings():
        smoothed = d.smooth(c)
        ind = _index_table(smoothed)
        writhes[c] = _writhe_table(smoothed, ind)
        support.update(abs(k) for k in ind.values() if k != 0)
    return writhes, frozenset(support)


def kernel(d: Diagram) -> tuple[dict[str, dict[int, int]], frozenset[int]]:
    data = _smoothed_data(_Word(d))
    return data.writhes, data.supports


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
