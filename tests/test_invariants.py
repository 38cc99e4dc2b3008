"""Invariant computations: worked-example fixtures and properties.

The values of the worked example and the unknot are pinned here; every
view of the analysis and the arc labels are checked against the
engine-free oracle by ``conftest.assert_analysis_matches_oracle``, which
``test_kernel`` and ``test_universe`` run.  The symmetry laws are one
check, ``test_universe.check_images``: each of the 7 images of D under
the group of order 8 carries D's per-crossing data by its sign pattern.
It runs here on the table codes, seeded random codes and Hypothesis
diagrams, each image analysed by ``f_sequence`` and its F^n compared
with the definition, and is read for every code with at most three
crossings from the one pass of ``test_universe.sweep``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import affine_oracle, diagrams, f_by_definition, from_passes, map_terms, passes, random_code, record_calls
from test_universe import check_images, group_view, sweep
from vknot.gauss import parse_gauss
from vknot.invariants import InternalInconsistency, NonpositiveN, arc_labels, f_sequence
from vknot.laurent import LaurentPoly2, parse_poly

UNKNOT = parse_gauss("")


# -- arc labels -------------------------------------------------------------------


def test_labels_one_crossing_kink():
    d = parse_gauss("O1+ U1+")
    assert arc_labels(d) == [0, 1]


def test_labels_empty_diagram_is_empty():
    assert arc_labels(UNKNOT) == []


def test_labels_match_example(example_31):
    # Figure labels along the traversal of the worked example.
    assert arc_labels(example_31) == [1, 0, -1, -2, -1, 0]


# -- index values -----------------------------------------------------------------


def test_index_values_example(example_31):
    index = f_sequence(example_31).index
    assert index["1"] == -1
    assert index["2"] == 1
    assert index["3"] == 2


def test_index_value_kink_is_zero():
    assert f_sequence(parse_gauss("O1+ U1+")).index["1"] == 0
    assert f_sequence(parse_gauss("U1- O1-")).index["1"] == 0


# -- affine index polynomial --------------------------------------------------------


def test_affine_polynomial_example(example_31):
    expected = parse_poly("-t^-1+1+t-t^2")
    assert f_sequence(example_31).stable_tail == expected == affine_oracle(example_31)


def test_affine_polynomial_unknot_zero():
    assert f_sequence(UNKNOT).stable_tail == LaurentPoly2() == affine_oracle(UNKNOT)


# -- writhes, dwrithes, support -----------------------------------------------------


def support(report) -> set[int]:
    """S(D) = { |Ind(c)| } minus 0; dJ_n vanishes for n outside S(D)."""
    return {abs(k) for k in report.index.values() if k}


def test_writhes_example(example_31):
    writhes = f_sequence(example_31).writhes
    assert writhes.get(1, 0) == 1
    assert writhes.get(-1, 0) == -1
    assert writhes.get(2, 0) == -1
    assert f_sequence(UNKNOT).writhes.get(3, 0) == 0


def test_dwrithe_example(example_31):
    report = f_sequence(example_31)
    assert report.dwrithe(1) == 2
    assert report.dwrithe(2) == -1
    assert report.dwrithe(3) == 0
    with pytest.raises(NonpositiveN):
        report.dwrithe(0)


def test_index_support_examples(example_31):
    assert support(f_sequence(UNKNOT)) == set()
    assert support(f_sequence(example_31)) == {1, 2}


# -- T_n and F-polynomials ----------------------------------------------------------


def test_t_set_example(example_31):
    assert f_sequence(example_31).t_set(1) == frozenset()
    assert f_sequence(example_31).t_set(2) == frozenset()
    assert f_sequence(UNKNOT).t_set(5) == frozenset()
    with pytest.raises(NonpositiveN):
        f_sequence(example_31).t_set(0)


def test_f_polynomial_example(example_31):
    report = f_sequence(example_31)
    assert report.f_at(1) == parse_poly("-t^-1+l^2+t-t^2")
    assert report.f_at(2) == parse_poly("-t^-1+l^-1+t-t^2")
    for n in (3, 4, 7):
        assert report.f_at(n) == affine_oracle(example_31)


def test_f_polynomial_unknot_zero():
    report = f_sequence(UNKNOT)
    for n in (1, 2, 9):
        assert report.f_at(n) == LaurentPoly2()
    with pytest.raises(NonpositiveN):
        report.f_at(0)


def test_f_sequence_example(example_31):
    report = f_sequence(example_31)
    assert report.n_max == 2
    assert report.f_at(1) != report.f_at(2)
    assert report.f_at(3) == report.stable_tail == affine_oracle(example_31)
    assert report.f_at(17) == report.stable_tail
    assert [n for n, _ in report.fingerprint] == [1, 2, 3]


def test_f_sequence_unknot():
    report = f_sequence(UNKNOT)
    assert report.n_max == 0
    assert report.stable_tail == LaurentPoly2()
    assert report.fingerprint == ((1, LaurentPoly2()),)


def test_f_sequence_labels_each_diagram_once(example_31, monkeypatch):
    # One labelling walk for D and one per smoothing: 3 + 1 on the
    # example, and only one of them over D's length.
    import vknot.invariants

    calls = record_calls(monkeypatch, vknot.invariants._indices, vknot.invariants)
    f_sequence(example_31)
    lengths = [len(word) for word, _ in calls]
    assert len(lengths) == example_31.n_crossings + 1
    assert lengths.count(len(example_31)) == 1


def test_f_report_json(table_records, capsys):
    # The CLI writes the JSON report of an F-sequence.
    import json

    from vknot.cli import main

    [record] = [r for r in table_records if r.name == "3.1"]
    assert main(["compute", "3.1", "--all", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["knot"] == "3.1"
    assert data["gauss"] == str(record.diagram)
    assert data["n_max"] == 2
    assert set(data["F"]) == {"1", "2", "3"}
    stable = affine_oracle(record.diagram).terms()
    assert data["stable"] == [{"t": t, "l": l, "c": c} for t, l, c in stable]


def test_f_sequence_checks_that_it_stabilizes(example_31, monkeypatch):
    import vknot.invariants

    # The tail is read from the writhe table and F^{n_max+1} is summed
    # over the crossings by _f_poly: a term too many in the sum fails.
    f_poly = vknot.invariants._f_poly

    def one_term_off(*args):
        return map_terms(f_poly(*args).terms() + [(9, 0, 1)])

    monkeypatch.setattr(vknot.invariants, "_f_poly", one_term_off)
    with pytest.raises(InternalInconsistency) as info:
        f_sequence(example_31)
    assert repr(str(example_31)) in str(info.value)


# -- behavior under rotation, mirror, reverse ---------------------------------------


@given(diagrams(min_crossings=1), st.integers(-12, 12))
@settings(max_examples=60)
def test_rotation_invariance(d, k):
    r = d.rotate(k)
    rotated, report = f_sequence(r), f_sequence(d)
    assert rotated.stable_tail == report.stable_tail
    assert rotated.index == report.index
    for n in (1, 2, 3):
        assert rotated.dwrithe(n) == report.dwrithe(n)
        assert rotated.t_set(n) == report.t_set(n)
    assert rotated.fingerprint == report.fingerprint


@given(diagrams(min_crossings=1))
@settings(max_examples=60)
def test_reverse_commutes_with_smoothing_up_to_rotation(d):
    # With the pinned segment convention, smoothing the reversed diagram
    # yields a rotation of the smoothed diagram: the two complementary
    # segments flip the signs of exactly the same crossings.
    for c in d.crossings():
        s = d.smooth(c)
        sr = d.reverse().smooth(c)
        assert any(sr == s.rotate(k) for k in range(max(len(s), 1)))


def test_reverse_inverts_f_when_smoothed_dwrithes_vanish(example_31):
    # Orientation reversal acts as (t,l) -> (t^-1,l^-1) on diagrams whose
    # smoothings all carry zero dwrithe (not in general: reversal leaves
    # the smoothed dwrithes unchanged while negating Ind and dJ_n).
    fwd = f_sequence(example_31)
    for n in range(1, fwd.n_max + 2):
        assert set(fwd.smoothed_row(n)) == {0}
    rev = f_sequence(example_31.reverse())
    inverted = tuple((n, map_terms(p, lambda et, el, c: (-et, -el, c))) for n, p in fwd.fingerprint)
    assert rev.fingerprint == inverted


def check_images_analysed(d) -> None:
    """``check_images`` on d, each image analysed by ``f_sequence``, with
    its ids kept and its F^n equal to ``f_by_definition`` of its view."""
    def analysed(word: list) -> tuple[tuple, dict]:
        report = f_sequence(from_passes(word))
        data, row = view = group_view(report)
        for n, d_n in enumerate(row, 1):
            crossings = [(sign, ind, column[n - 1]) for _, (sign, ind, column) in data]
            assert report.f_at(n) == f_by_definition(crossings, d_n), (str(report.diagram), n)
        return view, {c: c for c, _ in data}

    check_images(group_view(f_sequence(d)), passes(d), analysed, str(d))


def test_images_on_table_codes(table_records):
    for record in table_records:
        check_images_analysed(record.diagram)


def test_images_on_random_codes():
    # 66 codes: every size from 1 to 64 crossings, 1 and 2 twice.
    for seed in range(66):
        check_images_analysed(parse_gauss(random_code(1 + seed % 64, 500 + seed)))


@given(diagrams())
@settings(max_examples=60)
def test_images(d):
    check_images_analysed(d)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_images_on_every_small_code(m):
    assert sweep(m).faults["images"] == []


# -- per-crossing data: index, sign and smoothed_row ---------------------------------


def test_index_sign_and_smoothed_row_example(example_31):
    report = f_sequence(example_31)
    per_crossing = {c: (example_31.sign(c), k) for c, k in report.index.items()}
    assert per_crossing == {"1": (-1, -1), "2": (1, 1), "3": (-1, 2)}
    assert report.smoothed_row(1) == report.smoothed_row(2) == (0, 0, 0)


def test_index_and_smoothed_row_of_unknot_are_empty():
    report = f_sequence(UNKNOT)
    assert report.index == {}
    assert report.smoothed_row(1) == report.smoothed_row(2) == ()


def test_per_crossing_views_reject_bad_n(example_31):
    report = f_sequence(example_31)
    for n in (0, -1):
        with pytest.raises(NonpositiveN):
            report.smoothed_row(n)
        with pytest.raises(NonpositiveN):
            report.t_set(n)


def test_internal_inconsistency_is_exported():
    assert issubclass(InternalInconsistency, RuntimeError)
