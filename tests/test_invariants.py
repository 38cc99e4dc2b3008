"""Invariant computations: oracles, worked-example fixtures, properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diagrams
from vknot.gauss import Diagram, parse_gauss
from vknot.invariants import (
    EmptyDiagram,
    InternalInconsistency,
    NonpositiveN,
    affine_index_polynomial,
    arc_labels,
    f_polynomial,
    f_sequence,
)
from vknot.laurent import LaurentPoly2, parse_poly

UNKNOT = parse_gauss("")


def brute_force_labels(d: Diagram) -> list[int]:
    """Independent oracle: evaluate the first-met-overcrossing sign sum
    separately at every arc, with no propagation shortcut."""
    n = len(d)
    labels = []
    for start in range(n):
        seen = set()
        total = 0
        for i in range(start + 1, start + n + 1):
            e = d.entries[i % n]
            if e.crossing not in seen:
                seen.add(e.crossing)
                if e.over:
                    total += e.sign
        labels.append(total)
    return labels


# -- arc labels -------------------------------------------------------------------


def test_labels_one_crossing_kink():
    d = parse_gauss("O1+ U1+")
    assert arc_labels(d) == [0, 1]


def test_labels_empty_diagram_raises():
    with pytest.raises(EmptyDiagram):
        arc_labels(UNKNOT)


def test_labels_match_example(example_31):
    # Figure labels along the traversal of the worked example.
    assert arc_labels(example_31) == [1, 0, -1, -2, -1, 0]


@given(diagrams(min_crossings=1))
def test_labels_equal_brute_force(d):
    assert arc_labels(d) == brute_force_labels(d)


@given(diagrams(min_crossings=1))
def test_labels_obey_local_crossing_rule(d):
    # Over pass steps the label by -sgn, Under pass by +sgn.
    n = len(d)
    labels = arc_labels(d)
    for i, e in enumerate(d.entries):
        step = -e.sign if e.over else e.sign
        assert labels[i % n] == labels[(i - 1) % n] + step


def test_labels_rule_and_oracle_on_whole_table(table_records):
    for record in table_records:
        d = record.diagram()
        labels = arc_labels(d)
        assert labels == brute_force_labels(d)
        n = len(d)
        for i, e in enumerate(d.entries):
            step = -e.sign if e.over else e.sign
            assert labels[i % n] == labels[(i - 1) % n] + step


# -- index values -----------------------------------------------------------------


def test_index_values_example(example_31):
    index = f_sequence(example_31).index
    assert index["1"] == -1
    assert index["2"] == 1
    assert index["3"] == 2


def test_index_value_kink_is_zero():
    assert f_sequence(parse_gauss("O1+ U1+")).index["1"] == 0
    assert f_sequence(parse_gauss("U1- O1-")).index["1"] == 0


@given(diagrams(min_crossings=1))
def test_index_sign_weighted_sum_vanishes(d):
    # sum_c sgn(c) Ind(c) = 0 on every knot diagram.
    index = f_sequence(d).index
    assert sum(d.sign(c) * index[c] for c in d.crossings()) == 0


# -- affine index polynomial --------------------------------------------------------


def test_affine_polynomial_example(example_31):
    assert affine_index_polynomial(example_31) == parse_poly("-t^-1+1+t-t^2")


def test_affine_polynomial_unknot_zero():
    assert affine_index_polynomial(UNKNOT) == LaurentPoly2.zero()


@given(diagrams())
def test_affine_polynomial_pure_t(d):
    assert all(el == 0 for _, el, _ in affine_index_polynomial(d).terms())


@given(diagrams(min_crossings=1))
def test_writhe_is_affine_coefficient(d):
    # J_n is the coefficient of t^n in P_D(t) for every n != 0.
    poly = affine_index_polynomial(d)
    writhes = f_sequence(d).writhes
    for n in range(-6, 7):
        if n:
            assert writhes.get(n, 0) == poly.coefficient(n)


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


@given(diagrams())
def test_writhe_vanishes_outside_support(d):
    report = f_sequence(d)
    for n in range(1, 8):
        if n not in support(report):
            assert report.writhes.get(n, 0) == 0
            assert report.writhes.get(-n, 0) == 0
            assert report.dwrithe(n) == 0


# -- T_n and F-polynomials ----------------------------------------------------------


def test_t_set_example(example_31):
    assert f_sequence(example_31).t_set(1) == frozenset()
    assert f_sequence(example_31).t_set(2) == frozenset()
    assert f_sequence(UNKNOT).t_set(5) == frozenset()
    with pytest.raises(NonpositiveN):
        f_sequence(example_31).t_set(0)


def test_f_polynomial_example(example_31):
    assert f_polynomial(example_31, 1) == parse_poly("-t^-1+l^2+t-t^2")
    assert f_polynomial(example_31, 2) == parse_poly("-t^-1+l^-1+t-t^2")
    for n in (3, 4, 7):
        assert f_polynomial(example_31, n) == affine_index_polynomial(example_31)


def test_f_polynomial_unknot_zero():
    for n in (1, 2, 9):
        assert f_polynomial(UNKNOT, n) == LaurentPoly2.zero()
    with pytest.raises(NonpositiveN):
        f_polynomial(UNKNOT, 0)
    with pytest.raises(NonpositiveN):
        f_sequence(UNKNOT).f_at(0)


def test_f_sequence_example(example_31):
    report = f_sequence(example_31)
    assert report.n_max == 2
    assert report.per_n[1] != report.per_n[2]
    assert report.per_n[3] == report.stable_tail == affine_index_polynomial(example_31)
    assert report.f_at(17) == report.stable_tail
    assert [n for n, _ in report.fingerprint()] == [1, 2, 3]


def test_f_sequence_unknot():
    report = f_sequence(UNKNOT)
    assert report.n_max == 0
    assert report.stable_tail == LaurentPoly2.zero()
    assert report.fingerprint() == ((1, LaurentPoly2.zero()),)


def test_f_sequence_labels_each_diagram_once(example_31, monkeypatch):
    # One labelling walk for D and one per smoothing: 3 + 1 on the
    # example, and only one of them over D's length.
    import vknot.invariants

    walk = vknot.invariants._indices
    lengths = []

    def counting_walk(passes, sign):
        passes = list(passes)
        lengths.append(len(passes))
        return walk(passes, sign)

    monkeypatch.setattr(vknot.invariants, "_indices", counting_walk)
    f_sequence(example_31)
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
    assert data["gauss"] == str(record.diagram())
    assert data["n_max"] == 2
    assert set(data["F"]) == {"1", "2", "3"}
    stable = affine_index_polynomial(record.diagram()).terms()
    assert data["stable"] == [{"t": t, "l": l, "c": c} for t, l, c in stable]


def test_f_sequence_checks_that_it_stabilizes(example_31, monkeypatch):
    import vknot.invariants

    affine = vknot.invariants._affine

    def one_term_off(ind, sign):
        return affine(ind, sign) + LaurentPoly2.monomial(1, 9)

    monkeypatch.setattr(vknot.invariants, "_affine", one_term_off)
    with pytest.raises(InternalInconsistency) as info:
        f_sequence(example_31)
    assert repr(str(example_31)) in str(info.value)


@given(diagrams())
@settings(max_examples=60)
def test_f_collapses_to_affine_at_l_equal_one(d):
    # Substituting l = 1 in any F^n recovers the affine index polynomial.
    p = affine_index_polynomial(d)
    report = f_sequence(d)
    for n in range(1, report.n_max + 2):
        assert report.per_n[n].substitute_l_one() == p


@given(diagrams())
@settings(max_examples=60)
def test_f_stabilizes_beyond_n_max(d):
    report = f_sequence(d)
    tail = affine_index_polynomial(d)
    assert report.stable_tail == tail
    assert f_polynomial(d, report.n_max + 1) == tail
    assert f_polynomial(d, report.n_max + 3) == tail


# -- behavior under rotation, mirror, reverse ---------------------------------------


@given(diagrams(min_crossings=1), st.integers(-12, 12))
@settings(max_examples=60)
def test_rotation_invariance(d, k):
    r = d.rotate(k)
    rotated, report = f_sequence(r), f_sequence(d)
    assert affine_index_polynomial(r) == affine_index_polynomial(d)
    assert rotated.index == report.index
    for n in (1, 2, 3):
        assert rotated.dwrithe(n) == report.dwrithe(n)
        assert rotated.t_set(n) == report.t_set(n)
    assert rotated.fingerprint() == report.fingerprint()


@given(diagrams())
@settings(max_examples=60)
def test_mirror_preserves_dwrithe(d):
    mirrored, report = f_sequence(d.mirror()), f_sequence(d)
    for n in range(1, 6):
        assert mirrored.dwrithe(n) == report.dwrithe(n)


@given(diagrams())
@settings(max_examples=60)
def test_reverse_negates_dwrithe(d):
    reversed_, report = f_sequence(d.reverse()), f_sequence(d)
    for n in range(1, 6):
        assert reversed_.dwrithe(n) == -report.dwrithe(n)


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
    for rep in f_sequence(example_31).crossing_reports(range(1, fwd.n_max + 2)):
        assert set(rep.smoothed_dwrithe.values()) == {0}
    rev = f_sequence(example_31.reverse())
    assert rev.fingerprint() == tuple((n, p.invert_vars()) for n, p in fwd.fingerprint())


def _assert_reverse_mirror_law(d):
    # F^n(reverse(mirror D))(t, l) = -F^n(D)(t, l^-1) for every n.
    fwd, rm = f_sequence(d), f_sequence(d.mirror().reverse())
    for n in range(1, max(fwd.n_max, rm.n_max) + 2):
        expected = LaurentPoly2.from_terms((et, -el, -c) for et, el, c in fwd.f_at(n).terms())
        assert rm.f_at(n) == expected


def test_reverse_mirror_law_on_table(table_records):
    for record in table_records:
        _assert_reverse_mirror_law(record.diagram())


@given(diagrams())
@settings(max_examples=60)
def test_reverse_mirror_law(d):
    _assert_reverse_mirror_law(d)


# -- crossing reports ----------------------------------------------------------------


def test_crossing_reports_example(example_31):
    reports = {r.crossing: r for r in f_sequence(example_31).crossing_reports((1, 2))}
    assert set(reports) == {"1", "2", "3"}
    assert reports["1"].sign == -1 and reports["1"].index == -1
    assert reports["2"].sign == 1 and reports["2"].index == 1
    assert reports["3"].sign == -1 and reports["3"].index == 2
    for rep in reports.values():
        assert rep.smoothed_dwrithe == {1: 0, 2: 0}


def test_crossing_reports_unknot_empty():
    assert f_sequence(UNKNOT).crossing_reports((1, 2)) == []


def test_crossing_reports_rejects_bad_n(example_31):
    with pytest.raises(NonpositiveN):
        f_sequence(example_31).crossing_reports((0, 1))


def test_smoothed_row_rejects_bad_n(example_31):
    with pytest.raises(NonpositiveN):
        f_sequence(example_31).smoothed_row(0)


def test_internal_inconsistency_is_exported():
    assert issubclass(InternalInconsistency, RuntimeError)
