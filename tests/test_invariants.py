"""Invariant computations: oracles, worked-example fixtures, properties.

The plane-reflection law, the reversal rule and the reverse-mirror law
on every code with at most three crossings are read from the one pass
of ``test_universe.sweep``, which also holds the last two checks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import affine_oracle, diagrams, map_terms, passes, random_code
from test_universe import check_reversal_rule, check_reverse_mirror_law, sweep
from vknot.gauss import Diagram, parse_gauss
from vknot.invariants import InternalInconsistency, NonpositiveN, arc_labels, f_sequence
from vknot.laurent import LaurentPoly2, parse_poly

UNKNOT = parse_gauss("")


def brute_force_labels(d: Diagram) -> list[int]:
    """Independent oracle: evaluate the first-met-overcrossing sign sum
    separately at every arc, with no propagation shortcut."""
    word = passes(d)
    n = len(word)
    labels = []
    for start in range(n):
        seen = set()
        total = 0
        for i in range(start + 1, start + n + 1):
            c, over, sign = word[i % n]
            if c not in seen:
                seen.add(c)
                if over:
                    total += sign
        labels.append(total)
    return labels


# -- arc labels -------------------------------------------------------------------


def test_labels_one_crossing_kink():
    d = parse_gauss("O1+ U1+")
    assert arc_labels(d) == [0, 1]


def test_labels_empty_diagram_is_empty():
    assert arc_labels(UNKNOT) == [] == brute_force_labels(UNKNOT)


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
    for i, (_, over, sign) in enumerate(passes(d)):
        step = -sign if over else sign
        assert labels[i % n] == labels[(i - 1) % n] + step


def test_labels_rule_and_oracle_on_whole_table(table_records):
    for record in table_records:
        d = record.diagram
        labels = arc_labels(d)
        assert labels == brute_force_labels(d)
        n = len(d)
        for i, (_, over, sign) in enumerate(passes(d)):
            step = -sign if over else sign
            assert labels[i % n] == labels[(i - 1) % n] + step


def assert_labels_give_index(d: Diagram) -> None:
    """Ind(c) = lambda(over-in arc) - lambda(under-in arc) - sgn(c), the
    module docstring's definition, from the public labels; the arc into
    the pass at position p is the arc after pass p - 1."""
    labels, index = arc_labels(d), f_sequence(d).index
    for c, k in d._number.items():
        o, u = d._opos[k], d._upos[k]
        assert index[c] == labels[o - 1] - labels[u - 1] - d.sign(c), (str(d), c)


def test_labels_give_the_engine_index_on_whole_table(table_records):
    for record in table_records:
        d = record.diagram
        for variant in (d, d.reverse(), d.mirror()):
            assert_labels_give_index(variant)


@given(diagrams())
def test_labels_give_the_engine_index(d):
    assert_labels_give_index(d)


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
    expected = parse_poly("-t^-1+1+t-t^2")
    assert f_sequence(example_31).stable_tail == expected == affine_oracle(example_31)


def test_affine_polynomial_unknot_zero():
    assert f_sequence(UNKNOT).stable_tail == LaurentPoly2() == affine_oracle(UNKNOT)


@given(diagrams())
def test_affine_polynomial_pure_t(d):
    poly = f_sequence(d).stable_tail
    assert all(el == 0 for _, el, _ in poly.terms())
    assert poly == affine_oracle(d)


@given(diagrams(min_crossings=1))
def test_writhe_is_affine_coefficient(d):
    # J_n is the coefficient of t^n in P_D(t) for every n != 0.
    report = f_sequence(d)
    coefficient = {et: c for et, _, c in report.stable_tail.terms()}
    for n in range(-6, 7):
        if n:
            assert report.writhes.get(n, 0) == coefficient.get(n, 0)


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


@given(diagrams())
@settings(max_examples=60)
def test_f_collapses_to_affine_at_l_equal_one(d):
    # Substituting l = 1 in any F^n recovers the affine index polynomial.
    p = affine_oracle(d)
    report = f_sequence(d)
    for n in range(1, report.n_max + 2):
        assert map_terms(report.f_at(n), lambda et, el, c: (et, 0, c)) == p


@given(diagrams())
@settings(max_examples=60)
def test_f_stabilizes_beyond_n_max(d):
    report = f_sequence(d)
    tail = affine_oracle(d)
    assert report.stable_tail == tail
    assert report.f_at(report.n_max + 1) == tail
    assert report.f_at(report.n_max + 3) == tail


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
    for n in range(1, fwd.n_max + 2):
        assert set(fwd.smoothed_row(n)) == {0}
    rev = f_sequence(example_31.reverse())
    inverted = tuple((n, map_terms(p, lambda et, el, c: (-et, -el, c))) for n, p in fwd.fingerprint)
    assert rev.fingerprint == inverted


def test_reversal_rule_on_table_codes_and_their_mirrors(table_records):
    for record in table_records:
        for d in (record.diagram, record.diagram.mirror()):
            check_reversal_rule(d, f_sequence(d))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_reversal_rule_on_every_small_code(m):
    assert sweep(m).faults["reversal rule"] == []


def test_reversal_rule_on_random_codes():
    # 66 codes: every size from 1 to 64 crossings, 1 and 2 twice.
    for seed in range(66):
        d = parse_gauss(random_code(1 + seed % 64, 500 + seed))
        check_reversal_rule(d, f_sequence(d))


def test_reverse_mirror_law_on_table(table_records):
    for record in table_records:
        d = record.diagram
        check_reverse_mirror_law(f_sequence(d), f_sequence(d.mirror().reverse()), record.name)


@given(diagrams())
@settings(max_examples=60)
def test_reverse_mirror_law(d):
    check_reverse_mirror_law(f_sequence(d), f_sequence(d.mirror().reverse()), str(d))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_reverse_mirror_law_on_every_small_code(m):
    assert sweep(m).faults["reverse mirror"] == []


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_reflection_law_on_every_small_code(m):
    assert sweep(m).faults["reflection"] == []


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
