"""Gauss code parsing, validation and diagram transforms."""

import pytest
from hypothesis import given

from conftest import diagrams
from vknot.gauss import (
    BadPairing,
    Diagram,
    Entry,
    MalformedToken,
    SignMismatch,
    UnknownCrossing,
    format_gauss,
    parse_gauss,
)


def test_parse_two_crossings():
    d = parse_gauss("O1+ O2+ U1+ U2+")
    assert d.n_crossings == 2
    assert [e.sign for e in d.entries] == [1, 1, 1, 1]
    assert [e.over for e in d.entries] == [True, True, False, False]


def test_parse_empty_is_unknot():
    assert parse_gauss("").n_crossings == 0
    assert parse_gauss("  ,  ").n_crossings == 0


def test_parse_is_case_insensitive_and_comma_tolerant():
    assert parse_gauss("o1+,u1+") == parse_gauss("O1+ U1+")


def test_parse_errors():
    with pytest.raises(SignMismatch):
        parse_gauss("O1+ U1-")
    with pytest.raises(MalformedToken):
        parse_gauss("O1+ X2- U1+")
    with pytest.raises(MalformedToken):
        parse_gauss("O1")
    with pytest.raises(BadPairing):
        parse_gauss("O1+ O1+")  # twice over
    with pytest.raises(BadPairing):
        parse_gauss("O1+ U1+ O2+ U2+ O3+")  # odd one out
    with pytest.raises(BadPairing):
        parse_gauss("O1+ U1+ O2+")  # 2 appears once


def test_unknown_crossing_lookups():
    d = parse_gauss("O1+ U1+")
    with pytest.raises(UnknownCrossing):
        d.sign("9")
    with pytest.raises(UnknownCrossing):
        d.smooth("9")


def test_format_round_trip_simple():
    assert format_gauss(parse_gauss("")) == ""
    assert format_gauss(parse_gauss("O1+ U1+")) == "O1+ U1+"


def test_round_trip_on_table(table_records):
    for record in table_records:
        d = parse_gauss(record.gauss)
        assert parse_gauss(format_gauss(d)) == d


def test_rotate_identities(example_31):
    d = example_31
    assert d.rotate(0) == d
    assert d.rotate(len(d)) == d
    assert d.rotate(2).rotate(-2) == d


def test_mirror_definition():
    assert parse_gauss("").mirror() == parse_gauss("")
    assert format_gauss(parse_gauss("O1+ U1+").mirror()) == "U1- O1-"


def test_reverse_definition():
    assert parse_gauss("").reverse() == parse_gauss("")
    assert format_gauss(parse_gauss("O1+ O2+ U1+ U2+").reverse()) == "U2+ U1+ O2+ O1+"


def test_smooth_kink_gives_unknot():
    assert parse_gauss("O1+ U1+").smooth("1") == parse_gauss("")


def test_smooth_keeps_ids_and_drops_one_crossing(example_31):
    for c in example_31.crossings():
        s = example_31.smooth(c)
        assert s.n_crossings == example_31.n_crossings - 1
        assert set(s.crossings()) == set(example_31.crossings()) - {c}


def test_smooth_segment_reversal_and_sign_flips(example_31):
    # Under->Over segment between the passes of crossing 1 is [O2+, U3-, U2+]:
    # crossing 3 sits in it once (sign flips), crossing 2 twice (sign kept).
    s = example_31.smooth("1")
    assert format_gauss(s) == "O3+ U2+ U3+ O2+"


def test_diagram_equality_is_entrywise(example_31):
    assert example_31 != example_31.rotate(1)
    assert example_31 == parse_gauss(format_gauss(example_31))


def test_diagram_is_immutable(example_31):
    with pytest.raises(AttributeError):
        example_31.entries = ()


def test_entry_str():
    assert str(Entry("7", True, -1)) == "O7-"


def test_constructor_rejects_bad_entries():
    with pytest.raises(MalformedToken):
        Diagram([Entry("a b", True, 1), Entry("a b", False, 1)])
    with pytest.raises(MalformedToken):
        Diagram([Entry("1", True, 2), Entry("1", False, 2)])


@pytest.mark.parametrize("flag", ["yes", "", 1, 0, None])
def test_constructor_rejects_non_bool_pass_flags(flag):
    with pytest.raises(MalformedToken):
        Diagram([Entry("1", flag, 1), Entry("1", False, 1)])


@given(diagrams())
def test_parse_format_round_trip(d):
    assert parse_gauss(format_gauss(d)) == d


@given(diagrams())
def test_mirror_is_involution(d):
    assert d.mirror().mirror() == d


@given(diagrams())
def test_reverse_is_involution(d):
    assert d.reverse().reverse() == d


@given(diagrams())
def test_mirror_reverse_commute(d):
    assert d.mirror().reverse() == d.reverse().mirror()


@given(diagrams(min_crossings=1))
def test_smooth_output_is_valid(d):
    for c in d.crossings():
        s = d.smooth(c)
        assert s.n_crossings == d.n_crossings - 1
        # Re-validating through the constructor proves the invariants hold.
        assert Diagram(s.entries) == s
