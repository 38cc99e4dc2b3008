"""Gauss code parsing, validation and diagram transforms.

The round trip, in which the parse of the text equals the diagram,
hashes alike and has as many passes, and the Over/Under positions of
every code with at most three crossings are read from the one pass of
``test_universe.sweep``, which also holds ``check_round_trip``.
"""

import hashlib
import itertools
from collections import namedtuple

import pytest
from hypothesis import given

from conftest import diagrams, from_passes, passes, random_code
from test_universe import check_round_trip, sweep
from vknot.gauss import (
    BadPairing,
    Diagram,
    GaussCodeError,
    MalformedToken,
    SignMismatch,
    UnknownCrossing,
    parse_gauss,
)


def test_parse_two_crossings():
    d = parse_gauss("O1+ O2+ U1+ U2+")
    assert d.n_crossings == 2
    assert [sign for _, _, sign in passes(d)] == [1, 1, 1, 1]
    assert [over for _, over, _ in passes(d)] == [True, True, False, False]


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
    assert str(parse_gauss("")) == ""
    assert str(parse_gauss("O1+ U1+")) == "O1+ U1+"


def test_round_trip_on_table(table_records):
    for record in table_records:
        d = record.diagram
        assert parse_gauss(str(d)) == d


def test_rotate_identities(example_31):
    d = example_31
    assert d.rotate(0) == d
    assert d.rotate(len(d)) == d
    assert d.rotate(2).rotate(-2) == d


def test_mirror_definition():
    assert parse_gauss("").mirror() == parse_gauss("")
    assert str(parse_gauss("O1+ U1+").mirror()) == "U1- O1-"


def test_reverse_definition():
    assert parse_gauss("").reverse() == parse_gauss("")
    assert str(parse_gauss("O1+ O2+ U1+ U2+").reverse()) == "U2+ U1+ O2+ O1+"


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
    assert str(s) == "O3+ U2+ U3+ O2+"


def test_diagram_equality_is_entrywise(example_31):
    assert example_31 != example_31.rotate(1)
    assert example_31 == parse_gauss(str(example_31))


def test_diagram_equality_reads_ids_in_first_appearance_order():
    # Same passes and signs by crossing number, ids swapped: other passes.
    a, b = parse_gauss("O1+ U2+ U1+ O2+"), parse_gauss("O2+ U1+ U2+ O1+")
    assert a != b and passes(a) != passes(b)
    assert a == parse_gauss("O1+ U2+ U1+ O2+") and hash(a) == hash(parse_gauss("o1+,u2+ u1+ o2+"))


def test_diagram_is_immutable(example_31):
    with pytest.raises(AttributeError):
        example_31._passes = ()


# Pieces of the parse_gauss pin: tokens good and bad, and separators
# (commas and Unicode whitespace, and two characters that are neither).
_PIN_TOKENS = (
    "O1+", "U1+", "u1-", "o2-", "U2-", "Oa+", "uZ9+", "O01+", "O1+U1+", "O1-+",
    "O\u0661+", "O\u00b2+", "\uff2f1+", "O+", "U1", "1+", "X1+", "O1*", "O1\n+",
)
_PIN_SEPARATORS = (" ", ",", "\t", "\n", "\x1c", ", \t", "\u00a0", "\u2028", "\u200b")


def test_parse_pinned_on_every_short_sequence():
    # sha256 over the outcome (the passes, or the error class and message)
    # of every string of at most three pieces, in itertools.product order;
    # recorded with the regular-expression tokenizer this parser replaced.
    # The digest was recorded over the repr of a tuple of Entry(crossing,
    # over, sign) named tuples, one per pass, so the passes are written in
    # that format here.
    entry = namedtuple("Entry", "crossing over sign")
    digest = hashlib.sha256()
    pieces = _PIN_TOKENS + _PIN_SEPARATORS
    for length in range(4):
        for parts in itertools.product(pieces, repeat=length):
            try:
                out = repr(tuple(entry(*p) for p in passes(parse_gauss("".join(parts)))))
            except GaussCodeError as exc:
                out = f"{type(exc).__name__}: {exc}"
            digest.update(out.encode() + b"\n")
    assert digest.hexdigest() == "2566c101d13bfb3d5f44eb630b60cecbd79ac36ed4878ea2d44f733a4d53116d"


def test_pairing_pinned_on_every_short_token_sequence():
    # sha256 over the outcome of parse_gauss on every sequence of at most
    # four of these tokens (4,681 in all), in itertools.product order: each
    # crossing with its sign, Over and Under position, or the error class
    # and message; it pins the pairing loop's numbering and fault order.
    # Recorded with the Diagram(entries) constructor still in place.
    digest = hashlib.sha256()
    tokens = ("O1+", "U1+", "O1-", "U1-", "O2+", "U2+", "O2-", "U2-")
    for length in range(5):
        for parts in itertools.product(tokens, repeat=length):
            try:
                d = parse_gauss(" ".join(parts))
                out = repr([(c, d.sign(c), d._opos[k], d._upos[k]) for c, k in d._number.items()])
            except GaussCodeError as exc:
                out = f"{type(exc).__name__}: {exc}"
            digest.update(out.encode() + b"\n")
    assert digest.hexdigest() == "3db07a297bdd2b02d44785c3a537db3379c141da06eff610b3ea9cd7cdd596fa"


@pytest.mark.parametrize(
    "args", [(), ([("1", True, 1), ("1", False, 1)],)], ids=["no entries", "entries"]
)
def test_diagram_is_built_only_from_text(args):
    with pytest.raises(TypeError, match="parse_gauss"):
        Diagram(*args)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_every_small_code_round_trips(m):
    assert sweep(m).faults["round trip"] == []


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_positions_match_entries_on_every_small_code(m):
    assert sweep(m).faults["positions"] == []


@given(diagrams())
def test_parse_format_round_trip(d):
    assert parse_gauss(str(d)) == d


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
        # Re-validating through the parser proves the invariants hold.
        assert from_passes(passes(s)) == s


# The (class, message) of each fault of parse_gauss.  Every token is
# checked before any crossing is paired, so "O1+ O1+ X" reports its
# token, not its first pairing fault; the pairing faults come in the
# order the pairing loop meets them.
_TEXT_FAULTS = (
    ("O1+ O1+ X", ("MalformedToken", "malformed token 'X'")),
    ("O1+ U1- X1+", ("MalformedToken", "malformed token 'X1+'")),
    ("O1+ U2+ U1- O2+ O3", ("MalformedToken", "malformed token 'O3'")),
    ("O1+ U1+ O1+ U1+ O2*", ("MalformedToken", "malformed token 'O2*'")),
    ("U1+ U1+", ("BadPairing", "crossing '1' has two Under passes")),
    ("O1+ U1- O2+ O2+", ("SignMismatch", "crossing '1' has inconsistent signs")),
    ("O1+ O2+ U1+", ("BadPairing", "crossings without both passes: ['2']")),
    ("O1+ U1+ O2+ U3+", ("BadPairing", "crossings without both passes: ['2', '3']")),
    ("Oa+ Ua- Ob+ Ob+", ("SignMismatch", "crossing 'a' has inconsistent signs")),
    ("O1+ U1+ O\u0661+ U\u0661+", ("MalformedToken", "malformed token 'O\u0661+'")),
    ("O1+ O1+ U1- U1-", ("BadPairing", "crossing '1' has two Over passes")),
    ("o1+ U1- u1+", ("SignMismatch", "crossing '1' has inconsistent signs")),
    ("O1+ U2- O2- U1+ O3+", ("BadPairing", "crossings without both passes: ['3']")),
)

def _fault(build, arg) -> tuple[str, str]:
    with pytest.raises(GaussCodeError) as info:
        build(arg)
    return type(info.value).__name__, str(info.value)


@pytest.mark.parametrize("text, fault", _TEXT_FAULTS)
def test_parse_reports_the_pinned_fault(text, fault):
    assert _fault(parse_gauss, text) == fault


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_views_agree_at_64_crossings(seed):
    code = random_code(64, seed)
    d = parse_gauss(code)
    assert str(d) == code
    check_round_trip(d, code)
    moved = d.mirror().reverse().rotate(seed + 5)
    check_round_trip(moved, str(moved))
