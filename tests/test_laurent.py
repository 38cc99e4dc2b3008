"""Laurent polynomials: canonical form, formatting, parsing."""

import hashlib
import itertools
import re
import sys

import pytest
from hypothesis import given

from conftest import laurent_term_lists, map_terms
from vknot import laurent
from vknot.laurent import LaurentPoly2, PolyParseError, parse_poly

ZERO = LaurentPoly2()


def test_map_terms_and_constructor_drop_zeros():
    assert map_terms([(0, 0, 1), (0, 0, -1)]) == ZERO
    assert LaurentPoly2({(0, 0): 0, (1, 0): 0}) == ZERO
    assert not ZERO and LaurentPoly2({(1, 0): 1})


@pytest.mark.parametrize("zero", [False, True], ids=["no zero", "a zero"])
def test_constructor_keeps_its_own_copy(zero):
    terms = {(-1, 0): -1, (0, 0): 2, (1, 0): -1}
    if zero:
        terms[2, 3] = 0
    p = LaurentPoly2(terms)
    before = (p.terms(), str(p), hash(p))
    terms[0, 0] = 5
    terms[4, 4] = 1
    del terms[-1, 0]
    assert (p.terms(), str(p), hash(p)) == before
    assert p == parse_poly("-t^-1+2-t")


def test_zero_has_one_form():
    for p in (LaurentPoly2(), LaurentPoly2({}), LaurentPoly2({(1, 2): 0})):
        assert p == ZERO and hash(p) == hash(ZERO)
        assert p.terms() == [] and str(p) == "0" and not p


def test_map_terms_table_row():
    p = map_terms([(-1, 0, -1), (0, 0, 2), (1, 0, -1)])
    assert str(p) == "-t^-1+2-t"


def test_map_terms_merges_duplicates():
    p = map_terms([(1, 2, 3), (1, 2, -1)])
    assert p.terms() == [(1, 2, 2)]
    assert str(p) == "2t*l^2"


def test_to_string_examples():
    assert str(ZERO) == "0"
    assert str(LaurentPoly2({(-1, 0): -1, (0, 0): 2, (1, 0): -1})) == "-t^-1+2-t"
    assert str(LaurentPoly2({(-1, -2): -1, (-1, 2): 1})) == "-t^-1*l^-2+t^-1*l^2"


def test_string_term_order_is_et_then_el():
    p = parse_poly("t^-2-2l^-1+1-t+t^3*l^-2")
    assert str(p) == "t^-2-2l^-1+1-t+t^3*l^-2"
    assert [term[:2] for term in p.terms()] == [(-2, 0), (0, -1), (0, 0), (1, 0), (3, -2)]


def test_parse_rejects_garbage():
    for bad in ["", "t^", "x+1", "2**t", "+", "1..2", "*t", "-*t", "t+*l", "*l"]:
        with pytest.raises(PolyParseError):
            parse_poly(bad)


@pytest.mark.parametrize("bad", ["t^\u0663", "1\uff12"])  # Arabic-Indic 3, fullwidth 2
def test_parse_rejects_non_ascii_digits(bad):
    with pytest.raises(PolyParseError) as info:
        parse_poly(bad)
    assert repr(bad) in str(info.value) and "\n" not in str(info.value)


def test_parse_pinned_on_every_short_string():
    # sha256 over the result (repr, or "error") of every string of length
    # <= 5 over this alphabet, in itertools.product order; recorded with
    # the character-by-character splitter this parser replaced, then again
    # when the 539 strings with a "*" after a sign or at the start of a
    # term became errors.
    digest = hashlib.sha256()
    for length in range(6):
        for chars in itertools.product("+-01t^l* ", repeat=length):
            try:
                out = repr(parse_poly("".join(chars)))
            except PolyParseError:
                out = "error"
            digest.update(out.encode() + b"\n")
    assert digest.hexdigest() == "a1f10db31c313e9d85230dcce1713dfe606d235e30060eb07c5a270c38102675"


def test_json_terms_sorted(capsys):
    # The CLI writes each polynomial as its terms in canonical order;
    # F^1 of table knot 4.16 is -l^-2+2-l^2.
    import json

    from vknot.cli import main

    assert main(["compute", "4.16", "-n", "1", "--format", "json"]) == 0
    terms = json.loads(capsys.readouterr().out)["F"]["1"]
    assert terms == [
        {"t": 0, "l": -2, "c": -1},
        {"t": 0, "l": 0, "c": 2},
        {"t": 0, "l": 2, "c": -1},
    ]
    assert [(d["t"], d["l"], d["c"]) for d in terms] == parse_poly("-l^-2+2-l^2").terms()


@pytest.mark.parametrize(
    "text, start", [("t^{}", 0), ("-{}*l", 0), ("1+l^-{}", 1)], ids=["t^{}", "-{}*l", "1+l^-{}"]
)
def test_parse_rejects_integers_too_long_to_convert(text, start):
    # The message quotes 20 characters from the start of the bad term.
    text = text.format("9" * (sys.get_int_max_str_digits() + 1))
    message = f"too many digits near {text[start:start + 20]!r}"
    with pytest.raises(PolyParseError, match=f"^{re.escape(message)}$"):
        parse_poly(text)


@given(laurent_term_lists())
def test_no_zero_coefficients_stored(terms):
    poly = map_terms(terms)
    assert all(c != 0 for _, _, c in poly.terms())


@given(laurent_term_lists())
def test_string_round_trip(terms):
    poly = map_terms(terms)
    assert parse_poly(str(poly)) == poly


def test_big_coefficients_do_not_overflow():
    big = 10**30
    p = map_terms([(1, 1, big)] * 1000)
    assert p.terms() == [(1, 1, 1000 * big)]
    assert parse_poly(str(p)) == p


def reference_text(terms: dict[tuple[int, int], int]) -> str:
    """The canonical text of a term map, written out term by term."""
    pieces = []
    for (et, el), c in sorted(terms.items()):
        factors = [var if e == 1 else f"{var}^{e}" for var, e in (("t", et), ("l", el)) if e]
        body = "*".join(factors)
        if not body or abs(c) != 1:
            body = f"{abs(c)}{body}"
        pieces.append(("-" if c < 0 else "+") + body)
    return "".join(pieces).removeprefix("+") or "0"


EXPONENTS = [0, 1, -1, 2, -2, 63, -63, 64, -64, 65, -65, 300, -300, 10**4, -(10**4)]
COEFFICIENTS = [1, -1, 2, -2, 10**30, -(10**30)]


def rendering_grid() -> list[dict[tuple[int, int], int]]:
    """The zero polynomial; every constant, t-only, l-only and mixed
    monomial over the grid; and sums of grid terms with all four kinds."""
    polys = [{}]
    polys += [{(et, el): c} for et in EXPONENTS for el in EXPONENTS for c in COEFFICIENTS]
    keys = [(et, el) for et in EXPONENTS for el in EXPONENTS]
    for shift in range(len(COEFFICIENTS)):
        cycle = COEFFICIENTS[shift:] + COEFFICIENTS[:shift]
        polys.append({key: cycle[i % len(cycle)] for i, key in enumerate(keys)})
        polys.append({key: cycle[i % len(cycle)] for i, key in enumerate(keys) if i % (shift + 2) == 0})
    return polys


def test_rendering_matches_the_reference_on_the_grid(monkeypatch):
    # Start from memos that hold only the fixed texts of exponents 0 and
    # 1, so that the first rendering of each polynomial fills them.
    for name in ("_T_TEXT", "_L_TEXT"):
        monkeypatch.setattr(laurent, name, {e: t for e, t in getattr(laurent, name).items() if e in (0, 1)})
    for terms in rendering_grid():
        poly = LaurentPoly2(terms)
        first = str(poly)
        assert first == reference_text(terms)
        assert str(poly) == first
        assert parse_poly(first) == poly
