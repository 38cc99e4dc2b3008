"""Laurent polynomial arithmetic, canonical form, formatting, parsing."""

import hashlib
import itertools

import pytest
from hypothesis import given

from conftest import laurent_term_lists
from vknot.laurent import LaurentPoly2, PolyParseError, parse_poly

ZERO = LaurentPoly2.zero()


def test_from_terms_cancellation():
    assert LaurentPoly2.from_terms([(0, 0, 1), (0, 0, -1)]) == ZERO


def test_from_terms_table_row():
    p = LaurentPoly2.from_terms([(-1, 0, -1), (0, 0, 2), (1, 0, -1)])
    assert str(p) == "-t^-1+2-t"


def test_from_terms_merges_duplicates():
    p = LaurentPoly2.from_terms([(1, 2, 3), (1, 2, -1)])
    assert p.terms() == [(1, 2, 2)]
    assert str(p) == "2t*l^2"


def test_add_inverse_and_identity():
    p = LaurentPoly2.from_terms([(1, 0, 1), (0, 0, -1)])
    assert p + (-p) == ZERO
    q = LaurentPoly2.from_terms([(-1, 0, -1), (0, 0, 2), (1, 0, -1)])
    assert q + ZERO == q


def test_add_union_of_term_maps():
    a = LaurentPoly2.from_terms([(0, 2, 1)])
    b = LaurentPoly2.from_terms([(0, -2, -1)])
    assert (a + b).terms() == [(0, -2, -1), (0, 2, 1)]
    assert str(a + b) == "-l^-2+l^2"


def test_negate():
    assert -ZERO == ZERO
    t = LaurentPoly2.monomial(1, 1, 0)
    assert str(-t) == "-t"
    p = parse_poly("-t^-1+2-t")
    assert str(-p) == "t^-1-2+t"


def test_monomial():
    assert str(LaurentPoly2.monomial(1, 1, 2)) == "t*l^2"
    assert str(LaurentPoly2.monomial(-1, -2, 0)) == "-t^-2"
    assert str(LaurentPoly2.monomial(-1, 0, -2)) == "-l^-2"
    with pytest.raises(ValueError):
        LaurentPoly2.monomial(2, 0, 0)


def test_invert_vars():
    assert ZERO.invert_vars() == ZERO
    p = parse_poly("-t^-1+t-t^2+l^2")
    assert p.invert_vars() == parse_poly("-t+t^-1-t^-2+l^-2")
    palindromic = parse_poly("-t^-1+2-t")
    assert palindromic.invert_vars() == palindromic


def test_to_string_examples():
    assert str(ZERO) == "0"
    assert str(LaurentPoly2({(-1, 0): -1, (0, 0): 2, (1, 0): -1})) == "-t^-1+2-t"
    assert str(LaurentPoly2({(-1, -2): -1, (-1, 2): 1})) == "-t^-1*l^-2+t^-1*l^2"


def test_string_term_order_is_et_then_el():
    p = parse_poly("t^-2-2l^-1+1-t+t^3*l^-2")
    assert str(p) == "t^-2-2l^-1+1-t+t^3*l^-2"
    assert [term[:2] for term in p.terms()] == [(-2, 0), (0, -1), (0, 0), (1, 0), (3, -2)]


def test_parse_rejects_garbage():
    for bad in ["", "t^", "x+1", "2**t", "+", "1..2"]:
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
    # the character-by-character splitter this parser replaced.
    digest = hashlib.sha256()
    for length in range(6):
        for chars in itertools.product("+-01t^l* ", repeat=length):
            try:
                out = repr(parse_poly("".join(chars)))
            except PolyParseError:
                out = "error"
            digest.update(out.encode() + b"\n")
    assert digest.hexdigest() == "bf32c5b5e8903a6141c3d8254c399718598db5f8a249094324f2c93b9efac10b"


def test_json_terms_sorted():
    p = parse_poly("-l^-2+2-l^2")
    assert p.json_terms() == [
        {"t": 0, "l": -2, "c": -1},
        {"t": 0, "l": 0, "c": 2},
        {"t": 0, "l": 2, "c": -1},
    ]


def test_coefficient_lookup():
    p = parse_poly("-t^-1+2-t")
    assert p.coefficient(-1) == -1
    assert p.coefficient(0) == 2
    assert p.coefficient(5) == 0


@given(laurent_term_lists())
def test_no_zero_coefficients_stored(terms):
    poly = LaurentPoly2.from_terms(terms)
    assert all(c != 0 for _, _, c in poly.terms())


@given(laurent_term_lists())
def test_additive_inverse(terms):
    poly = LaurentPoly2.from_terms(terms)
    assert poly + (-poly) == ZERO


@given(laurent_term_lists())
def test_invert_vars_involution(terms):
    poly = LaurentPoly2.from_terms(terms)
    assert poly.invert_vars().invert_vars() == poly


@given(laurent_term_lists())
def test_string_round_trip(terms):
    poly = LaurentPoly2.from_terms(terms)
    assert parse_poly(str(poly)) == poly


@given(laurent_term_lists(), laurent_term_lists())
def test_addition_commutes(ta, tb):
    a, b = LaurentPoly2.from_terms(ta), LaurentPoly2.from_terms(tb)
    assert a + b == b + a


@given(laurent_term_lists(), laurent_term_lists(), laurent_term_lists())
def test_addition_associates(ta, tb, tc):
    a, b, c = (LaurentPoly2.from_terms(t) for t in (ta, tb, tc))
    assert (a + b) + c == a + (b + c)


def test_big_coefficients_do_not_overflow():
    big = 10**30
    p = LaurentPoly2.from_terms([(1, 1, big)] * 1000)
    assert p.coefficient(1, 1) == 1000 * big
