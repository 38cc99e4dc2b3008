"""Exact Laurent polynomials in two commuting variables t and l.

Every invariant produced by this package lives in Z[t, t^-1, l, l^-1]:
the affine index polynomial uses only the variable t, the F-polynomials
use both.  Coefficients are plain Python integers, so they are exact at
any size.  The invariants module sums the terms of each polynomial
itself; this class only stores, compares, prints and parses the result,
and carries no arithmetic.

A polynomial is stored canonically as a map from exponent pairs
(e_t, e_l) to nonzero integer coefficients; two values are equal iff
their term maps are equal.  Values are immutable and safe to share
across threads.

The canonical text syntax uses ``t^k`` and ``l^k`` with ``*`` between
variable factors, e.g. ``-t^-1+2-t`` or ``-t^-1*l^-2+t^-1*l^2``.
Terms are ordered by (e_t, e_l) ascending, which matches the usual
way such polynomials are tabulated (ascending t-degree).
"""

from __future__ import annotations

import re
from operator import itemgetter


class PolyParseError(ValueError):
    """Raised when a polynomial string does not match the canonical syntax."""


_TERM_RE = re.compile(
    r"""([+-]?)                            # sign
        ([0-9]+)?                          # optional coefficient magnitude
        (?:\*?(t)(?:\^([+-]?[0-9]+))?)?    # optional t factor
        (?:\*?(l)(?:\^([+-]?[0-9]+))?)?    # optional l factor
     """,
    re.VERBOSE,
)


# The text of each exponent's t factor, and of its l factor with the
# "*" that joins it to a t factor, for every exponent rendered so far:
# LaurentPoly2.__str__ adds the exponents of a polynomial on first use.
# An exponent's text is the same whoever adds it, so threads may share
# them.
_T_TEXT = {0: "", 1: "t"}
_L_TEXT = {0: "", 1: "*l"}
_EXPONENTS = itemgetter(0)  # the keys are distinct: sorting by them is canonical order


def _render(items: list[tuple[tuple[int, int], int]]) -> str:
    """The terms, in order, each with its sign (the first one too)."""
    t_text, l_text = _T_TEXT, _L_TEXT
    out = []
    for (et, el), c in items:
        if et:
            out.append(("+" if c == 1 else "-" if c == -1 else f"{c:+d}") + t_text[et] + l_text[el])
        elif el:
            out.append(("+" if c == 1 else "-" if c == -1 else f"{c:+d}") + l_text[el][1:])
        else:
            out.append(f"{c:+d}")
    return "".join(out)


class LaurentPoly2:
    """An integer Laurent polynomial in t and l, in canonical form.

    Construct from a ``{(e_t, e_l): coeff}`` mapping (zero coefficients
    are dropped; no argument gives the zero polynomial) or with
    :func:`parse_poly`.  Read it back with :meth:`terms` or ``str()``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        object.__setattr__(self, "_terms", {k: c for k, c in terms.items() if c} if terms else {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentPoly2 is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("LaurentPoly2 is immutable")

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[int, int, int]]:
        """Canonically ordered (e_t, e_l, coeff) triples."""
        return [(et, el, c) for (et, el), c in sorted(self._terms.items())]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        terms = self._terms
        if not terms:
            return "0"
        items = sorted(terms.items(), key=_EXPONENTS)
        try:
            text = _render(items)
        except KeyError:  # an exponent not rendered before
            for et, el in terms:
                if et not in _T_TEXT:
                    _T_TEXT[et] = f"t^{et}"
                if el not in _L_TEXT:
                    _L_TEXT[el] = f"*l^{el}"
            text = _render(items)
        return text[1:] if text[0] == "+" else text

    def __repr__(self) -> str:
        return f"LaurentPoly2({str(self)!r})"


def parse_poly(text: str) -> LaurentPoly2:
    """Parse the canonical polynomial syntax produced by ``str()``.

    Whitespace is ignored.  ``"0"`` parses to the zero polynomial.
    Every term after the first starts with a sign, and every term has a
    coefficient or a variable; digits are ASCII only, and no more of
    them per integer, nor in the sum of repeated terms, than
    ``sys.get_int_max_str_digits()``.
    Round-trips: ``parse_poly(str(p)) == p`` for every polynomial p.
    """
    s = "".join(text.split())
    if not s:
        raise PolyParseError("empty polynomial string")
    terms: dict[tuple[int, int], int] = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        sign, mag, t, e_t, l, e_l = m.groups()
        if (pos and not sign) or not (mag or t or l):
            raise PolyParseError(f"bad polynomial {text!r} near {s[pos:]!r}")
        try:
            key = (int(e_t) if e_t else 1 if t else 0, int(e_l) if e_l else 1 if l else 0)
            coeff = int(mag) if mag else 1
            coeff = terms.get(key, 0) + (-coeff if sign == "-" else coeff)
            if key in terms:
                str(coeff)  # a sum of repeated terms must print, too
        except ValueError:  # more digits than int() or str() converts
            raise PolyParseError(f"too many digits near {s[pos:pos + 20]!r}") from None
        terms[key] = coeff
        pos = m.end()
    return LaurentPoly2(terms)
