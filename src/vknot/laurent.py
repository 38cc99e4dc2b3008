"""Exact Laurent polynomials in two commuting variables t and l.

Every invariant produced by this package lives in Z[t, t^-1, l, l^-1]:
the affine index polynomial uses only the variable t, the F-polynomials
use both.  Coefficients are plain Python integers, so arithmetic is
exact at any size.

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
from typing import Iterable, Iterator


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


class LaurentPoly2:
    """An integer Laurent polynomial in t and l, in canonical form.

    Construct via :meth:`from_terms`, :meth:`monomial`, :meth:`zero`
    or :func:`parse_poly`; the constructor itself expects an already
    clean ``{(e_t, e_l): coeff}`` mapping and is mostly internal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        clean = {k: v for k, v in (terms or {}).items() if v != 0}
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentPoly2 is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("LaurentPoly2 is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls({})

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, int, int]]) -> "LaurentPoly2":
        """Sum a list of (e_t, e_l, coeff) triples into canonical form.

        Duplicate exponent pairs are added together; anything that
        cancels to zero is dropped.
        """
        acc: dict[tuple[int, int], int] = {}
        for e_t, e_l, coeff in terms:
            key = (e_t, e_l)
            acc[key] = acc.get(key, 0) + coeff
        return cls(acc)

    @classmethod
    def monomial(cls, sign: int, e_t: int = 0, e_l: int = 0) -> "LaurentPoly2":
        """A single term ``sign * t^e_t * l^e_l`` with sign in {+1, -1}."""
        if sign not in (1, -1):
            raise ValueError(f"monomial sign must be +1 or -1, got {sign!r}")
        return cls({(e_t, e_l): sign})

    # -- ring-ish operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            acc[key] = acc.get(key, 0) + coeff
        return LaurentPoly2(acc)

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2({k: -v for k, v in self._terms.items()})

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self + (-other)

    def invert_vars(self) -> "LaurentPoly2":
        """Substitute t -> t^-1 and l -> l^-1 (negate all exponents).

        An involution.  It is not what orientation reversal does to
        F^n, which is computed from ``Diagram.reverse`` instead.
        """
        return LaurentPoly2({(-et, -el): c for (et, el), c in self._terms.items()})

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[int, int, int]]:
        """Canonically ordered (e_t, e_l, coeff) triples."""
        return [(et, el, c) for (et, el), c in sorted(self._terms.items())]

    def coefficient(self, e_t: int, e_l: int = 0) -> int:
        return self._terms.get((e_t, e_l), 0)

    def substitute_l_one(self) -> "LaurentPoly2":
        """Set l = 1, collapsing the l-exponents."""
        return LaurentPoly2.from_terms((et, 0, c) for (et, _), c in self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return iter(self.terms())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        out: list[str] = []
        for (et, el), coeff in sorted(self._terms.items()):
            sign = "-" if coeff < 0 else ("+" if out else "")
            mag = abs(coeff)
            factors = []
            if et:
                factors.append("t" if et == 1 else f"t^{et}")
            if el:
                factors.append("l" if el == 1 else f"l^{el}")
            if not factors:
                body = str(mag)
            else:
                body = "*".join(factors)
                if mag != 1:
                    body = f"{mag}{body}"
            out.append(sign + body)
        return "".join(out)

    def __repr__(self) -> str:
        return f"LaurentPoly2({str(self)!r})"


def parse_poly(text: str) -> LaurentPoly2:
    """Parse the canonical polynomial syntax produced by ``str()``.

    Whitespace is ignored.  ``"0"`` parses to the zero polynomial.
    Every term after the first starts with a sign, and every term has a
    coefficient or a variable; digits are ASCII only, and no more of
    them per integer than ``sys.get_int_max_str_digits()``.
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
        except ValueError:  # more digits than int() converts
            raise PolyParseError(f"too many digits near {s[pos:pos + 20]!r}") from None
        terms[key] = terms.get(key, 0) + (-coeff if sign == "-" else coeff)
        pos = m.end()
    return LaurentPoly2(terms)
