"""Cyclic signed Gauss codes for oriented virtual knot diagrams.

A diagram is modelled as the cyclic sequence of its classical crossing
passes, read along the orientation of the knot: each classical crossing
contributes one Over and one Under entry, both carrying the crossing
sign.  Virtual crossings carry no data and are not recorded; virtual
Reidemeister moves and the detour move act as the identity on this
model, which is exactly why it is the right one for virtual knots.

Text format (also the CLI and on-disk wire format): tokens
``O<id><sign>`` / ``U<id><sign>`` separated by runs of commas and
Unicode whitespace (the characters for which ``str.isspace`` holds),
e.g.::

    O1+ U2+ U1+ O2+

``O``/``U`` are case-insensitive, ``<id>`` is one or more ASCII letters
and digits (``[0-9A-Za-z]+``), ``<sign>`` is ``+`` or ``-``.  The empty
(or all-separator) string encodes the unknot diagram (no classical
crossings).  A ``Diagram`` built from entries enforces the same
grammar: each id is a ``str`` of ASCII letters and digits, each pass
flag a ``bool`` and each sign the ``int`` 1 or -1.

A ``Diagram`` stores only its integer form, the one ``invariants`` and
``moves`` read; its ``entries`` are a view of it, built on each read.
One numbering and pairing loop builds that form from (id, pass flag,
sign) triples for ``parse_gauss``, ``Diagram(entries)``, the transforms
and the move rewrites.  ``parse_gauss`` checks every token before the
loop pairs any of them; ``Diagram(entries)`` checks each entry as the
loop draws it, so the first fault in entry order is the one reported.

Transforms:

* ``mirror``  - switch every classical crossing (Over <-> Under); this
  negates every crossing sign and keeps the traversal order.
* ``reverse`` - reverse the orientation; the entry sequence reverses
  while passes and signs are unchanged (both strands of a crossing
  reverse, so its sign is preserved).
* ``smooth``  - the against-orientation smoothing at a crossing, which
  reconnects the two strands against their orientation and therefore
  reverses the traversal of one segment of the diagram.

Smoothing convention.  Writing the cyclic word as
``... U_c  S ...  O_c  T ...``, the smoothing at ``c`` deletes both
``c`` entries, reverses the segment ``S`` strictly between the Under
pass and the Over pass, and negates the sign of every crossing with
exactly one endpoint inside ``S`` (one of its two strands has flipped
orientation; with zero or two endpoints inside the sign is restored).
Pass flags never change.  The opposite segment choice would produce
the reverse-related diagram; this one is the choice that matches the
published sign/index data for the smoothed diagrams of the three- and
four-crossing tables, and it is pinned by the regression tests.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator


class GaussCodeError(ValueError):
    """Base class for all Gauss-code modelling errors."""


class MalformedToken(GaussCodeError):
    """A token does not match ``(O|U)<id>(+|-)``, or an entry's id, pass
    flag or sign is outside the grammar of the module docstring."""


class BadPairing(GaussCodeError):
    """A crossing id does not occur exactly once Over and once Under."""


class SignMismatch(GaussCodeError):
    """The two entries of one crossing carry different signs."""


class UnknownCrossing(GaussCodeError):
    """A crossing id is not present in the diagram."""


class Entry(namedtuple("Entry", "crossing over sign")):
    """One classical crossing pass: ``crossing``, its id (str); ``over``,
    True for the Over pass; ``sign``, +1 or -1."""

    __slots__ = ()

    def __str__(self) -> str:
        return _PASS_TEXT[self.over] + self.crossing + _SIGN_TEXT[self.sign]


_PASSES = {"O": True, "o": True, "U": False, "u": False}
_SIGNS = {"+": 1, "-": -1}
# The one spelling of a token, for Entry, format_gauss and canonical codes.
_PASS_TEXT = ("U", "O")  # indexed by the pass flag
_SIGN_TEXT = {1: "+", -1: "-"}


def _checked(entries: Iterable[Entry]) -> Iterator[tuple[str, bool, int]]:
    """Each entry as an (id, pass flag, sign) triple, checked against the
    grammar of the module docstring as it is drawn."""
    for crossing, over, sign in entries:
        if not (isinstance(crossing, str) and crossing.isascii() and crossing.isalnum()):
            raise MalformedToken(f"bad crossing id {crossing!r}")
        if type(sign) is not int or (sign != 1 and sign != -1):
            raise MalformedToken(f"bad sign {sign!r} at {crossing!r}")
        if type(over) is not bool:
            raise MalformedToken(f"bad pass flag {over!r} at {crossing!r}")
        yield crossing, over, sign


class Diagram:
    """A validated, immutable cyclic signed Gauss code.

    The pairing and sign-consistency invariants are enforced at
    construction time, so every reachable ``Diagram`` value is valid.
    Equality is entry-for-entry (a rotation is a different value that
    represents the same knot; all invariants agree on rotations).

    Only the integer form is stored: ``_number`` maps each id to k, its
    first-appearance number, the tuple ``_passes`` holds (k, pass flag)
    for each position, and the tuples ``_sign``, ``_opos`` and ``_upos``
    are indexed by k.  ``entries`` is a view of it, built on each read;
    equality, hashing and ``len`` read the integer form.
    """

    __slots__ = ("_number", "_passes", "_sign", "_opos", "_upos")

    def __init__(self, entries: Iterable[Entry]):
        self._pair(_checked(entries))

    @classmethod
    def _of(cls, triples: Iterable[tuple[str, bool, int]]) -> "Diagram":
        """The Diagram of (id, pass flag, sign) triples that already meet
        the grammar; their pairing is checked."""
        diagram = object.__new__(cls)
        diagram._pair(triples)
        return diagram

    def _pair(self, triples: Iterable[tuple[str, bool, int]]) -> None:
        """The one numbering and pairing loop: number the crossings in
        order of first appearance, check that each has one Over and one
        Under pass of one sign, and store the integer form."""
        number: dict[str, int] = {}
        passes: list[tuple[int, bool]] = []
        signs: list[int] = []
        opos: list[int] = []
        upos: list[int] = []
        for pos, (crossing, over, sign) in enumerate(triples):
            table = opos if over else upos
            k = number.get(crossing)
            if k is None:
                k = number[crossing] = len(signs)
                signs.append(sign)
                opos.append(-1)
                upos.append(-1)
            elif table[k] >= 0:
                kind = "Over" if over else "Under"
                raise BadPairing(f"crossing {crossing!r} has two {kind} passes")
            elif signs[k] != sign:
                raise SignMismatch(f"crossing {crossing!r} has inconsistent signs")
            table[k] = pos
            passes.append((k, over))
        # No crossing has two passes of one kind, so 2m passes means both.
        if len(passes) != 2 * len(signs):
            odd = [c for c, k in number.items() if opos[k] < 0 or upos[k] < 0]
            raise BadPairing(f"crossings without both passes: {sorted(odd)}")
        set_number, set_passes, set_sign, set_opos, set_upos = _SLOT_SETTERS
        set_number(self, number)
        set_passes(self, tuple(passes))
        set_sign(self, tuple(signs))
        set_opos(self, tuple(opos))
        set_upos(self, tuple(upos))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Diagram is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Diagram is immutable")

    # -- basic inspection ----------------------------------------------------

    def _triples(self) -> list[tuple[str, bool, int]]:
        """(id, pass flag, sign) for each position."""
        ids, sign = tuple(self._number), self._sign
        return [(ids[k], over, sign[k]) for k, over in self._passes]

    @property
    def entries(self) -> tuple[Entry, ...]:
        return tuple([Entry(*triple) for triple in self._triples()])

    def __len__(self) -> int:
        return len(self._passes)

    @property
    def n_crossings(self) -> int:
        return len(self._sign)

    def crossings(self) -> tuple[str, ...]:
        """Crossing ids in order of first appearance along the orientation."""
        return tuple(self._number)

    def _k(self, crossing: str) -> int:
        try:
            return self._number[crossing]
        except KeyError:
            raise UnknownCrossing(f"no crossing {crossing!r}") from None

    def sign(self, crossing: str) -> int:
        return self._sign[self._k(crossing)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        # Equal numberings: the same ids in order of first appearance.
        return (
            self._passes == other._passes
            and self._sign == other._sign
            and self._number == other._number
        )

    def __hash__(self) -> int:
        return hash((self._passes, self._sign, *self._number))

    def __str__(self) -> str:
        return format_gauss(self)

    def __repr__(self) -> str:
        return f"Diagram({format_gauss(self)!r})"

    # -- transforms ------------------------------------------------------------

    def rotate(self, k: int) -> "Diagram":
        """Shift the basepoint: entry i of the result is entry i+k of self."""
        n = len(self._passes)
        if n == 0:
            return self
        k %= n
        triples = self._triples()
        return self._of(triples[k:] + triples[:k])

    def mirror(self) -> "Diagram":
        """Switch all classical crossings: passes flip, signs negate."""
        return self._of([(c, not over, -sign) for c, over, sign in self._triples()])

    def reverse(self) -> "Diagram":
        """Reverse the orientation: the word reverses, passes and signs stay."""
        return self._of(reversed(self._triples()))

    def smooth(self, crossing: str) -> "Diagram":
        """Against-orientation smoothing at ``crossing``.

        See the module docstring for the segment convention.  The
        result has one crossing fewer; surviving crossings keep their
        original ids.
        """
        k = self._k(crossing)
        o, u = self._opos[k], self._upos[k]
        triples = self._triples()
        n = len(triples)
        # Segment strictly between the Under pass and the Over pass,
        # walking forward; this is the strand whose orientation flips.
        reversed_seg = [triples[i % n] for i in range(u + 1, u + (o - u) % n)]
        kept_seg = [triples[i % n] for i in range(o + 1, o + (u - o) % n)]
        inside_count: dict[str, int] = {}
        for c, _, _ in reversed_seg:
            inside_count[c] = inside_count.get(c, 0) + 1
        flipped = {c for c, cnt in inside_count.items() if cnt == 1}
        return self._of([(c, over, -sign if c in flipped else sign)
                         for c, over, sign in kept_seg + reversed_seg[::-1]])


# For _pair: each slot's descriptor setter, half the cost of object.__setattr__.
_SLOT_SETTERS = tuple(getattr(Diagram, name).__set__ for name in Diagram.__slots__)


def parse_gauss(text: str) -> Diagram:
    """Parse the Gauss-code text format into a validated Diagram.

    Token order defines the cyclic traversal order along the knot
    orientation.  The empty (or all-separator) string is the unknot.
    Every token is checked before any crossing is paired, so a
    malformed token is reported before a pairing or sign fault.
    """
    triples = []
    for token in text.replace(",", " ").split():
        over = _PASSES.get(token[0])
        sign = _SIGNS.get(token[-1])
        ident = token[1:-1]
        if over is None or sign is None or not (ident.isascii() and ident.isalnum()):
            raise MalformedToken(f"malformed token {token!r}")
        triples.append((ident, over, sign))
    return Diagram._of(triples)


def format_gauss(diagram: Diagram) -> str:
    """Render a Diagram in the canonical text format (empty for the unknot)."""
    ids, sign = tuple(diagram._number), tuple(map(_SIGN_TEXT.__getitem__, diagram._sign))
    return " ".join([_PASS_TEXT[over] + ids[k] + sign[k] for k, over in diagram._passes])
