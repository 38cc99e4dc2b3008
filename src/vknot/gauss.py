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
flag a ``bool`` and each sign the ``int`` 1 or -1.  Its one checking
loop also builds the integer form that ``invariants`` reads.

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

from typing import Iterable, NamedTuple


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


class Entry(NamedTuple):
    """One classical crossing pass: which crossing, Over/Under, sign."""

    crossing: str
    over: bool
    sign: int

    def __str__(self) -> str:
        return f"{'O' if self.over else 'U'}{self.crossing}{'+' if self.sign > 0 else '-'}"


_PASSES = {"O": True, "o": True, "U": False, "u": False}
_SIGNS = {"+": 1, "-": -1}


class Diagram:
    """A validated, immutable cyclic signed Gauss code.

    The pairing and sign-consistency invariants are enforced at
    construction time, so every reachable ``Diagram`` value is valid.
    Equality is entry-for-entry (a rotation is a different value that
    represents the same knot; all invariants agree on rotations).

    The validating loop also builds the integer form that ``invariants``
    reads: ``_number`` maps each id to k, its first-appearance number,
    the tuple ``_passes`` holds (k, pass flag) for each position, and
    the tuples ``_sign``, ``_opos`` and ``_upos`` are indexed by k.
    """

    __slots__ = ("_entries", "_number", "_passes", "_sign", "_opos", "_upos")

    def __init__(self, entries: Iterable[Entry]):
        ents = tuple(entries)
        number: dict[str, int] = {}
        passes: list[tuple[int, bool]] = []
        signs: list[int] = []
        opos: list[int] = []
        upos: list[int] = []
        for pos, (crossing, over, sign) in enumerate(ents):
            if not (isinstance(crossing, str) and crossing.isascii() and crossing.isalnum()):
                raise MalformedToken(f"bad crossing id {crossing!r}")
            if type(sign) is not int or (sign != 1 and sign != -1):
                raise MalformedToken(f"bad sign {sign!r} at {crossing!r}")
            if type(over) is not bool:
                raise MalformedToken(f"bad pass flag {over!r} at {crossing!r}")
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
        # No crossing has two passes of one kind, so 2m entries means both.
        if len(ents) != 2 * len(signs):
            odd = [c for c, k in number.items() if opos[k] < 0 or upos[k] < 0]
            raise BadPairing(f"crossings without both passes: {sorted(odd)}")
        object.__setattr__(self, "_entries", ents)
        object.__setattr__(self, "_number", number)
        object.__setattr__(self, "_passes", tuple(passes))
        object.__setattr__(self, "_sign", tuple(signs))
        object.__setattr__(self, "_opos", tuple(opos))
        object.__setattr__(self, "_upos", tuple(upos))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Diagram is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Diagram is immutable")

    # -- basic inspection ----------------------------------------------------

    @property
    def entries(self) -> tuple[Entry, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

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
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __str__(self) -> str:
        return format_gauss(self)

    def __repr__(self) -> str:
        return f"Diagram({format_gauss(self)!r})"

    # -- transforms ------------------------------------------------------------

    def rotate(self, k: int) -> "Diagram":
        """Shift the basepoint: entry i of the result is entry i+k of self."""
        n = len(self._entries)
        if n == 0:
            return self
        k %= n
        return Diagram(self._entries[k:] + self._entries[:k])

    def mirror(self) -> "Diagram":
        """Switch all classical crossings: passes flip, signs negate."""
        return Diagram(Entry(e.crossing, not e.over, -e.sign) for e in self._entries)

    def reverse(self) -> "Diagram":
        """Reverse the orientation: the word reverses, passes and signs stay."""
        return Diagram(reversed(self._entries))

    def smooth(self, crossing: str) -> "Diagram":
        """Against-orientation smoothing at ``crossing``.

        See the module docstring for the segment convention.  The
        result has one crossing fewer; surviving crossings keep their
        original ids.
        """
        k = self._k(crossing)
        o, u = self._opos[k], self._upos[k]
        n = len(self._entries)
        # Segment strictly between the Under pass and the Over pass,
        # walking forward; this is the strand whose orientation flips.
        reversed_seg = [self._entries[i % n] for i in range(u + 1, u + (o - u) % n)]
        kept_seg = [self._entries[i % n] for i in range(o + 1, o + (u - o) % n)]
        inside_count: dict[str, int] = {}
        for entry in reversed_seg:
            inside_count[entry.crossing] = inside_count.get(entry.crossing, 0) + 1
        flipped = {c for c, cnt in inside_count.items() if cnt == 1}

        def fix(entry: Entry) -> Entry:
            if entry.crossing in flipped:
                return Entry(entry.crossing, entry.over, -entry.sign)
            return entry

        return Diagram([fix(e) for e in kept_seg] + [fix(e) for e in reversed(reversed_seg)])


def parse_gauss(text: str) -> Diagram:
    """Parse the Gauss-code text format into a validated Diagram.

    Token order defines the cyclic traversal order along the knot
    orientation.  The empty (or all-separator) string is the unknot.
    """
    entries = []
    for token in text.replace(",", " ").split():
        over = _PASSES.get(token[0])
        sign = _SIGNS.get(token[-1])
        ident = token[1:-1]
        if over is None or sign is None or not (ident.isascii() and ident.isalnum()):
            raise MalformedToken(f"malformed token {token!r}")
        entries.append(Entry(ident, over, sign))
    return Diagram(entries)


def format_gauss(diagram: Diagram) -> str:
    """Render a Diagram in the canonical text format (empty for the unknot)."""
    return " ".join(str(entry) for entry in diagram.entries)
