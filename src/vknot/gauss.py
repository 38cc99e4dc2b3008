"""Cyclic signed Gauss codes for oriented virtual knot diagrams.

A diagram is modelled as the cyclic sequence of its classical crossing
passes, read along the orientation of the knot: each classical crossing
contributes one Over and one Under entry, both carrying the crossing
sign.  Virtual crossings carry no data and are not recorded; virtual
Reidemeister moves and the detour move act as the identity on this
model, which is exactly why it is the right one for virtual knots.

Text format (also the CLI and on-disk wire format): whitespace- or
comma-separated tokens ``O<id><sign>`` / ``U<id><sign>``, e.g.::

    O1+ U2+ U1+ O2+

``O``/``U`` are case-insensitive, ``<id>`` is any alphanumeric label,
``<sign>`` is ``+`` or ``-``.  The empty string encodes the unknot
diagram (no classical crossings).

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

import re
from typing import Iterable, NamedTuple


class GaussCodeError(ValueError):
    """Base class for all Gauss-code modelling errors."""


class MalformedToken(GaussCodeError):
    """A token does not match ``(O|U)<id>(+|-)``."""


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


_TOKEN_RE = re.compile(r"^([OUou])([0-9A-Za-z]+)([+-])$")
_ID_RE = re.compile(r"^[0-9A-Za-z]+$")


class Diagram:
    """A validated, immutable cyclic signed Gauss code.

    The pairing and sign-consistency invariants are enforced at
    construction time, so every reachable ``Diagram`` value is valid.
    Equality is entry-for-entry (a rotation is a different value that
    represents the same knot; all invariants agree on rotations).
    """

    __slots__ = ("_entries", "_over_pos", "_under_pos", "_signs")

    def __init__(self, entries: Iterable[Entry]):
        ents = tuple(entries)
        over_pos: dict[str, int] = {}
        under_pos: dict[str, int] = {}
        signs: dict[str, int] = {}
        for pos, entry in enumerate(ents):
            if not _ID_RE.match(entry.crossing):
                raise MalformedToken(f"bad crossing id {entry.crossing!r}")
            if entry.sign not in (1, -1):
                raise MalformedToken(f"bad sign {entry.sign!r} at {entry.crossing!r}")
            if type(entry.over) is not bool:
                raise MalformedToken(f"bad pass flag {entry.over!r} at {entry.crossing!r}")
            table = over_pos if entry.over else under_pos
            if entry.crossing in table:
                kind = "Over" if entry.over else "Under"
                raise BadPairing(f"crossing {entry.crossing!r} has two {kind} passes")
            table[entry.crossing] = pos
            if entry.crossing in signs and signs[entry.crossing] != entry.sign:
                raise SignMismatch(f"crossing {entry.crossing!r} has inconsistent signs")
            signs[entry.crossing] = entry.sign
        if set(over_pos) != set(under_pos):
            odd = set(over_pos).symmetric_difference(under_pos)
            raise BadPairing(f"crossings without both passes: {sorted(odd)}")
        object.__setattr__(self, "_entries", ents)
        object.__setattr__(self, "_over_pos", over_pos)
        object.__setattr__(self, "_under_pos", under_pos)
        object.__setattr__(self, "_signs", signs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Diagram is immutable")

    # -- basic inspection ----------------------------------------------------

    @property
    def entries(self) -> tuple[Entry, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def n_crossings(self) -> int:
        return len(self._signs)

    def crossings(self) -> tuple[str, ...]:
        """Crossing ids in order of first appearance along the orientation."""
        # _signs is filled in entry order, so its keys are in first-appearance order.
        return tuple(self._signs)

    def sign(self, crossing: str) -> int:
        try:
            return self._signs[crossing]
        except KeyError:
            raise UnknownCrossing(f"no crossing {crossing!r}") from None

    def over_position(self, crossing: str) -> int:
        try:
            return self._over_pos[crossing]
        except KeyError:
            raise UnknownCrossing(f"no crossing {crossing!r}") from None

    def under_position(self, crossing: str) -> int:
        try:
            return self._under_pos[crossing]
        except KeyError:
            raise UnknownCrossing(f"no crossing {crossing!r}") from None

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
        o = self.over_position(crossing)
        u = self.under_position(crossing)
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
    orientation.  The empty (or all-whitespace) string is the unknot.
    """
    tokens = [tok for tok in re.split(r"[\s,]+", text) if tok]
    entries = []
    for token in tokens:
        m = _TOKEN_RE.match(token)
        if m is None:
            raise MalformedToken(f"malformed token {token!r}")
        pass_char, ident, sign_char = m.groups()
        entries.append(Entry(ident, pass_char in "Oo", 1 if sign_char == "+" else -1))
    return Diagram(entries)


def format_gauss(diagram: Diagram) -> str:
    """Render a Diagram in the canonical text format (empty for the unknot)."""
    return " ".join(str(entry) for entry in diagram.entries)
