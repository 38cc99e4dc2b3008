"""Every signed Gauss code with m classical crossings, and a canonical form.

A chord word is a double-occurrence word of length 2m whose crossings
are numbered 1..m in order of first appearance; there are (2m-1)!! of
them.  ``enumerate_codes`` decorates each word with every choice of
passes and signs, which yields every m-crossing code once up to
relabelling: a class up to rotation and relabelling appears once for
each of its distinct rotations.  ``canonical_code`` names that class.
"""

from __future__ import annotations

from typing import Iterator

from .gauss import Diagram, Entry


def chord_words(m: int) -> Iterator[tuple[int, ...]]:
    """Yield the chord words of length 2m lazily, in lexicographic order.

    Each position either closes an open chord, the smallest first, or
    opens chord ``next``, which is larger than every open one.  Rotations
    are not identified: for m = 2 this yields 3 words, of which
    (1, 1, 2, 2) and (1, 2, 2, 1) are rotations of each other.
    """

    def grow(word: tuple[int, ...], open_: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if len(word) == 2 * m:
            yield word
            return
        for i, x in enumerate(open_):
            yield from grow(word + (x,), open_[:i] + open_[i + 1 :])
        new = (len(word) + len(open_)) // 2 + 1  # chords opened so far, plus one
        if new <= m:
            yield from grow(word + (new,), open_ + (new,))

    return grow((), ())


def enumerate_codes(m: int) -> Iterator[Diagram]:
    """Yield every m-crossing Diagram whose word is in ``chord_words(m)``,
    with every choice of passes and signs: 4, 48, 960 and 26,880 codes
    for m = 1..4.

    For m = 1 that is 4 codes for 2 classes up to rotation and relabelling.
    """
    for word in chord_words(m):
        firsts = [word.index(x) == pos for pos, x in enumerate(word)]
        for over_mask in range(1 << m):
            # Bit x-1 of over_mask: chord x's first pass is the Over pass.
            overs = [bool(over_mask >> (x - 1) & 1) == first for x, first in zip(word, firsts)]
            for sign_mask in range(1 << m):
                entries = [
                    Entry(str(x), over, 1 if sign_mask >> (x - 1) & 1 else -1)
                    for x, over in zip(word, overs)
                ]
                yield Diagram(entries)


def standard_relabel(entries: list[Entry]) -> tuple[Entry, ...]:
    """Rename crossings to 1..m in order of first appearance."""
    names: dict[str, str] = {}
    out = []
    for e in entries:
        if e.crossing not in names:
            names[e.crossing] = str(len(names) + 1)
        out.append(Entry(names[e.crossing], e.over, e.sign))
    return tuple(out)


def canonical_code(diagram: Diagram) -> str:
    """Lexicographically least rotation in standard relabelling, as ``format_gauss`` text."""
    ents = list(diagram.entries)
    rotations = (standard_relabel(ents[r:] + ents[:r]) for r in range(len(ents)))
    return min((" ".join(map(str, rotation)) for rotation in rotations), default="")
