"""Every signed Gauss code with m classical crossings, and a canonical form.

A chord word is a double-occurrence word of length 2m whose crossings
are numbered 1..m in order of first appearance; there are (2m-1)!! of
them.  ``enumerate_codes`` decorates each word with every choice of
passes and signs, which yields every m-crossing code once up to
relabelling: a class up to rotation and relabelling appears once for
each of its distinct rotations.  ``canonical_code`` names that class.
Both read and build ``Diagram``'s integer form.
"""

from __future__ import annotations

from collections.abc import Iterator

from .gauss import _PASS_TEXT, _SIGN_TEXT, Diagram


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
        ids = [str(x) for x in word]
        firsts = [word.index(x) == pos for pos, x in enumerate(word)]
        for over_mask in range(1 << m):
            # Bit x-1 of over_mask: chord x's first pass is the Over pass.
            overs = [bool(over_mask >> (x - 1) & 1) == first for x, first in zip(word, firsts)]
            for sign_mask in range(1 << m):
                signs = [1 if sign_mask >> (x - 1) & 1 else -1 for x in word]
                yield Diagram._of(zip(ids, overs, signs))


def canonical_code(diagram: Diagram) -> str:
    """Lexicographically least rotation in first-appearance numbering, as
    ``str(d)`` text.  A sign only ends a token, so no token is a prefix
    of another and token lists sort as their texts: ``O10+`` before ``O2+``."""
    n = len(diagram._passes)
    passes2 = diagram._passes * 2
    signs = [_SIGN_TEXT[s] for s in diagram._sign]
    # names[j] is label j+1, and one spare: setdefault draws a name for a labelled k too.
    names = [str(i) for i in range(1, n // 2 + 2)]
    least: list[str] = []
    for r in range(n):
        number: dict[int, str] = {}
        label = number.setdefault  # k's label by first appearance in this rotation
        tokens = [_PASS_TEXT[over] + label(k, names[len(number)]) + signs[k] for k, over in passes2[r : r + n]]
        if not least or tokens < least:
            least = tokens
    return " ".join(least)
