"""Code enumeration and canonical codes (``vknot.enumerate``).

``chord_words`` is checked against a brute force over every ordering of
the chord labels, and ``canonical_code`` against every rotation and
relabelling of one code per class with at most three crossings.
``CANONICAL_PIN`` pins the canonical codes themselves, up to 33
crossings, and one code pins the order of two-digit labels.  The code
and class counts of ``enumerate_codes`` are read from the one pass of
``test_universe.sweep``.
"""

import hashlib
from itertools import permutations

import pytest

from conftest import from_passes, passes, random_code
from test_universe import CLASS_COUNTS, CODE_COUNTS, sweep
from vknot.enumerate import canonical_code, chord_words, enumerate_codes
from vknot.gauss import parse_gauss


def relabel(word: tuple[int, ...]) -> tuple[int, ...]:
    names: dict[int, int] = {}
    return tuple(names.setdefault(x, len(names) + 1) for x in word)


def brute_force_chord_words(m: int) -> list[tuple[int, ...]]:
    """Every ordering of 1, 2, 2, ..., m, m after a leading 1, relabelled in
    order of first appearance, deduplicated and sorted."""
    rest = [1] + [i for i in range(2, m + 1) for _ in range(2)]
    return sorted({relabel((1, *order)) for order in dict.fromkeys(permutations(rest))})


@pytest.mark.parametrize("m, count", [(1, 1), (2, 3), (3, 15), (4, 105), (5, 945)])
def test_chord_words_match_brute_force(m, count):
    words = list(chord_words(m))
    assert len(words) == count
    assert words == brute_force_chord_words(m)


def test_chord_words_are_lazy():
    # 23!! = 316,234,143,225 words in all; the first needs none of the rest.
    assert next(iter(chord_words(12))) == tuple(x for i in range(1, 13) for x in (i, i))


# (codes, sha256 of their canonical codes joined by newlines): every code
# of ``enumerate_codes(m)`` for m = 0..3, then ``random_code(m, seed)``
# for m = 10, 12, 20 and 33 and seeds 0, 1 and 2.
CANONICAL_PIN = (1025, "b7d4d9643b2a1c5203a42e29dfff98828bbf6da250360e1f233821e6b58cfc17")


def test_canonical_codes_are_pinned():
    codes = [canonical_code(d) for m in range(4) for d in enumerate_codes(m)]
    codes += [canonical_code(parse_gauss(random_code(m, seed))) for m in (10, 12, 20, 33) for seed in range(3)]
    assert (len(codes), hashlib.sha256("\n".join(codes).encode()).hexdigest()) == CANONICAL_PIN


def test_canonical_code_orders_labels_as_text():
    # Two rotations of one class agree up to the 14th token, O10+ in one
    # and O9+ in the other: as text "O10+" < "O9+", so the first is the
    # canonical code, though by label number the second would be.
    least = "O1+ O2+ O3+ O4+ U5+ O6+ U7+ U8+ U9+ O7+ U10+ U11+ O11+ O10+ O9+ O8+ U6+ O5+ U12+ U4+ U2+ O12+ U3+ U1+"
    other = "O1+ O2+ O3+ O4+ U5+ O6+ U7+ U8+ U9+ O7+ U10+ U11+ O11+ O9+ O10+ O8+ U6+ O5+ U12+ U4+ U3+ O12+ U2+ U1+"
    assert canonical_code(parse_gauss(least)) == canonical_code(parse_gauss(other)) == least
    assert canonical_code(parse_gauss("Ub- Oa+ Ob- Ua+")) == "O1+ O2- U1+ U2-"


@pytest.mark.parametrize("m, codes, classes", [(m, CODE_COUNTS[m], CLASS_COUNTS[m]) for m in range(4)])
def test_code_and_class_counts(m, codes, classes):
    s = sweep(m)
    assert s.faults["size"] == []
    assert (s.codes, s.texts, s.classes) == (codes, codes, classes)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_canonical_code_ignores_rotation_and_relabelling(m):
    # One code per canonical code suffices: two codes of one class with
    # different canonical codes would each be checked over the whole class.
    names = [str(i) for i in range(1, m + 1)]
    for code, d in {canonical_code(d): d for d in enumerate_codes(m)}.items():
        for perm in permutations(names):
            rename = dict(zip(names, perm))
            renamed = [(rename[c], over, sign) for c, over, sign in passes(d)]
            for r in range(2 * m):
                assert canonical_code(from_passes(renamed[r:] + renamed[:r])) == code, (str(d), perm, r)
