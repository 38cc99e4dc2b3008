"""Code enumeration and canonical codes (``vknot.enumerate``).

``chord_words`` is checked against a brute force over every ordering of
the chord labels, ``standard_relabel`` on one code, and ``canonical_code``
against every rotation and relabelling of one code per class with at
most three crossings.  The code and class counts of ``enumerate_codes``
are read from the one pass of ``test_universe.sweep``.
"""

from itertools import permutations

import pytest

from vknot.enumerate import canonical_code, chord_words, enumerate_codes, standard_relabel
from test_universe import CLASS_COUNTS, CODE_COUNTS, sweep
from vknot.gauss import Diagram, Entry, parse_gauss


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


def test_standard_relabel_numbers_by_first_appearance():
    entries = parse_gauss("Ub- Oa+ Ob- Ua+").entries
    assert " ".join(map(str, standard_relabel(list(entries)))) == "U1- O2+ O1- U2+"


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
            renamed = [Entry(rename[e.crossing], e.over, e.sign) for e in d.entries]
            for r in range(2 * m):
                assert canonical_code(Diagram(renamed[r:] + renamed[:r])) == code, (str(d), perm, r)
