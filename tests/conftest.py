"""Shared fixtures, hypothesis strategies and engine-free oracles.

The oracles read only the passes of a code's text and its validated
smoothings ``d.smooth(c)``.  ``assert_analysis_matches_oracle`` is the
one place that compares an analysis, every view of an ``FReport`` and
the arc labels, with them; ``record_calls`` records the arguments of
each call of a patched function.
"""

from __future__ import annotations

import random
import shutil
from operator import neg
from typing import Iterable

import pytest
from hypothesis import strategies as st

from vknot.gauss import Diagram, parse_gauss
from vknot.invariants import FReport, _lane_table, _walk_table, arc_labels
from vknot.laurent import LaurentPoly2
from vknot.table import data_dir, load_table

# The worked three-crossing example (crossings alpha,beta,gamma = 1,2,3):
# signs (-1, +1, -1), indices (-1, 1, 2), dJ_1 = 2, dJ_2 = -1.
EXAMPLE_31 = "O3- U1- O2+ U3- U2+ O1-"


@pytest.fixture(scope="session")
def example_31() -> Diagram:
    return parse_gauss(EXAMPLE_31)


@pytest.fixture(scope="session")
def table_records():
    return load_table()


@pytest.fixture
def table_copy(tmp_path, monkeypatch):
    """A copy of ``knots.tsv`` and ``fpolys.tsv`` in ``tmp_path``, the
    directory the table is read from (``VKNOT_TABLE_DIR``): a test edits
    its own copy."""
    for name in ("knots.tsv", "fpolys.tsv"):
        shutil.copy(data_dir() / name, tmp_path / name)
    monkeypatch.setenv("VKNOT_TABLE_DIR", str(tmp_path))
    return tmp_path


def passes(d: Diagram | str) -> list[tuple[str, bool, int]]:
    """(id, over, sign) of each pass of d, in order, read from its text,
    or from d itself when d is a code's text, without the parser."""
    return [(t[1:-1], t[0] == "O", 1 if t[-1] == "+" else -1) for t in str(d).split()]


def from_passes(word: Iterable[tuple[str, bool, int]]) -> Diagram:
    """The Diagram of a sequence of (id, over, sign) passes, through the
    text grammar."""
    tokens = [("O" if over else "U") + c + ("+" if sign > 0 else "-") for c, over, sign in word]
    return parse_gauss(" ".join(tokens))


def interlacement_index(word: list[tuple[str, bool, int]]) -> dict[str, int]:
    """Ind(c) as the sum over the passes strictly between the Over and the
    Under pass of c, in cyclic order, of s_j for an Over pass and -s_j for
    an Under pass.  Reads only ``word``, the ``passes`` of a code's text:
    no arc labels."""
    size = len(word)
    over_at = {c: i for i, (c, over, _) in enumerate(word) if over}
    under_at = {c: i for i, (c, over, _) in enumerate(word) if not over}
    ind = {}
    for c, start in over_at.items():
        total = 0
        i = (start + 1) % size
        while i != under_at[c]:
            _, over, sign = word[i]
            total += sign if over else -sign
            i = (i + 1) % size
        ind[c] = total
    return ind


def brute_force_labels(word: list[tuple[str, bool, int]]) -> list[int]:
    """The label of each arc of the code whose ``passes`` are ``word``,
    entry i for the arc after pass i, evaluated separately at every arc as
    the first-met-overcrossing sign sum, with no propagation shortcut."""
    n = len(word)
    labels = []
    for start in range(n):
        seen = set()
        total = 0
        for i in range(start + 1, start + n + 1):
            c, over, sign = word[i % n]
            if c not in seen:
                seen.add(c)
                if over:
                    total += sign
        labels.append(total)
    return labels


def writhe_table(word: list[tuple[str, bool, int]], ind: dict[str, int] | None = None) -> dict[int, int]:
    """J_k(D) for every index value k, from the signs of ``word``, D's
    ``passes``, and ``ind``, its ``interlacement_index``, computed when
    not given."""
    sign = {c: s for c, _, s in word}
    table: dict[int, int] = {}
    for c, k in (interlacement_index(word) if ind is None else ind).items():
        table[k] = table.get(k, 0) + sign[c]
    return table


def dj_table(writhes: Iterable[dict[int, int]]) -> list[tuple[int, ...]]:
    """The rows of the dJ table from the writhe tables of the smoothings,
    in crossing order: dJ_n for n = 1 up to the largest |k| of any key,
    the rows the kernels return."""
    writhes = list(writhes)
    top = max((abs(k) for table in writhes for k in table), default=0)
    return [tuple(t.get(n, 0) - t.get(-n, 0) for t in writhes) for n in range(1, top + 1)]


def smoothed_writhes(d: Diagram) -> dict[str, dict[int, int]]:
    """J_k(D_c) of every smoothing, from the validated ``d.smooth(c)``."""
    return {c: writhe_table(passes(d.smooth(c))) for c in d.crossings()}


def other_segment(kernel):
    """``kernel`` with the segment choice the ``gauss`` module docstring
    rejects, as the kernel's rows negated.  In the word U_c S O_c T a
    crossing has one endpoint in T exactly when it has one in S, so both
    choices flip the same signs, and the other choice, S forward then T
    reversed, is the reverse of D_c, whose every dJ_n is -dJ_n(D_c)."""
    return lambda diagram: [tuple(map(neg, row)) for row in kernel(diagram)]


def map_terms(poly, fn=None) -> LaurentPoly2:
    """The sum of fn(e_t, e_l, c) over the terms (e_t, e_l, c) of ``poly``,
    a ``LaurentPoly2`` or a list of triples: repeated exponent pairs add
    up, and zero sums drop out.  Without fn each term is kept as it is."""
    acc: dict[tuple[int, int], int] = {}
    for term in poly.terms() if isinstance(poly, LaurentPoly2) else poly:
        e_t, e_l, c = fn(*term) if fn else term
        acc[e_t, e_l] = acc.get((e_t, e_l), 0) + c
    return LaurentPoly2(acc)


def f_by_definition(crossings: Iterable[tuple[int, int, int]], d_n: int) -> LaurentPoly2:
    """F^n by its definition, one term per crossing and sum, from (sgn(c),
    Ind(c), dJ_n(D_c)) for each crossing c and d_n = dJ_n(D)."""
    crossings = list(crossings)
    terms = [(ind, dc, s) for s, ind, dc in crossings]
    terms += [(0, dc if abs(dc) == abs(d_n) else d_n, -s) for s, _, dc in crossings]
    return map_terms(terms)


def affine_oracle(d: Diagram, writhes: dict[int, int] | None = None) -> LaurentPoly2:
    """P(t) = sum_c sgn(c) (t^Ind(c) - 1) from ``writhes``, d's
    ``writhe_table``, made when not given, so it shares no code with the
    engine: each J_k adds to t^k and subtracts from 1."""
    terms = [(k, 0, j) for k, j in (writhe_table(passes(d)) if writhes is None else writhes).items()]
    return map_terms(terms + [(0, 0, -j) for _, _, j in terms])


def assert_analysis_matches_oracle(d: Diagram, report: FReport) -> None:
    """``report``, the analysis of d, against the oracles, each computed
    once: the walk's and the lane pass's dJ table rows; ``index``,
    ``writhes``, ``n_max`` and ``stable_tail``; sum_c sgn(c) Ind(c) = 0;
    ``arc_labels``, equal to ``brute_force_labels``, stepping by -sgn(c)
    over an Over pass and +sgn(c) over an Under pass, and giving Ind(c)
    = lambda(arc into O_c) - lambda(arc into U_c) - sgn(c); and, for n = 1
    to two past the report's last row (n_max + 1), ``dwrithe(n)``,
    ``smoothed_row(n)``, ``t_set(n)`` and ``f_at(n)`` by its definition."""
    word = passes(d)
    sign = {c: s for c, _, s in word}
    ind, smoothed, labels = interlacement_index(word), smoothed_writhes(d), brute_force_labels(word)
    writhes = writhe_table(word, ind)
    rows = dj_table(smoothed.values())
    assert _walk_table(d) == rows, str(d)
    assert _lane_table(d) == rows, str(d)
    assert report.index == ind and report.writhes == writhes, str(d)
    assert report.n_max == max([len(rows), *map(abs, ind.values())]), str(d)
    assert report.stable_tail == affine_oracle(d, writhes), str(d)
    assert sum(sign[c] * k for c, k in ind.items()) == 0, str(d)
    assert arc_labels(d) == labels, str(d)
    at = {}
    for i, (c, over, s) in enumerate(word):
        assert labels[i] == labels[i - 1] + (-s if over else s), (str(d), i)
        at[c, over] = i
    for c, k in ind.items():
        assert k == labels[at[c, True] - 1] - labels[at[c, False] - 1] - sign[c], (str(d), c)
    zeros = (0,) * len(smoothed)
    for n in range(1, report.n_max + 4):
        if n <= report.n_max + 1:  # past n_max, every index is below n: the values repeat
            d_n = writhes.get(n, 0) - writhes.get(-n, 0)
            dc = dict(zip(smoothed, rows[n - 1] if n <= len(rows) else zeros))
            t_n = {c for c, dc_n in dc.items() if abs(dc_n) == abs(d_n)}
            f_n = f_by_definition([(sign[c], ind[c], dc[c]) for c in dc], d_n)
        assert report.dwrithe(n) == d_n, (str(d), n)
        assert report.smoothed_row(n) == tuple(map(dc.get, report.index)), (str(d), n)
        assert report.t_set(n) == t_n and report.f_at(n) == f_n, (str(d), n)


def record_calls(monkeypatch, function, *owners) -> list:
    """Puts a wrapper of ``function`` in its place under its name on each
    of ``owners`` (modules or classes) and returns the list to which the
    wrapper appends the argument tuple of each call before calling it."""
    calls = []

    def recording(*args):
        calls.append(args)
        return function(*args)

    for owner in owners:
        monkeypatch.setattr(owner, function.__name__, recording)
    return calls


def random_code(m: int, seed: int) -> str:
    """A random m-crossing Gauss code: random pairing, passes and signs."""
    rng = random.Random(seed)
    slots = list(range(2 * m))
    rng.shuffle(slots)
    tokens = [""] * (2 * m)
    for c in range(m):
        over, sign = rng.choice("OU"), rng.choice("+-")
        tokens[slots[2 * c]] = f"{over}{c}{sign}"
        tokens[slots[2 * c + 1]] = f"{'U' if over == 'O' else 'O'}{c}{sign}"
    return " ".join(tokens)


@st.composite
def diagrams(draw, max_crossings: int = 5, min_crossings: int = 0) -> Diagram:
    """Random valid diagram: random pairing, passes and signs."""
    m = draw(st.integers(min_crossings, max_crossings))
    slots = list(range(2 * m))
    order = draw(st.permutations(slots))
    word: list[tuple[str, bool, int] | None] = [None] * (2 * m)
    for c in range(m):
        a, b = order[2 * c], order[2 * c + 1]
        over_first = draw(st.booleans())
        sign = draw(st.sampled_from((1, -1)))
        word[a] = (str(c + 1), over_first, sign)
        word[b] = (str(c + 1), not over_first, sign)
    return from_passes(word)


@st.composite
def laurent_term_lists(draw):
    return draw(
        st.lists(
            st.tuples(
                st.integers(-6, 6),
                st.integers(-6, 6),
                st.integers(-9, 9),
            ),
            max_size=12,
        )
    )
