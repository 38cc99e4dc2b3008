"""Numerical and polynomial invariants of oriented virtual knot diagrams.

All computations start from an integer labeling of the arcs of the
diagram (the edges between consecutive classical passes).  The label of
the arc alpha is the sum of sgn(c) over the crossings c that are first
met as overcrossings when travelling along the orientation starting at
alpha.  Around a crossing the labels then obey the local rule: passing
the Over entry changes the running label by -sgn(c), passing the Under
entry by +sgn(c).

From the labels:

* index value      Ind(c)   = lambda(over-in arc) - lambda(under-in arc) - sgn(c)
* affine index     P_D(t)   = sum_c sgn(c) (t^Ind(c) - 1)
* n-th writhe      J_n(D)   = sum of sgn(c) over crossings with Ind(c) = n
* n-th dwrithe     dJ_n(D)  = J_n(D) - J_{-n}(D)

and, with D_c the against-orientation smoothing at c (``Diagram.smooth``),
the n-th F-polynomial

    F^n_D(t, l) = sum_c sgn(c) t^Ind(c) l^dJ_n(D_c)
                  - sum_{c in T_n} sgn(c) l^dJ_n(D_c)
                  - sum_{c not in T_n} sgn(c) l^dJ_n(D)

where T_n(D) = { c : |dJ_n(D_c)| = |dJ_n(D)| }.

For n above every index value appearing in D and in its smoothings, all
dwrithes vanish, T_n is the whole crossing set, and F^n collapses to the
affine index polynomial: the sequence stabilizes.  ``f_sequence``
computes the exact bound, one extra stabilized entry, and checks the
collapse.  The invariant content of the sequence is captured by
``FReport.fingerprint`` (entries up to the first stabilized one), which
is what equality of F-sequences means everywhere in this package.

``f_sequence`` is the one analysis of a diagram; the ``FReport`` it
returns keeps Ind(c), the writhe table of D and the dJ table, and
dJ_n(D), T_n, the rows of the dJ table and the per-crossing reports are
its methods.  The dJ table holds dJ_n(D_c) for n = 1 .. n_max+1 (one
row per n) and every crossing c (one column per crossing, in traversal
order).  It is filled in one pass over the smoothed writhe tables,
J_k(D_c) adding to row k and J_{-k}(D_c) subtracting from it, and F^n,
T_n and the per-crossing reports all read their rows from it; any n
beyond the table reads zeros.  ``f_polynomial`` reads ``f_sequence``;
the other free functions (``dwrithe``, ``index_value``, ...) recompute
from scratch.

The analysis runs on an integer kernel.  The diagram is turned once
into int lists: crossings relabelled 0..m-1 in first-appearance order,
the crossing and pass flag at each position, and the sign, Over
position and Under position of each crossing.  Each smoothing D_c is
built on those lists as a new int word, by the convention of
``Diagram.smooth``: the segment from the Over pass to the Under pass
forward, then the other segment reversed, negating the sign of each
crossing with exactly one endpoint in the reversed segment.  One
labelling routine labels D and every D_c, and J_k(D_c) is read straight
from the lists, so no ``Diagram`` is built or validated per smoothing.
That routine labels relative to arc 0 (label 0): Ind(c) is a difference
of two labels, so the absolute base cancels, and only ``arc_labels``
evaluates it.
``Diagram.smooth`` stays the public transform and the kernel's test
oracle.

All functions are pure; diagrams are immutable; nothing here shares
mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

from .gauss import Diagram, UnknownCrossing
from .laurent import LaurentPoly2


class EmptyDiagram(ValueError):
    """An arc-level question was asked of the crossingless unknot diagram."""


class ZeroIndexRequest(ValueError):
    """J_n is only defined for n != 0."""


class NonpositiveN(ValueError):
    """dwrithe / T_n / F^n are only defined for n >= 1."""


class InternalInconsistency(RuntimeError):
    """The stabilization self-check of f_sequence failed (engine bug)."""


class _Word:
    """A diagram as int lists, with its crossings relabelled 0..m-1 in
    first-appearance order (``ids[k]`` is the id of crossing k)."""

    __slots__ = ("ids", "cross", "over", "sign", "opos", "upos")

    def __init__(self, diagram: Diagram):
        self.ids = diagram.crossings()
        number = {c: k for k, c in enumerate(self.ids)}
        self.cross = [number[e.crossing] for e in diagram.entries]  # crossing at each position
        self.over = [e.over for e in diagram.entries]  # pass flag at each position
        self.sign = [diagram.sign(c) for c in self.ids]  # sign of each crossing
        self.opos = [0] * len(self.ids)  # Over position of each crossing
        self.upos = [0] * len(self.ids)  # Under position of each crossing
        for pos, (k, o) in enumerate(zip(self.cross, self.over)):
            (self.opos if o else self.upos)[k] = pos


def _labels(cross: list[int], over: list[bool], sign: list[int]) -> list[int]:
    """Arc labels of an int word relative to arc 0; entry i is the label
    of the arc after pass i minus the label of arc 0 (so entry 0 is 0).

    ``sign`` is indexed by crossing.  This is the one labelling routine,
    for a diagram and for each of its smoothings alike.  Ind(c) is a
    difference of two labels, so it does not need the absolute base;
    ``arc_labels`` adds it.
    """
    if not cross:
        raise EmptyDiagram("the unknot diagram has no arcs")
    # Propagate the local rule around the cycle from arc 0.
    steps = [-sign[k] if o else sign[k] for k, o in zip(cross[1:], over[1:])]
    return list(accumulate(steps, initial=0))


def _indices(cross: list[int], over: list[bool], sign: list[int]) -> list[int]:
    """Ind(k) for every crossing k of a nonempty int word, indexed by k.

    Entries of crossings absent from the word are meaningless.
    """
    labels = _labels(cross, over, sign)
    ind = [-s for s in sign]
    # The arc into pass i is the one after pass i-1 (after the last, for i = 0).
    for k, o, into in zip(cross, over, labels[-1:] + labels[:-1]):
        ind[k] += into if o else -into
    return ind


def arc_labels(diagram: Diagram) -> list[int]:
    """The integer label of each arc; entry i labels the arc after pass i.

    The label is the first-met-overcrossing sign sum described in the
    module docstring; the local +-sgn rule around each crossing holds
    by construction and is property-tested.
    """
    word = _Word(diagram)
    cross, over = word.cross, word.over
    labels = _labels(cross, over, word.sign)
    # Direct evaluation for arc 0 (the arc between passes 0 and 1): a
    # crossing counts when the first of its passes met after arc 0 is
    # Over.  Fed those passes in reverse, the dict keeps each first one.
    first = dict(zip(cross[:1] + cross[:0:-1], over[:1] + over[:0:-1]))
    base = sum([word.sign[k] for k, o in first.items() if o])
    return [base + label for label in labels]


def _word_index(word: _Word) -> dict[str, int]:
    """Ind(c) for every crossing, by id in first-appearance order."""
    if not word.cross:
        return {}
    return dict(zip(word.ids, _indices(word.cross, word.over, word.sign)))


def _index_table(diagram: Diagram) -> dict[str, int]:
    """Ind(c) for every crossing; {} for the unknot."""
    return _word_index(_Word(diagram))


def index_value(diagram: Diagram, crossing: str) -> int:
    """The index value Ind(crossing)."""
    if crossing not in diagram.crossings():
        raise UnknownCrossing(f"no crossing {crossing!r}")
    return _index_table(diagram)[crossing]


def affine_index_polynomial(diagram: Diagram) -> LaurentPoly2:
    """P_D(t) = sum_c sgn(c) (t^Ind(c) - 1); zero on the unknot."""
    return _affine(diagram, _index_table(diagram))


def _affine(diagram: Diagram, ind: dict[str, int]) -> LaurentPoly2:
    triples: list[tuple[int, int, int]] = []
    for c, k in ind.items():
        s = diagram.sign(c)
        triples.append((k, 0, s))
        triples.append((0, 0, -s))
    return LaurentPoly2.from_terms(triples)


def _writhe_table(diagram: Diagram, ind: dict[str, int]) -> dict[int, int]:
    """J_n for every n with a crossing of that index (other n give 0)."""
    table: dict[int, int] = {}
    for c, k in ind.items():
        table[k] = table.get(k, 0) + diagram.sign(c)
    return table


def _dj(writhes: dict[int, int], n: int) -> int:
    return writhes.get(n, 0) - writhes.get(-n, 0)


def _in_t_n(smoothed_dj: int, d_n: int) -> bool:
    """The T_n predicate |dJ_n(D_c)| == |dJ_n(D)|."""
    return abs(smoothed_dj) == abs(d_n)


def n_writhe(diagram: Diagram, n: int) -> int:
    """J_n(D): signed count of crossings with index value n (n != 0)."""
    if n == 0:
        raise ZeroIndexRequest("n-th writhe is defined for nonzero n only")
    return _writhe_table(diagram, _index_table(diagram)).get(n, 0)


def dwrithe(diagram: Diagram, n: int) -> int:
    """dJ_n(D) = J_n(D) - J_{-n}(D) for n >= 1."""
    if n < 1:
        raise NonpositiveN(f"dwrithe needs n >= 1, got {n}")
    return _dj(_writhe_table(diagram, _index_table(diagram)), n)


def index_support(diagram: Diagram) -> frozenset[int]:
    """S(D) = { |Ind(c)| } minus 0; dJ_n vanishes for n outside S(D)."""
    return frozenset(abs(k) for k in _index_table(diagram).values() if k != 0)


@dataclass(frozen=True)
class CrossingReport:
    """Per-crossing data: sign, index value, and smoothed-diagram dwrithes."""

    crossing: str
    sign: int
    index: int
    smoothed_dwrithe: dict[int, int]


@dataclass(frozen=True)
class FReport:
    """The full F-polynomial sequence of a diagram, and the analysis behind it.

    ``per_n`` holds F^n for n = 1 .. n_max+1 where n_max bounds every
    index value of the diagram and of its smoothings; for all larger n
    the value is ``stable_tail`` (the affine index polynomial).  The
    final computed entry equals the tail by construction - this is
    checked, not assumed.  The other views read ``index`` (Ind(c) in
    traversal order), ``writhes`` (J_k(D)) and ``smoothed_dj``, where
    ``smoothed_dj[n - 1][i]`` is dJ_n(D_c) for the i-th crossing c of
    ``index``, for n = 1 .. n_max+1; every larger n reads zeros.
    """

    diagram: Diagram
    n_max: int
    per_n: dict[int, LaurentPoly2]
    stable_tail: LaurentPoly2
    index: dict[str, int]
    writhes: dict[int, int]
    smoothed_dj: tuple[tuple[int, ...], ...]

    def f_at(self, n: int) -> LaurentPoly2:
        """F^n for any n >= 1, using the stable tail beyond n_max."""
        if n < 1:
            raise NonpositiveN(f"F^n needs n >= 1, got {n}")
        return self.per_n.get(n, self.stable_tail)

    def dwrithe(self, n: int) -> int:
        """dJ_n(D) for any n >= 1."""
        if n < 1:
            raise NonpositiveN(f"dwrithe needs n >= 1, got {n}")
        return _dj(self.writhes, n)

    def smoothed_row(self, n: int) -> tuple[int, ...]:
        """dJ_n(D_c) for every crossing c, in ``index`` order, for any n >= 1."""
        if n < 1:
            raise NonpositiveN(f"dJ_n(D_c) needs n >= 1, got {n}")
        if n > len(self.smoothed_dj):
            return (0,) * len(self.index)
        return self.smoothed_dj[n - 1]

    def t_set(self, n: int) -> frozenset[str]:
        """T_n(D): crossings whose smoothing preserves |dJ_n|, for any n >= 1."""
        if n < 1:
            raise NonpositiveN(f"T_n needs n >= 1, got {n}")
        d_n = _dj(self.writhes, n)
        return frozenset(
            c for c, dc in zip(self.index, self.smoothed_row(n)) if _in_t_n(dc, d_n)
        )

    def crossing_reports(self, n_range: Iterable[int]) -> list[CrossingReport]:
        """Sign, index and smoothed dwrithes per crossing, in traversal order."""
        ns = sorted(set(n_range))
        if any(n < 1 for n in ns):
            raise NonpositiveN("crossing reports need n >= 1")
        rows = [self.smoothed_row(n) for n in ns]
        return [
            CrossingReport(c, self.diagram.sign(c), k, {n: row[i] for n, row in zip(ns, rows)})
            for i, (c, k) in enumerate(self.index.items())
        ]

    def fingerprint(self) -> tuple[tuple[int, LaurentPoly2], ...]:
        """Entries (n, F^n) up to and including the first entry from
        which the sequence equals the stable tail for good.

        Two diagrams have equal F-sequences (all n at once) exactly when
        their fingerprints are equal, which makes this the comparison
        key for grouping, distinguishing and invariance testing.  This
        is also the presentation convention of the published tables.
        """
        last_live = 0
        for n in range(1, self.n_max + 2):
            if self.per_n[n] != self.stable_tail:
                last_live = n
        return tuple((n, self.per_n[n]) for n in range(1, min(last_live + 1, self.n_max + 1) + 1))

    def to_json(self, name: str | None = None) -> dict:
        data: dict = {
            "gauss": str(self.diagram),
            "n_max": self.n_max,
            "F": {str(n): self.per_n[n].json_terms() for n in sorted(self.per_n)},
            "stable": self.stable_tail.json_terms(),
        }
        if name is not None:
            data = {"knot": name, **data}
        return data


@dataclass(frozen=True)
class _SmoothedData:
    """Writhe tables of every one-crossing smoothing, computed once."""

    writhes: dict[str, dict[int, int]]
    supports: frozenset[int]


def _between(seq: list, a: int, b: int) -> list:
    """The cyclic run of ``seq`` strictly after position a and before b."""
    return seq[a + 1 : b] if a < b else seq[a + 1 :] + seq[:b]


def _smoothed_writhes(word: _Word, c: int) -> dict[int, int]:
    """J_k(D_c) for the smoothing at crossing c, built on the int lists.

    The smoothed word is the segment from the Over pass to the Under
    pass forward, then the segment S from the Under pass to the Over
    pass reversed; a crossing with exactly one endpoint in S changes
    sign (the ``gauss`` module docstring, ``Diagram.smooth``).
    """
    o, u = word.opos[c], word.upos[c]
    seg = _between(word.cross, u, o)
    cross = _between(word.cross, o, u) + seg[::-1]
    if not cross:
        return {}
    over = _between(word.over, o, u) + _between(word.over, u, o)[::-1]
    sign = word.sign[:]
    for k in seg:  # a crossing with both endpoints in S flips back
        sign[k] = -sign[k]
    ind = _indices(cross, over, sign)
    writhes: dict[int, int] = {}
    for k in range(len(sign)):
        if k != c:
            writhes[ind[k]] = writhes.get(ind[k], 0) + sign[k]
    return writhes


def _smoothed_data(word: _Word) -> _SmoothedData:
    writhes: dict[str, dict[int, int]] = {}
    support: set[int] = set()
    for c, name in enumerate(word.ids):
        table = _smoothed_writhes(word, c)
        writhes[name] = table
        support.update(abs(k) for k in table if k != 0)
    return _SmoothedData(writhes, frozenset(support))


def _dj_table(data: _SmoothedData, ids: list[str], n_max: int) -> tuple[tuple[int, ...], ...]:
    """dJ_n(D_c) for n = 1 .. n_max+1 (rows) and every crossing c of
    ``ids`` (columns), in one pass over the smoothed writhe tables:
    J_k(D_c) adds to row k and J_{-k}(D_c) subtracts from it."""
    rows = [[0] * len(ids) for _ in range(n_max + 2)]  # row 0 collects J_0, dropped
    for col, name in enumerate(ids):
        for k, j in data.writhes[name].items():
            rows[abs(k)][col] += j if k > 0 else -j
    return tuple(map(tuple, rows[1:]))


def _f_poly(ind: Iterable[int], signs: list[int], row: tuple[int, ...], d_n: int) -> LaurentPoly2:
    """F^n from Ind(c), sgn(c) and dJ_n(D_c) per crossing, and d_n = dJ_n(D)."""
    terms: dict[tuple[int, int], int] = {}
    for k, s, dc in zip(ind, signs, row):
        key = (k, dc)
        terms[key] = terms.get(key, 0) + s
        key = (0, dc if _in_t_n(dc, d_n) else d_n)
        terms[key] = terms.get(key, 0) - s
    return LaurentPoly2(terms)


def f_polynomial(diagram: Diagram, n: int) -> LaurentPoly2:
    """The n-th F-polynomial F^n_D(t, l) for n >= 1."""
    if n < 1:
        raise NonpositiveN(f"F^n needs n >= 1, got {n}")
    return f_sequence(diagram).f_at(n)


def f_sequence(diagram: Diagram) -> FReport:
    """Analyse the diagram once: F^n for n = 1 .. n_max+1, the stable
    tail, and the index, writhe and dJ tables they are built from.

    n_max is the largest index magnitude seen in the diagram or any of
    its smoothings (0 when there is none), so every n > n_max has all
    dwrithes zero and F^n equal to the affine index polynomial.  The
    extra n_max+1 entry exercises that collapse; if it ever failed to
    match the tail the engine would be wrong, hence the hard error.
    """
    word = _Word(diagram)
    ind = _word_index(word)
    writhes = _writhe_table(diagram, ind)
    data = _smoothed_data(word)
    n_max = max(data.supports.union(map(abs, ind.values())), default=0)
    table = _dj_table(data, word.ids, n_max)
    tail = _affine(diagram, ind)
    per_n = {
        n: _f_poly(ind.values(), word.sign, row, _dj(writhes, n))
        for n, row in enumerate(table, start=1)
    }
    if per_n[n_max + 1] != tail:
        raise InternalInconsistency(
            f"F^{n_max + 1} of {str(diagram)!r} did not stabilize to the affine polynomial"
        )
    return FReport(diagram, n_max, per_n, tail, ind, writhes, table)
