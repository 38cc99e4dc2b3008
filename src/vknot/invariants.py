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
beyond the table reads zeros.  Ind(c), J_n(D) and dJ_n(D) are read from
the same analysis (``FReport.index``, ``.writhes``, ``.dwrithe(n)``),
and ``f_polynomial`` is ``f_sequence(diagram).f_at(n)``.

The analysis runs on an integer kernel over the integer form that
``Diagram`` builds while it validates (see its docstring): crossings
numbered 0..m-1 in first-appearance order, the crossing number and pass
flag at each position, and the sign, Over position and Under position
of each crossing.  One index routine walks
a sequence of passes once with a running label, adding the label into
Ind at an Over pass and subtracting it at an Under pass; the label
starts at 0, since Ind(c) is a difference of two labels and the steps
of a closed word sum to zero (only ``arc_labels`` evaluates the base).
It walks D over its positions, and each smoothing D_c over D's own
positions in the order of ``Diagram.smooth``: the run from the Over
pass to the Under pass forward, then the other run backward, with the
sign of each crossing with exactly one endpoint in that backward run
negated in a copy of the signs.  ``f_sequence`` doubles the pass tuple
once, so that each run is one slice of it, and hands it to every
smoothing: no smoothed word is assembled and no ``Diagram`` built per
smoothing.  One writhe routine builds the J_k table of D and of every
D_c (c left out) from the indices and signs.  ``Diagram.smooth`` stays
the public transform and the kernel's test oracle.

All functions are pure; diagrams are immutable; nothing here shares
mutable state.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import neg
from typing import Iterable, NamedTuple, Sequence

from .gauss import Diagram
from .laurent import LaurentPoly2


class EmptyDiagram(ValueError):
    """An arc-level question was asked of the crossingless unknot diagram."""


class NonpositiveN(ValueError):
    """dwrithe / T_n / F^n are only defined for n >= 1."""


class InternalInconsistency(RuntimeError):
    """The stabilization self-check of f_sequence failed (engine bug)."""


def _indices(passes: Iterable[tuple[int, bool]], sign: Sequence[int]) -> list[int]:
    """Ind(k) for every crossing k of the word whose passes, in order,
    are ``passes``; ``sign`` is indexed by crossing.

    This is the one index routine, for a diagram and for each of its
    smoothings alike.  It walks the cycle once with a running label
    that starts at 0: Ind(k) is a difference of two labels and the
    steps of a closed word sum to zero, so the base cancels.  Entries
    of crossings absent from the word are meaningless.
    """
    ind = list(map(neg, sign))
    label = 0  # of the arc into the current pass
    for k, over in passes:
        if over:
            ind[k] += label
            label -= sign[k]
        else:
            ind[k] -= label
            label += sign[k]
    return ind


def arc_labels(diagram: Diagram) -> list[int]:
    """The integer label of each arc; entry i labels the arc after pass i.

    The label is the first-met-overcrossing sign sum described in the
    module docstring; the local +-sgn rule around each crossing holds
    by construction and is property-tested.
    """
    if not diagram.entries:
        raise EmptyDiagram("the unknot diagram has no arcs")
    passes, sign = diagram._passes, diagram._sign
    # Direct evaluation for arc 0 (the arc between passes 0 and 1): a
    # crossing counts when the first of its passes met after arc 0 is
    # Over.  Fed those passes in reverse, the dict keeps each first one.
    first = dict(passes[:1] + passes[:0:-1])
    base = sum([sign[k] for k, o in first.items() if o])
    # Propagate the local rule around the cycle from arc 0.
    steps = [-sign[k] if o else sign[k] for k, o in passes[1:]]
    return list(accumulate(steps, initial=base))


def _index_table(diagram: Diagram) -> dict[str, int]:
    """Ind(c) for every crossing; {} for the unknot."""
    return dict(zip(diagram._number, _indices(diagram._passes, diagram._sign)))


def affine_index_polynomial(diagram: Diagram) -> LaurentPoly2:
    """P_D(t) = sum_c sgn(c) (t^Ind(c) - 1); zero on the unknot."""
    return _affine(_index_table(diagram).values(), diagram._sign)


def _affine(ind: Iterable[int], sign: Iterable[int]) -> LaurentPoly2:
    terms: dict[tuple[int, int], int] = {}
    get = terms.get
    for k, s in zip(ind, sign):
        terms[k, 0] = get((k, 0), 0) + s
        terms[0, 0] = get((0, 0), 0) - s
    return LaurentPoly2(terms)


def _writhes(ind: list[int], sign: Sequence[int]) -> dict[int, int]:
    """J_k for every index value k of the crossings (other k give 0), from
    Ind and sgn indexed by crossing.

    This is the one writhe routine, for a diagram and for each
    smoothing D_c (whose lists have c deleted: it is not a crossing of
    D_c).  A key stays even when its signs sum to 0, since n_max reads
    the keys.
    """
    table: dict[int, int] = {}
    get = table.get
    for i, s in zip(ind, sign):
        table[i] = get(i, 0) + s
    return table


def _dj(writhes: dict[int, int], n: int) -> int:
    return writhes.get(n, 0) - writhes.get(-n, 0)


class CrossingReport(NamedTuple):
    """Per-crossing data: sign, index value, and smoothed-diagram dwrithes."""

    crossing: str
    sign: int
    index: int
    smoothed_dwrithe: dict[int, int]


class FReport(NamedTuple):
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
        size = abs(_dj(self.writhes, n))
        return frozenset(c for c, dc in zip(self.index, self.smoothed_row(n)) if abs(dc) == size)

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


def _smoothed_writhes(
    diagram: Diagram, passes2: tuple[tuple[int, bool], ...], c: int
) -> dict[int, int]:
    """J_k(D_c) for the smoothing at crossing number c, read off D's
    integer form and ``passes2``, its passes twice round the cycle.

    D_c is the segment from the Over pass to the Under pass forward,
    then the segment S from the Under pass to the Over pass reversed; a
    crossing with exactly one endpoint in S changes sign (the ``gauss``
    module docstring, ``Diagram.smooth``).  The index walk reads those
    two runs as slices of ``passes2``, so D_c is never assembled.
    """
    o, u = diagram._opos[c], diagram._upos[c]
    n = len(diagram._passes)
    uu = u if u > o else u + n  # the Under pass, after o
    oo = o if o > u else o + n  # the Over pass, after u
    sign = list(diagram._sign)
    for k, _ in passes2[u + 1 : oo]:  # a crossing with both endpoints in S flips back
        sign[k] = -sign[k]
    ind = _indices(chain(passes2[o + 1 : uu], passes2[oo - 1 : u : -1]), sign)
    del ind[c], sign[c]
    return _writhes(ind, sign)


def _dj_table(smoothed: list[dict[int, int]], n_max: int) -> tuple[tuple[int, ...], ...]:
    """dJ_n(D_c) for n = 1 .. n_max+1 (rows) and every crossing c
    (columns, in the order of ``smoothed``), in one pass over the
    smoothed writhe tables: J_k(D_c) adds to row k and J_{-k}(D_c)
    subtracts from it."""
    rows = [[0] * len(smoothed) for _ in range(n_max + 2)]  # row 0 collects J_0, dropped
    for col, table in enumerate(smoothed):
        for k, j in table.items():
            rows[abs(k)][col] += j if k > 0 else -j
    return tuple(map(tuple, rows[1:]))


def _f_poly(ind: Iterable[int], signs: Sequence[int], row: Sequence[int], d_n: int) -> LaurentPoly2:
    """F^n from Ind(c), sgn(c) and dJ_n(D_c) per crossing, and d_n = dJ_n(D)."""
    terms: dict[tuple[int, int], int] = {}
    get = terms.get
    size = abs(d_n)
    for k, s, dc in zip(ind, signs, row):
        terms[k, dc] = get((k, dc), 0) + s
        key = (0, dc if abs(dc) == size else d_n)  # c in T_n, or not
        terms[key] = get(key, 0) - s
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
    sign = diagram._sign
    indices = _indices(diagram._passes, sign)
    writhes = _writhes(indices, sign)
    passes2 = diagram._passes * 2
    smoothed = [_smoothed_writhes(diagram, passes2, c) for c in range(len(sign))]
    n_max = max(map(abs, chain(writhes, *smoothed)), default=0)
    table = _dj_table(smoothed, n_max)
    tail = _affine(indices, sign)
    per_n = {
        n: _f_poly(indices, sign, row, _dj(writhes, n))
        for n, row in enumerate(table, start=1)
    }
    if per_n[n_max + 1] != tail:
        raise InternalInconsistency(
            f"F^{n_max + 1} of {str(diagram)!r} did not stabilize to the affine polynomial"
        )
    ind = dict(zip(diagram._number, indices))
    return FReport(diagram, n_max, per_n, tail, ind, writhes, table)
