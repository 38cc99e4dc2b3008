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
collapse.  It stores the sequence once, as ``FReport.fingerprint``: the
entries (n, F^n) up to the first stabilized one.  Equal fingerprints
are what equality of F-sequences means everywhere in this package.

``f_sequence`` is the one analysis of a diagram; the ``FReport`` it
returns keeps Ind(c), the writhe table of D and the dJ table, and F^n,
dJ_n(D), T_n and the rows of the dJ table are its methods.  The dJ
table holds dJ_n(D_c) for n = 1 .. n_max+1 (one row per n) and every
crossing c (one column per crossing, in traversal order).  One of two
kernels, below, gives its rows up to the largest index magnitude of the
smoothings, and ``f_sequence`` alone pads them with one shared zero row
up to n_max+1.  F^n and T_n read their rows from it; any n beyond the
table reads zeros.  F^n sums its first part term by term and its T_n
part in closed form: with d_n = dJ_n(D) != 0, every crossing
contributes l^{d_n} except those with dJ_n(D_c) = -d_n, which
contribute l^{-d_n}, so the part is -(sum of all signs - S) l^{d_n} -
S l^{-d_n}, where S, the sign sum over those crossings, is one masked
sum over the row; with d_n = 0 the part is -(sum of all signs).
Ind(c), J_n(D) and dJ_n(D) are read from the same analysis
(``FReport.index``, ``.writhes``, ``.dwrithe(n)``), and so is P_D(t),
``.stable_tail``: sum_k J_k(D) t^k - sum_c sgn(c), from the writhe table.
The collapse check compares it with F^{n_max+1} as ``_f_poly`` sums it.

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
negated in a copy of the signs.  The walk (``_walk_table``) doubles
the pass tuple once, so that each run is one slice of it: no smoothed
word is assembled, no ``Diagram`` built and no J_k table counted per
smoothing, as each nonzero Ind_{D_c}(k) goes straight into the dJ table
(``_writhes`` builds the J_k table of D alone).  ``Diagram.smooth``
stays the public transform and the kernels' test oracle.

From ``_LANE_MIN`` crossings on, ``f_sequence`` takes the lane pass
(``_lane_table``) instead, which analyses every smoothing at once from
a closed form.  Write o_k and u_k for the Over and Under positions of
crossing k, st(p) for the label step at position p (-s_k at o_k, +s_k
at u_k), R_c for the run strictly between o_c and u_c forward (the run
D_c keeps in order), and say that k and c interlace when exactly one
pass of k lies in R_c (a symmetric relation).  Let

    G_c(x) = sum over positions p < x of st(p) w_c(p),

where w_c(p) is -1 at a pass of a crossing that interlaces c, 0 at a
pass of c and +1 elsewhere: the signs of D_c are built into the steps.
G_c sums to 0 round the cycle, so its differences are cyclic.  Then,
for k != c, with e = +1 when o_k lies in R_c and -1 otherwise,

    Ind_{D_c}(k) = e (G_c(o_k) - G_c(u_k) - s_k)               if k, c do not interlace
    Ind_{D_c}(k) = e (G_c(o_k) + G_c(u_k) - G_c(o_c) - G_c(u_c))  if they do

(the label along R_c is G_c less G_c(o_c); along the reversed run it
is G_c(u_c) less G_c just after the pass).  With one lane per c in a
Python int, one sweep of XOR toggles (lane c on after o_c, off at u_c)
gives the lanes that interlace each k and those whose run holds o_k,
one running sum over the 2m passes gives every G_c at once, and a fixed
number of big-int operations per k gives Ind_{D_c}(k) in every lane.
The dJ table is counted from the codes 2|Ind| + [s'_k sgn(Ind) < 0],
s'_k the sign of k in D_c (-s_k where k and c interlace); the counting
is described at ``_lane_table``.  Both kernels give the same rows, and
the walk stays the reference of the lane pass's tests.
Below ``_LANE_MIN`` = 10 crossings the walk, which writes each index
straight into the table, beats the lane pass's fixed cost per diagram
and per table row; the table workload's codes (m <= 4) lie below the
constant, the compute workload's (m = 32) above it.

All functions are pure; diagrams are immutable; nothing here shares
mutable state.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from itertools import accumulate, compress, repeat
from operator import neg, sub, xor

from .gauss import Diagram
from .laurent import LaurentPoly2


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
    by construction and is property-tested.  The unknot has no arcs: [].
    """
    passes, sign = diagram._passes, diagram._sign
    if not passes:
        return []
    # Direct evaluation for arc 0 (the arc between passes 0 and 1): a
    # crossing counts when the first of its passes met after arc 0 is
    # Over.  Fed those passes in reverse, the dict keeps each first one.
    first = dict(passes[:1] + passes[:0:-1])
    base = sum([sign[k] for k, o in first.items() if o])
    # Propagate the local rule around the cycle from arc 0.
    steps = [-sign[k] if o else sign[k] for k, o in passes[1:]]
    return list(accumulate(steps, initial=base))


def _writhes(ind: list[int], sign: Sequence[int]) -> dict[int, int]:
    """J_k(D) for every index value k of the crossings (other k give 0),
    from Ind and sgn indexed by crossing.  A key stays even when its
    signs sum to 0, since n_max reads the keys."""
    table: dict[int, int] = {}
    get = table.get
    for i, s in zip(ind, sign):
        table[i] = get(i, 0) + s
    return table


def _dj(writhes: dict[int, int], n: int) -> int:
    return writhes.get(n, 0) - writhes.get(-n, 0)


class FReport(
    namedtuple("FReport", "diagram n_max fingerprint stable_tail index writhes smoothed_dj")
):
    """The full F-polynomial sequence of ``diagram``, and the analysis behind it.

    ``fingerprint`` holds (n, F^n) for n = 1 .. k, the first n from
    which F^n equals ``stable_tail`` (the affine index polynomial) for
    good: equal fingerprints mean equal F-sequences.  n_max bounds each
    index value of D and its smoothings, and F^{n_max+1} is checked to
    be the tail.  The other views read ``index`` (Ind(c) in traversal
    order), ``writhes`` (J_k(D)) and ``smoothed_dj``, where
    ``smoothed_dj[n - 1][i]`` is dJ_n(D_c) for the i-th crossing c of
    ``index``, for n = 1 .. n_max+1; every larger n reads zeros.  What
    is known of one crossing c is ``index[c]``, ``diagram.sign(c)`` and
    its column of ``smoothed_row(n)``.
    """

    __slots__ = ()

    def f_at(self, n: int) -> LaurentPoly2:
        """F^n for any n >= 1, using the stable tail beyond the fingerprint."""
        if n < 1:
            raise NonpositiveN(f"F^n needs n >= 1, got {n}")
        return self.fingerprint[n - 1][1] if n <= len(self.fingerprint) else self.stable_tail

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
        return frozenset(compress(self.index, map(size.__eq__, map(abs, self.smoothed_row(n)))))


def _walk_table(diagram: Diagram) -> list[tuple[int, ...]]:
    """The rows of the dJ table for n = 1 up to the largest index
    magnitude of the smoothings, by one index walk per smoothing.

    D_c is the run from the Over pass to the Under pass forward, then
    the run S from the Under pass to the Over pass reversed, each a
    slice of D's passes doubled; a crossing with exactly one endpoint in
    S changes sign (``Diagram.smooth``), and c, not a crossing of D_c,
    gets sign 0.  Each Ind_{D_c}(k) = i != 0 adds s'_k, the sign of k
    in D_c, (i > 0) or -s'_k (i < 0) to column c of row |i|."""
    sign, passes = diagram._sign, diagram._passes
    m, n = len(sign), len(passes)
    passes2 = passes * 2
    rows: list[list[int]] = []  # rows[i - 1][c]: dJ_i(D_c), up to the largest |i| met
    for c, (o, u) in enumerate(zip(diagram._opos, diagram._upos)):
        uu = u if u > o else u + n  # the Under pass, after o
        oo = o if o > u else o + n  # the Over pass, after u
        flipped = list(sign)
        for k, _ in passes2[u + 1 : oo]:  # a crossing with both endpoints in S flips back
            flipped[k] = -flipped[k]
        flipped[c] = 0
        ind = _indices(passes2[o + 1 : uu] + passes2[oo - 1 : u : -1], flipped)
        for i, s in zip(ind, flipped):
            if i:
                if i < 0:
                    i, s = -i, -s
                while len(rows) < i:
                    rows.append([0] * m)
                rows[i - 1][c] += s
    return [tuple(row) for row in rows]


def _lane_table(diagram: Diagram) -> list[tuple[int, ...]]:
    """``_walk_table`` for every smoothing at once: the closed form of
    the module docstring, with lane c of each packed int for D_c.

    A packed int is the sum of v_c 2^(w c) over the lanes c, for lanes
    of w bits, a whole number of bytes with 2^(w-1) > 2(m-1), which
    bounds every |v_c| met on the way.  Adding 2^(w-1) to every lane
    (``bias``) makes each lane a nonnegative w-bit field, so lanes are
    selected with masks.  The bound holds: lane c of G steps by +-1 at
    the 2m - 2 passes of the other crossings, by 0 at those of c, and
    sums to 0 round the cycle, so G_c(x) - G_c(x'), and G_c(x) itself,
    is at most m - 1 in size, and each value met is two such terms (or
    one and s_k); G_c(o_c) + G_c(u_c) reaches 2(m-1) when the passes of
    c sit side by side atop a climb of every other crossing.  So up to
    m = 64 a lane is one byte.  Per crossing k a fixed number of
    operations turns the lanes into codes, 2|Ind_{D_c}(k)| + 2 plus 1
    when the term of k in dJ(D_c), s'_k sgn(Ind_{D_c}(k)), is negative;
    lane k reads 0, so it counts like an index 0.  Codes of smoothed
    indices run up to 2m - 1 and each column sum below up to 2m - 1, so
    up to 128 crossings a byte holds both: row n of the table is one
    byte translation of the m x m codes (2n+2 to 2, 2n+3 to 0, any other
    code to 1) and one fold of its m rows, which leaves m + dJ_n(D_c) in
    byte c.  Above that the codes are counted column by column.
    """
    sign, passes, opos, upos = diagram._sign, diagram._passes, diagram._opos, diagram._upos
    m = len(sign)
    step = 1  # bytes per lane
    while 8 * step <= (2 * (m - 1)).bit_length():
        step *= 2
    w = 8 * step
    lane = (1 << w) - 1
    half = 1 << (w - 1)
    ones = ((1 << (w * m)) - 1) // lane  # 1 in every lane
    bias = half * ones
    bit = [1 << (w * c) for c in range(m)]
    # toggles[p]: the crossings with exactly one pass before position p.
    toggles = list(accumulate((bit[k] for k, _ in passes), xor, initial=0))
    wrapped = sum(b for b, o, u in zip(bit, opos, upos) if u < o)
    inside = [wrapped ^ toggles[o] for o in opos]  # the c whose run holds o_k
    cross = [toggles[o] ^ toggles[u] ^ b for o, u, b in zip(opos, upos, bit)]  # the c that k interlaces
    steps = [s * (ones - b - 2 * x) for s, b, x in zip(sign, bit, cross)]
    g = list(accumulate((-steps[k] if over else steps[k] for k, over in passes), initial=0))
    ends = sum((g[o] + g[u] + bias) & (lane * b) for o, u, b in zip(opos, upos, bit)) - 2 * bias
    low = (half - 1) * ones
    codes = []
    for o, u, s, x, b, i in zip(opos, upos, sign, cross, bit, inside):
        go, gu = g[o], g[u]
        y = go - gu + bias - s * ones  # the lanes c that k does not interlace
        y ^= ((go + gu - ends) ^ y) & ((x | b) * lane)  # the others, and lane k at 0
        minus = ((y >> (w - 1)) & ones) ^ ones  # the lanes below 0
        size = ((y & low) ^ (minus * (half - 1))) + minus
        codes.append((size << 1) + (minus ^ x ^ i ^ (3 * ones if s > 0 else 2 * ones)))
    data = b"".join([code.to_bytes(step * m, "little") for code in codes])
    table: list[tuple[int, ...]] = []
    if m <= 128:
        data = data[::step]
        top = max(data, default=2) // 2 - 1  # the largest index magnitude of the smoothings
        folds = []
        height = m
        while height > 1:
            height = (height + 1) // 2
            folds.append((8 * m * height, (1 << (8 * m * height)) - 1))
        for n in range(1, top + 1):
            counts = b"\1" * (2 * n + 2) + b"\2\0" + b"\1" * (252 - 2 * n)
            total = int.from_bytes(data.translate(counts), "little")
            for shift, mask in folds:
                total = (total & mask) + (total >> shift)
            # From a list: a tuple built from an iterator of unknown length
            # is resized, and each row length's tuple free list would fill up.
            table.append(tuple(list(map(sub, total.to_bytes(m, "little"), repeat(m)))))
    else:
        from array import array  # here, not at import: only m > 128 needs it
        from sys import byteorder

        values = array("BHIQ"[step.bit_length() - 1], data)  # not a tuple of m^2 ints
        assert values.itemsize == step
        if byteorder == "big":
            values.byteswap()  # data is little-endian
        top = max(values) // 2 - 1
        zeros = [0] * top
        columns = []
        for c in range(m):
            get = Counter(values[c::m]).get
            plus, minus = map(get, range(4, 2 * top + 4, 2), zeros), map(get, range(5, 2 * top + 5, 2), zeros)
            columns.append(map(sub, plus, minus))
        table += zip(*columns)
    return table


# Crossings from which f_sequence takes _lane_table, near the measured
# crossover: us per diagram, walk vs lane pass (40 random codes a size,
# best of 11, the two in turn; 2-core Xeon, Python 3.11.7), 29 vs 35-36
# at m = 8, 35 vs 41-42 at 9, 43-45 vs 45-47 at 10, 50-55 vs 50-54 at 11
# and 58-63 vs 53-59 at 12.  The two tie at 11; at 10 the walk leads by
# about 3 us a diagram, too little to move the constant.
_LANE_MIN = 10


def _f_poly(
    ind: Iterable[int], signs: Sequence[int], row: Sequence[int], d_n: int, total: int
) -> LaurentPoly2:
    """F^n from Ind(c), sgn(c) and dJ_n(D_c) per crossing, d_n = dJ_n(D)
    and ``total``, the sum of the signs; the T_n part in the closed form
    of the module docstring."""
    terms: dict[tuple[int, int], int] = {}
    get = terms.get
    for key, s in zip(zip(ind, row), signs):
        terms[key] = get(key, 0) + s
    flipped = sum(compress(signs, map((-d_n).__eq__, row))) if d_n else 0
    terms[0, d_n] = get((0, d_n), 0) - (total - flipped)
    terms[0, -d_n] = get((0, -d_n), 0) - flipped
    return LaurentPoly2(terms)


def f_sequence(diagram: Diagram) -> FReport:
    """Analyse the diagram once: the fingerprint of F^n, the stable
    tail, and the index, writhe and dJ tables they are built from.

    n_max is the largest index magnitude seen in the diagram or any of
    its smoothings (0 when there is none), so every n > n_max has all
    dwrithes zero and F^n equal to P(t), the tail, read from the writhe
    table.  The extra n_max+1 entry, summed over the crossings, checks
    that collapse; a mismatch would be an engine bug, hence the hard error.
    """
    sign = diagram._sign
    indices = _indices(diagram._passes, sign)
    writhes = _writhes(indices, sign)
    rows = (_lane_table if len(sign) >= _LANE_MIN else _walk_table)(diagram)
    n_max = max(max(map(abs, writhes), default=0), len(rows))
    rows += [(0,) * len(sign)] * (n_max + 1 - len(rows))
    table = tuple(rows)  # from a list: see _lane_table
    total = sum(sign)
    affine = {(k, 0): j for k, j in writhes.items()}  # P(t) = sum_k J_k t^k - sum_c sgn(c)
    affine[0, 0] = writhes.get(0, 0) - total
    tail = LaurentPoly2(affine)
    polys = [_f_poly(indices, sign, row, _dj(writhes, n), total) for n, row in enumerate(table, start=1)]
    if polys[-1] != tail:
        raise InternalInconsistency(
            f"F^{n_max + 1} of {str(diagram)!r} did not stabilize to the affine polynomial"
        )
    while len(polys) > 1 and polys[-2] == tail:  # keep the first stabilized entry only
        polys.pop()
    ind = dict(zip(diagram._number, indices))
    fingerprint = tuple(list(enumerate(polys, 1)))  # from a list: see _lane_table
    return FReport(diagram, n_max, fingerprint, tail, ind, writhes, table)
