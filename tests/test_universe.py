"""Every code with at most m crossings, checked in one pass.

``sweep(size)`` calls ``enumerate_codes(size)`` once and runs every
exhaustive check on each code it yields; ``assert_every_code(m)``
compares the sweeps of sizes 0..m with the pins:

- the code and class counts, ``CODE_COUNTS`` and ``CLASS_COUNTS``;
- each crossing's Over and Under positions hold its two passes with
  its sign, and ``crossings()`` lists the ids in order of first
  appearance;
- the round trip, with one parse of the text: ``parse_gauss(str(d))``
  equals d, hashes alike and has len(d) passes, and the text also
  parses to d with each space written as a comma and a tab and in
  lower case;
- the whole engine-free oracle, ``assert_analysis_matches_oracle``,
  on the code's analysis: both kernels' dJ table rows; Ind, J_k, n_max
  and the affine index polynomial; the arc labels; and dJ_n(D),
  dJ_n(D_c), T_n and F^n by its definition for n = 1 to n_max + 3;
- each of the 7 images of D under the group of order 8 has D's
  ``group_view`` times the image's sign pattern, ``check_images``,
  crossing by crossing: (sgn(c), Ind(c), dJ_n(D_c)) and dJ_n(D);
- every R1- and R2- neighbour keeps the F-fingerprint, and the R1-,
  R2- and R3 neighbours are ``MOVE_DIGESTS``; with the R1+ and R2+
  calls of the codes with m <= 2, the same moves are ``SINGLE_PINS``;
- each R1- and R2- move obeys the crossing-level lemmas of the
  invariance proof, ``check_lemmas``: a kept crossing keeps its (sign,
  Ind, dJ column), and the crossings a move removes cancel;
- the R3 scan is the candidates of ``r3_candidates`` that meet both
  sign relations, the first per triple, so its moves are among them;
  every candidate's rewrite is counted by (accepted, lemmas kept,
  fingerprint kept), ``R3_CENSUS``, and every accepted one keeps both;
- control moves, which are not Reidemeister moves, change the
  fingerprint as often as ``CONTROL_MOVE_COUNTS`` says.

Each code, each R1- and R2- neighbour and each R3 candidate's rewrite
get one ``f_sequence`` call, and no other diagram does.  The 7 images,
the crossing changes and the over/under swaps of a code are codes of
the same size, so once the size is analysed ``read_image`` reads their
analyses from the pass by code text, with the crossings renumbered by
first appearance; a text missing there is a fault, never a skip.  The
laws of F^n under the group follow: every image is a code of the
sweep, so the oracle holds F^n of each image to its definition from
the image's (sgn, Ind, dJ_n(D_c)) and dJ_n(D), which the images check
holds to D's under the sign pattern.  The suite runs m = 3 (1,013
codes); CI runs m = 4 (27,893 codes) as one step.

A sweep records each failing check under its name and is kept for the
process, so the per-check tests of ``test_enumerate``, ``test_gauss``,
``test_invariants``, ``test_kernel``, ``test_moves`` and
``test_walk_digest`` read their own part of the one pass over each size
and fail on their own.
"""
import hashlib
import json
from collections import Counter
from functools import cache, partial
from itertools import combinations
from operator import and_, mul
from typing import NamedTuple

from conftest import assert_analysis_matches_oracle, passes
from vknot.enumerate import canonical_code, enumerate_codes
from vknot.gauss import Diagram, parse_gauss
from vknot.invariants import FReport, f_sequence
from vknot.moves import MoveError, _r3_apply, _r3_patterns, _Word, apply_move, move_sites

# Per m: the m-crossing codes of ``enumerate_codes(m)``, and their
# classes up to rotation and relabelling.
CODE_COUNTS = {0: 1, 1: 4, 2: 48, 3: 960, 4: 26880}
CLASS_COUNTS = {0: 1, 1: 2, 2: 14, 3: 164, 4: 3388}

# Per m: (neighbours, sha256 of their (code, kind, site, moved code)
# records in ``neighbours`` order) over every m-crossing code.  The
# digests were recorded before the moves ran on integer words, so a
# change of a move's site order or of its result text fails here.
MOVE_DIGESTS = {
    1: (4, "5e1d0469b3d343f60c06e4351ce2da0e5d625eae521285a00300ff9311f8c2dc"),
    2: (72, "dff39e1de3c56d45b3d89d704faa39e9dcd4d9ccaef5a0ab61856defefb17753"),
    3: (1488, "2735f063debf34f9b6b8e898a52a27ed29d08c8730e98d48024d88121ad2fd9d"),
    4: (40704, "612373cec67f128e425669a83737eae22dd5ca1b297a5bb907b52a794adfd00e"),
}

# Per m: (records, sha256 of the records) of single ``apply_move``
# calls on every m-crossing code: every R1-, R2- and R3 site of each
# code and, for m <= 2, every R1+ arc with both signs and both pass
# orders and every R2+ pair of arcs, equal arcs (``InvalidArc``)
# included.  Each record is (code, kind, parameters, result text or
# error class and message).  Recorded before the moves ran on integer
# words.
SINGLE_PINS = {
    1: (68, "c6175e11fa56bbf0d3d37e2c7d4e70742f43b60fd652f1aed08243d2e628dadb"),
    2: (2376, "d4e604b8bff739b5385146d6ba817b6e3ac9f01973c2031d5a441e5dabafdba0"),
    3: (1488, "29418bb616cf7dbb450dd3063d8f8c0aa1f8800cdf16f40ab2414b5ff0de4f41"),
}

# Per kind of ``control_neighbours``: (neighbours whose F-fingerprint
# differs from the code's, all neighbours), over every code with 2..m
# crossings; and the number of those codes whose fingerprint is not the
# unknot's.
CONTROL_MOVE_COUNTS = {
    3: ({"over": (688, 1184), "under": (688, 1184), "change": (1376, 2976)}, 8 + 360),
    4: ({"over": (31664, 47264), "under": (31664, 47264), "change": (61792, 110496)}, 8 + 360 + 15008),
}

# Per m: every ``r3_candidates`` pattern of every m-crossing code,
# counted by (both sign relations hold, the crossing lemmas hold, the
# F-fingerprint is kept) of its rewrite.  No code with m <= 2 has one.
R3_CENSUS = {
    **{m: {} for m in range(3)},
    3: {(True, True, True): 192, (False, False, True): 240, (False, False, False): 336},
    4: {(True, True, True): 6144, (False, False, True): 5760, (False, False, False): 12672},
}


class Pin:
    """A count of JSON records and the sha256 of them, each followed by a NUL."""

    def __init__(self):
        self.count, self.sha = 0, hashlib.sha256()

    def add(self, record) -> None:
        self.sha.update(json.dumps(record).encode() + b"\0")
        self.count += 1

    def value(self) -> tuple[int, str]:
        return self.count, self.sha.hexdigest()


def neighbours(d: Diagram):
    """(kind, site, diagram) for every diagram one R1-, R2- or R3 move
    away from d, in the order of ``move_sites``."""
    for kind in ("R1-", "R2-", "R3"):
        for site in move_sites(d, kind):
            yield kind, site, apply_move(d, kind, *(site if kind == "R3" else (site,)))


def insertions(d: Diagram):
    """(kind, parameters, result) of every R1+ and R2+ call on d's arcs;
    the result is the moved code, or an error's class and message."""
    arcs = range(len(d))
    calls = [("R1+", [a, s, o]) for a in arcs for s in (1, -1) for o in (True, False)]
    calls += [("R2+", [a, b, o]) for a in arcs for b in arcs for o in (True, False)]
    for kind, params in calls:
        try:
            result = str(apply_move(d, kind, *params))
        except MoveError as exc:
            result = [type(exc).__name__, str(exc)]
        yield kind, params, result


def control_neighbours(word: list):
    """(kind, passes) for every control neighbour of the code whose
    (id, over, sign) passes are ``word``: kind "over" ("under") swaps two
    cyclically adjacent Over (Under) passes of distinct crossings, a
    forbidden move; kind "change" flips both passes of one crossing and
    negates its sign.  None of them is a Reidemeister move, so none is
    in ``moves._MOVES``."""
    for i, (a, b) in enumerate(zip(word, word[1:] + word[:1])):
        (x, over, _), (y, other, _) = a, b
        if over == other and x != y:
            swapped = list(word)
            swapped[i], swapped[(i + 1) % len(word)] = b, a
            yield "over" if over else "under", swapped
    for c in dict.fromkeys(x for x, _, _ in word):
        yield "change", [(x, not over, -sign) if x == c else (x, over, sign) for x, over, sign in word]


def check_positions(d: Diagram, code: str) -> None:
    """Each crossing's Over and Under positions hold its two passes with
    its sign, and ``crossings()`` lists the ids in order of first
    appearance."""
    word = passes(d)
    for c, k in d._number.items():
        assert word[d._opos[k]] == (c, True, d.sign(c)), (code, c)
        assert word[d._upos[k]] == (c, False, d.sign(c)), (code, c)
    assert d.crossings() == tuple(dict.fromkeys(c for c, _, _ in word)), code


def check_round_trip(d: Diagram, code: str) -> None:
    """The text round trip, with one parse of ``code``, d's text: the
    parse equals d and hashes alike, and the text has len(d) passes;
    the text also parses to d with ",\\t" separators in lower case."""
    parsed = parse_gauss(code)
    assert parsed == d and hash(parsed) == hash(d), code
    assert len(d) == len(code.split()) == len(parsed), code
    assert parse_gauss(code.replace(" ", ",\t").lower()) == d, code


def read_image(seen: dict, word: list) -> tuple["Seen", dict]:
    """The analysis in ``seen`` of the code whose (id, over, sign) passes
    are ``word``, a code of the size ``seen`` holds, with its crossings
    renumbered 1, 2, ... in order of first appearance, as
    ``enumerate_codes`` numbers them, and that renumbering, {id in
    ``word``: id in the code}.  A missing text raises KeyError."""
    number: dict[str, str] = {}
    tokens = [("O" if over else "U") + number.setdefault(c, str(len(number) + 1)) + ("+" if sign > 0 else "-")
              for c, over, sign in word]
    return seen[" ".join(tokens)], number


def crossing_data(report: FReport, rows: int) -> dict[str, tuple]:
    """{id: (sign, Ind, column)} for each crossing c of the report's
    diagram, the column being dJ_n(D_c) for n = 1..rows (zeros past the
    report's own rows)."""
    sign = report.diagram.sign
    columns = zip(*map(report.smoothed_row, range(1, rows + 1)))
    return {c: (sign(c), ind, column) for (c, ind), column in zip(report.index.items(), columns)}


def group_view(report: FReport) -> tuple[tuple, tuple]:
    """What the group of order 8 acts on, hashable so that equal views
    share one copy: the items of ``crossing_data`` for n = 1 to n_max + 1,
    and the row dJ_n(D) for the same n."""
    rows = report.n_max + 1
    return tuple(crossing_data(report, rows).items()), tuple(map(report.dwrithe, range(1, rows + 1)))


# The group's generators, which commute: each acts on a code's (id,
# over, sign) passes and multiplies every crossing's sgn(c), Ind(c) and
# column dJ_n(D_c), and the row dJ_n(D), by its sign pattern.
GENERATORS = {
    "reverse": (lambda word: word[::-1], (1, -1, 1, -1)),
    "mirror": (lambda word: [(c, not over, -sign) for c, over, sign in word], (-1, -1, -1, 1)),
    "reflect": (lambda word: [(c, over, -sign) for c, over, sign in word], (-1, -1, 1, 1)),
}


def check_images(view: tuple, word: list, image, code: str) -> None:
    """Each of the 7 images of D, the products of distinct ``GENERATORS``,
    has D's ``view`` with each crossing's data and the row multiplied by
    the product of their patterns; ``word`` is D's passes and ``code``
    its text.  ``image(passes)`` returns the view of the code with those
    passes and the map from D's crossing ids to its ids."""
    data, row = view
    for names in (names for k in (1, 2, 3) for names in combinations(GENERATORS, k)):
        moved, pattern = word, (1, 1, 1, 1)
        for name in names:
            act, signs = GENERATORS[name]
            moved, pattern = act(moved), tuple(map(mul, pattern, signs))
        (got, got_row), number = image(moved)
        s, i, c, r = pattern
        expected = {number[x]: (s * sign, i * ind, tuple(c * v for v in column)) for x, (sign, ind, column) in data}
        assert dict(got) == expected and got_row == tuple(r * v for v in row), (code, names)


def check_lemmas(before: FReport, after: FReport, kind: str) -> None:
    """The crossing-level lemmas of the invariance proof for one ``kind``
    move from ``before``'s diagram to ``after``'s, either way round:

    - every crossing on both sides keeps its (sign, Ind, column);
    - R1: the one crossing k on the larger side D is a kink with Ind(k)
      = 0 and column dJ_n(D), negated when its Over pass comes first
      (smoothing it then reverses the rest of the word);
    - R2: the two crossings on the larger side have opposite signs,
      equal Ind and equal columns; R3 adds or removes none."""
    rows = max(len(before.smoothed_dj), len(after.smoothed_dj))
    small, large = sorted((before, after), key=lambda side: len(side.index))
    data, large_data = crossing_data(small, rows), crossing_data(large, rows)
    where = (kind, str(before.diagram), str(after.diagram))
    assert data.keys() <= large_data.keys(), where
    assert all(large_data[c] == triple for c, triple in data.items()), where
    extra = [large_data[c] + (c,) for c in large_data.keys() - data.keys()]
    if kind in ("R1+", "R1-"):
        ((_, ind, column, k),) = extra
        word = passes(large.diagram)
        at = next(i for i, (c, over, _) in enumerate(word) if c == k and over)
        over_first = word[(at + 1) % len(word)][0] == k
        dj = tuple(large.dwrithe(n) * (-1 if over_first else 1) for n in range(1, rows + 1))
        assert (ind, column) == (0, dj), where
    elif kind in ("R2+", "R2-"):
        (s1, i1, c1, _), (s2, i2, c2, _) = extra
        assert (s1, i1, c1) == (-s2, i2, c2), where
    else:
        assert not extra, where


def lemmas_hold(before: FReport, after: FReport, kind: str) -> bool:
    """Whether ``check_lemmas(before, after, kind)`` passes."""
    try:
        check_lemmas(before, after, kind)
    except AssertionError:
        return False
    return True


def check_moves(d: Diagram, report: FReport, code: str, moves: Pin, singles: Pin, lemmas) -> None:
    """Every R1- and R2- neighbour keeps the fingerprint of ``report``,
    d's analysis, and is checked by ``lemmas(report, its analysis,
    kind)``; every neighbour feeds both pins.  The R3 neighbours are
    accepted candidates of ``check_r3``, which analyses them."""
    for kind, site, moved in neighbours(d):
        moved_code = str(moved)
        if kind != "R3":
            analysis = f_sequence(moved)
            assert analysis.fingerprint == report.fingerprint, (code, moved_code)
            lemmas(report, analysis, kind)
        moves.add([code, kind, site, moved_code])
        singles.add([code, kind, list(site) if kind == "R3" else [site], moved_code])


def r3_candidates(word: _Word):
    """Every adjacency pattern the R3 scan considers, in its order: an
    adjacent O_p O_q, a pass of r next to U_p (beta = +1 after it, -1
    before it) and r's other pass next to U_q, on either side (gamma
    likewise).  Yields the (p, q, r) ids, the three position swaps, and
    the two sign relations of the ``moves`` docstring, as written there:
    sgn(p) beta == sgn(q) gamma and sgn(r) == sgn(p) gamma chi."""
    passes, sign, ids = word.passes, word.sign, word.ids
    n = len(passes)
    pos = dict(zip(passes, range(n)))
    for i, ((p, op), (q, oq)) in enumerate(zip(passes, passes[1:] + passes[:1])):
        if not (op and oq) or p == q:
            continue
        up, uq = pos[p, False], pos[q, False]
        for beta in (1, -1):
            jr = (up + beta) % n
            r, over = passes[jr]
            if r in (p, q):
                continue
            chi, other = 1 if over else -1, pos[r, not over]
            for gamma in (1, -1):
                if other == (uq + gamma) % n:
                    swaps = ((i, (i + 1) % n), (up, jr), (uq, other))
                    yield ((ids[p], ids[q], ids[r]), swaps,
                           sign[p] * beta == sign[q] * gamma, sign[r] == sign[p] * gamma * chi)


def r3_filter(word: _Word, keep) -> dict:
    """The first swaps of each (p, q, r) among the word's ``r3_candidates``
    whose two relations pass ``keep(first, second)``."""
    out: dict = {}
    for triple, swaps, first, second in r3_candidates(word):
        if keep(first, second):
            out.setdefault(triple, swaps)
    return out


def check_r3(d: Diagram, report: FReport, code: str, census: Counter) -> None:
    """The candidates that meet both relations, the first per triple, are
    ``_r3_patterns`` in its order, so every R3 move of d is one of them.
    Each candidate's rewrite of d, with ``report`` d's analysis, counts
    once in ``census``, and each accepted one keeps the crossing lemmas
    and the fingerprint."""
    accepted = r3_filter(_Word(d), and_)
    assert list(accepted.items()) == list(_r3_patterns(_Word(d)).items()), code
    for triple, swaps, first, second in r3_candidates(_Word(d)):
        word = _Word(d)
        _r3_apply(word, {triple: swaps}, *triple)
        analysis = f_sequence(word.diagram())
        outcome = first and second, lemmas_hold(report, analysis, "R3"), analysis.fingerprint == report.fingerprint
        census[outcome] += 1
        assert not outcome[0] or all(outcome), (code, triple, outcome)


def check_control(word: list, report, image, code: str, unknot, control: dict) -> bool:
    """Adds the control neighbours of d, the code whose passes are
    ``word`` and whose analysis is ``report``, to ``control``'s
    (differs, all) counts and returns whether d is knotted.  Forbidden
    moves unknot every virtual knot, so a knotted d has a neighbour that
    changes its fingerprint.  Each neighbour is a code of the same size,
    whose analysis ``image`` reads, as ``read_image`` does."""
    base, changed = report.fingerprint, False
    for kind, moved in control_neighbours(word):
        differs = image(moved)[0].fingerprint != base
        control[kind][0] += differs
        control[kind][1] += 1
        changed |= differs
    assert changed or base == unknot, code
    return base != unknot


class Seen(NamedTuple):
    """What ``sweep`` keeps of a code's analysis, by code text."""

    fingerprint: tuple
    view: tuple


# The per-code checks of ``sweep``, each a key of ``Size.faults``.
CHECKS = ("size", "positions", "round trip", "oracle", "images", "moves", "lemmas", "r3", "control")


class Size(NamedTuple):
    """What one pass over ``enumerate_codes(size)`` found: the code count,
    distinct texts and classes; the first few failures of each check in
    ``CHECKS``; the ``MOVE_DIGESTS``, ``SINGLE_PINS`` and ``R3_CENSUS``
    values; the (differs, all) control counts per kind and the knotted
    codes."""

    codes: int
    texts: int
    classes: int
    faults: dict
    moves: tuple
    singles: tuple
    r3: dict
    control: dict
    knotted: int


@cache
def sweep(size: int) -> Size:
    """Every per-code check on every code with ``size`` crossings, in one
    call of ``enumerate_codes``.  Once every code is analysed, the
    images and control checks read the analyses of the same-size images
    from the map ``seen``, and each code's passes from its text.  A
    failing check is recorded under its name, up to five codes each, and
    the pass goes on, so each check fails on its own; the result is kept
    for the process."""
    unknot = f_sequence(parse_gauss("")).fingerprint
    faults = {name: [] for name in CHECKS}

    def run(name, check, *args):
        try:
            return check(*args)
        except Exception as exc:
            if len(faults[name]) < 5:
                faults[name].append(f"{type(exc).__name__}: {exc}")

    count, texts, classes = 0, set(), set()
    moves, singles, r3 = Pin(), Pin(), Counter()
    control = {"over": [0, 0], "under": [0, 0], "change": [0, 0]}
    knotted = 0
    seen: dict[str, Seen] = {}
    distinct: dict[Seen, Seen] = {}  # codes share few analyses: keep one copy of each
    for d in enumerate_codes(size):
        code = str(d)
        if d.n_crossings != size and len(faults["size"]) < 5:
            faults["size"].append(code)
        count += 1
        texts.add(code)
        classes.add(canonical_code(d))
        run("positions", check_positions, d, code)
        run("round trip", check_round_trip, d, code)
        report = f_sequence(d)
        run("oracle", assert_analysis_matches_oracle, d, report)
        analysis = Seen(report.fingerprint, group_view(report))
        seen[code] = distinct.setdefault(analysis, analysis)
        run("moves", check_moves, d, report, code, moves, singles, partial(run, "lemmas", check_lemmas))
        run("r3", check_r3, d, report, code, r3)
        if size <= 2:
            for kind, params, result in insertions(d):
                singles.add([code, kind, params, result])
    image = partial(read_image, seen)

    def image_view(word):
        known, number = image(word)
        return known.view, number

    for code, known in seen.items():
        word = passes(code)
        run("images", check_images, known.view, word, image_view, code)
        if size >= 2:
            knotted += bool(run("control", check_control, word, known, image, code, unknot, control))
    return Size(count, len(texts), len(classes), faults, moves.value(), singles.value(), dict(r3),
                {kind: tuple(pair) for kind, pair in control.items()}, knotted)


def control_totals(m: int) -> tuple[dict, int]:
    """``sweep``'s control counts and knotted codes summed over 2..m
    crossings, the form of ``CONTROL_MOVE_COUNTS[m]``."""
    sizes = [sweep(size) for size in range(2, m + 1)]
    counts = {kind: tuple(sum(s.control[kind][i] for s in sizes) for i in (0, 1)) for kind in sizes[0].control}
    return counts, sum(s.knotted for s in sizes)


def assert_every_code(m: int) -> None:
    """Every check of the module docstring on every code with at most m
    crossings, m <= 4, each pin compared once its size is done."""
    for size in range(m + 1):
        s = sweep(size)
        assert s.faults == {name: [] for name in CHECKS}, size
        assert (s.codes, s.texts, s.classes) == (CODE_COUNTS[size], CODE_COUNTS[size], CLASS_COUNTS[size])
        if size in MOVE_DIGESTS:
            assert s.moves == MOVE_DIGESTS[size]
        if size in SINGLE_PINS:
            assert s.singles == SINGLE_PINS[size]
        assert s.r3 == R3_CENSUS[size], size
        if size in CONTROL_MOVE_COUNTS:
            assert control_totals(size) == CONTROL_MOVE_COUNTS[size]


def test_every_code_with_at_most_three_crossings():
    assert_every_code(3)
