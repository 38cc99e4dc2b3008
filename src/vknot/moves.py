"""Classical Reidemeister moves R1/R2/R3 on Gauss codes.

These rewrites produce equivalent diagrams and exist to property-test
the invariance of everything in :mod:`vknot.invariants`.  Virtual
Reidemeister moves and the detour move are identities on Gauss codes
and are deliberately not represented.

Arc ``i`` runs from pass ``i`` to pass ``i+1`` of the word, as
``invariants.arc_labels`` numbers them; insertions at arc ``i`` go between
passes ``i`` and ``i+1``.

R1 inserts a kink: two adjacent passes of a fresh crossing, either
pass order, either sign.  R2 pushes one arc across another: fresh
crossings ``a``, ``b`` appear as ``a b`` on one arc and ``b a`` on the
other, all-Over on one strand and all-Under on the other, with opposite
signs (both sign assignments are geometrically realizable; we fix
``a`` positive).

R3 slides a strand lying over two crossings ``p``, ``q`` across their
common crossing ``r`` with a third strand.  On the word this swaps the
passes inside three adjacent pairs: ``O_p O_q`` on the sliding strand,
``U_p`` next to one pass of ``r``, and ``U_q`` next to the other.  Not
every such adjacency pattern is a geometric R3: realizing the triangle
with travel directions read off the word forces two sign relations,

    sgn(p) * beta == sgn(q) * gamma      and
    sgn(r) == sgn(p) * gamma * chi,

where ``beta``/``gamma`` are +1 when the strand meets its ``p``/``q``
underpass before the ``r`` pass (-1 after), and ``chi`` is +1 when the
``r`` pass adjacent to ``U_p`` is the overpass.  Patterns violating
them are rejected.  What checks the predicate: on every code with at
most four crossings, the crossing-level lemmas of the invariance proof
and ``R3_CENSUS`` (``tests/test_universe.py``) separate the accepted
patterns from the rejected ones exactly.  The 192 (m = 3) and 6,144
(m = 4) accepted patterns keep every crossing's (sign, Ind, dJ column)
triple; the 576 and 18,432 rejected ones each change some triple, and
240 and 5,760 of those still keep F.  Whether the predicate accepts
every oriented Omega-3 move is still open (ROADMAP item 13).

Each move is defined once, as an in-place rewrite of a word that
checks its parameters against one scan of the word's sites; ``_MOVES``
maps each kind to scan, draw and rewrite.  A word is the mutable copy
of a ``Diagram``'s integer form: the list of ``(k, over)`` passes, k a
crossing number, with each crossing's sign and id in lists indexed by
k.  Scans compare crossing numbers and read signs by k; only R3 sites,
whose public parameters are crossing ids, read the ids.  The R2 and R3
scans index the passes by position only once they meet a candidate
pair.  The word also keeps the set of ids present and a low-water mark
below which every numeric id is taken, updated by each insertion and
removal, so a fresh id is found without rebuilding the set.  A word
becomes a ``Diagram`` again only in ``_Word.diagram``, which feeds its
(id, pass flag, sign) triples to the pairing loop of ``gauss``.  Valid
moves keep a word valid, so a walk rewrites one word and validates it
once, as the ``Diagram`` it ends on, and applies each drawn site from
the scan it was drawn from; a kind whose scan came back empty is
redrawn without a second scan in that step.
The walk records each step as a ``(kind, parameters)`` pair:
``random_walk`` turns them into its ``MoveScript``, and
``fuzz_invariance`` only for a walk that changed the fingerprint.
The public interface reads the same table: ``move_sites(diagram,
kind)`` lists one scan's sites, each in parameter form, and
``apply_move(diagram, kind, *params)`` checks the exact type of each
parameter, rewrites the diagram's word and builds a ``Diagram``.
``MoveScript.apply`` (scripts are external input) checks each step's
keys, then calls ``apply_move`` on it.

``fuzz_invariance`` is the one fuzzing loop, and ``_walk`` the one walk
loop under it and ``random_walk``.  Reproducibility across
platforms matters more than statistical quality, so walks draw from a
fixed 64-bit linear congruential generator (Knuth's MMIX multiplier
6364136223846793005 and increment 1442695040888963407, taking the top
31 bits of the state), never from :mod:`random`.
"""

from __future__ import annotations

from collections import namedtuple

from .gauss import Diagram
from .invariants import f_sequence


class MoveError(ValueError):
    """Base class for Reidemeister-move failures."""


class InvalidArc(MoveError):
    """An insertion arc index is out of range (or arcs coincide)."""


class PatternNotFound(MoveError):
    """The requested removal/slide pattern is absent from the word."""


# -- deterministic RNG ---------------------------------------------------------

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    """64-bit linear congruential generator; identical on every platform."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        self.state = state = (self.state * _MULT + _INC) & _MASK
        return (state >> 33) % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


# -- the moves, on words ---------------------------------------------------------

class _Word:
    """A diagram's integer form, mutable: the ``(k, over)`` passes in word
    order, and the sign and id of each crossing number k.  New crossings
    append to ``sign`` and ``ids``; removed ones keep their slots.

    ``present`` is the set of ids of the crossings in ``passes``, and
    ``mark`` a low-water mark: every canonical numeric id ``str(t)``
    with 1 <= t < mark is present.  ``fresh`` and ``remove`` keep both
    up to date, so an insertion probes upward from the mark only."""

    __slots__ = ("passes", "sign", "ids", "present", "mark")

    def __init__(self, diagram: Diagram):
        self.passes = list(diagram._passes)
        self.sign = list(diagram._sign)
        self.ids = list(diagram._number)
        self.present = set(diagram._number)
        self.mark = 1

    def fresh(self, *signs: int) -> list[int]:
        """Add one crossing per sign, with the smallest numeric ids unused
        by the crossings present, ascending; return their numbers."""
        ids, present = self.ids, self.present
        out = []
        token = self.mark
        for sign in signs:
            c = str(token)
            while c in present:
                token += 1
                c = str(token)
            out.append(len(ids))
            ids.append(c)
            present.add(c)
            self.sign.append(sign)
            token += 1
        self.mark = token
        return out

    def remove(self, positions: set[int]) -> None:
        """Delete the passes at ``positions``, which hold both passes of
        each crossing they name."""
        passes, ids = self.passes, self.ids
        for k in {passes[pos][0] for pos in positions}:
            c = ids[k]
            self.present.remove(c)
            if c.isdigit() and c[0] != "0" and int(c) < self.mark:  # ids are ASCII
                self.mark = int(c)
        for pos in sorted(positions, reverse=True):
            del passes[pos]

    def diagram(self) -> Diagram:
        """The word as a validated ``Diagram``: its ids and signs are
        valid by construction, and the pairing is checked."""
        ids, sign = self.ids, self.sign
        return Diagram._of([(ids[k], over, sign[k]) for k, over in self.passes])


def _r1_insert(word: _Word, arcs: range, arc: int, sign: int, over_first: bool) -> None:
    if arc not in arcs:
        raise InvalidArc(f"arc {arc} out of range for {len(word.passes)} entries")
    if sign not in (1, -1):
        raise MoveError(f"sign must be +1 or -1, got {sign!r}")
    (k,) = word.fresh(sign)
    word.passes[arc + 1 : arc + 1] = [(k, over_first), (k, not over_first)]


def _r1_sites(word: _Word) -> list[int]:
    passes = word.passes
    sites = [i for i, ((a, _), (b, _)) in enumerate(zip(passes, passes[1:] + passes[:1])) if a == b]
    return sites[:1] if len(passes) == 2 else sites  # "O1 U1" is one kink, seen from both ends


def _r1_remove(word: _Word, sites: list[int], site: int) -> None:
    if site not in sites:
        raise PatternNotFound(f"no kink at position {site}")
    word.remove({site, (site + 1) % len(word.passes)})


def _r2_insert(word: _Word, arcs: range, arc1: int, arc2: int, over_first: bool) -> None:
    if arc1 == arc2 or arc1 not in arcs or arc2 not in arcs:
        raise InvalidArc(f"R2 insertion needs two distinct arcs in {arcs}, got {arc1}, {arc2}")
    a, b = word.fresh(1, -1)
    first = [(a, over_first), (b, over_first)]
    second = [(b, not over_first), (a, not over_first)]
    passes = word.passes
    if arc1 < arc2:  # the later arc first, so that the earlier one keeps its position
        passes[arc2 + 1 : arc2 + 1] = second
        passes[arc1 + 1 : arc1 + 1] = first
    else:
        passes[arc1 + 1 : arc1 + 1] = first
        passes[arc2 + 1 : arc2 + 1] = second


def _r2_sites(word: _Word) -> list[list[int]]:
    passes, sign = word.passes, word.sign
    n = len(passes)
    pos = None  # (k, pass) -> position, built at the first candidate pair
    sites = []
    i = -1
    for (c1, o1), (c2, o2) in zip(passes, passes[1:] + passes[:1]):
        i += 1
        if o1 != o2 or c1 == c2 or sign[c1] == sign[c2]:
            continue
        if pos is None:
            pos = dict(zip(passes, range(n)))
        # Each configuration is seen from both pairs, (i, j) and (j, i): keep the first.
        j = pos[c2, not o2]
        if i < j and (j + 1) % n == pos[c1, not o1]:
            sites.append([i, j])
    return sites


def _r2_remove(word: _Word, sites: list[list[int]], site: list[int]) -> None:
    if list(map(type, site)) != [int, int] or site not in sites:  # [True, 2] == [1, 2]
        raise PatternNotFound(f"no R2 configuration at {site}")
    (i, j), n = site, len(word.passes)
    word.remove({i, (i + 1) % n, j, (j + 1) % n})


def _r3_patterns(word: _Word) -> dict:
    """Every valid R3 slide's id triple, in word order -> its first position-swaps."""
    passes, sign, ids = word.passes, word.sign, word.ids
    n = len(passes)
    pos = None  # (k, pass) -> position, built at the first candidate pair
    out: dict = {}
    i = -1
    for (p, op), (q, oq) in zip(passes, passes[1:] + passes[:1]):
        i += 1
        if not (op and oq) or p == q:
            continue
        if pos is None:
            pos = dict(zip(passes, range(n)))
        up, uq = pos[p, False], pos[q, False]
        sp, spq = sign[p], sign[p] * sign[q]
        for beta in (1, -1):
            jr = (up + beta) % n
            r, over = passes[jr]
            if r == p or r == q:
                continue
            # The first relation fixes gamma, so r's other pass is tested on
            # one side of U_q only (n >= 6: the two sides differ); chi is
            # +1 when ``over``.
            gamma = spq * beta
            other = pos[r, not over]
            if other == (uq + gamma) % n and sign[r] == (sp * gamma if over else -sp * gamma):
                out.setdefault((ids[p], ids[q], ids[r]), ((i, (i + 1) % n), (up, jr), (uq, other)))
    return out


def _r3_apply(word: _Word, patterns: dict, p: str, q: str, r: str) -> None:
    # The first pattern of (p, q, r) or (q, p, r): O_p O_q and O_q O_p are never both adjacent.
    swaps = patterns.get((p, q, r)) or patterns.get((q, p, r))
    if swaps is None:
        raise PatternNotFound(f"no R3 triangle for ({p}, {q}, {r})")
    passes = word.passes
    for x, y in swaps:
        passes[x], passes[y] = passes[y], passes[x]


# -- one table of moves -----------------------------------------------------------

# The insertions draw a sign and a pass order as ``Lcg.choice`` would from
# (1, -1) and (True, False): ``randrange(2)`` picks the index.

def _draw_r1_insert(rng: Lcg, word: _Word, arcs) -> tuple:
    randrange = rng.randrange
    arc = randrange(len(word.passes)) if word.passes else 0
    return arc, (1, -1)[randrange(2)], not randrange(2)


def _draw_r2_insert(rng: Lcg, word: _Word, arcs) -> tuple:
    randrange, n = rng.randrange, len(word.passes)
    arc1 = randrange(n)
    arc2 = randrange(n - 1)
    return arc1, arc2 + (arc2 >= arc1), not randrange(2)


class _Move(namedtuple("_Move", "keys sites draw rewrite")):
    """``keys``: each parameter's step-dict key, in order -> its JSON type;
    ``sites(word)``: one scan's sites, empty if the move cannot apply; ``draw(rng,
    word, sites)`` -> parameters; ``rewrite(word, sites, *parameters)`` in place or raises."""

    __slots__ = ()


# Insertions apply on every word with enough arcs; their "sites" are those arcs.
_MOVES = {
    "R1+": _Move({"arc": int, "sign": int, "over_first": bool},
                 lambda w: range(max(len(w.passes), 1)), _draw_r1_insert, _r1_insert),
    "R1-": _Move({"site": int}, _r1_sites, lambda rng, w, s: (rng.choice(s),), _r1_remove),
    "R2+": _Move({"arc1": int, "arc2": int, "over_first": bool},
                 lambda w: range(len(w.passes) if len(w.passes) > 1 else 0),
                 _draw_r2_insert, _r2_insert),
    "R2-": _Move({"site": list}, _r2_sites, lambda rng, w, s: (rng.choice(s),), _r2_remove),
    "R3": _Move(dict.fromkeys("pqr", str), _r3_patterns,
                lambda rng, w, s: rng.choice(list(s)), _r3_apply),
}
_KINDS = tuple(_MOVES)


def _move(kind: str) -> _Move:
    """The move named ``kind``; ``MoveError`` if it names none of ``_KINDS``."""
    if kind not in _KINDS:
        raise MoveError(f"unknown move kind {kind!r}")
    return _MOVES[kind]


def move_sites(diagram: Diagram, kind: str) -> list:
    """Where a ``kind`` move applies on the diagram, in parameter form:
    the arcs of R1+ and the first arcs of R2+, the kink positions of
    R1-, the ``[i, j]`` sites of R2- and the ``(p, q, r)`` triples of R3."""
    return list(_move(kind).sites(_Word(diagram)))


def apply_move(diagram: Diagram, kind: str, *params) -> Diagram:
    """Apply one ``kind`` move to a copy of the diagram's word; validate
    the result.  ``params`` are the step-dict values in key order (R1+
    ``arc, sign, over_first``, R1- ``site``, R2+ ``arc1, arc2,
    over_first``, R2- ``site``, R3 ``p, q, r``), each of exactly its
    key's type (a bool is not an int).  Raises ``InvalidArc`` or
    ``PatternNotFound`` if they name no site of the move's scan."""
    move = _move(kind)
    if tuple(map(type, params)) != tuple(move.keys.values()):
        raise MoveError(f"malformed {kind} parameters {params!r}: needs {', '.join(move.keys)}")
    word = _Word(diagram)
    move.rewrite(word, move.sites(word), *params)
    return word.diagram()


# -- move scripts, random walks and fuzzing ------------------------------------------

class MoveScript(namedtuple("MoveScript", "steps")):
    """A replayable sequence of move applications.

    ``steps`` is a tuple of JSON-able dicts, each naming the move kind
    and its parameters; ``apply`` replays the script on a diagram,
    raising if any step is inapplicable there.  Serialized scripts are
    how the fuzzing CLI reports failures for reproduction.
    """

    __slots__ = ()

    def apply(self, diagram: Diagram) -> Diagram:
        cur = diagram
        for step in self.steps:
            kind = step.get("move") if type(step) is dict else None
            if kind not in _KINDS or step.keys() != {"move", *_MOVES[kind].keys}:
                raise MoveError(f"malformed step {step!r}: needs a move kind and exactly its keys")
            cur = apply_move(cur, kind, *map(step.get, _MOVES[kind].keys))
        return cur

    def to_json(self) -> str:
        import json

        return json.dumps(list(self.steps))

    @classmethod
    def from_json(cls, text: str) -> "MoveScript":
        """The script whose ``to_json`` is ``text``: a JSON array of steps.
        Any other text raises ``MoveError``; ``apply`` checks the steps."""
        import json

        try:
            steps = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise MoveError(f"script is not JSON: {exc}") from None
        if type(steps) is not list:
            raise MoveError(f"script is not a JSON array: {text!r}")
        return cls(tuple(steps))


def _walk(diagram: Diagram, steps: int, seed: int) -> tuple[_Word, list[tuple[str, tuple]]]:
    """The word after ``steps`` moves drawn from ``Lcg(seed)``, and the
    ``(kind, parameters)`` of each step.  A kind whose scan is empty is
    redrawn, and not scanned again in the same step."""
    if steps < 0:
        raise MoveError("steps must be >= 0")
    rng, word = Lcg(seed), _Word(diagram)
    randrange = rng.randrange
    table = [(kind, move.sites, move.draw, move.rewrite) for kind, move in _MOVES.items()]
    kinds = len(table)
    taken = []
    for _ in range(steps):
        empty = ()  # the kinds whose scan came back empty in this step
        while True:
            i = randrange(kinds)
            if i in empty:
                continue
            kind, scan, draw, rewrite = table[i]
            sites = scan(word)
            if sites:
                break
            empty += (i,)
        params = draw(rng, word, sites)
        rewrite(word, sites, *params)
        taken.append((kind, params))
    return word, taken


def _script(taken: list[tuple[str, tuple]]) -> MoveScript:
    """The script of the steps that ``_walk`` took."""
    steps = ({"move": kind, **dict(zip(_MOVES[kind].keys, params))} for kind, params in taken)
    return MoveScript(tuple(steps))


def random_walk(diagram: Diagram, steps: int, seed: int) -> tuple[Diagram, MoveScript]:
    """Apply ``steps`` uniformly chosen applicable moves, reproducibly.

    Each step draws a move kind; kinds with no applicable parameters on
    the current diagram are redrawn (R1 insertion always applies, so
    this terminates).  Returns the final diagram and the script that
    replays the walk.
    """
    word, taken = _walk(diagram, steps, seed)
    return word.diagram(), _script(taken)


def fuzz_invariance(
    diagram: Diagram, trials: int, steps: int, rng: Lcg
) -> list[tuple[int, MoveScript]]:
    """(trial, script) of each of ``trials`` walks of ``steps`` moves,
    seeded in turn by ``rng``, that changed the F-fingerprint.  Only a
    failing walk's steps are made into a script."""
    base = f_sequence(diagram).fingerprint
    failures = []
    for trial in range(trials):
        word, taken = _walk(diagram, steps, rng.randrange(1 << 31))
        if f_sequence(word.diagram()).fingerprint != base:
            failures.append((trial, _script(taken)))
    return failures
