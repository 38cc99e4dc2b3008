"""Classical Reidemeister moves R1/R2/R3 on Gauss codes.

These rewrites produce equivalent diagrams and exist to property-test
the invariance of everything in :mod:`vknot.invariants`.  Virtual
Reidemeister moves and the detour move are identities on Gauss codes
and are deliberately not represented.

Arc indices follow :mod:`vknot.gauss`: arc ``i`` is the edge after
entry ``i``; insertions at arc ``i`` go between entries ``i`` and
``i+1``.

R1 inserts a kink: two adjacent entries of a fresh crossing, either
pass order, either sign.  R2 pushes one arc across another: fresh
crossings ``a``, ``b`` appear as ``a b`` on one arc and ``b a`` on the
other, all-Over on one strand and all-Under on the other, with opposite
signs (both sign assignments are geometrically realizable; we fix
``a`` positive).

R3 slides a strand lying over two crossings ``p``, ``q`` across their
common crossing ``r`` with a third strand.  On the word this swaps the
entries inside three adjacent pairs: ``O_p O_q`` on the sliding strand,
``U_p`` next to one pass of ``r``, and ``U_q`` next to the other.  Not
every such adjacency pattern is a geometric R3: realizing the triangle
with travel directions read off the word forces two sign relations,

    sgn(p) * beta == sgn(q) * gamma      and
    sgn(r) == sgn(p) * gamma * chi,

where ``beta``/``gamma`` are +1 when the strand meets its ``p``/``q``
underpass before the ``r`` entry (-1 after), and ``chi`` is +1 when the
``r`` pass adjacent to ``U_p`` is the overpass.  Patterns violating
them are rejected; the whole predicate is validated empirically by the
invariance suite.

Each move is defined once, as an in-place rewrite of a word (a list
of ``Entry`` values) that checks its parameters against one scan of
the word's sites; ``_MOVES`` maps each kind to scan, draw and rewrite.
Valid moves keep a word valid, so ``random_walk`` rewrites one list and
validates it once, as the ``Diagram`` it returns, and applies each
drawn site from the scan it was drawn from.  The public move functions
and ``MoveScript.apply`` (scripts are external input) are validating
wrappers: ``_on_diagram`` checks the exact type of each parameter they
pass, and every move they make builds a ``Diagram``.

``fuzz_invariance`` is the one fuzzing loop.  Reproducibility across
platforms matters more than statistical quality, so walks draw from a
fixed 64-bit linear congruential generator (Knuth's MMIX multiplier
6364136223846793005 and increment 1442695040888963407, taking the top
31 bits of the state), never from :mod:`random`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .gauss import Diagram, Entry
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

    def next_bits(self) -> int:
        self.state = (self.state * _MULT + _INC) & _MASK
        return self.state >> 33

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next_bits() % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


# -- the moves, on words (lists of entries) ---------------------------------------

def _fresh_ids(ents: list[Entry], count: int) -> list[str]:
    """The ``count`` smallest unused numeric tokens, ascending."""
    used = {e.crossing for e in ents}
    out: list[str] = []
    k = 1
    while len(out) < count:
        if str(k) not in used:
            out.append(str(k))
        k += 1
    return out


def _check_arc(ents: list[Entry], arc: int) -> None:
    if not 0 <= arc < len(ents):
        raise InvalidArc(f"arc {arc} out of range for {len(ents)} entries")


def _r1_insert(ents: list[Entry], arcs, arc: int, sign: int, over_first: bool) -> None:
    if sign not in (1, -1):
        raise MoveError(f"sign must be +1 or -1, got {sign!r}")
    (cid,) = _fresh_ids(ents, 1)
    arc = arc if ents else -1  # one place on the empty word
    if ents:
        _check_arc(ents, arc)
    ents[arc + 1 : arc + 1] = [Entry(cid, over_first, sign), Entry(cid, not over_first, sign)]


def _r1_sites(ents: list[Entry]) -> list[int]:
    n = len(ents)
    sites = [i for i in range(n) if ents[i].crossing == ents[(i + 1) % n].crossing]
    return sites[:1] if n == 2 else sites  # "O1 U1" is one kink, seen from both ends


def _r1_remove(ents: list[Entry], sites, site: int) -> None:
    n = len(ents)
    if n == 0 or ents[site % n].crossing != ents[(site + 1) % n].crossing:
        raise PatternNotFound(f"no kink at position {site}")
    for pos in sorted({site % n, (site + 1) % n}, reverse=True):
        del ents[pos]


def _r2_insert(ents: list[Entry], arcs, arc1: int, arc2: int, over_first: bool) -> None:
    if arc1 == arc2:
        raise InvalidArc("R2 insertion needs two distinct arcs")
    _check_arc(ents, arc1)
    _check_arc(ents, arc2)
    a, b = _fresh_ids(ents, 2)
    first = [Entry(a, over_first, 1), Entry(b, over_first, -1)]
    second = [Entry(b, not over_first, -1), Entry(a, not over_first, 1)]
    for arc, block in sorted([(arc1, first), (arc2, second)], reverse=True):
        ents[arc + 1 : arc + 1] = block


def _r2_sites(ents: list[Entry]) -> list[tuple[int, int]]:
    n = len(ents)
    pos = {(c, over): i for i, (c, over, _) in enumerate(ents)}  # (crossing, pass) -> position
    sites = []
    for i, (e1, e2) in enumerate(zip(ents, ents[1:] + ents[:1])):
        if e1.over != e2.over or e1.crossing == e2.crossing or e1.sign == e2.sign:
            continue
        # Each configuration is seen from both pairs, (i, j) and (j, i): keep the first.
        j = pos[e2.crossing, not e2.over]
        if (j + 1) % n == pos[e1.crossing, not e1.over] and i < j:
            sites.append((i, j))
    return sites


def _r2_remove(ents: list[Entry], sites: list[tuple[int, int]], site) -> None:
    if tuple(map(type, site)) != (int, int) or tuple(site) not in sites:
        raise PatternNotFound(f"no R2 configuration at {tuple(site)}")
    (i, j), n = site, len(ents)
    for pos in sorted({i, (i + 1) % n, j, (j + 1) % n}, reverse=True):
        del ents[pos]


def _r3_patterns(ents: list[Entry]) -> dict:
    """Every valid R3 slide's triple, in word order -> its first position-swaps."""
    n = len(ents)
    pos = {(c, over): i for i, (c, over, _) in enumerate(ents)}  # (crossing, pass) -> position
    out: dict = {}
    for i, (ep, eq) in enumerate(zip(ents, ents[1:] + ents[:1])):
        if not (ep.over and eq.over) or ep.crossing == eq.crossing:
            continue
        p, q = ep.crossing, eq.crossing
        j, k = pos[p, False], pos[q, False]
        for beta in (1, -1):
            jr = (j + beta) % n
            er = ents[jr]
            other = pos[er.crossing, not er.over]
            gamma = 1 if other == (k + 1) % n else -1 if other == (k - 1) % n else 0
            if er.crossing in (p, q) or not gamma:
                continue
            chi = 1 if er.over else -1
            if ep.sign * beta == eq.sign * gamma and er.sign == ep.sign * gamma * chi:
                out.setdefault((p, q, er.crossing), ((i, (i + 1) % n), (j, jr), (k, other)))
    return out


def _r3_apply(ents: list[Entry], patterns: dict, p: str, q: str, r: str) -> None:
    # The first pattern of (p, q, r) or (q, p, r): O_p O_q and O_q O_p are never both adjacent.
    swaps = patterns.get((p, q, r)) or patterns.get((q, p, r))
    if swaps is None:
        raise PatternNotFound(f"no R3 triangle for ({p}, {q}, {r})")
    for x, y in swaps:
        ents[x], ents[y] = ents[y], ents[x]


# -- one table of moves -----------------------------------------------------------

def _draw_r1_insert(rng: Lcg, ents: list[Entry], arcs) -> tuple:
    arc = rng.randrange(len(ents)) if ents else 0
    return arc, rng.choice((1, -1)), rng.choice((True, False))


def _draw_r2_insert(rng: Lcg, ents: list[Entry], arcs) -> tuple:
    arc1 = rng.randrange(len(ents))
    arc2 = rng.randrange(len(ents) - 1)
    return arc1, arc2 + (arc2 >= arc1), rng.choice((True, False))


class _Move(NamedTuple):
    keys: dict[str, type]  # step-dict key of each parameter, in order -> its JSON type
    sites: Callable  # word -> the sites of one scan; empty if the move cannot apply
    draw: Callable  # (rng, word, sites) -> parameters
    rewrite: Callable  # (word, sites, *parameters) -> None; rewrites in place or raises


# Insertions apply on every word with enough arcs; their "sites" are those arcs.
_MOVES = {
    "R1+": _Move({"arc": int, "sign": int, "over_first": bool}, lambda w: range(max(len(w), 1)),
                 _draw_r1_insert, _r1_insert),
    "R1-": _Move({"site": int}, _r1_sites, lambda rng, w, s: (rng.choice(s),), _r1_remove),
    "R2+": _Move({"arc1": int, "arc2": int, "over_first": bool},
                 lambda w: range(len(w) if len(w) > 1 else 0), _draw_r2_insert, _r2_insert),
    "R2-": _Move({"site": list}, _r2_sites, lambda rng, w, s: (list(rng.choice(s)),), _r2_remove),
    "R3": _Move(dict.fromkeys("pqr", str), _r3_patterns,
                lambda rng, w, s: rng.choice(list(s)), _r3_apply),
}
_KINDS = tuple(_MOVES)


def _on_diagram(kind: str, diagram: Diagram, *params) -> Diagram:
    """Apply one move, each parameter of exactly its key's type (a bool is
    not an int), to a copy of the diagram's word; validate the result."""
    move = _MOVES[kind]
    if any(type(p) is not t for p, t in zip(params, move.keys.values())):
        raise MoveError(f"malformed {kind} parameters {params!r}: needs {', '.join(move.keys)}")
    ents = list(diagram.entries)
    move.rewrite(ents, move.sites(ents), *params)
    return Diagram(ents)


# -- validating wrappers -----------------------------------------------------------

def r1_insert(diagram: Diagram, arc: int | None, sign: int, over_first: bool = True) -> Diagram:
    """Insert a kink (fresh crossing, both passes adjacent) at ``arc``.

    On the empty diagram ``arc`` is ignored (there is only one place).
    """
    return _on_diagram("R1+", diagram, 0 if arc is None else arc, sign, over_first)


def r1_sites(diagram: Diagram) -> list[int]:
    """Positions i where entries i and i+1 are the two passes of one crossing."""
    return _r1_sites(diagram.entries)


def r1_remove(diagram: Diagram, site: int) -> Diagram:
    """Delete the kink whose two entries sit at positions site, site+1."""
    return _on_diagram("R1-", diagram, site)


def r2_insert(diagram: Diagram, arc1: int, arc2: int, over_first: bool = True) -> Diagram:
    """Push arc1 across arc2 (R2): fresh a,b at arc1 and b,a at arc2.

    ``over_first`` chooses which of the two arcs carries the overpasses.
    The first crossing gets sign +1, the second -1.
    """
    return _on_diagram("R2+", diagram, arc1, arc2, over_first)


def r2_sites(diagram: Diagram) -> list[tuple[int, int]]:
    """Start positions (i, j) of removable R2 configurations.

    Position i starts an adjacent same-pass pair a,b with opposite
    signs whose partner passes sit adjacently as b,a at position j.
    """
    return _r2_sites(diagram.entries)


def r2_remove(diagram: Diagram, site: tuple[int, int]) -> Diagram:
    """Delete the four entries of the R2 configuration starting at site."""
    return _on_diagram("R2-", diagram, list(site) if type(site) is tuple else site)


def r3_triples(diagram: Diagram) -> list[tuple[str, str, str]]:
    """All (p, q, r) with a valid slide of the p,q-overstrand across r."""
    return list(_r3_patterns(diagram.entries))


def r3_apply(diagram: Diagram, p: str, q: str, r: str) -> Diagram:
    """Slide the strand passing over p and q across the crossing r.

    Swaps the entries inside each of the three adjacent pairs; signs
    and passes are untouched.  Applying the same triple again undoes
    the move.  Raises PatternNotFound when (p, q, r) is not an
    R3-applicable triangle (including sign-relation violations).
    """
    return _on_diagram("R3", diagram, p, q, r)


# -- move scripts, random walks and fuzzing ------------------------------------------

class MoveScript(NamedTuple):
    """A replayable sequence of move applications.

    Each step is a JSON-able dict naming the move kind and its
    parameters; ``apply`` replays the script on a diagram, raising if
    any step is inapplicable there.  Serialized scripts are how the
    fuzzing CLI reports failures for reproduction.
    """

    steps: tuple[dict, ...]

    def apply(self, diagram: Diagram) -> Diagram:
        cur = diagram
        for step in self.steps:
            if type(step) is not dict or step.get("move") not in _KINDS:
                raise MoveError(f"unknown move kind in step {step!r}")
            cur = _on_diagram(step["move"], cur, *map(step.get, _MOVES[step["move"]].keys))
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
        except ValueError as exc:
            raise MoveError(f"script is not JSON: {exc}") from None
        if type(steps) is not list:
            raise MoveError(f"script is not a JSON array: {text!r}")
        return cls(tuple(steps))


def random_walk(diagram: Diagram, steps: int, seed: int) -> tuple[Diagram, MoveScript]:
    """Apply ``steps`` uniformly chosen applicable moves, reproducibly.

    Each step draws a move kind; kinds with no applicable parameters on
    the current diagram are redrawn (R1 insertion always applies, so
    this terminates).  Returns the final diagram and the script that
    replays the walk.
    """
    if steps < 0:
        raise MoveError("steps must be >= 0")
    rng = Lcg(seed)
    ents = list(diagram.entries)
    recorded: list[dict] = []
    for _ in range(steps):
        sites = None
        while not sites:
            kind = _KINDS[rng.randrange(len(_KINDS))]
            move = _MOVES[kind]
            sites = move.sites(ents)
        params = move.draw(rng, ents, sites)
        move.rewrite(ents, sites, *params)
        recorded.append({"move": kind, **dict(zip(move.keys, params))})
    return Diagram(ents), MoveScript(tuple(recorded))


def fuzz_invariance(
    diagram: Diagram, trials: int, steps: int, rng: Lcg
) -> list[tuple[int, MoveScript]]:
    """(trial, script) of each of ``trials`` walks of ``steps`` moves,
    seeded in turn by ``rng``, that changed the F-fingerprint."""
    base = f_sequence(diagram).fingerprint()
    failures = []
    for trial in range(trials):
        moved, script = random_walk(diagram, steps, rng.next_bits())
        if f_sequence(moved).fingerprint() != base:
            failures.append((trial, script))
    return failures
