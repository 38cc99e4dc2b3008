"""Byte identity of seeded random walks and of single moves, and a
validated replay of each walk.

One sha256 covers the start code, walk seed, final diagram text and
move script of every walk below: 40 steps from each table code, the
unknot and eight random codes, three seeds each.  The digest was
recorded before ``random_walk`` moved to rewriting one entry list, so
any change to the LCG draw order, a move's site order or its rewrite
fails here.  When a change of walks is intended, re-record the digest
and say why in the change log.

The replay applies every recorded step on its own through
``MoveScript.apply``, which calls ``apply_move``, so every intermediate
diagram of every pinned walk is built and validated, and the replay
must end where the walk did.

``SINGLE_PINS`` covers single ``apply_move`` calls on every code with
m <= 3 crossings: every R1-, R2- and R3 site of each code and, for
m <= 2, every R1+ arc with both signs and both pass orders and every
R2+ pair of arcs, equal arcs (``InvalidArc``) included.  Each record is
(code, kind, parameters, result text or error class and message).
These digests were recorded before the moves ran on integer words.
"""

import hashlib
import json

import pytest

from conftest import random_code
from vknot.enumerate import enumerate_codes
from vknot.gauss import parse_gauss
from vknot.moves import Lcg, MoveError, MoveScript, apply_move, move_sites, random_walk
from vknot.table import load_table

PINNED = "577ec7d1bdda3cfa3d6ddae44ef7457918442208b432efad2921ce167eb3c87a"
STEPS = 40
SEEDS_PER_CODE = 3
# m -> (records, sha256 of the records) of ``single_moves(m)``.
SINGLE_PINS = {
    1: (68, "c6175e11fa56bbf0d3d37e2c7d4e70742f43b60fd652f1aed08243d2e628dadb"),
    2: (2376, "d4e604b8bff739b5385146d6ba817b6e3ac9f01973c2031d5a441e5dabafdba0"),
    3: (1488, "29418bb616cf7dbb450dd3063d8f8c0aa1f8800cdf16f40ab2414b5ff0de4f41"),
}


def start_codes() -> list[str]:
    codes = [str(r.diagram) for r in load_table()] + [""]
    return codes + [random_code(3 + k, seed=100 + k) for k in range(8)]


def pinned_walks():
    """(code, seed, start, final, script) of every pinned walk, in order."""
    rng = Lcg(2019)
    for code in start_codes():
        start = parse_gauss(code)
        for _ in range(SEEDS_PER_CODE):
            seed = rng.next_bits()
            final, script = random_walk(start, STEPS, seed)
            yield code, seed, start, final, script


def walk_digest(walks) -> str:
    digest = hashlib.sha256()
    for code, seed, _, final, script in walks:
        record = [code, seed, str(final), script.to_json()]
        digest.update(json.dumps(record).encode() + b"\0")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def walks():
    return list(pinned_walks())


def test_walks_are_byte_identical(walks):
    assert len(walks) == 125 * SEEDS_PER_CODE
    assert walk_digest(walks) == PINNED


def test_step_by_step_replay_ends_where_the_walk_did(walks):
    for code, seed, start, final, script in walks:
        assert len(script.steps) == STEPS
        cur = start
        for step in script.steps:
            cur = MoveScript((step,)).apply(cur)
        assert cur == final, (code, seed)


def single_moves(m: int):
    """[code, kind, parameters, result] of each pinned move on the m-crossing
    codes; the result is the moved code, or an error's class and message."""
    for d in enumerate_codes(m):
        calls = [(kind, [site] if kind != "R3" else list(site))
                 for kind in ("R1-", "R2-", "R3") for site in move_sites(d, kind)]
        if m <= 2:
            arcs = range(len(d))
            calls += [("R1+", [a, s, o]) for a in arcs for s in (1, -1) for o in (True, False)]
            calls += [("R2+", [a, b, o]) for a in arcs for b in arcs for o in (True, False)]
        for kind, params in calls:
            try:
                result = str(apply_move(d, kind, *params))
            except MoveError as exc:
                result = [type(exc).__name__, str(exc)]
            yield [str(d), kind, params, result]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_single_moves_are_byte_identical(m):
    digest = hashlib.sha256()
    count = 0
    for record in single_moves(m):
        digest.update(json.dumps(record).encode() + b"\0")
        count += 1
    assert (count, digest.hexdigest()) == SINGLE_PINS[m]
