"""Byte identity of seeded random walks and of single moves, and a
validated replay of each walk.

One sha256 covers the start code, walk seed, final diagram text and
move script of every walk below: 40 steps from each table code, the
unknot and eight random codes, three seeds each.  The digest was
recorded before ``random_walk`` moved to rewriting one entry list, so
any change to the LCG draw order, a move's site order or its rewrite
fails here.  When a change of walks is intended, re-record the digest
and say why in the change log.

``LONG_PINS`` covers one 200-step and one 1,000-step walk from each
table code, long enough for removals to free ids that later insertions
take again.

The replay applies every recorded step on its own through
``MoveScript.apply``, which calls ``apply_move``, so every intermediate
diagram of every pinned walk is built and validated, and the replay
must end where the walk did.

``SINGLE_PINS`` in ``test_universe`` covers single ``apply_move`` calls
on every code with at most three crossings; the digests are read from
the one pass of ``test_universe.sweep``.
"""

import hashlib
import json

import pytest

from conftest import random_code
from test_universe import SINGLE_PINS, sweep
from vknot.gauss import parse_gauss
from vknot.moves import Lcg, MoveScript, random_walk
from vknot.table import load_table

PINNED = "577ec7d1bdda3cfa3d6ddae44ef7457918442208b432efad2921ce167eb3c87a"
STEPS = 40
SEEDS_PER_CODE = 3

# Per step count: the digest of one walk of that many steps from each
# table code, seeded in turn by ``Lcg(steps)``.  Recorded before the
# walk kept its ids in a set with a low-water mark.  Words of the
# 200-step walks reach 63 crossings, so ids freed below the mark are
# taken again; CI checks the 1,000-step walks.
LONG_PINS = {
    200: "d16a9de8affa2ad3d4cf8ac2bd581d519d0c5f83208ce143819955a883f01faa",
    1000: "298f2ee1bee4da49cdef2f29af26b302d3e262b9847c793aeaba1af3d1738f01",
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
            seed = rng.randrange(1 << 31)
            final, script = random_walk(start, STEPS, seed)
            yield code, seed, start, final, script


def walk_digest(walks) -> str:
    digest = hashlib.sha256()
    for code, seed, _, final, script in walks:
        record = [code, seed, str(final), script.to_json()]
        digest.update(json.dumps(record).encode() + b"\0")
    return digest.hexdigest()


def long_walks(steps: int):
    """(code, seed, start, final, script) of one ``steps``-step walk from
    each table code."""
    rng = Lcg(steps)
    for record in load_table():
        seed = rng.randrange(1 << 31)
        final, script = random_walk(record.diagram, steps, seed)
        yield str(record.diagram), seed, record.diagram, final, script


def assert_long_walks(steps: int) -> None:
    assert walk_digest(long_walks(steps)) == LONG_PINS[steps]


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


def test_long_walks_are_byte_identical():
    assert_long_walks(200)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_single_moves_are_byte_identical(m):
    assert sweep(m).singles == SINGLE_PINS[m]
