"""Reidemeister rewriting: structure, inverses, invariance, determinism.

The crossing lemmas and the R3 census of every code with at most three
crossings are read from the one pass of ``test_universe.sweep``.  It
checks the lemmas of each R1- and R2- move under "lemmas"; ``check_r3``
analyses the R3 rewrites, so a lemma fault of an R3 move shows under
"r3".
"""

import json
from collections import Counter
from functools import partial
from operator import and_
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vknot.invariants
import vknot.moves
from conftest import affine_oracle, diagrams, from_passes, other_segment, passes, random_code
from test_universe import R3_CENSUS, check_lemmas, lemmas_hold, r3_filter, sweep
from vknot.enumerate import enumerate_codes
from vknot.gauss import Diagram, parse_gauss
from vknot.invariants import f_sequence
from vknot.moves import (
    InvalidArc,
    Lcg,
    MoveError,
    MoveScript,
    PatternNotFound,
    apply_move,
    move_sites,
    random_walk,
)

UNKNOT = parse_gauss("")


def fp(d: Diagram):
    return f_sequence(d).fingerprint


# -- R1 ------------------------------------------------------------------------


def test_r1_on_unknot():
    assert move_sites(UNKNOT, "R1+") == [0]
    assert str(apply_move(UNKNOT, "R1+", 0, 1, True)) == "O1+ U1+"
    assert str(apply_move(UNKNOT, "R1+", 0, -1, False)) == "U1- O1-"


def test_r1_insert_remove_round_trip(example_31):
    for arc in range(len(example_31)):
        for sign in (1, -1):
            grown = apply_move(example_31, "R1+", arc, sign, True)
            assert grown.n_crossings == 4
            assert apply_move(grown, "R1-", arc + 1) == example_31


def test_r1_invalid_arc(example_31):
    with pytest.raises(InvalidArc):
        apply_move(example_31, "R1+", 17, 1, True)
    with pytest.raises(MoveError):
        apply_move(example_31, "R1+", 0, 3, True)


def test_r1_remove_requires_kink(example_31):
    with pytest.raises(PatternNotFound):
        apply_move(example_31, "R1-", 0)
    with pytest.raises(PatternNotFound):
        apply_move(UNKNOT, "R1-", 0)


def test_r1_sites_wraparound():
    # The kink pair sits at positions 3,0 across the seam.
    d = parse_gauss("U1+ O2- U2- O1+")
    assert move_sites(d, "R1-") == [1, 3]
    assert str(apply_move(d, "R1-", 3)) == "O2- U2-"


# -- R2 ------------------------------------------------------------------------


def test_r2_insert_structure():
    d = parse_gauss("O1+ U1+")
    grown = apply_move(d, "R2+", 0, 1, True)
    assert grown.n_crossings == 3
    assert str(grown) == "O1+ O2+ O3- U1+ U3- U2+"
    # fresh ids use the smallest unused numeric tokens
    assert set(grown.crossings()) == {"1", "2", "3"}


def test_r2_insert_validation(example_31):
    with pytest.raises(InvalidArc):
        apply_move(example_31, "R2+", 2, 2, True)
    with pytest.raises(InvalidArc):
        apply_move(example_31, "R2+", 0, 99, True)
    with pytest.raises(InvalidArc):
        apply_move(UNKNOT, "R2+", 0, 1, True)


def test_r2_insert_remove_round_trip(example_31):
    grown = apply_move(example_31, "R2+", 1, 4, False)
    sites = move_sites(grown, "R2-")
    assert sites, "inserted configuration must be removable"
    candidates = [apply_move(grown, "R2-", s) for s in sites]
    assert example_31 in candidates
    # A site is a step's JSON parameter as it is.
    steps = [json.loads(json.dumps({"move": "R2-", "site": s})) for s in sites]
    assert [MoveScript((step,)).apply(grown) for step in steps] == candidates


def test_r2_remove_rejects_bad_site(example_31):
    with pytest.raises(PatternNotFound):
        apply_move(example_31, "R2-", [0, 2])


# -- fresh ids -----------------------------------------------------------------


@pytest.mark.parametrize(
    "code, kind, params, expected",
    [
        # Ids are compared as text, so "01" and "a" do not block "1".
        ("O01+ Ua- U01+ Oa-", "R1+", (0, 1, True), "O01+ O1+ U1+ Ua- U01+ Oa-"),
        # R2+ takes the two smallest free ids, in order.
        ("O1+ U1+ O3- U3-", "R2+", (0, 2, True), "O1+ O2+ O4- U1+ O3- U4- U2+ U3-"),
        ("U1- O1-", "R1+", (0, 1, True), "U1- O2+ U2+ O1-"),
    ],
)
def test_fresh_ids_are_the_smallest_unused_numeric_tokens(code, kind, params, expected):
    assert str(apply_move(parse_gauss(code), kind, *params)) == expected


def test_a_walk_reuses_the_id_of_a_removed_crossing():
    # Seed 1 removes the kink of crossing 1, then inserts a kink: the
    # insertion takes id 1, since only the crossings present count.
    start = parse_gauss("O1+ U1+ O2+ U3+ O4+ U2+ O3+ U4+")
    final, script = random_walk(start, 2, 1)
    assert [step["move"] for step in script.steps] == ["R1-", "R1+"]
    assert str(final) == "O2+ U3+ O4+ U2+ O3+ U4+ U1+ O1+"
    assert script.apply(start) == final


# Any ids: numeric ones with and without leading zeros, "0" and letters.
ID_POOL = ("1", "2", "3", "4", "5", "7", "10", "0", "01", "002", "a", "b3")


def brute_force_fresh(word, count: int) -> list[str]:
    """The ``count`` smallest tokens str(t), t >= 1, that no crossing in
    the word's passes has as its id."""
    used = {word.ids[k] for k, _ in word.passes}
    out, token = [], 0
    while len(out) < count:
        token += 1
        if str(token) not in used:
            out.append(str(token))
    return out


def assert_fresh_ids_follow_the_rule(walks) -> int:
    """Runs ``walks()`` with every ``_Word.fresh`` call checked against
    ``brute_force_fresh`` and the id set and mark of the word checked
    before it; returns how many calls took an id below the largest
    numeric id present."""
    fresh, below = vknot.moves._Word.fresh, [0]

    def checked(word, *signs):
        present = {word.ids[k] for k, _ in word.passes}
        assert word.present == present
        assert all(str(t) in present for t in range(1, word.mark))
        expected = brute_force_fresh(word, len(signs))
        out = fresh(word, *signs)
        assert [word.ids[k] for k in out] == expected
        below[0] += int(expected[0]) < max((int(c) for c in present if c.isdigit()), default=0)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vknot.moves._Word, "fresh", checked)
        walks()
    return below[0]


def test_fresh_ids_on_long_walks_follow_the_rule(table_records):
    # 200 steps grow words past 60 crossings and free ids below the mark.
    def walks():
        for seed, record in enumerate(table_records[::4]):
            random_walk(record.diagram, 200, seed)

    assert assert_fresh_ids_follow_the_rule(walks) > 100


@settings(max_examples=60, deadline=None)
@given(diagrams(max_crossings=6), st.permutations(ID_POOL), st.integers(0, 2**32))
def test_fresh_ids_follow_the_rule_for_any_ids(d, pool, seed):
    rename = dict(zip(d.crossings(), pool))
    d = from_passes((rename[c], over, sign) for c, over, sign in passes(d))
    assert_fresh_ids_follow_the_rule(lambda: random_walk(d, 30, seed))


# A case id names its move kind in words, e.g. r1_insert for R1+.
KIND_IDS = {
    "R1+": "r1_insert", "R1-": "r1_remove", "R2+": "r2_insert", "R2-": "r2_remove", "R3": "r3_apply"
}


@pytest.mark.parametrize(
    "kind, args",
    [
        ("R1+", (1.5, 1)),  # this, the next three and (0.0, 1) also miss over_first
        ("R1+", ("0", 1)),
        ("R1+", (True, 1)),
        ("R1+", (0, True)),
        ("R1+", (1.5, 1, True)),
        ("R1+", ("0", 1, True)),
        ("R1+", (True, 1, True)),
        ("R1+", (0, True, True)),
        ("R1+", (0, 1, 1)),
        ("R1+", (0, 1, True, True)),
        ("R1-", (1.0,)),
        ("R1-", ("1",)),
        ("R1-", (True,)),
        ("R2+", (0, 1, 1)),
        ("R2+", (0.0, 1)),
        ("R2+", (0.0, 1, True)),
        ("R2-", ((4.0, 9),)),
        ("R2-", ((4, 9),)),
        ("R2-", ([4.0, 9],)),
        ("R2-", ([4, 9, 0],)),
        ("R2-", (4,)),
        ("R3", (1, 2, 3)),
    ],
    ids=lambda case: KIND_IDS[case] if type(case) is str else repr(case),
)
def test_move_functions_take_parameters_of_exact_types(example_31, kind, args):
    # A kink at position 1 and an R2 configuration at [4, 9]: only the
    # parameter types are wrong.
    d = apply_move(apply_move(example_31, "R2+", 1, 4, True), "R1+", 0, 1, True)
    assert move_sites(d, "R1-") == [1] and [4, 9] in move_sites(d, "R2-")
    with pytest.raises(MoveError):
        apply_move(d, kind, *args)


# -- R3 ------------------------------------------------------------------------


def braidlike_triangle() -> Diagram:
    """A diagram with an applicable R3 (found by search, then pinned)."""
    base = parse_gauss("O1- O2- U1- U2-")
    for seed in range(200):
        walked, _ = random_walk(base, 8, seed)
        if move_sites(walked, "R3"):
            return walked
    raise AssertionError("no R3-applicable diagram found")


def test_r3_swaps_are_involution():
    d = braidlike_triangle()
    for triple in move_sites(d, "R3"):
        moved = apply_move(d, "R3", *triple)
        assert moved != d
        assert apply_move(moved, "R3", *triple) == d


def test_r3_preserves_f_sequence():
    d = braidlike_triangle()
    for triple in move_sites(d, "R3"):
        assert fp(apply_move(d, "R3", *triple)) == fp(d)


def test_r3_rejects_non_triangle(example_31):
    with pytest.raises(PatternNotFound):
        apply_move(example_31, "R3", "1", "2", "3")


# -- the crossing-level lemmas of the invariance proof -------------------------------


@pytest.mark.parametrize("m", [1, 2, 3])
def test_moves_obey_the_crossing_lemmas_on_every_small_code(m):
    # Read from the one pass of ``test_universe.sweep``: every R1- and
    # R2- neighbour of every code with m crossings, and under "r3" every
    # accepted R3 candidate, which includes every R3 neighbour.
    assert sweep(m).faults["lemmas"] == sweep(m).faults["r3"] == []


def test_insertions_obey_the_crossing_lemmas(table_records):
    # Every R1- kink of a code with m <= 3 sits on a diagram whose dJ_n
    # are all 0, so the sign of a kink's column is tested here: every R1+
    # call on each table code, and R2+ from each arc to one drawn arc,
    # both pass orders.
    rng, kinks = Lcg(0), 0
    for record in table_records:
        d = record.diagram
        report, n = f_sequence(d), len(d)
        calls = [("R1+", (a, s, o)) for a in range(n) for s in (1, -1) for o in (True, False)]
        calls += [("R2+", (a, (a + 1 + rng.randrange(n - 1)) % n, o)) for a in range(n) for o in (True, False)]
        for kind, params in calls:
            check_lemmas(report, f_sequence(apply_move(d, kind, *params)), kind)
        kinks += 4 * n * any(map(report.dwrithe, range(1, report.n_max + 1)))
    assert kinks == 1288  # R1+ calls on a diagram with some dJ_n != 0


# A planted fault: the R3 scan without its second sign relation,
# sgn(r) == sgn(p) * gamma * chi.
r3_first_relation_only = partial(r3_filter, keep=lambda first, second: first)


def test_r3_without_its_second_sign_relation_fails_the_lemmas(monkeypatch):
    # Of the rewrites the planted scan adds at m <= 3, every one breaks a
    # lemma, and half of them keep the F-fingerprint all the same.
    codes = [d for m in range(4) for d in enumerate_codes(m)]
    real = {(str(d), str(apply_move(d, "R3", *t))) for d in codes for t in move_sites(d, "R3")}
    planted = vknot.moves._MOVES["R3"]._replace(sites=r3_first_relation_only)
    monkeypatch.setitem(vknot.moves._MOVES, "R3", planted)
    outcomes = Counter()
    for d in codes:
        report = f_sequence(d)
        for triple in move_sites(d, "R3"):
            moved = apply_move(d, "R3", *triple)
            analysis = f_sequence(moved)
            holds = lemmas_hold(report, analysis, "R3")
            assert holds == ((str(d), str(moved)) in real), (str(d), triple)
            outcomes[holds, analysis.fingerprint == report.fingerprint] += 1
    assert outcomes == {(True, True): 192, (False, True): 96, (False, False): 96}


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_r3_census_on_every_small_code(m):
    # Read from the one pass of ``test_universe.sweep``: the R3 scan is
    # the candidates that meet both sign relations, every candidate is
    # counted by (accepted, lemmas kept, fingerprint kept), and every
    # accepted one keeps both.
    assert sweep(m).faults["r3"] == []
    assert sweep(m).r3 == R3_CENSUS[m]


def test_r3_scan_is_the_accepted_candidates_on_random_codes():
    # 20 codes of each size from 3 to 39 crossings, order included.
    for m in range(3, 40):
        for seed in range(20):
            word = vknot.moves._Word(parse_gauss(random_code(m, 600 + seed)))
            assert list(r3_filter(word, and_).items()) == list(vknot.moves._r3_patterns(word).items())


# Every step of the walks of ``lane_walk_steps``, by kind.
LANE_WALK_KINDS = {"R1+": 270, "R1-": 167, "R2+": 283, "R2-": 176, "R3": 64}


def lane_walk_steps():
    """(kind, before, after) analyses for each step of a 40-step walk
    from random codes at lane-pass sizes, replayed one ``apply_move`` at
    a time."""
    for m in (10, 16, 24, 32, 48, 64):
        for seed in range(4):
            d = parse_gauss(random_code(m, 900 + seed))
            _, script = random_walk(d, 40, seed)
            before = f_sequence(d)
            for step in script.steps:
                kind, *params = step.values()
                after = f_sequence(apply_move(before.diagram, kind, *params))
                yield kind, before, after
                before = after


def lemma_faults_on_lane_walks():
    """(steps by kind, lemma failures by kind, steps with both sides at
    ``_LANE_MIN`` or more, those of them that change the fingerprint)."""
    kinds, faults, lanes, changed = Counter(), Counter(), 0, 0
    for kind, before, after in lane_walk_steps():
        kinds[kind] += 1
        if not lemmas_hold(before, after, kind):
            faults[kind] += 1
        if min(len(before.index), len(after.index)) >= vknot.invariants._LANE_MIN:
            lanes += 1
            changed += before.fingerprint != after.fingerprint
    return kinds, faults, lanes, changed


def test_moves_obey_the_crossing_lemmas_at_lane_pass_sizes():
    assert lemma_faults_on_lane_walks() == (LANE_WALK_KINDS, {}, 946, 0)


def test_lane_pass_on_the_other_segment_fails_only_the_lemmas(monkeypatch):
    # Negated rows are the other smoothing segment in the lane pass.  It
    # keeps every fingerprint equal where both sides take the lane pass,
    # so only the lemmas see the fault.
    monkeypatch.setattr(vknot.invariants, "_lane_table", other_segment(vknot.invariants._lane_table))
    kinds, faults, lanes, changed = lemma_faults_on_lane_walks()
    assert (kinds, lanes, changed) == (LANE_WALK_KINDS, 946, 0)
    assert faults == {"R1+": 269, "R1-": 166, "R2+": 4, "R2-": 3}


# -- deterministic RNG -----------------------------------------------------------


def test_lcg_is_stable():
    rng = Lcg(42)
    assert [rng.randrange(1000) for _ in range(5)] == [472, 280, 431, 740, 195]


def test_lcg_rejects_empty_range():
    with pytest.raises(ValueError):
        Lcg(0).randrange(0)


# -- random walks -----------------------------------------------------------------


def test_walk_zero_steps(example_31):
    walked, script = random_walk(example_31, 0, seed=5)
    assert walked == example_31
    assert script.steps == ()


def test_walk_rejects_negative_steps(example_31):
    with pytest.raises(MoveError):
        random_walk(example_31, -1, 0)


def test_walk_deterministic_and_replayable(example_31):
    a, script_a = random_walk(example_31, 15, seed=99)
    b, script_b = random_walk(example_31, 15, seed=99)
    assert a == b and script_a == script_b
    assert script_a.apply(example_31) == a
    c, script_c = random_walk(example_31, 15, seed=100)
    assert script_c != script_a or c == a


def test_walk_from_unknot():
    walked, script = random_walk(UNKNOT, 6, seed=3)
    assert len(script.steps) == 6
    assert fp(walked) == fp(UNKNOT)


def test_script_json_round_trip(example_31):
    _, script = random_walk(example_31, 10, seed=12)
    again = MoveScript.from_json(script.to_json())
    assert again == script
    assert again.apply(example_31) == script.apply(example_31)


@pytest.mark.parametrize(
    "text",
    [
        '{"move": "R1-", "site": 0}',  # an object, not an array of steps
        '"R1-"',
        "5",
        "null",
        "{",  # not JSON at all
        pytest.param("[" * 100_000, id="100000 nested arrays"),  # too deep for the decoder
    ],
)
def test_script_from_json_needs_an_array(text):
    with pytest.raises(MoveError):
        MoveScript.from_json(text)


def test_script_rejects_unknown_move(example_31):
    with pytest.raises(MoveError):
        MoveScript(({"move": "R9"},)).apply(example_31)
    with pytest.raises(MoveError):
        apply_move(example_31, "R9")
    with pytest.raises(MoveError):
        move_sites(example_31, "R9")
    with pytest.raises(MoveError):
        move_sites(example_31, ["R1-"])


@pytest.mark.parametrize(
    "step",
    [
        {"move": "R1+"},  # parameters missing
        {"move": "R1-", "site": "x"},
        "R1+",  # not a dict
        {"move": "R1+", "arc": 0, "sign": 1, "over_first": "no"},
        {"move": "R1+", "arc": 0, "sign": True, "over_first": True},
        {"move": "R2-", "site": 5},
        {"move": "R3", "p": ["1"], "q": "2", "r": "3"},
        {"move": ["R1+"]},
        # (start code, step): a well-typed step that names no site of its scan;
        # the first three name the kink at 1 modulo 8 (a kink inserted at arc 0).
        ("O3- O4+ U4+ U1- O2+ U3- U2+ O1-", {"move": "R1-", "site": -7}),
        ("O3- O4+ U4+ U1- O2+ U3- U2+ O1-", {"move": "R1-", "site": 41}),
        ("O3- O4+ U4+ U1- O2+ U3- U2+ O1-", {"move": "R1-", "site": 9}),
        ("O1+ U1+", {"move": "R1-", "site": 1}),  # the kink is at 0
        ("", {"move": "R1+", "arc": 99, "sign": 1, "over_first": True}),
        # (start code, step): an applicable step with a key its kind does not take.
        ("O1+ U1+", {"move": "R1-", "site": 0, "bogus": 1}),
        ("O1+ U1+", {"move": "R1+", "arc": 0, "sign": 1, "over_first": True, "site": 3}),
    ],
)
def test_script_rejects_malformed_steps(example_31, step):
    start, step = (parse_gauss(step[0]), step[1]) if type(step) is tuple else (example_31, step)
    with pytest.raises(MoveError):
        MoveScript((step,)).apply(start)


@pytest.fixture(scope="module")
def instrumented_walks(table_records):
    # One instrumented pass over the walks of both tests below. Every
    # Diagram is built by ``Diagram._of``, so count its calls per walk;
    # record the (kind, found) scans of each step (a rewrite ends a step).
    scanned = [[]]
    built, kinds = [], []
    with pytest.MonkeyPatch.context() as mp:
        for kind, move in list(vknot.moves._MOVES.items()):

            def scan(word, kind=kind, sites=move.sites):
                found = sites(word)
                scanned[-1].append((kind, bool(found)))
                return found

            def rewrite(*args, rewrite=move.rewrite):
                rewrite(*args)
                scanned.append([])

            mp.setitem(vknot.moves._MOVES, kind, move._replace(sites=scan, rewrite=rewrite))
        starts = [r.diagram for r in table_records]
        walks = list(enumerate(starts))
        walks += [(3 * seed + trial, start) for seed, start in enumerate([UNKNOT] + starts) for trial in range(3)]
        count, of = [], Diagram._of.__func__
        mp.setattr(Diagram, "_of", classmethod(lambda cls, triples: count.append(1) or of(cls, triples)))
        for seed, start in walks:
            count.clear()
            _, script = random_walk(start, 40, seed)
            built.append(len(count))
            kinds += [step["move"] for step in script.steps]
    return SimpleNamespace(walks=walks, built=built, kinds=kinds, steps=scanned[:-1])


def test_walk_builds_one_diagram_and_scans_once_per_step(instrumented_walks):
    # The walk rewrites one word and validates it once, at the end;
    # a drawn kind is applied from the scan it was drawn from.
    w = instrumented_walks
    assert w.built == [1] * len(w.walks)
    found = Counter(kind for step in w.steps for kind, hit in step if hit)
    assert found == Counter(w.kinds)
    assert min(found["R2-"], found["R3"]) > 100


def test_walk_scans_each_kind_at_most_once_per_step(instrumented_walks):
    # A kind whose scan came back empty is redrawn without a second scan.
    w = instrumented_walks
    assert len(w.steps) == len(w.kinds) == len(w.walks) * 40
    assert all(len({kind for kind, _ in step}) == len(step) for step in w.steps)
    assert sum(map(len, w.steps)) > len(w.steps) + 1000  # empty scans did happen


def test_fuzz_scripts_are_the_walks_scripts(table_records, monkeypatch):
    # Every walk that does not come back to its start text "fails" here.
    monkeypatch.setattr(vknot.moves, "f_sequence", lambda d: SimpleNamespace(fingerprint=str(d)))
    for record in table_records[::10]:
        d = record.diagram
        failures = vknot.moves.fuzz_invariance(d, 4, 12, Lcg(7))
        rng = Lcg(7)
        walks = [random_walk(d, 12, rng.randrange(1 << 31)) for _ in range(4)]
        assert failures == [(t, script) for t, (moved, script) in enumerate(walks) if moved != d]
        assert failures
        for trial, script in failures:
            assert script.apply(d) == walks[trial][0]


# -- invariance under all moves ----------------------------------------------------


@given(diagrams(max_crossings=3), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_walks_preserve_all_invariants(d, seed):
    walked, _ = random_walk(d, 6, seed)
    assert affine_oracle(walked) == affine_oracle(d)
    after, before = f_sequence(walked), f_sequence(d)
    for n in (1, 2, 3):
        assert after.dwrithe(n) == before.dwrithe(n)
    assert fp(walked) == fp(d)


def test_single_moves_preserve_invariants(example_31):
    d = example_31
    cases = [apply_move(d, "R1+", 2, -1, True), apply_move(d, "R1+", 0, 1, False)]
    cases += [apply_move(d, "R2+", 0, 3, True), apply_move(d, "R2+", 5, 2, False)]
    for moved in cases:
        assert fp(moved) == fp(d)
        assert affine_oracle(moved) == affine_oracle(d)
