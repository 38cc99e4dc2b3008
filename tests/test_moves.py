"""Reidemeister rewriting: structure, inverses, invariance, determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vknot.moves
from conftest import diagrams
from vknot.gauss import Diagram, format_gauss, parse_gauss
from vknot.invariants import affine_index_polynomial, f_sequence
from vknot.moves import (
    InvalidArc,
    Lcg,
    MoveError,
    MoveScript,
    PatternNotFound,
    r1_insert,
    r1_remove,
    r1_sites,
    r2_insert,
    r2_remove,
    r2_sites,
    r3_apply,
    r3_triples,
    random_walk,
)

UNKNOT = parse_gauss("")


def fp(d: Diagram):
    return f_sequence(d).fingerprint()


# -- R1 ------------------------------------------------------------------------


def test_r1_on_unknot():
    assert format_gauss(r1_insert(UNKNOT, None, 1)) == "O1+ U1+"
    assert format_gauss(r1_insert(UNKNOT, None, -1, over_first=False)) == "U1- O1-"


def test_r1_insert_remove_round_trip(example_31):
    for arc in range(len(example_31)):
        for sign in (1, -1):
            grown = r1_insert(example_31, arc, sign)
            assert grown.n_crossings == 4
            assert r1_remove(grown, arc + 1) == example_31


def test_r1_invalid_arc(example_31):
    with pytest.raises(InvalidArc):
        r1_insert(example_31, 17, 1)
    with pytest.raises(MoveError):
        r1_insert(example_31, 0, 3)


def test_r1_remove_requires_kink(example_31):
    with pytest.raises(PatternNotFound):
        r1_remove(example_31, 0)
    with pytest.raises(PatternNotFound):
        r1_remove(UNKNOT, 0)


def test_r1_sites_wraparound():
    # The kink pair sits at positions 3,0 across the seam.
    d = parse_gauss("U1+ O2- U2- O1+")
    assert r1_sites(d) == [1, 3]
    assert format_gauss(r1_remove(d, 3)) == "O2- U2-"


# -- R2 ------------------------------------------------------------------------


def test_r2_insert_structure():
    d = parse_gauss("O1+ U1+")
    grown = r2_insert(d, 0, 1, over_first=True)
    assert grown.n_crossings == 3
    assert format_gauss(grown) == "O1+ O2+ O3- U1+ U3- U2+"
    # fresh ids use the smallest unused numeric tokens
    assert set(grown.crossings()) == {"1", "2", "3"}


def test_r2_insert_validation(example_31):
    with pytest.raises(InvalidArc):
        r2_insert(example_31, 2, 2)
    with pytest.raises(InvalidArc):
        r2_insert(example_31, 0, 99)
    with pytest.raises(InvalidArc):
        r2_insert(UNKNOT, 0, 1)


def test_r2_insert_remove_round_trip(example_31):
    grown = r2_insert(example_31, 1, 4, over_first=False)
    sites = r2_sites(grown)
    assert sites, "inserted configuration must be removable"
    candidates = [r2_remove(grown, s) for s in sites]
    assert example_31 in candidates
    assert [r2_remove(grown, list(s)) for s in sites] == candidates  # a list site too


def test_r2_remove_rejects_bad_site(example_31):
    with pytest.raises(PatternNotFound):
        r2_remove(example_31, (0, 2))


@pytest.mark.parametrize(
    "move, args",
    [
        (r1_insert, (1.5, 1)),
        (r1_insert, ("0", 1)),
        (r1_insert, (True, 1)),
        (r1_insert, (0, True)),
        (r1_insert, (0, 1, 1)),
        (r1_remove, (1.0,)),
        (r1_remove, ("1",)),
        (r2_insert, (0, 1, 1)),
        (r2_insert, (0.0, 1)),
        (r2_remove, ((4.0, 9),)),
        (r2_remove, ([4, 9, 0],)),
        (r2_remove, (4,)),
        (r3_apply, (1, 2, 3)),
    ],
    ids=lambda case: case.__name__ if callable(case) else repr(case),
)
def test_move_functions_take_parameters_of_exact_types(example_31, move, args):
    # A kink at position 1 and an R2 configuration at (4, 9): only the
    # parameter types are wrong.
    d = r1_insert(r2_insert(example_31, 1, 4), 0, 1)
    assert r1_sites(d) == [1] and (4, 9) in r2_sites(d)
    with pytest.raises(MoveError):
        move(d, *args)


# -- R3 ------------------------------------------------------------------------


def braidlike_triangle() -> Diagram:
    """A diagram with an applicable R3 (found by search, then pinned)."""
    base = parse_gauss("O1- O2- U1- U2-")
    for seed in range(200):
        walked, _ = random_walk(base, 8, seed)
        if r3_triples(walked):
            return walked
    raise AssertionError("no R3-applicable diagram found")


def test_r3_swaps_are_involution():
    d = braidlike_triangle()
    for triple in r3_triples(d):
        moved = r3_apply(d, *triple)
        assert moved != d
        assert r3_apply(moved, *triple) == d


def test_r3_preserves_f_sequence():
    d = braidlike_triangle()
    for triple in r3_triples(d):
        assert fp(r3_apply(d, *triple)) == fp(d)


def test_r3_rejects_non_triangle(example_31):
    with pytest.raises(PatternNotFound):
        r3_apply(example_31, "1", "2", "3")


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
    ],
)
def test_script_from_json_needs_an_array(text):
    with pytest.raises(MoveError):
        MoveScript.from_json(text)


def test_script_rejects_unknown_move(example_31):
    with pytest.raises(MoveError):
        MoveScript(({"move": "R9"},)).apply(example_31)


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
    ],
)
def test_script_rejects_malformed_steps(example_31, step):
    with pytest.raises(MoveError):
        MoveScript((step,)).apply(example_31)


def test_walk_builds_one_diagram_and_scans_once_per_step(table_records, monkeypatch):
    # The walk rewrites one entry list and validates it once, at the end;
    # a drawn R2- or R3 is applied from the scan it was drawn from.
    built = []
    init = Diagram.__init__

    def counting_init(self, entries):
        built.append(1)
        init(self, entries)

    found = {"R2-": 0, "R3": 0}
    for kind, name in (("R2-", "_r2_sites"), ("R3", "_r3_patterns")):
        scan = getattr(vknot.moves, name)

        def counting_scan(ents, kind=kind, scan=scan):
            sites = scan(ents)
            found[kind] += bool(sites)
            return sites

        monkeypatch.setattr(vknot.moves, name, counting_scan)
        move = vknot.moves._MOVES[kind]._replace(sites=counting_scan)
        monkeypatch.setitem(vknot.moves._MOVES, kind, move)
    kinds = []
    starts = [r.diagram() for r in table_records]
    monkeypatch.setattr(Diagram, "__init__", counting_init)
    for seed, start in enumerate(starts):
        built.clear()
        _, script = random_walk(start, 40, seed)
        assert len(built) <= 1
        kinds += [step["move"] for step in script.steps]
    assert found == {"R2-": kinds.count("R2-"), "R3": kinds.count("R3")}
    assert min(found.values()) > 100


# -- invariance under all moves ----------------------------------------------------


@given(diagrams(max_crossings=3), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_walks_preserve_all_invariants(d, seed):
    walked, _ = random_walk(d, 6, seed)
    assert affine_index_polynomial(walked) == affine_index_polynomial(d)
    after, before = f_sequence(walked), f_sequence(d)
    for n in (1, 2, 3):
        assert after.dwrithe(n) == before.dwrithe(n)
    assert fp(walked) == fp(d)


def test_single_moves_preserve_invariants(example_31):
    d = example_31
    cases = [r1_insert(d, 2, -1), r1_insert(d, 0, 1, over_first=False)]
    cases += [r2_insert(d, 0, 3), r2_insert(d, 5, 2, over_first=False)]
    for moved in cases:
        assert fp(moved) == fp(d)
        assert affine_index_polynomial(moved) == affine_index_polynomial(d)
