"""Acceptance suite: the end-to-end checks the package must satisfy.

Every test prints one PASS line (visible with ``pytest -s``); a failing
criterion fails its test.  All polynomial and integer comparisons are
exact - there are no tolerances anywhere in this package.
"""

import time

from conftest import EXAMPLE_31, affine_oracle
from vknot.cli import main
from vknot.gauss import parse_gauss
from vknot.invariants import f_sequence
from vknot.laurent import parse_poly
from vknot.moves import Lcg, fuzz_invariance, random_walk
from vknot.table import group_by_f_sequence, verify_record


def _report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {text}")


def test_criterion_1_worked_example_end_to_end():
    d = parse_gauss(EXAMPLE_31)  # warm-up parse outside the timed region
    f_sequence(d)

    started = time.perf_counter()
    d = parse_gauss(EXAMPLE_31)
    report = f_sequence(d)
    signs = tuple(d.sign(c) for c in ("1", "2", "3"))
    indices = tuple(report.index[c] for c in ("1", "2", "3"))
    dj = (report.dwrithe(1), report.dwrithe(2))
    t1, t2 = report.t_set(1), report.t_set(2)
    elapsed = time.perf_counter() - started

    assert signs == (-1, 1, -1)
    assert indices == (-1, 1, 2)
    assert dj == (2, -1)
    assert t1 == frozenset() and t2 == frozenset()
    assert report.f_at(1) == parse_poly("-t^-1+t-t^2+l^2")
    assert report.f_at(2) == parse_poly("-t^-1+t-t^2+l^-1")
    tail = parse_poly("-t^-1+t-t^2+1")
    assert report.f_at(3) == tail
    assert report.stable_tail == tail
    for n in (3, 4, 5, 9):
        assert report.f_at(n) == tail
    assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms"
    _report(1, f"worked example reproduced exactly in {elapsed * 1000:.2f} ms")


def test_criterion_2_smoothing_oracle():
    d = parse_gauss(EXAMPLE_31)
    expected = {
        "1": {"2": (1, 1), "3": (1, -1)},
        "2": {"1": (-1, -1), "3": (1, -1)},
        "3": {"1": (1, 1), "2": (-1, 1)},
    }
    checked_values = 0
    for c, values in expected.items():
        smoothed = d.smooth(c)
        report = f_sequence(smoothed)
        got = {x: (smoothed.sign(x), report.index[x]) for x in smoothed.crossings()}
        assert got == values, f"smoothing at {c}: {got}"
        assert report.dwrithe(1) == 0
        assert report.dwrithe(2) == 0
        checked_values += 2 * len(values) + 2
    report = f_sequence(d)
    assert report.smoothed_row(1) == report.smoothed_row(2) == (0, 0, 0)
    _report(2, f"all {checked_values} smoothing-table values exact; convention pinned")


def test_criterion_3_full_table_regression(capsys):
    started = time.perf_counter()
    code = main(["tabulate"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines()[-1] == (
        "116 records: 116 ExactMatch, 0 MatchUnderInversion, 0 Mismatch"
    )
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    with capsys.disabled():
        _report(3, f"116/116 records verified (zero Mismatch) in {elapsed:.3f} s")


def test_criterion_4_grouping_matches_published_rows(table_records):
    # Independent derivation of the published row structure: partition
    # the names by their transcribed expected rows.
    expected_groups = {}
    for record in table_records:
        key = tuple((n, str(p)) for n, p in record.expected)
        expected_groups.setdefault(key, []).append(record.name)
    expected_partition = {tuple(sorted(names)) for names in expected_groups.values()}

    groups = group_by_f_sequence([verify_record(r) for r in table_records])
    computed_partition = {tuple(sorted(names)) for names in groups}
    assert computed_partition == expected_partition

    by_name = {name: names for names in groups for name in names}
    assert by_name["2.1"] == (
        "2.1", "3.2", "4.4", "4.5", "4.30", "4.40",
        "4.54", "4.61", "4.69", "4.74", "4.94",
    )
    zero_group = by_name["3.6"]
    assert "4.108" in zero_group and len(zero_group) == 22
    _report(4, f"{len(groups)} computed groups equal the published row partition")


# A three-crossing code whose F^1 is 2.1's, with a published smoothing table.
SMOOTHING_EXAMPLE = "Og- Ub- Ua1+ Ob- Ug- Oa1+"


def test_criterion_5_published_smoothing_table():
    d = parse_gauss(SMOOTHING_EXAMPLE)
    assert {c: d.sign(c) for c in d.crossings()} == {"g": -1, "b": -1, "a1": 1}
    report = f_sequence(d)
    assert {c: report.index[c] for c in d.crossings()} == {"g": -1, "b": 1, "a1": 0}
    assert report.dwrithe(1) == 0
    assert report.t_set(1) == frozenset({"a1", "b", "g"})
    assert report.smoothed_row(1) == (0, 0, 0)
    target = parse_poly("-t+2-t^-1")
    assert report.f_at(1) == report.stable_tail == target == affine_oracle(d)
    # The published table's one entry that contradicts its own dwrithe
    # column is corrected: sgn(a1) in the g-smoothing is -1, not +1.
    smoothing_table = {
        "a1": ({"b": (1, 1), "g": (1, -1)}, 0),
        "b": ({"a1": (-1, -1), "g": (-1, 1)}, 0),
        "g": ({"a1": (-1, 1), "b": (-1, -1)}, 0),
    }
    for c, (values, dj1) in smoothing_table.items():
        s = d.smooth(c)
        smoothed = f_sequence(s)
        assert {x: (s.sign(x), smoothed.index[x]) for x in s.crossings()} == values
        assert smoothed.dwrithe(1) == dj1
    _report(5, "F^1 = stable tail = -t+2-t^-1 = affine oracle; smoothing table exact")


def test_criterion_6_mirror_reverse_dwrithe_laws(table_records):
    diagrams = [r.diagram for r in table_records]
    rng = Lcg(20240)
    for i in range(100):
        base = diagrams[i % 116]
        walked, _ = random_walk(base, 8, rng.randrange(1 << 31))
        diagrams.append(walked)

    violations = 0
    for d in diagrams:
        report = f_sequence(d)
        mirrored, reversed_ = f_sequence(d.mirror()), f_sequence(d.reverse())
        for n in range(1, report.n_max + 1):
            if mirrored.dwrithe(n) != report.dwrithe(n):
                violations += 1
            if reversed_.dwrithe(n) != -report.dwrithe(n):
                violations += 1
    assert violations == 0
    _report(6, f"dwrithe laws hold on {len(diagrams)} diagrams (116 table + 100 walked)")


def test_criterion_7_move_invariance_fuzz(table_records):
    started = time.perf_counter()
    rng = Lcg(777)
    violations = 0
    for record in table_records:
        for _, script in fuzz_invariance(record.diagram, 10, 10, rng):
            violations += 1
            print(f"{record.name}: {script.to_json()}")
    elapsed = time.perf_counter() - started
    assert violations == 0
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    _report(7, f"1160 random walks left every F-sequence identical in {elapsed:.1f} s")


def test_criterion_8_stabilization(table_records):
    for record in table_records:
        d = record.diagram
        report = f_sequence(d)
        p = affine_oracle(d)
        assert report.fingerprint[-1][1] == p  # the fingerprint ends at the stable entry
        assert report.f_at(report.n_max + 1) == p

    stable_at_one = parse_poly("-t^-2+2-t^2")
    for name in ("3.5", "3.7"):
        record = next(r for r in table_records if r.name == name)
        fp = f_sequence(record.diagram).fingerprint
        assert fp == ((1, stable_at_one),)
    _report(8, "F^(n_max+1) = affine polynomial on all 116; 3.5/3.7 stable at n=1")


def test_criterion_9_rotation_invariance(table_records):
    rng = Lcg(31337)

    def portrait(d):
        report = f_sequence(d)
        ns = range(1, report.n_max + 2)
        rows = zip(*(report.smoothed_row(n) for n in ns))
        per_crossing = {c: (d.sign(c), k, row) for (c, k), row in zip(report.index.items(), rows)}
        return (
            report.fingerprint,
            report.stable_tail,
            affine_oracle(d),
            frozenset((n, report.dwrithe(n)) for n in ns),
            frozenset((n, report.t_set(n)) for n in ns),
            per_crossing,
        )

    for record in table_records:
        d = record.diagram
        base = portrait(d)
        for _ in range(20):
            assert portrait(d.rotate(rng.randrange(len(d)))) == base
    _report(9, "2320 random rotations changed no invariant on any table diagram")
