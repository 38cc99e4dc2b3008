"""Embedded knot table: loading, verification, grouping."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import affine_oracle, map_terms
from vknot.enumerate import canonical_code
from vknot.invariants import f_sequence
from vknot.moves import apply_move, move_sites
from vknot.laurent import parse_poly
from vknot.table import (
    CorruptData,
    Verdict,
    group_by_f_sequence,
    data_dir,
    load_table,
    name_key,
    read_expected,
    verify_record,
)


def test_load_table_counts(table_records):
    assert len(table_records) == 116
    by_prefix = {}
    for r in table_records:
        by_prefix.setdefault(r.name.split(".")[0], []).append(r)
    assert len(by_prefix["2"]) == 1
    assert len(by_prefix["3"]) == 7
    assert len(by_prefix["4"]) == 108


def test_load_table_known_records(table_records):
    names = {r.name for r in table_records}
    assert "3.6" in names  # classical trefoil: all invariants vanish
    assert "4.108" in names  # classical figure-eight
    for r in table_records:
        assert r.diagram.n_crossings == int(r.name.split(".")[0])
        assert r.expected and all(n >= 1 for n, _ in r.expected)


def test_classical_records_have_zero_invariants(table_records):
    for name in ("3.6", "4.108"):
        record = next(r for r in table_records if r.name == name)
        d = record.diagram
        report = f_sequence(d)
        assert not report.stable_tail and not affine_oracle(d)
        assert all(report.index[c] == 0 for c in d.crossings())
        assert not any(p for _, p in report.fingerprint)


def test_records_render_to_their_codes(table_records):
    lines = (data_dir() / "knots.tsv").read_text().splitlines()
    rows = sorted((line.split("\t") for line in lines), key=lambda row: name_key(row[0]))
    assert [(r.name, str(r.diagram)) for r in table_records] == [tuple(row) for row in rows]


def test_load_table_missing_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("VKNOT_TABLE_DIR", str(tmp_path))
    with pytest.raises(CorruptData):
        load_table()


def test_load_table_env_override(tmp_path, monkeypatch, table_records):
    import vknot.table as table_mod

    (tmp_path / "knots.tsv").write_text("2.1\tO1- O2- U1- U2-\n")
    (tmp_path / "fpolys.tsv").write_text("2.1\t1\t-t^-1+2-t\n")
    monkeypatch.setenv("VKNOT_TABLE_DIR", str(tmp_path))
    with pytest.raises(CorruptData):  # not the full 116 names
        table_mod.load_table()
    monkeypatch.delenv("VKNOT_TABLE_DIR")
    assert len(table_mod.load_table()) == len(table_records)


def test_load_table_rejects_wrong_crossing_count(tmp_path, monkeypatch):
    import shutil

    shutil.copy(data_dir() / "fpolys.tsv", tmp_path / "fpolys.tsv")
    lines = (data_dir() / "knots.tsv").read_text().splitlines()
    lines[0] = "2.1\tO1+ U1+"  # one crossing, name promises two
    (tmp_path / "knots.tsv").write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("VKNOT_TABLE_DIR", str(tmp_path))
    with pytest.raises(CorruptData):
        load_table()


@pytest.mark.parametrize("n_text", ["0_1", "+1", " 1", "\u0661"])
def test_load_table_rejects_non_digit_n(tmp_path, monkeypatch, n_text):
    # int() reads each of these as 1; only ASCII digits are an n.
    import shutil

    shutil.copy(data_dir() / "knots.tsv", tmp_path / "knots.tsv")
    rows = (data_dir() / "fpolys.tsv").read_text().splitlines()
    rows[0] = f"2.1\t{n_text}\t-t^-1+2-t"
    (tmp_path / "fpolys.tsv").write_text("\n".join(rows) + "\n")
    monkeypatch.setenv("VKNOT_TABLE_DIR", str(tmp_path))
    with pytest.raises(CorruptData, match="2.1"):
        load_table()


def test_read_expected_rejects_an_n_too_long_to_convert(tmp_path):
    rows = (data_dir() / "fpolys.tsv").read_text().splitlines()
    rows[0] = f"2.1\t{'9' * (sys.get_int_max_str_digits() + 1)}\t-t^-1+2-t"
    (tmp_path / "fpolys.tsv").write_text("\n".join(rows) + "\n")
    with pytest.raises(CorruptData, match=r"'2\.1': .*digits"):
        read_expected(tmp_path / "fpolys.tsv")


def test_load_table_rejects_a_repeated_n(tmp_path, monkeypatch):
    import shutil

    shutil.copy(data_dir() / "knots.tsv", tmp_path / "knots.tsv")
    rows = (data_dir() / "fpolys.tsv").read_text() + "2.1\t1\tt\n"
    (tmp_path / "fpolys.tsv").write_text(rows)
    monkeypatch.setenv("VKNOT_TABLE_DIR", str(tmp_path))
    with pytest.raises(CorruptData, match="2.1"):
        load_table()


@pytest.mark.parametrize(
    "first, extra, error",
    [
        ("2.1\t0\t-t^-1+2-t", [], "bad expected row for '2.1': n must be >= 1, got 0"),
        ("2.1\t1\t-t^-1+2-t", ["2.1\t1\tt"], "record '2.1' repeats the expected row for n = 1"),
        ("2.1\t1\t-t^-1+2-t", ["2.1\t3\tt"], "record '2.1' lists n = [1, 3], not n = 1..2"),
        (
            "2.1\t1\t-t^-1+2-t",
            ["2.1\t2\t-t^-1+2-t"],
            "record '2.1' lists n = 2, past the stable row n = 1",
        ),
    ],
    ids=["n = 0", "repeated n", "gap", "row past the stable one"],
)
def test_read_expected_names_a_zero_or_repeated_n(tmp_path, first, extra, error):
    rows = (data_dir() / "fpolys.tsv").read_text().splitlines()
    assert rows[0] == "2.1\t1\t-t^-1+2-t"
    rows = [first, *rows[1:], *extra]
    (tmp_path / "fpolys.tsv").write_text("\n".join(rows) + "\n")
    with pytest.raises(CorruptData) as info:
        read_expected(tmp_path / "fpolys.tsv")
    assert str(info.value) == error


def test_read_expected_names_the_first_row_of_a_repeated_bad_polynomial(tmp_path):
    # The same malformed text in the rows of 3.2 and 4.108: the error is the first row's.
    rows = (data_dir() / "fpolys.tsv").read_text().splitlines()
    first = rows.index("3.2\t1\t-t^-1+2-t")
    rows[first] = "3.2\t1\t-t^-1+2-t^"
    rows[-1] = "4.108\t1\t-t^-1+2-t^"
    (tmp_path / "fpolys.tsv").write_text("\n".join(rows) + "\n")
    with pytest.raises(CorruptData, match="'3.2'") as info:
        read_expected(tmp_path / "fpolys.tsv")
    assert "4.108" not in str(info.value)


def test_read_expected_values_equal_their_texts():
    rows = [line.split("\t") for line in (data_dir() / "fpolys.tsv").read_text().splitlines()]
    assert len({text for _, _, text in rows}) < len(rows)  # some texts repeat
    expected = read_expected(data_dir() / "fpolys.tsv")
    for name, n_text, text in rows:
        assert dict(expected[name])[int(n_text)] == parse_poly(text)


def test_paper_rows_obey_the_laws_of_f_without_the_engine():
    # Read from fpolys.tsv alone, with no f_sequence, so this checks the
    # data and not the engine against itself.  At l = 1 every F^n is the
    # affine index polynomial P(t) = sum sgn(c) (t^Ind(c) - 1), and
    # sum sgn(c) Ind(c) = 0, so P(1) = P'(1) = 0; the last listed row is
    # the stable tail, which is P(t) itself.
    expected = read_expected(data_dir() / "fpolys.tsv")
    assert len(expected) == 116
    for name, rows in expected.items():
        at_l_one = []
        for n, poly in rows:
            p = {}
            for et, _, c in poly.terms():
                p[et] = p.get(et, 0) + c
            at_l_one.append({et: c for et, c in p.items() if c})
            assert sum(c for _, _, c in poly.terms()) == 0, (name, n, "F^n(1, 1)")
        p = at_l_one[0]
        assert all(q == p for q in at_l_one), (name, "F^n(t, 1) depends on n")
        assert sum(p.values()) == 0, (name, "P(1)")
        assert sum(et * c for et, c in p.items()) == 0, (name, "P'(1)")
        assert all(el == 0 for _, el, _ in rows[-1][1].terms()), (name, "last row has l")


BUILDER = Path(__file__).resolve().parent.parent / "tools" / "build_knot_table.py"


@pytest.mark.parametrize("damage", [b"2.1\t1\n", b"\xff"], ids=["short line", "undecodable"])
def test_table_builder_rejects_corrupt_expected_rows(tmp_path, damage):
    # The builder reads fpolys.tsv with the loader's reader, so it stops before its scan.
    expected = tmp_path / "fpolys.tsv"
    expected.write_bytes((data_dir() / "fpolys.tsv").read_bytes() + damage)
    out = tmp_path / "knots.tsv"
    proc = subprocess.run(
        [sys.executable, str(BUILDER), "--out", str(out)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "VKNOT_TABLE_DIR": str(tmp_path)},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr
    assert not out.exists()


def test_verify_record_exact(table_records):
    record = next(r for r in table_records if r.name == "2.1")
    verdict = verify_record(record)
    assert verdict.status is Verdict.EXACT_MATCH
    assert verdict.report.diagram == record.diagram
    assert verdict.report.f_at(1) == parse_poly("-t^-1+2-t")


def test_verify_record_under_inversion(table_records):
    # Store 3.1 with the opposite orientation: it must still verify,
    # by reversing the stored diagram back.
    record = next(r for r in table_records if r.name == "3.1")
    flipped = record._replace(diagram=record.diagram.reverse())
    verdict = verify_record(flipped)
    assert verdict.status is Verdict.MATCH_UNDER_INVERSION
    assert verdict.report.diagram == flipped.diagram.reverse()
    assert verdict.ok


def test_verify_record_reversed_where_substitution_fails(table_records):
    # For 4.9, F of the reversed diagram is not F(t^-1, l^-1): only
    # recomputing the reversed diagram recognises the reversed code.
    record = next(r for r in table_records if r.name == "4.9")
    flipped = record._replace(diagram=record.diagram.reverse())
    computed = f_sequence(flipped.diagram)
    inverted = [map_terms(computed.f_at(n), lambda et, el, c: (-et, -el, c)) for n, _ in record.expected]
    assert inverted != [p for _, p in record.expected]
    verdict = verify_record(flipped)
    assert verdict.status is Verdict.MATCH_UNDER_INVERSION
    assert verdict.ok


def test_verify_record_mismatch(table_records):
    record = next(r for r in table_records if r.name == "3.3")
    broken = record._replace(expected=((1, parse_poly("t-1")),))
    verdict = verify_record(broken)
    assert verdict.status is Verdict.MISMATCH
    assert not verdict.ok
    assert verdict.details and "expected" in verdict.details[0]


def test_verify_record_rejects_rows_that_stop_short(table_records):
    # Every listed row of 4.24 agrees with the code, but F^3 and F^4 are left out.
    record = next(r for r in table_records if r.name == "4.24")
    short = record._replace(expected=record.expected[:2])
    report = f_sequence(record.diagram)
    assert all(report.f_at(n) == poly for n, poly in short.expected)
    verdict = verify_record(short)
    assert verdict.status is Verdict.MISMATCH
    # Past the listed rows, each n is compared with the last listed row.
    assert verdict.details == (
        "n=3: expected t^-2-l^-1+1-l-t+t^3*l, computed t^-2+1-2l-t+t^3"
        " (reversed t^-3-t^-1-2l^-1+1+t^2)",
        "n=4: expected t^-2-l^-1+1-l-t+t^3*l, computed t^-2-1-t+t^3"
        " (reversed t^-3-t^-1-1+t^2)",
    )
    assert str(short.expected[-1][1]) == "t^-2-l^-1+1-l-t+t^3*l"
    assert [n for n, _ in verdict.rows] == [1, 2, 3, 4]
    assert verdict.rows == report.fingerprint == record.expected


def test_whole_table_verifies(table_records):
    verdicts = [verify_record(r) for r in table_records]
    assert len(verdicts) == 116
    assert all(v.ok for v in verdicts)
    assert all(v.report.n_max <= 4 for v in verdicts)


def test_record_with_longest_sequence(table_records):
    record = next(r for r in table_records if r.name == "4.24")
    polys = [p for _, p in record.expected]
    assert len(polys) == 4 and len(set(polys)) == 4
    report = f_sequence(record.diagram)
    assert [report.f_at(n) for n in (1, 2, 3, 4)] == polys


def test_grouping_reproduces_published_rows(table_records):
    groups = group_by_f_sequence([verify_record(r) for r in table_records])
    by_name = {name: names for names in groups for name in names}
    assert by_name["2.1"] == (
        "2.1", "3.2", "4.4", "4.5", "4.30", "4.40",
        "4.54", "4.61", "4.69", "4.74", "4.94",
    )
    assert by_name["3.5"] == ("3.5", "3.7", "4.65", "4.85", "4.86", "4.106")
    zero = by_name["3.6"]
    assert "4.108" in zero and len(zero) == 22
    expected = {r.name: r.expected for r in table_records}
    assert not any(p for name in zero for _, p in expected[name])
    # inverse-related fingerprints stay separate groups
    assert by_name["4.13"] == ("4.13",)
    assert by_name["4.31"] == ("4.31", "4.51")
    assert sum(map(len, groups)) == 116
    assert groups == sorted(groups, key=lambda names: name_key(names[0]))
    assert all(list(names) == sorted(names, key=name_key) for names in groups)


def test_grouping_is_orientation_normalized(table_records):
    flipped = [
        r._replace(diagram=r.diagram.reverse()) if r.name == "3.1" else r for r in table_records
    ]

    def groups(records):
        verdicts = {v.name: v for v in map(verify_record, records)}
        return {
            names: [str(p) for _, p in verdicts[names[0]].rows]
            for names in group_by_f_sequence(list(verdicts.values()))
        }

    original, again = groups(table_records), groups(flipped)
    assert original == again


# The shipped codes that greedy R1- then R2- removal shrinks, and the
# ones among them that it takes to the empty code: diagrams of the unknot.
_REDUCIBLE = (
    "3.2", "4.2", "4.4", "4.5", "4.6", "4.8", "4.12", "4.30", "4.36", "4.40", "4.41", "4.54",
    "4.55", "4.56", "4.58", "4.59", "4.61", "4.68", "4.69", "4.71", "4.72", "4.74", "4.75",
    "4.76", "4.77", "4.85", "4.86", "4.90", "4.94", "4.98", "4.99", "4.105", "4.106", "4.107",
)
_UNKNOT_DIAGRAMS = (
    "4.2", "4.6", "4.8", "4.12", "4.41", "4.55", "4.56", "4.58", "4.59", "4.68", "4.71",
    "4.72", "4.75", "4.76", "4.77", "4.90", "4.98", "4.99", "4.105", "4.107",
)


def _greedy_reduction(d):
    """d after removing, while any is left, the first R1- site, or else the first R2- site."""
    while True:
        for kind in ("R1-", "R2-"):
            sites = move_sites(d, kind)
            if sites:
                d = apply_move(d, kind, sites[0])
                break
        else:
            return d


def test_table_codes_certify_rows_not_minimal_diagrams(table_records):
    # A shipped code is certified by its rows only: 34 codes shrink (each
    # has a kink), 20 of them to the unknot, and 3.2's to 2.1's code up
    # to relabelling.  Each reduced diagram keeps its record's rows.
    records = {r.name: r for r in table_records}
    reduced = {r.name: _greedy_reduction(r.diagram) for r in table_records}
    shrunk = [r.name for r in table_records if len(reduced[r.name]) < len(r.diagram)]
    assert shrunk == list(_REDUCIBLE)
    assert [name for name in shrunk if len(reduced[name]) == 0] == list(_UNKNOT_DIAGRAMS)
    assert str(reduced["3.2"]) == "O2- O3- U2- U3-"
    assert canonical_code(reduced["3.2"]) == canonical_code(records["2.1"].diagram)
    for name in shrunk:
        assert f_sequence(reduced[name]).fingerprint == records[name].expected, name
