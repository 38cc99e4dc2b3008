"""Embedded knot table: loading, verification, grouping, the twist family."""

import subprocess
import sys
from pathlib import Path

import pytest

from vknot.gauss import parse_gauss
from vknot.invariants import (
    affine_index_polynomial,
    f_polynomial,
    f_sequence,
)
from vknot.laurent import parse_poly
from vknot.table import (
    CorruptData,
    EvenK,
    KnotRecord,
    Verdict,
    group_by_f_sequence,
    kauffman_family,
    data_dir,
    load_table,
    read_expected,
    verify_all,
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
        d = parse_gauss(r.gauss)
        assert d.n_crossings == int(r.name.split(".")[0])
        assert r.expected and all(n >= 1 for n, _ in r.expected)


def test_classical_records_have_zero_invariants(table_records):
    for name in ("3.6", "4.108"):
        record = next(r for r in table_records if r.name == name)
        d = record.diagram()
        report = f_sequence(d)
        assert affine_index_polynomial(d).is_zero()
        assert all(report.index[c] == 0 for c in d.crossings())
        assert all(p.is_zero() for _, p in report.fingerprint())


def test_load_table_missing_dir(tmp_path):
    with pytest.raises(CorruptData):
        load_table(tmp_path)


def test_load_table_env_override(tmp_path, monkeypatch, table_records):
    import vknot.table as table_mod

    (tmp_path / "knots.tsv").write_text("2.1\tO1- O2- U1- U2-\n")
    (tmp_path / "fpolys.tsv").write_text("2.1\t1\t-t^-1+2-t\n")
    monkeypatch.setenv("VKNOT_TABLE_DIR", str(tmp_path))
    with pytest.raises(CorruptData):  # not the full 116 names
        table_mod.load_table()
    monkeypatch.delenv("VKNOT_TABLE_DIR")
    assert len(table_mod.load_table()) == len(table_records)


def test_load_table_rejects_wrong_crossing_count(tmp_path):
    import shutil

    from vknot.table import data_dir

    shutil.copy(data_dir() / "fpolys.tsv", tmp_path / "fpolys.tsv")
    lines = (data_dir() / "knots.tsv").read_text().splitlines()
    lines[0] = "2.1\tO1+ U1+"  # one crossing, name promises two
    (tmp_path / "knots.tsv").write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptData):
        load_table(tmp_path)


@pytest.mark.parametrize("n_text", ["0_1", "+1", " 1", "\u0661"])
def test_load_table_rejects_non_digit_n(tmp_path, n_text):
    # int() reads each of these as 1; only ASCII digits are an n.
    import shutil

    from vknot.table import data_dir

    shutil.copy(data_dir() / "knots.tsv", tmp_path / "knots.tsv")
    rows = (data_dir() / "fpolys.tsv").read_text().splitlines()
    rows[0] = f"2.1\t{n_text}\t-t^-1+2-t"
    (tmp_path / "fpolys.tsv").write_text("\n".join(rows) + "\n")
    with pytest.raises(CorruptData, match="2.1"):
        load_table(tmp_path)


def test_read_expected_rejects_an_n_too_long_to_convert(tmp_path):
    rows = (data_dir() / "fpolys.tsv").read_text().splitlines()
    rows[0] = f"2.1\t{'9' * (sys.get_int_max_str_digits() + 1)}\t-t^-1+2-t"
    (tmp_path / "fpolys.tsv").write_text("\n".join(rows) + "\n")
    with pytest.raises(CorruptData, match=r"'2\.1': .*digits"):
        read_expected(tmp_path / "fpolys.tsv")


def test_load_table_rejects_a_repeated_n(tmp_path):
    import shutil

    shutil.copy(data_dir() / "knots.tsv", tmp_path / "knots.tsv")
    rows = (data_dir() / "fpolys.tsv").read_text() + "2.1\t1\tt\n"
    (tmp_path / "fpolys.tsv").write_text(rows)
    with pytest.raises(CorruptData, match="2.1"):
        load_table(tmp_path)


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


BUILDER = Path(__file__).resolve().parent.parent / "tools" / "build_knot_table.py"


@pytest.mark.parametrize("damage", [b"2.1\t1\n", b"\xff"], ids=["short line", "undecodable"])
def test_table_builder_rejects_corrupt_expected_rows(tmp_path, damage):
    # The builder reads fpolys.tsv with the loader's reader, so it stops before its scan.
    expected = tmp_path / "fpolys.tsv"
    expected.write_bytes((data_dir() / "fpolys.tsv").read_bytes() + damage)
    out = tmp_path / "knots.tsv"
    proc = subprocess.run(
        [sys.executable, str(BUILDER), "--expected", str(expected), "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr
    assert not out.exists()


def test_verify_record_exact(table_records):
    record = next(r for r in table_records if r.name == "2.1")
    verdict = verify_record(record)
    assert verdict.status is Verdict.EXACT_MATCH
    assert verdict.report.diagram == record.diagram()
    assert verdict.report.f_at(1) == parse_poly("-t^-1+2-t")


def test_verify_record_under_inversion(table_records):
    # Store 3.1 with the opposite orientation: it must still verify,
    # by reversing the stored diagram back.
    record = next(r for r in table_records if r.name == "3.1")
    reversed_code = str(record.diagram().reverse())
    flipped = KnotRecord("3.1", reversed_code, record.expected)
    verdict = verify_record(flipped)
    assert verdict.status is Verdict.MATCH_UNDER_INVERSION
    assert verdict.report.diagram == flipped.diagram().reverse()
    assert verdict.ok


def test_verify_record_reversed_where_substitution_fails(table_records):
    # For 4.9, F of the reversed diagram is not F(t^-1, l^-1): only
    # recomputing the reversed diagram recognises the reversed code.
    record = next(r for r in table_records if r.name == "4.9")
    flipped = KnotRecord("4.9", str(record.diagram().reverse()), record.expected)
    computed = f_sequence(flipped.diagram())
    assert any(computed.f_at(n).invert_vars() != p for n, p in record.expected)
    verdict = verify_record(flipped)
    assert verdict.status is Verdict.MATCH_UNDER_INVERSION
    assert verdict.ok


def test_verify_record_mismatch(table_records):
    record = next(r for r in table_records if r.name == "3.3")
    broken = KnotRecord("3.3", record.gauss, ((1, parse_poly("t-1")),))
    verdict = verify_record(broken)
    assert verdict.status is Verdict.MISMATCH
    assert not verdict.ok
    assert verdict.details and "expected" in verdict.details[0]


def test_whole_table_verifies(table_records):
    verdicts = verify_all(table_records)
    assert len(verdicts) == 116
    assert all(v.ok for v in verdicts)
    assert all(v.report.n_max <= 4 for v in verdicts)


def test_record_with_longest_sequence(table_records):
    record = next(r for r in table_records if r.name == "4.24")
    polys = [p for _, p in record.expected]
    assert len(polys) == 4 and len(set(polys)) == 4
    report = f_sequence(record.diagram())
    assert [report.f_at(n) for n in (1, 2, 3, 4)] == polys


def test_grouping_reproduces_published_rows(table_records):
    groups = group_by_f_sequence(verify_all(table_records))
    by_name = {name: g for g in groups for name in g.names}
    assert by_name["2.1"].names == (
        "2.1", "3.2", "4.4", "4.5", "4.30", "4.40",
        "4.54", "4.61", "4.69", "4.74", "4.94",
    )
    assert by_name["3.5"].names == ("3.5", "3.7", "4.65", "4.85", "4.86", "4.106")
    zero = by_name["3.6"]
    assert "4.108" in zero.names and len(zero.names) == 22
    assert all(p.is_zero() for _, p in zero.rows)
    # inverse-related fingerprints stay separate groups
    assert by_name["4.13"].names == ("4.13",)
    assert by_name["4.31"].names == ("4.31", "4.51")
    assert sum(len(g.names) for g in groups) == 116


def test_grouping_is_orientation_normalized(table_records):
    flipped = [
        KnotRecord(r.name, str(r.diagram().reverse()), r.expected)
        if r.name == "3.1"
        else r
        for r in table_records
    ]
    original = {
        g.names: [str(p) for _, p in g.rows]
        for g in group_by_f_sequence(verify_all(table_records))
    }
    again = {
        g.names: [str(p) for _, p in g.rows] for g in group_by_f_sequence(verify_all(flipped))
    }
    assert original == again


# -- the k-twist family -------------------------------------------------------------


def test_family_rejects_bad_k():
    for k in (0, -1, 2, 8):
        with pytest.raises(EvenK):
            kauffman_family(k)


def test_family_k1_matches_published_values():
    d = kauffman_family(1)
    assert {c: d.sign(c) for c in d.crossings()} == {"a1": 1, "b": -1, "g": -1}
    report = f_sequence(d)
    assert report.index["a1"] == 0
    assert report.index["b"] == 1
    assert report.index["g"] == -1
    assert report.dwrithe(1) == 0
    assert {abs(k) for k in report.index.values() if k} == {1}
    assert report.t_set(1) == frozenset({"a1", "b", "g"})
    assert affine_index_polynomial(d) == parse_poly("-t^-1+2-t")


def test_family_k1_smoothing_table():
    # Published sign/index/dwrithe values for the three smoothings,
    # with the one entry that contradicts its own dwrithe column
    # corrected (sgn(a1) in the g-smoothing is -1, not +1).
    d = kauffman_family(1)
    expected = {
        "a1": {"b": (1, 1), "g": (1, -1)},
        "b": {"a1": (-1, -1), "g": (-1, 1)},
        "g": {"a1": (-1, 1), "b": (-1, -1)},
    }
    for c, values in expected.items():
        s = d.smooth(c)
        report = f_sequence(s)
        assert {x: (s.sign(x), report.index[x]) for x in s.crossings()} == values
        assert report.dwrithe(1) == 0


def test_family_shares_f_polynomial_for_odd_k():
    target = parse_poly("-t^-1+2-t")
    fingerprints = set()
    for k in (1, 3, 5, 7, 9):
        d = kauffman_family(k)
        assert d.n_crossings == k + 2
        assert f_polynomial(d, 1) == target
        fingerprints.add(f_sequence(d).fingerprint())
    assert len(fingerprints) == 1  # indistinguishable by the whole sequence


def test_family_crossing_reports_k1():
    d = kauffman_family(1)
    reports = {r.crossing: r for r in f_sequence(d).crossing_reports((1,))}
    assert reports["a1"].smoothed_dwrithe == {1: 0}
    assert reports["b"].smoothed_dwrithe == {1: 0}
    assert reports["g"].smoothed_dwrithe == {1: 0}
