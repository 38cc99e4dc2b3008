"""Command-line interface: exit codes, formats, determinism."""

import json

import pytest

import vknot.cli
import vknot.invariants
import vknot.moves
import vknot.table
from conftest import random_code
from vknot.cli import main
from vknot.gauss import Diagram, parse_gauss
from vknot.invariants import f_sequence
from vknot.moves import MoveScript
from vknot.table import kauffman_family

EXAMPLE_31_REVERSED = "O1- U2+ U3- O2+ U1- O3-"  # table orientation of knot 3.1


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- compute ---------------------------------------------------------------------


def test_compute_by_name_all(capsys):
    code, out, _ = run(capsys, "compute", "3.1", "--all")
    assert code == 0
    assert "knot 3.1" in out
    assert "n_max = 2" in out
    assert "F^1 = -t^-2+t^-1+l^-2-t" in out
    assert "F^2 = -t^-2+t^-1+l-t" in out
    assert "F^3 = -t^-2+t^-1+1-t" in out
    assert "stable tail" in out


def test_compute_unknot_all(capsys):
    code, out, _ = run(capsys, "compute", "", "--all")
    assert code == 0
    assert "F^1 = 0" in out
    assert "P(t) = 0" in out


def test_compute_single_n(capsys):
    code, out, _ = run(capsys, "compute", EXAMPLE_31_REVERSED, "-n", "2")
    assert code == 0
    assert "F^2 = -t^-2+t^-1+l-t" in out
    assert "F^1" not in out


def test_compute_parse_error_names_token(capsys):
    code, out, err = run(capsys, "compute", "O1+ U1-")
    assert code == 2
    assert "'1'" in err


def test_compute_unknown_name(capsys):
    code, _, err = run(capsys, "compute", "4.999")
    assert code == 2
    assert "4.999" in err


def test_compute_reads_only_ascii_digits_as_a_table_name(capsys, monkeypatch):
    loads = []

    def counting_load_table(*args):
        loads.append(args)
        return vknot.table.load_table(*args)

    monkeypatch.setattr(vknot.cli, "load_table", counting_load_table)
    # An Arabic-Indic digit one: no table name, so it fails as a Gauss code
    # before the table is loaded.
    assert run(capsys, "compute", "3.\u0661") == (2, "", "error: malformed token '3.\u0661'\n")
    assert loads == []
    code, out, _ = run(capsys, "compute", "3.1")
    assert code == 0 and out.startswith("knot 3.1: ")
    assert len(loads) == 1


def test_compute_rejects_bad_n(capsys):
    code, _, err = run(capsys, "compute", "3.1", "-n", "0")
    assert code == 2


def test_compute_checks_n_before_the_analysis(capsys, monkeypatch):
    # A bad -n needs only the argument; a bad code still gets its own error.
    calls = []

    def counting_f_sequence(diagram):
        calls.append(diagram)
        return f_sequence(diagram)

    monkeypatch.setattr(vknot.cli, "f_sequence", counting_f_sequence)
    code, out, err = run(capsys, "compute", random_code(32, seed=7), "-n", "0")
    assert (code, out, err) == (2, "", "error: n must be >= 1\n")
    assert calls == []
    code, _, err = run(capsys, "compute", "O1+ U1-", "-n", "0")
    assert code == 2
    assert "'1'" in err
    assert calls == []


def test_compute_rejects_n_with_all(capsys):
    code, out, err = run(capsys, "compute", "3.1", "--all", "-n", "2")
    assert code == 2
    assert out == ""
    assert err == "error: -n and --all are mutually exclusive\n"


def test_compute_json_schema(capsys):
    code, out, _ = run(capsys, "compute", "3.1", "--all", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["knot"] == "3.1"
    assert data["n_max"] == 2
    assert set(data) == {"knot", "gauss", "n_max", "F", "stable"}
    assert set(data["F"]) == {"1", "2", "3"}
    for terms in list(data["F"].values()) + [data["stable"]]:
        assert all(set(t) == {"t", "l", "c"} for t in terms)
        assert terms == sorted(terms, key=lambda t: (t["t"], t["l"]))


def test_compute_all_smooths_each_crossing_once(capsys, monkeypatch):
    # Counts the integer kernel's per-smoothing step; no validated
    # Diagram is smoothed on the way.
    text = random_code(32, seed=7)
    step = vknot.invariants._smoothed_writhes
    smoothed = []

    def counting_step(diagram, passes2, c):
        smoothed.append(diagram.crossings()[c])
        return step(diagram, passes2, c)

    def no_smooth(self, crossing):
        raise AssertionError("Diagram.smooth called")

    monkeypatch.setattr(vknot.invariants, "_smoothed_writhes", counting_step)
    monkeypatch.setattr(Diagram, "smooth", no_smooth)
    code, out, _ = run(capsys, "compute", text, "--all")
    assert code == 0
    assert "crossings: 32" in out
    assert sorted(smoothed) == sorted(parse_gauss(text).crossings())


def test_compute_all_computes_each_smoothed_dwrithe_once(capsys, monkeypatch):
    # Every view reads one dJ_n(D_c) table, so _dj is left only for
    # dJ_n(D): a small multiple of n_max+1 calls, not one per (crossing, n)
    # per view (1,089 calls here before the table).
    text = random_code(32, seed=7)
    n_max = f_sequence(parse_gauss(text)).n_max
    assert n_max == 10
    dj = vknot.invariants._dj
    calls = []

    def counting_dj(writhes, n):
        calls.append(n)
        return dj(writhes, n)

    monkeypatch.setattr(vknot.invariants, "_dj", counting_dj)
    code, out, _ = run(capsys, "compute", text, "--all")
    assert code == 0
    assert f"n_max = {n_max}" in out
    assert 0 < len(calls) <= 4 * (n_max + 1)


def test_compute_is_deterministic(capsys):
    first = run(capsys, "compute", "4.24", "--all")
    second = run(capsys, "compute", "4.24", "--all")
    assert first == second


# -- tabulate --------------------------------------------------------------------


def test_tabulate_text(capsys):
    code, out, _ = run(capsys, "tabulate")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "116 records: 116 ExactMatch, 0 MatchUnderInversion, 0 Mismatch"


def test_tabulate_csv(capsys):
    code, out, _ = run(capsys, "tabulate", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,n,polynomial,status"
    assert "4.104,1,t^-3-2+t^3,ExactMatch" in lines
    assert all(line.endswith(("ExactMatch", "MatchUnderInversion")) for line in lines[1:])


def test_tabulate_json(capsys):
    code, out, _ = run(capsys, "tabulate", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 116
    rec = next(r for r in data if r["name"] == "3.1")
    assert rec["status"] == "ExactMatch"
    assert [row["n"] for row in rec["rows"]] == [1, 2, 3]
    # Every record's JSON rows are exactly its CSV rows.
    _, csv_out, _ = run(capsys, "tabulate", "--format", "csv")
    csv_rows = {}
    for line in csv_out.splitlines()[1:]:
        name, n, poly, status = line.split(",")
        csv_rows.setdefault(name, []).append((int(n), poly, status))
    assert len(csv_rows) == 116
    json_rows = {
        r["name"]: [(row["n"], row["polynomial"], r["status"]) for row in r["rows"]] for r in data
    }
    assert json_rows == csv_rows


def test_tabulate_groups(capsys):
    code, out, _ = run(capsys, "tabulate", "--groups")
    assert code == 0
    assert "group: 2.1 3.2 4.4 4.5 4.30 4.40 4.54 4.61 4.69 4.74 4.94" in out


def test_tabulate_groups_analyses_each_record_once(capsys, monkeypatch):
    analysed = []

    def counting_f_sequence(diagram):
        analysed.append(diagram)
        return f_sequence(diagram)

    for module in (vknot.cli, vknot.table):
        monkeypatch.setattr(module, "f_sequence", counting_f_sequence)
    code, out, _ = run(capsys, "tabulate", "--groups")
    assert code == 0
    assert "group: " in out
    assert len(analysed) == 116


def test_tabulate_parses_each_code_once(capsys, monkeypatch):
    parsed = []

    def counting_parse_gauss(text):
        parsed.append(text)
        return parse_gauss(text)

    for module in (vknot.cli, vknot.table):
        monkeypatch.setattr(module, "parse_gauss", counting_parse_gauss)
    code, _, _ = run(capsys, "tabulate")
    assert code == 0
    assert len(parsed) == 116


def test_tabulate_mismatch_exit_code(capsys, tmp_path, monkeypatch):
    from vknot.table import data_dir

    (tmp_path / "knots.tsv").write_text((data_dir() / "knots.tsv").read_text())
    rows = (data_dir() / "fpolys.tsv").read_text().splitlines()
    rows[0] = "2.1\t1\tt^9-1"  # sabotage one expected polynomial
    (tmp_path / "fpolys.tsv").write_text("\n".join(rows) + "\n")
    monkeypatch.setenv("VKNOT_TABLE_DIR", str(tmp_path))
    code, out, err = run(capsys, "tabulate")
    assert code == 1
    assert "1 Mismatch" in out
    assert "2.1" in err


@pytest.mark.parametrize("row", ["2.1\t0_1\t-t^-1+2-t", "2.1\t1\t-t^-1+\uff12-t"])
def test_tabulate_rejects_non_ascii_digits(capsys, tmp_path, monkeypatch, row):
    from vknot.table import data_dir

    (tmp_path / "knots.tsv").write_text((data_dir() / "knots.tsv").read_text())
    rows = (data_dir() / "fpolys.tsv").read_text().splitlines()
    rows[0] = row
    (tmp_path / "fpolys.tsv").write_text("\n".join(rows) + "\n")
    monkeypatch.setenv("VKNOT_TABLE_DIR", str(tmp_path))
    code, out, err = run(capsys, "tabulate")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "2.1" in err


@pytest.mark.parametrize("damaged", ["knots.tsv", "fpolys.tsv"])
@pytest.mark.parametrize("argv", [["tabulate"], ["compute", "4.1"]])
def test_undecodable_table_file_is_corrupt_data(capsys, tmp_path, monkeypatch, damaged, argv):
    import shutil

    from vknot.table import data_dir

    for name in ("knots.tsv", "fpolys.tsv"):
        shutil.copy(data_dir() / name, tmp_path / name)
    with open(tmp_path / damaged, "ab") as f:
        f.write(b"\xff")
    monkeypatch.setenv("VKNOT_TABLE_DIR", str(tmp_path))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot read table data: ")


FOUR_ONE = "4.1\tO1- O2- O3- O4- U3- U4- U1- U2-"  # lines of the shipped knots.tsv
LAST = "4.108\tO1+ U2- O4- U1+ O3+ U4- O2- U3+"


@pytest.mark.parametrize(
    "old, new, error",
    [
        (FOUR_ONE, "4.1", "bad knots.tsv line: '4.1'"),
        (FOUR_ONE, f"{FOUR_ONE}\n{FOUR_ONE}", "duplicate record '4.1'"),
        (LAST, "", "table names do not cover 2.1..4.108: ['4.108']"),
        (LAST, f"{LAST}\n4.109\tO1+ U1+", "table names do not cover 2.1..4.108: ['4.109']"),
        (FOUR_ONE, "4.1\tX", "record '4.1' has a bad code: malformed token 'X'"),
    ],
    ids=["short line", "duplicate", "missing name", "extra name", "bad code"],
)
def test_tabulate_rejects_a_corrupt_knots_file(capsys, tmp_path, monkeypatch, old, new, error):
    import shutil

    from vknot.table import data_dir

    knots = (data_dir() / "knots.tsv").read_text()
    assert old in knots
    (tmp_path / "knots.tsv").write_text(knots.replace(old, new))
    shutil.copy(data_dir() / "fpolys.tsv", tmp_path / "fpolys.tsv")
    monkeypatch.setenv("VKNOT_TABLE_DIR", str(tmp_path))
    assert run(capsys, "tabulate") == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("row", ["2.1\t{}\t-t^-1+2-t", "2.1\t1\t-t^-{}+2-t", "2.1\t1\t-{}t^-1+2-t"])
def test_tabulate_rejects_integers_too_long_to_convert(capsys, tmp_path, monkeypatch, row):
    import sys

    from vknot.table import data_dir

    (tmp_path / "knots.tsv").write_text((data_dir() / "knots.tsv").read_text())
    rows = (data_dir() / "fpolys.tsv").read_text().splitlines()
    rows[0] = row.format("9" * (sys.get_int_max_str_digits() + 1))
    (tmp_path / "fpolys.tsv").write_text("\n".join(rows) + "\n")
    monkeypatch.setenv("VKNOT_TABLE_DIR", str(tmp_path))
    code, out, err = run(capsys, "tabulate")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: bad expected row for '2.1': ")


def test_tabulate_groups_on_reversed_table(capsys, tmp_path, monkeypatch):
    import shutil

    from vknot.table import data_dir

    _, shipped, _ = run(capsys, "tabulate", "--groups")
    lines = []
    for line in (data_dir() / "knots.tsv").read_text().splitlines():
        name, code = line.split("\t")
        lines.append(f"{name}\t{parse_gauss(code).reverse()}")
    (tmp_path / "knots.tsv").write_text("\n".join(lines) + "\n")
    shutil.copy(data_dir() / "fpolys.tsv", tmp_path / "fpolys.tsv")
    monkeypatch.setenv("VKNOT_TABLE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "tabulate", "--groups")
    assert code == 0
    assert "116 records: 59 ExactMatch, 57 MatchUnderInversion, 0 Mismatch" in out.splitlines()

    def groups(text):
        return [line for line in text.splitlines() if line.startswith("group: ")]

    assert groups(out) == groups(shipped)


# -- distinguish -----------------------------------------------------------------


def test_distinguish_different_knots(capsys):
    code, out, _ = run(capsys, "distinguish", "3.1", "3.3")
    assert code == 0
    assert out.startswith("distinguished at n=1")


def test_distinguish_rotation_not_distinguished(capsys):
    d = EXAMPLE_31_REVERSED
    rotated = "O2+ U1- O3- O1- U2+ U3-"  # rotate(d, 3)
    code, out, _ = run(capsys, "distinguish", d, rotated)
    assert code == 0
    assert out.startswith("not distinguished")


def test_distinguish_reversal_is_flagged(capsys):
    code, out, _ = run(capsys, "distinguish", "O3- U1- O2+ U3- U2+ O1-", EXAMPLE_31_REVERSED)
    assert code == 0
    assert "orientation reversal" in out


def test_distinguish_reversed_4_9(capsys):
    record = next(r for r in vknot.table.load_table() if r.name == "4.9")
    reversed_code = str(record.diagram().reverse())
    code, out, _ = run(capsys, "distinguish", "4.9", reversed_code)
    assert code == 0
    assert out == "not distinguished by F up to n=3 (equal after orientation reversal)\n"


def test_distinguish_family_members(capsys):
    d1 = str(kauffman_family(1))
    d3 = str(kauffman_family(3))
    code, out, _ = run(capsys, "distinguish", d1, d3)
    assert code == 0
    assert out.startswith("not distinguished by F")


def test_distinguish_loads_the_table_once(capsys, monkeypatch):
    loads = []

    def counting_load_table(*args):
        loads.append(args)
        return vknot.table.load_table(*args)

    monkeypatch.setattr(vknot.cli, "load_table", counting_load_table)
    code, out, _ = run(capsys, "distinguish", "4.9", "4.10")
    assert code == 0
    assert out.startswith("distinguished at n=") or out.startswith("not distinguished")
    assert len(loads) == 1


def test_distinguish_parse_error(capsys):
    code, _, err = run(capsys, "distinguish", "3.1", "garbage tokens")
    assert code == 2


# -- verify-moves ----------------------------------------------------------------


def test_verify_moves_single_target(capsys):
    code, out, err = run(
        capsys, "verify-moves", "3.1", "--steps", "6", "--trials", "4", "--seed", "11"
    )
    assert code == 0
    assert "3.1: 4 walks x 6 moves: ok" in out
    assert "total failures: 0" in out
    assert "elapsed" in err


def test_verify_moves_zero_steps_trivially_pass(capsys):
    code, out, _ = run(capsys, "verify-moves", "2.1", "--steps", "0", "--trials", "3")
    assert code == 0
    assert "total failures: 0" in out


def test_verify_moves_rejects_negative_trials(capsys):
    code, out, err = run(capsys, "verify-moves", "3.1", "--trials", "-2")
    assert code == 2
    assert out == ""
    assert err == "error: trials must be >= 0\n"


def test_verify_moves_rejects_negative_steps_without_trials(capsys):
    # With no walks to run, nothing downstream would ever see the bad value.
    code, out, err = run(capsys, "verify-moves", "3.1", "--trials", "0", "--steps", "-5")
    assert code == 2
    assert out == ""
    assert err == "error: steps must be >= 0\n"


def test_verify_moves_reports_replayable_failures(capsys, monkeypatch):
    # A walk that lands on another knot must be reported with its script.
    walk = vknot.moves.random_walk
    other = parse_gauss(EXAMPLE_31_REVERSED)
    walks = []

    def bad_walk(diagram, steps, seed):
        walks.append((diagram,) + walk(diagram, steps, seed))
        return other, walks[-1][2]

    monkeypatch.setattr(vknot.moves, "random_walk", bad_walk)
    code, out, _ = run(
        capsys, "verify-moves", "2.1", "--steps", "3", "--trials", "2", "--seed", "4"
    )
    assert code == 1
    lines = out.splitlines()
    assert [line.split(" FAILED")[0] for line in lines[:2]] == ["2.1: trial 0", "2.1: trial 1"]
    assert lines[2:] == ["2.1: 2 walks x 3 moves: 2/2 FAILED", "total failures: 2"]
    start, moved, _ = walks[0]
    assert MoveScript.from_json(lines[0].split("script: ")[1]).apply(start) == moved


def test_verify_moves_deterministic_stdout(capsys):
    args = ("verify-moves", "3.4", "--steps", "5", "--trials", "3", "--seed", "2")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)


# -- family ----------------------------------------------------------------------


def test_family_text(capsys):
    code, out, _ = run(capsys, "family", "3")
    assert code == 0
    assert out.splitlines()[0] == "D^3: Og- Ub- Ua1+ Oa2+ Ua3+ Ob- Ug- Oa3+ Ua2+ Oa1+"
    assert "F^1 = -t^-1+2-t" in out


def test_family_json(capsys):
    code, out, _ = run(capsys, "family", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["knot"] == "D^5"
    assert data["F"]["1"] == [
        {"t": -1, "l": 0, "c": -1},
        {"t": 0, "l": 0, "c": 2},
        {"t": 1, "l": 0, "c": -1},
    ]


def test_family_rejects_even_k(capsys):
    code, _, err = run(capsys, "family", "4")
    assert code == 2
    assert "odd" in err


def test_verify_moves_whole_table_sweep(capsys):
    code, out, err = run(
        capsys, "verify-moves", "--steps", "3", "--trials", "2", "--seed", "5"
    )
    assert code == 0
    assert out.count("walks x 3 moves: ok") == 116
    assert "total failures: 0" in out
    assert "elapsed" in err
