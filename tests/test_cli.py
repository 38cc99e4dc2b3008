"""Command-line interface: exit codes, formats, determinism."""

import hashlib
import itertools
import json

import pytest

import vknot.cli
import vknot.invariants
import vknot.moves
import vknot.table
from conftest import random_code, record_calls
from test_gauss import _PIN_SEPARATORS, _PIN_TOKENS
from vknot.cli import main
from vknot.gauss import Diagram, parse_gauss
from vknot.invariants import f_sequence
from vknot.moves import MoveScript

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
    loads = record_calls(monkeypatch, vknot.table.load_table, vknot.cli)
    # An Arabic-Indic digit one: no table name, so it fails as a Gauss code
    # before the table is loaded.
    assert run(capsys, "compute", "3.\u0661") == (2, "", "error: malformed token '3.\u0661'\n")
    assert loads == []
    code, out, _ = run(capsys, "compute", "3.1")
    assert code == 0 and out.startswith("knot 3.1: ")
    assert len(loads) == 1


# Name pieces of the compute pin: names in the table and out of it, and
# texts that only look like names.
_NAME_PIECES = ("2.1", "4.24", "4.109", "5.1", "3.x")


def test_compute_pinned_on_every_short_target(capsys):
    # sha256 over the exit status, stdout and stderr of ``compute`` on every
    # string of at most two pieces (the parse_gauss pin's tokens and
    # separators, and the names above), in itertools.product order;
    # recorded when a text that failed to parse was retried as a name.
    digest = hashlib.sha256()
    pieces = _PIN_TOKENS + _PIN_SEPARATORS + _NAME_PIECES
    for length in range(3):
        for parts in itertools.product(pieces, repeat=length):
            outcome = run(capsys, "compute", "".join(parts))
            digest.update(repr(outcome).encode() + b"\n")
    assert digest.hexdigest() == "6c8c37702b5e55cb0d44d7c3b0602b7550bb878a78fcfe87269c5d83c887b6f7"


def test_compute_rejects_bad_n(capsys):
    code, _, err = run(capsys, "compute", "3.1", "-n", "0")
    assert code == 2


def test_compute_checks_n_before_the_analysis(capsys, monkeypatch):
    # A bad -n needs only the argument; a bad code still gets its own error.
    calls = record_calls(monkeypatch, f_sequence, vknot.cli)
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
    # No validated Diagram is smoothed on the way, and every smoothing is
    # analysed once: a 32-crossing code takes one lane pass over all of
    # them and one index walk, of D; a code below _LANE_MIN one walk of
    # the table, with one index walk of D and one per smoothing D_c, which
    # leaves out crossing c alone.
    inv = vknot.invariants
    lanes = record_calls(monkeypatch, inv._lane_table, inv)
    walks = record_calls(monkeypatch, inv._walk_table, inv)
    indices = record_calls(monkeypatch, inv._indices, inv)

    def kernels():
        return [d.n_crossings for d, in lanes], [d.n_crossings for d, in walks]

    def left_out():
        return [sorted(set(range(len(sign))) - {k for k, _ in passes}) for passes, sign in indices]

    def no_smooth(self, crossing):
        raise AssertionError("Diagram.smooth called")

    monkeypatch.setattr(Diagram, "smooth", no_smooth)
    code, out, _ = run(capsys, "compute", random_code(32, seed=7), "--all")
    assert code == 0
    assert "crossings: 32" in out
    assert (kernels(), left_out()) == (([32], []), [[]])
    m = inv._LANE_MIN - 1
    code, out, _ = run(capsys, "compute", random_code(m, seed=7), "--all")
    assert code == 0
    assert f"crossings: {m}" in out
    assert kernels() == ([32], [m])
    assert left_out() == [[], []] + [[c] for c in range(m)]


def test_compute_all_computes_each_smoothed_dwrithe_once(capsys, monkeypatch):
    # Every view reads one dJ_n(D_c) table, so _dj is left only for
    # dJ_n(D): a small multiple of n_max+1 calls, not one per (crossing, n)
    # per view (1,089 calls here before the table).
    text = random_code(32, seed=7)
    n_max = f_sequence(parse_gauss(text)).n_max
    assert n_max == 10
    calls = record_calls(monkeypatch, vknot.invariants._dj, vknot.invariants)
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tabulate_groups_needs_text_format(capsys, monkeypatch, fmt):
    # Checked before the table loads, as -n with --all is before the analysis.
    monkeypatch.setattr(vknot.cli, "load_table", lambda: pytest.fail("table loaded"))
    code, out, err = run(capsys, "tabulate", "--groups", "--format", fmt)
    assert (code, out, err) == (2, "", "error: --groups needs --format text\n")


def test_tabulate_groups_analyses_each_record_once(capsys, monkeypatch):
    analysed = record_calls(monkeypatch, f_sequence, vknot.cli, vknot.table)
    code, out, _ = run(capsys, "tabulate", "--groups")
    assert code == 0
    assert "group: " in out
    assert len(analysed) == 116


def test_tabulate_parses_each_code_once(capsys, monkeypatch):
    parsed = record_calls(monkeypatch, parse_gauss, vknot.cli, vknot.table)
    code, _, _ = run(capsys, "tabulate")
    assert code == 0
    assert len(parsed) == 116


def test_tabulate_mismatch_exit_code(capsys, table_copy):
    rows = (table_copy / "fpolys.tsv").read_text().splitlines()
    rows[0] = "2.1\t1\tt^9-1"  # sabotage one expected polynomial
    (table_copy / "fpolys.tsv").write_text("\n".join(rows) + "\n")
    code, out, err = run(capsys, "tabulate")
    assert code == 1
    assert "1 Mismatch" in out
    assert "2.1" in err


def test_tabulate_rejects_rows_that_stop_short(capsys, table_copy):
    rows = (table_copy / "fpolys.tsv").read_text().splitlines()
    kept = [row for row in rows if not row.startswith(("3.1\t2\t", "3.1\t3\t"))]
    assert len(kept) == len(rows) - 2
    (table_copy / "fpolys.tsv").write_text("\n".join(kept) + "\n")
    code, out, err = run(capsys, "tabulate")
    assert code == 1
    assert "115 ExactMatch, 0 MatchUnderInversion, 1 Mismatch" in out
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("3.1: n=2: expected ") and lines[1].startswith("3.1: n=3: expected ")
    # Every report shows each compared row, also the two the table left out.
    computed = [(1, "-t^-2+t^-1+l^-2-t"), (2, "-t^-2+t^-1+l-t"), (3, "-t^-2+t^-1+1-t")]
    text = [line for line in out.splitlines() if line.startswith("3.1\t")]
    assert text == [f"3.1\t{n}\t{poly}\tMismatch" for n, poly in computed]
    code, out, _ = run(capsys, "tabulate", "--format", "csv")
    assert code == 1
    csv = [line for line in out.splitlines() if line.startswith("3.1,")]
    assert csv == [f"3.1,{n},{poly},Mismatch" for n, poly in computed]
    code, out, _ = run(capsys, "tabulate", "--format", "json")
    assert code == 1
    [record] = [r for r in json.loads(out) if r["name"] == "3.1"]
    assert record["status"] == "Mismatch"
    assert [(row["n"], row["polynomial"]) for row in record["rows"]] == computed


@pytest.mark.parametrize("row", ["2.1\t0_1\t-t^-1+2-t", "2.1\t1\t-t^-1+\uff12-t"])
def test_tabulate_rejects_non_ascii_digits(capsys, table_copy, row):
    rows = (table_copy / "fpolys.tsv").read_text().splitlines()
    rows[0] = row
    (table_copy / "fpolys.tsv").write_text("\n".join(rows) + "\n")
    code, out, err = run(capsys, "tabulate")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "2.1" in err


@pytest.mark.parametrize("damaged", ["knots.tsv", "fpolys.tsv"])
@pytest.mark.parametrize("argv", [["tabulate"], ["compute", "4.1"]])
def test_undecodable_table_file_is_corrupt_data(capsys, table_copy, damaged, argv):
    with open(table_copy / damaged, "ab") as f:
        f.write(b"\xff")
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
def test_tabulate_rejects_a_corrupt_knots_file(capsys, table_copy, old, new, error):
    knots = (table_copy / "knots.tsv").read_text()
    assert old in knots
    (table_copy / "knots.tsv").write_text(knots.replace(old, new))
    assert run(capsys, "tabulate") == (2, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "row",
    ["2.1\t{}\t-t^-1+2-t", "2.1\t1\t-t^-{}+2-t", "2.1\t1\t-{}t^-1+2-t", "2.1\t1\t{0}+{0}"],
)
def test_tabulate_rejects_integers_too_long_to_convert(capsys, table_copy, row):
    import sys

    rows = (table_copy / "fpolys.tsv").read_text().splitlines()
    # One digit too many; the last row sums two terms, each short enough.
    digits = "9" * sys.get_int_max_str_digits()
    rows[0] = row.format(digits if "{0}" in row else digits + "9")
    (table_copy / "fpolys.tsv").write_text("\n".join(rows) + "\n")
    code, out, err = run(capsys, "tabulate")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: bad expected row for '2.1': ")


def test_tabulate_groups_on_reversed_table(capsys, table_copy):
    _, shipped, _ = run(capsys, "tabulate", "--groups")
    lines = []
    for line in (table_copy / "knots.tsv").read_text().splitlines():
        name, code = line.split("\t")
        lines.append(f"{name}\t{parse_gauss(code).reverse()}")
    (table_copy / "knots.tsv").write_text("\n".join(lines) + "\n")
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
    reversed_code = str(record.diagram.reverse())
    code, out, _ = run(capsys, "distinguish", "4.9", reversed_code)
    assert code == 0
    assert out == "not distinguished by F up to n=3 (equal after orientation reversal)\n"


def test_distinguish_shared_f_group_members(capsys):
    # 2.1 and 4.94 have equal F-sequences but different crossing counts.
    code, out, _ = run(capsys, "distinguish", "2.1", "4.94")
    assert code == 0
    assert out == "not distinguished by F up to n=2\n"


def test_distinguish_loads_the_table_once(capsys, monkeypatch):
    loads = record_calls(monkeypatch, vknot.table.load_table, vknot.cli)
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
    walk = vknot.moves._walk
    other = vknot.moves._Word(parse_gauss(EXAMPLE_31_REVERSED))
    walks = []

    def bad_walk(diagram, steps, seed):
        word, taken = walk(diagram, steps, seed)
        walks.append((diagram, word.diagram(), taken))
        return other, taken

    monkeypatch.setattr(vknot.moves, "_walk", bad_walk)
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


def test_verify_moves_whole_table_sweep(capsys):
    code, out, err = run(
        capsys, "verify-moves", "--steps", "3", "--trials", "2", "--seed", "5"
    )
    assert code == 0
    assert out.count("walks x 3 moves: ok") == 116
    assert "total failures: 0" in out
    assert "elapsed" in err
