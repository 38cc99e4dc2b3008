"""Self-tests of the benchmark harness.

Run from the root of the repository:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import vknot.cli as cli  # noqa: E402
import vknot.invariants as invariants  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["table", "compute", "fuzz"])
def test_tiny_run_prints_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    detail = json.loads(proc.stdout.splitlines()[-2])
    assert detail["seed"] == 7 and detail["ops"]["failed_ratio"] == 0.0
    assert {"python", "nproc", "git_rev", "loadavg_start"} <= set(detail["env"])


def test_corrupted_expected_polynomial_counts_as_failed(tmp_path):
    data = tmp_path / "data"
    shutil.copytree(ROOT / "src" / "vknot" / "data", data)
    rows = (data / "fpolys.tsv").read_text().splitlines()
    name, n, _ = rows[1].split("\t")
    rows[1] = f"{name}\t{n}\t-t^-2+t^-1+l^-2-t+t^5"
    (data / "fpolys.tsv").write_text("\n".join(rows) + "\n")
    detail, result = run.run("table", 3, 0.3, False, data_dir=data)
    assert not result["correct"]
    assert detail["ops"]["failed_ratio"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1


def test_compute_oracle_rejects_a_wrong_value():
    workload = workloads.ComputeWorkload(5)
    op = next(workload.ops())
    out = _capture(op.argv)
    assert workload.check(op, 0, out) is None
    lines = out.splitlines()
    crossing = lines[2].replace("index=", "index=1", 1)
    assert workload.check(op, 0, "\n".join([*lines[:2], crossing, *lines[3:]]) + "\n")
    f_line = next(i for i, line in enumerate(lines) if line.startswith("n=1:"))
    wrong = [*lines[:f_line], lines[f_line] + "+t^9", *lines[f_line + 1 :]]
    assert workload.check(op, 0, "\n".join(wrong) + "\n")


def test_compute_oracle_rejects_consistently_wrong_smoothings(monkeypatch):
    # Every view reads the smoothed writhe tables, so shifting J_1(D_c) by one
    # keeps the printed dJ_1(D_c), T_1 and F^1 consistent with each other.
    smoothed_data = invariants._smoothed_data

    def shifted(diagram):
        data = smoothed_data(diagram)
        for table in data.writhes.values():
            table[1] = table.get(1, 0) + 1
        return data

    workload = workloads.ComputeWorkload(5)
    op = next(workload.ops())
    monkeypatch.setattr(invariants, "_smoothed_data", shifted)
    problem = workload.check(op, 0, _capture(op.argv))
    assert problem is not None and "smoothed dwrithes differ" in problem


def test_op_times_are_scaled_by_the_reference_loop_around_them():
    ref = run.hostspeed.REF_S
    # Op i takes the median loop time of ops i-2 .. i+2.
    scaled = run.at_reference_speed([0.1] * 8, [ref] * 4 + [2 * ref] * 4)
    assert scaled == pytest.approx([0.1] * 4 + [0.05] * 4)


def test_inputs_depend_only_on_the_seed():
    assert workloads.SplitMix64(0).next() == 0xE220A8397B1DCDAF
    first = [op.argv for _, op in zip(range(3), workloads.ComputeWorkload(9).ops())]
    again = [op.argv for _, op in zip(range(3), workloads.ComputeWorkload(9).ops())]
    other = [op.argv for _, op in zip(range(3), workloads.ComputeWorkload(10).ops())]
    assert first == again != other


def test_removed_public_function_reports_zero_calls(monkeypatch):
    # As after a refactor that drops t_set: the CLI derives T_n from the reports.
    def t_set_from_reports(diagram, n):
        target = abs(invariants.dwrithe(diagram, n))
        reports = invariants.crossing_reports(diagram, [n])
        return frozenset(r.crossing for r in reports if abs(r.smoothed_dwrithe[n]) == target)

    monkeypatch.delattr(invariants, "t_set")
    monkeypatch.setattr(cli, "t_set", t_set_from_reports)
    workload = workloads.ComputeWorkload(5)
    op = next(workload.ops())
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.current_op = 0
        out = _capture(op.argv)
    finally:
        tracer.uninstall()
    assert workload.check(op, 0, out) is None
    metrics = tracer.metrics(1)
    assert metrics["invariants.t_set.calls"] == 0
    assert metrics["invariants.f_sequence.calls"] == 1
    assert metrics["invariants.crossing_reports.calls"] > 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _capture(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()
