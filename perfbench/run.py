"""vknot benchmark: one closed-loop workload per process, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table|compute|fuzz --seed N --seconds S --trace 0|1

One client on one thread sends the next op only when the previous one
has returned.  An op is one in-process ``vknot.cli.main(argv)`` call with
stdout and stderr captured: what a user runs, minus interpreter start-up,
which ``setup_s`` covers.  The workload's oracle (workloads.py) checks
every op's stdout; an op that fails, raises or prints a wrong answer is
counted and the run goes on.

``--trace 0`` reports the end-to-end metrics.  Their times are scaled to
a reference host speed measured beside every op (hostspeed.py); the raw
times are in the detail record.  ``ops_per_s`` and ``op_ms_p50`` are
wall-clock, what a caller waits for.  ``op_ms_tail`` is the op thread's
CPU time: on a shared host the wall-clock tail is set by the host's
stalls, not by the program.  ``--trace 1`` runs the
same op stream untraced for half the time and traced for the other half
(spans.py), and reports the per-layer metrics, the tracing overhead and
an ungated ``f_sequence`` scaling sweep.  The second-to-last line of
stdout is a JSON record with the seed, the environment, the op counts
and a digest of the ops' stdout; it is also written, with the spans of a
traced run, under ``.bench_build/perfbench/``.  The last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

WARMUP_OPS = 2
DIGEST_OPS = 32
SETUP_SAMPLES = 9
SCALING_SIZES = (16, 32, 64, 128, 256)
SCALING_REPEATS = 3

# Fresh interpreter to ready: import the CLI and load the table once.
# Then, off the clock, three runs of the host-speed reference loop.
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import vknot.cli, vknot.table
vknot.table.load_table()
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import hostspeed
print(setup, *sorted(hostspeed.reference_seconds()[0] for _ in range(3)))
"""


class SetupSampler:
    """Set-up seconds of fresh interpreters, spread over the measured window.

    Machine speed on a shared host drifts over seconds, so one sample is
    taken every ``seconds / SETUP_SAMPLES`` between ops instead of all at
    once, and each is scaled by the reference loop timed in the same
    interpreter.  A first, unrecorded sample fills the bytecode cache.
    """

    def __init__(self, seconds: float):
        self.interval = seconds / SETUP_SAMPLES
        self.samples: list[float] = []  # raw set-up seconds
        self.scaled: list[float] = []  # at reference host speed
        self.due = 0.0
        self._sample()
        self.samples.clear()
        self.scaled.clear()

    def _sample(self) -> None:
        # Set-up loads the shipped table, not the table workload's copy.
        env = {k: v for k, v in os.environ.items() if k != "VKNOT_TABLE_DIR"}
        proc = subprocess.run(
            [sys.executable, "-E", "-s", "-c", _SETUP_CODE, str(SRC), str(Path(__file__).parent)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        setup, _, ref, _ = map(float, proc.stdout.split())
        self.samples.append(setup)
        self.scaled.append(setup * hostspeed.REF_S / ref)

    def __call__(self) -> None:
        """Take a sample when one is due; call between ops."""
        now = perf_counter()
        if len(self.samples) < SETUP_SAMPLES and now >= self.due:
            self._sample()
            self.due = now + self.interval

    def finish(self) -> None:
        while len(self.samples) < SETUP_SAMPLES:
            self._sample()


@dataclass
class Phase:
    """What one closed-loop phase did."""

    # Per timed op: wall and thread CPU seconds of the op and of the
    # reference loop run after it.
    durations: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    ref_cpu: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""


def run_phase(workload, cli, seconds: float, warmup: int, tracer=None, between=None) -> Phase:
    """Send ops until ``seconds`` have passed after ``warmup`` untimed ops.

    Every timed op is followed by one run of the host-speed reference
    loop; ``between`` is called after that, outside the timed region.
    """
    phase = Phase()
    digest = hashlib.sha256()
    stream = workload.ops()
    deadline = None
    while True:
        if phase.attempted == warmup:
            deadline = perf_counter() + seconds
        op = next(stream)
        if tracer is not None:
            tracer.current_op = phase.attempted
        out, err = io.StringIO(), io.StringIO()
        problem = None
        t0, c0 = perf_counter(), thread_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            rc, problem = None, f"raised {type(exc).__name__}: {exc}"
        elapsed, cpu = perf_counter() - t0, thread_time() - c0
        if problem is None:
            try:
                problem = workload.check(op, rc, out.getvalue())
            except (ValueError, LookupError) as exc:
                problem = f"unparsable output: {exc}"
        if problem is not None:
            phase.failures.append(f"op {phase.attempted}: {problem}")
        if phase.attempted < DIGEST_OPS:
            digest.update(out.getvalue().encode())
        if phase.attempted >= warmup:
            phase.durations.append(elapsed)
            phase.cpu.append(cpu)
            ref, ref_cpu = hostspeed.reference_seconds()
            phase.refs.append(ref)
            phase.ref_cpu.append(ref_cpu)
            if between is not None:
                between()
        phase.attempted += 1
        if deadline is not None and phase.attempted >= DIGEST_OPS and perf_counter() >= deadline:
            break
    phase.digest = digest.hexdigest()
    return phase


def at_reference_speed(times: list[float], refs: list[float]) -> list[float]:
    """Op seconds scaled to the reference host speed.

    Op i is scaled by the median reference-loop time (on the same clock)
    of ops i-2 .. i+2, which damps the jitter of single loop runs but
    follows speed changes that last a second or more.
    """
    return [
        t * hostspeed.REF_S / statistics.median(refs[max(0, i - 2) : i + 3])
        for i, t in enumerate(times)
    ]


def latency(durations: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ms = sorted(d * 1000.0 for d in durations)
    rank = len(ms) - 11 if len(ms) > 10 else len(ms) - 1
    return {
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": ms[rank],
        "tail_percentile": 100.0 * (rank + 1) / len(ms),
        "timed_ops": len(ms),
        "ops_per_s": len(ms) / sum(durations),
    }


def scaling_sweep(seed: int) -> dict:
    """Ungated: f_sequence latency on random diagrams of growing size."""
    from vknot.gauss import parse_gauss
    from vknot.invariants import f_sequence

    rng = workloads.SplitMix64(seed)
    out = {}
    for m in SCALING_SIZES:
        entries = workloads.random_diagram(m, rng)
        diagram = parse_gauss(workloads.format_code(entries))
        times = []
        for _ in range(SCALING_REPEATS):
            t0 = perf_counter()
            report = f_sequence(diagram)
            times.append(perf_counter() - t0)
        want = workloads.affine_poly(entries, workloads.indices(entries))
        out[str(m)] = {
            "f_sequence_ms": 1000.0 * statistics.median(times),
            "correct": workloads.parse_poly(str(report.stable_tail)) == want,
        }
    return out


def environment() -> dict:
    load = os.getloadavg()
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "vknot").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".tsv"):
            src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_rev": rev,
        "src_sha256": src_hash.hexdigest(),
        "loadavg_start": list(load),
        "platform": platform.platform(),
    }


def declared(kind: str) -> dict[str, str]:
    """Names and units of the metrics of one kind that BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def make_workload(name: str, seed: int, work_dir: Path, data_dir: Path | None = None):
    data_dir = data_dir or SRC / "vknot" / "data"
    if name == "table":
        return workloads.TableWorkload(data_dir, work_dir, seed)
    if name == "compute":
        return workloads.ComputeWorkload(seed)
    return workloads.FuzzWorkload(data_dir, seed)


def run(name: str, seed: int, seconds: float, trace: bool, data_dir: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; return (detail record, result line)."""
    env = environment()
    sys.path.insert(0, str(SRC))
    import vknot
    import vknot.cli as cli

    if not Path(vknot.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported vknot from {vknot.__file__}, not from {SRC}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work_dir = OUT_DIR / f"{name}-{os.getpid()}"
    workload = make_workload(name, seed, work_dir, data_dir)
    detail: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "env": env}
    try:
        if not trace:
            sampler = SetupSampler(seconds)
            phases = [run_phase(workload, cli, seconds, WARMUP_OPS, between=sampler)]
            sampler.finish()
            detail["setup_samples_s"] = {"raw": sampler.samples, "scaled": sampler.scaled}
            lat = latency(at_reference_speed(phases[0].durations, phases[0].refs))
            lat_cpu = latency(at_reference_speed(phases[0].cpu, phases[0].ref_cpu))
            metrics = {
                "setup_s": statistics.median(sampler.scaled),
                "ops_per_s": lat["ops_per_s"],
                "op_ms_p50": lat["op_ms_p50"],
                "op_ms_tail": lat_cpu["op_ms_tail"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = declared("end_to_end")
            detail["latency"] = {"wall": lat, "cpu": lat_cpu}
            detail["latency_raw"] = {"wall": latency(phases[0].durations), "cpu": latency(phases[0].cpu)}
            detail["setup_s_raw"] = statistics.median(sampler.samples)
            ok = True
        else:
            untraced = run_phase(workload, cli, seconds / 2, WARMUP_OPS)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_phase(workload, cli, seconds / 2, 0, tracer)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
            metrics = tracer.metrics(traced.attempted)
            slow = latency(at_reference_speed(traced.durations, traced.refs))
            fast = latency(at_reference_speed(untraced.durations, untraced.refs))
            metrics["trace.overhead_ratio"] = fast["ops_per_s"] / slow["ops_per_s"]
            units = {**spans.metric_units(), "trace.overhead_ratio": "ratio"}
            detail["ops_per_s"] = {"untraced": fast["ops_per_s"], "traced": slow["ops_per_s"]}
            detail["spans"] = tracer.write(OUT_DIR / f"spans-{name}.bin")
            detail["predicted_effect"] = {m: moves for m, _, _, moves in spans.TIMED} | dict(spans.RATIOS)
            detail["scaling"] = scaling_sweep(seed)
            ok = untraced.digest == traced.digest and all(s["correct"] for s in detail["scaling"].values())
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(len(p.failures) for p in phases)
    detail["ops"] = {"attempted": attempted, "failed": failed, "failed_ratio": failed / attempted}
    if not trace:
        metrics["ok_ratio"] = 1.0 - failed / attempted
    detail["failures"] = [f for p in phases for f in p.failures][:10]
    detail["stdout_sha256"] = {"digest": phases[0].digest, "ops": DIGEST_OPS}
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="vknot benchmark")
    parser.add_argument("--workload", required=True, choices=("table", "compute", "fuzz"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "vknot" / "cli.py").is_file():
        print(f"perfbench: no vknot sources under {SRC}", file=sys.stderr)
        return 2
    detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = json.dumps(detail, sort_keys=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(record + "\n")
    print(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
