"""Command-line front end.

Commands
--------
compute      invariants of one diagram (raw Gauss code or table name)
tabulate     recompute the embedded 116-knot table and verify it
distinguish  first n at which two diagrams' F-polynomials differ
verify-moves fuzz invariance under random Reidemeister moves

Inputs may be tabulated knot names (``4.24``), which are looked up, or
raw Gauss codes (``"O1+ U2+ U1+ O2+"``): any text that is not a table
name is parsed.  A reader that closes the pipe early is not an error.
Exit status: 0 success, 1 verification mismatch, 2 malformed input.
All stdout output is byte-deterministic for fixed arguments and seed;
timing goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .gauss import Diagram, GaussCodeError, parse_gauss
from .invariants import f_sequence
from .moves import Lcg, MoveError, fuzz_invariance
from .table import (
    CorruptData,
    KnotRecord,
    Verdict,
    group_by_f_sequence,
    load_table,
    name_key,
    verify_record,
)


class _InputError(ValueError):
    pass


def _resolve(*texts: str) -> list[tuple[Diagram, str | None]]:
    """Each text looked up if it is a table name, and parsed otherwise.

    No text is both: a name starts with 2, 3 or 4, a Gauss token with O
    or U.  The table is loaded at most once, and only if a name is given.
    """
    table: dict[str, KnotRecord] | None = None
    resolved = []
    for text in texts:
        try:
            name_key(text.strip())
        except ValueError:
            resolved.append((parse_gauss(text), None))
            continue
        if table is None:
            table = {record.name: record for record in load_table()}
        record = table.get(text.strip())
        if record is None:
            raise _InputError(f"unknown table name {text.strip()!r}")
        resolved.append((record.diagram, record.name))
    return resolved


# -- compute ---------------------------------------------------------------------


def _cmd_compute(args: argparse.Namespace) -> int:
    if args.all and args.n is not None:
        raise _InputError("-n and --all are mutually exclusive")
    [(diagram, name)] = _resolve(args.target)
    if args.n is not None and args.n < 1:
        raise _InputError("n must be >= 1")
    report = f_sequence(diagram)
    ns = list(range(1, report.n_max + 2)) if args.all else [args.n or 1]

    if args.format == "json":
        import json

        def terms(poly):
            return [{"t": t, "l": l, "c": c} for t, l, c in poly.terms()]

        data = {} if name is None else {"knot": name}
        data["gauss"] = str(diagram)
        data["n_max"] = report.n_max
        data["F"] = {str(n): terms(report.f_at(n)) for n in ns}
        data["stable"] = terms(report.stable_tail)
        print(json.dumps(data))
        return 0

    label = f"knot {name}: " if name else ""
    tail = str(report.stable_tail)
    lines = [f"{label}gauss: {str(diagram) or '(unknot)'}", f"crossings: {diagram.n_crossings}"]
    # One line per crossing, from its column of the dJ table: dJ_n(D_c) for each n shown.
    crossing = "crossing %s: sign=%+d index=%d" + "".join([f" dJ_{n}(D_c)=%d" for n in ns])
    rows = [report.smoothed_row(n) for n in ns]
    index = report.index
    lines += map(crossing.__mod__, zip(index, map(diagram.sign, index), index.values(), *rows))
    lines.append(f"P(t) = {tail}")
    lines.append(f"n_max = {report.n_max}")
    # T_n (FReport.t_set): the crossings c with |dJ_n(D_c)| = |dJ_n(D)|, listed by name.
    names = list(index)
    by_name = sorted(range(len(names)), key=names.__getitem__)
    for n, row in zip(ns, rows):
        size = abs(report.dwrithe(n))
        ts = ",".join([names[i] for i in by_name if abs(row[i]) == size])
        f_n = report.f_at(n)
        f_text = tail if f_n == report.stable_tail else str(f_n)
        lines.append(f"n={n}: dJ_{n}(D)={report.dwrithe(n)} T_{n}={{{ts}}} F^{n} = {f_text}")
    if args.all:
        lines.append(f"stable tail (n > {report.n_max}): {tail}")
    print("\n".join(lines))
    return 0


# -- tabulate --------------------------------------------------------------------


def _cmd_tabulate(args: argparse.Namespace) -> int:
    if args.groups and args.format != "text":
        raise _InputError("--groups needs --format text")
    verdicts = [verify_record(r) for r in load_table()]

    if args.format == "json":
        import json

        out = [
            {
                "name": v.name,
                "status": v.status.value,
                "transform": "reverse" if v.status is Verdict.MATCH_UNDER_INVERSION else "identity",
                "rows": [{"n": n, "polynomial": str(poly)} for n, poly in v.rows],
            }
            for v in verdicts
        ]
        print(json.dumps(out))
    else:
        sep = "\t" if args.format == "text" else ","
        lines = ["name,n,polynomial,status"] if args.format == "csv" else []
        row = f"%s{sep}%d{sep}%s{sep}%s"
        lines += [row % (v.name, n, poly, v.status.value) for v in verdicts for n, poly in v.rows]
        if args.format == "text":
            statuses = [v.status for v in verdicts]
            counts = ", ".join(f"{statuses.count(s)} {s.value}" for s in Verdict)
            lines.append(f"{len(verdicts)} records: {counts}")
            if args.groups:
                lines += ["group: " + " ".join(names) for names in group_by_f_sequence(verdicts)]
        print("\n".join(lines))

    failures = [v for v in verdicts if not v.ok]
    for v in failures:
        for line in v.details:
            print(f"{v.name}: {line}", file=sys.stderr)
    return 1 if failures else 0


# -- distinguish -----------------------------------------------------------------


def _cmd_distinguish(args: argparse.Namespace) -> int:
    (da, _), (db, _) = _resolve(args.first, args.second)
    ra, rb = f_sequence(da), f_sequence(db)
    fa, fb = ra.fingerprint, rb.fingerprint
    horizon = max(ra.n_max, rb.n_max) + 1

    if fa == fb:
        print(f"not distinguished by F up to n={horizon}")
    elif fa == f_sequence(db.reverse()).fingerprint:
        print(f"not distinguished by F up to n={horizon} (equal after orientation reversal)")
    else:
        # Unequal fingerprints differ at some n <= horizon.
        n = next(n for n in range(1, horizon + 1) if ra.f_at(n) != rb.f_at(n))
        print(f"distinguished at n={n}: F^{n} = {ra.f_at(n)} vs {rb.f_at(n)}")
    return 0


# -- verify-moves ----------------------------------------------------------------


def _cmd_verify_moves(args: argparse.Namespace) -> int:
    if args.trials < 0:
        raise _InputError("trials must be >= 0")
    if args.steps < 0:
        raise _InputError("steps must be >= 0")
    if args.target is None:
        targets = [(r.name, r.diagram) for r in load_table()]
    else:
        [(diagram, name)] = _resolve(args.target)
        targets = [(name or str(diagram) or "(unknot)", diagram)]

    rng = Lcg(args.seed)
    failures = 0
    started = time.perf_counter()
    for name, diagram in targets:
        bad = fuzz_invariance(diagram, args.trials, args.steps, rng)
        for trial, script in bad:
            print(f"{name}: trial {trial} FAILED, script: {script.to_json()}")
        status = "ok" if not bad else f"{len(bad)}/{args.trials} FAILED"
        print(f"{name}: {args.trials} walks x {args.steps} moves: {status}")
        failures += len(bad)
    elapsed = time.perf_counter() - started
    print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
    print(f"total failures: {failures}")
    return 1 if failures else 0


# -- plumbing --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The full parser, with a subparser per command: the one ``main``
    parses every argv with.  Each call builds a new parser."""
    parser = argparse.ArgumentParser(
        prog="vknot",
        description="F-polynomial invariants of oriented virtual knots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="invariants of one diagram")
    p.add_argument("target", help="Gauss code or table name (empty string = unknot)")
    p.add_argument("-n", type=int, default=None, help="single n (default 1)")
    p.add_argument("--all", action="store_true", help="full F-sequence report")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("tabulate", help="verify the embedded knot table")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--groups", action="store_true", help="also print F-sequence groups")
    p.set_defaults(func=_cmd_tabulate)

    p = sub.add_parser("distinguish", help="compare two diagrams by F-polynomials")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_distinguish)

    p = sub.add_parser("verify-moves", help="fuzz invariance under Reidemeister moves")
    p.add_argument("target", nargs="?", default=None, help="default: whole table")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_moves)
    return parser


# Built on the first call of main, not at import: building costs about
# 1 ms (a HelpFormatter per argument), parsing with it about 0.05 ms.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return status
    except (_InputError, GaussCodeError, MoveError, CorruptData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (head, grep -m) closed the pipe; not an error.
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
