"""Command-line front end.

Commands
--------
compute      invariants of one diagram (raw Gauss code or table name)
tabulate     recompute the embedded 116-knot table and verify it
distinguish  first n at which two diagrams' F-polynomials differ
verify-moves fuzz invariance under random Reidemeister moves
family       emit the k-twist member of the shared-F-polynomial family

Inputs may be raw Gauss codes (``"O1+ U2+ U1+ O2+"``) or tabulated
knot names (``4.24``); raw codes win when both readings are possible.
Exit status: 0 success, 1 verification mismatch, 2 malformed input.
All stdout output is byte-deterministic for fixed arguments and seed;
timing goes to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time

from .gauss import Diagram, GaussCodeError, parse_gauss
from .invariants import FReport, f_sequence
from .moves import Lcg, MoveError, fuzz_invariance
from .table import (
    CorruptData,
    EvenK,
    KnotRecord,
    Verdict,
    group_by_f_sequence,
    kauffman_family,
    load_table,
    name_key,
    verify_all,
)


class _InputError(ValueError):
    pass


def _resolve(*texts: str) -> list[tuple[Diagram, str | None]]:
    """Each text as a raw Gauss code, or failing that a table name.

    The table is loaded at most once, and only if a name is given.
    """
    table: dict[str, KnotRecord] | None = None
    resolved = []
    for text in texts:
        try:
            resolved.append((parse_gauss(text), None))
            continue
        except GaussCodeError as exc:
            try:
                name_key(text.strip())
            except ValueError:
                raise _InputError(str(exc)) from None
        if table is None:
            table = {record.name: record for record in load_table()}
        record = table.get(text.strip())
        if record is None:
            raise _InputError(f"unknown table name {text.strip()!r}")
        resolved.append((record.diagram(), record.name))
    return resolved


def _print_json(report: FReport, name: str | None, ns: list[int]) -> None:
    """The JSON report of ``compute`` and ``family``: ``knot`` (if named),
    ``gauss``, ``n_max``, ``F`` (F^n keyed by each n of ``ns``) and
    ``stable``, each polynomial a list of {"t", "l", "c"} terms in
    canonical order."""
    import json

    def terms(poly):
        return [{"t": t, "l": l, "c": c} for t, l, c in poly.terms()]

    data = {} if name is None else {"knot": name}
    data["gauss"] = str(report.diagram)
    data["n_max"] = report.n_max
    data["F"] = {str(n): terms(report.f_at(n)) for n in ns}
    data["stable"] = terms(report.stable_tail)
    print(json.dumps(data))


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
        _print_json(report, name, ns)
        return 0

    label = f"knot {name}: " if name else ""
    tail = str(report.stable_tail)
    lines = [f"{label}gauss: {str(diagram) or '(unknot)'}", f"crossings: {diagram.n_crossings}"]
    # One column of the dJ table per crossing: dJ_n(D_c) for each n shown.
    heads = [f"dJ_{n}(D_c)=" for n in ns]
    columns = zip(*[report.smoothed_row(n) for n in ns])
    for (c, k), column in zip(report.index.items(), columns):
        smoothed = " ".join([head + str(dj) for head, dj in zip(heads, column)])
        lines.append(f"crossing {c}: sign={diagram.sign(c):+d} index={k} {smoothed}")
    lines.append(f"P(t) = {tail}")
    lines.append(f"n_max = {report.n_max}")
    for n in ns:
        ts = ",".join(sorted(report.t_set(n)))
        f_n = report.f_at(n)
        lines.append(f"n={n}: dJ_{n}(D)={report.dwrithe(n)} T_{n}={{{ts}}} F^{n} = {f_n}")
    if args.all:
        lines.append(f"stable tail (n > {report.n_max}): {tail}")
    print("\n".join(lines))
    return 0


# -- tabulate --------------------------------------------------------------------


def _cmd_tabulate(args: argparse.Namespace) -> int:
    records = load_table()
    verdicts = verify_all(records)
    # per record: (n, computed F^n) for each expected n
    rows = [[(n, str(v.report.f_at(n))) for n, _ in r.expected] for r, v in zip(records, verdicts)]

    if args.format == "csv":
        print("name,n,polynomial,status")
        for v, shown in zip(verdicts, rows):
            for n, poly in shown:
                print(f"{v.name},{n},{poly},{v.status.value}")
    elif args.format == "json":
        import json

        out = [
            {
                "name": v.name,
                "status": v.status.value,
                "transform": "reverse" if v.status is Verdict.MATCH_UNDER_INVERSION else "identity",
                "rows": [{"n": n, "polynomial": poly} for n, poly in shown],
            }
            for v, shown in zip(verdicts, rows)
        ]
        print(json.dumps(out))
    else:
        for v, shown in zip(verdicts, rows):
            for n, poly in shown:
                print(f"{v.name}\t{n}\t{poly}\t{v.status.value}")
        counts = {s: 0 for s in Verdict}
        for v in verdicts:
            counts[v.status] += 1
        print(
            f"{len(records)} records: "
            f"{counts[Verdict.EXACT_MATCH]} ExactMatch, "
            f"{counts[Verdict.MATCH_UNDER_INVERSION]} MatchUnderInversion, "
            f"{counts[Verdict.MISMATCH]} Mismatch"
        )
        if args.groups:
            for group in group_by_f_sequence(verdicts):
                print("group: " + " ".join(group.names))

    failures = [v for v in verdicts if not v.ok]
    for v in failures:
        for line in v.details:
            print(f"{v.name}: {line}", file=sys.stderr)
    return 1 if failures else 0


# -- distinguish -----------------------------------------------------------------


def _cmd_distinguish(args: argparse.Namespace) -> int:
    (da, _), (db, _) = _resolve(args.first, args.second)
    ra, rb = f_sequence(da), f_sequence(db)
    fa, fb = ra.fingerprint(), rb.fingerprint()
    horizon = max(ra.n_max, rb.n_max) + 1

    if fa == fb:
        print(f"not distinguished by F up to n={horizon}")
    elif fa == f_sequence(db.reverse()).fingerprint():
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
        targets = [(r.name, r.diagram()) for r in load_table()]
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


# -- family ----------------------------------------------------------------------


def _cmd_family(args: argparse.Namespace) -> int:
    diagram = kauffman_family(args.k)
    report = f_sequence(diagram)
    if args.format == "json":
        _print_json(report, f"D^{args.k}", sorted(report.per_n))
        return 0
    print(f"D^{args.k}: {diagram}")
    for n, poly in report.fingerprint():
        print(f"F^{n} = {poly}")
    print(f"P(t) = {report.stable_tail}")
    return 0


# -- plumbing --------------------------------------------------------------------


def _compute_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("target", help="Gauss code or table name (empty string = unknot)")
    p.add_argument("-n", type=int, default=None, help="single n (default 1)")
    p.add_argument("--all", action="store_true", help="full F-sequence report")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _tabulate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--groups", action="store_true", help="also print F-sequence groups")


def _distinguish_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("first")
    p.add_argument("second")


def _verify_moves_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("target", nargs="?", default=None, help="default: whole table")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)


def _family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("k", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")


# name -> (help, argument-adding function, handler)
_COMMANDS = {
    "compute": ("invariants of one diagram", _compute_args, _cmd_compute),
    "tabulate": ("verify the embedded knot table", _tabulate_args, _cmd_tabulate),
    "distinguish": (
        "compare two diagrams by F-polynomials",
        _distinguish_args,
        _cmd_distinguish,
    ),
    "verify-moves": (
        "fuzz invariance under Reidemeister moves",
        _verify_moves_args,
        _cmd_verify_moves,
    ),
    "family": ("k-twist member of the shared-F family", _family_args, _cmd_family),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser, with a subparser per command."""
    parser = argparse.ArgumentParser(
        prog="vknot",
        description="F-polynomial invariants of oriented virtual knots",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv with only the parser of the command it names.

    That parser is the subparser ``build_parser()`` would use, so its
    usage, help and errors are the same.  Only the full parser handles
    anything else: no or an unknown command, top-level options, and
    unrecognized arguments, which it reports with its own usage line.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is not None:
        _, add_arguments, handler = command
        parser = argparse.ArgumentParser(prog=f"vknot {argv[0]}")
        add_arguments(parser)
        parser.set_defaults(func=handler)
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (_InputError, GaussCodeError, MoveError, EvenK, CorruptData) as exc:
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
