"""Rebuild the embedded diagram table from the expected-polynomial data.

A code is correct for a name exactly when the fingerprint of its
computed F-sequence (``FReport.fingerprint``) equals the name's expected
rows in ``fpolys.tsv``, the rule of ``verify_record``.  This tool assigns
one code to every name from scratch: it scans every code with 2, 3 or
4 classical crossings (``vknot.enumerate``), buckets the canonical codes
by (crossing count, F-sequence fingerprint), keeping at most
MAX_PER_BUCKET per bucket, and hands them out in sorted order to the
names expecting that fingerprint, in name order.

A handful of codes with independent provenance are pinned instead of
searched (the worked three-crossing example in its published
orientation-reversed form, the classical trefoil and figure-eight) and
are checked against the expected rows like everything else.  Within a
group of names sharing a fingerprint the assignment is conventional.

It reads ``fpolys.tsv`` from ``vknot.table.data_dir()``, the package
data or the directory that ``VKNOT_TABLE_DIR`` names, and writes
``knots.tsv`` next to it unless ``--out`` names another file.

Usage:  python tools/build_knot_table.py [--out knots.tsv]
Exit status: 0 written, 1 a pin or bucket fails, 2 unreadable expected
rows or an unwritable output (one ``error: `` line on stderr).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vknot.enumerate import canonical_code, enumerate_codes
from vknot.gauss import parse_gauss
from vknot.invariants import f_sequence
from vknot.table import CorruptData, data_dir, name_key, read_expected

PINNED = {
    # Worked three-crossing example, orientation matching the published table.
    "3.1": "O1- U2+ U3- O2+ U1- O3-",
    # Classical trefoil and figure-eight (all F-polynomials vanish).
    "3.6": "O1+ U2+ O3+ U1+ O2+ U3+",
    "4.108": "O1+ U2- O4- U1+ O3+ U4- O2- U3+",
    # Two-crossing virtual knot.
    "2.1": "O1- O2- U1- U2-",
}

# The cap decides the output, not only the run time: a bucket keeps the first
# 64 canonical codes in enumeration order, and its least codes go out.  With
# no cap, 30 lines of knots.tsv change (4.2, 4.4, 4.5 and 4.6 among them), so
# a rebuild that lifts or replaces the cap replaces those codes too.
MAX_PER_BUCKET = 64


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=data_dir() / "knots.tsv")
    args = parser.parse_args()

    try:
        expected = read_expected(data_dir() / "fpolys.tsv")
    except CorruptData as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out.parent.is_dir():
        print(f"error: no directory {str(args.out.parent)!r} for {str(args.out)!r}", file=sys.stderr)
        return 2

    needed: dict[tuple[int, tuple], list[str]] = {}
    for name, rows in expected.items():
        needed.setdefault((name_key(name)[0], rows), []).append(name)
    for names in needed.values():
        names.sort(key=name_key)

    assigned: dict[str, str] = {}
    taken: set[str] = set()
    for name, code in PINNED.items():
        diagram = parse_gauss(code)
        got = f_sequence(diagram).fingerprint
        if got != expected[name]:
            print(f"pinned code for {name} does not match expected rows: {got}")
            return 1
        assigned[name] = code
        taken.add(canonical_code(diagram))

    buckets: dict[tuple[int, tuple], list[str]] = {key: [] for key in needed}
    for m in (2, 3, 4):
        count = 0
        for diagram in enumerate_codes(m):
            count += 1
            key = (m, f_sequence(diagram).fingerprint)
            bucket = buckets.get(key)
            if bucket is None or len(bucket) >= MAX_PER_BUCKET:
                continue
            code = canonical_code(diagram)
            if code not in bucket and code not in taken:
                bucket.append(code)
        print(f"m={m}: scanned {count} codes")

    missing = 0
    for key, names in sorted(needed.items(), key=lambda kv: name_key(kv[1][0])):
        pool = sorted(buckets[key])
        free = [name for name in names if name not in assigned]
        if len(pool) < len(free):
            print(f"bucket {key[0]}-crossing {key[1]!r}: {len(pool)} codes for {len(free)} names")
            missing += 1
            continue
        for name, code in zip(free, pool):
            assigned[name] = code
    if missing:
        return 1

    lines = [f"{name}\t{assigned[name]}" for name in sorted(assigned, key=name_key)]
    try:
        args.out.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: cannot write {str(args.out)!r}: {exc.strerror}", file=sys.stderr)
        return 2
    print(f"wrote {len(lines)} records to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
