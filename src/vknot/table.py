"""The embedded table of virtual knots with up to four classical crossings.

The table names 116 knots: 2.1, 3.1-3.7 and 4.1-4.108, following the
standard tabulation of virtual knots by classical crossing number.
Two data files ship with the package; the ``VKNOT_TABLE_DIR``
environment variable names another directory to read them from, to test
an alternative tabulation (``data_dir``):

* ``knots.tsv``   - one record per line, ``<name><TAB><gauss code>``;
* ``fpolys.tsv``  - expected invariants, ``<name><TAB><n><TAB><poly>``
  with the polynomial in the canonical syntax of :mod:`vknot.laurent`,
  listed for n = 1 .. k, stopping at the first F^k from which the
  sequence equals the affine index polynomial (``FReport.fingerprint``).

The polynomial file is the ground truth; a Gauss code is considered
correct for a name exactly when the fingerprint of its F-sequence
equals the expected rows (``verify_record``).  Published tabulations
fix each knot's orientation only implicitly, so a record whose code
matches only once its orientation is reversed (``Diagram.reverse``, the
inverse knot) is reported as ``MATCH_UNDER_INVERSION``, not a failure.
Reversal is recomputed, not derived from the stored orientation's
values: it negates Ind(c) and dJ_n(D) but leaves every dJ_n(D_c) alone,
so F^n(t, l) does not in general become F^n(t^-1, l^-1).
"""

from __future__ import annotations

import enum
import os
from collections import namedtuple

from .gauss import GaussCodeError, parse_gauss
from .invariants import f_sequence
from .laurent import LaurentPoly2, parse_poly


class CorruptData(RuntimeError):
    """The embedded (or overridden) table files fail validation."""


_EXPECTED_NAMES = frozenset(
    {"2.1"} | {f"3.{i}" for i in range(1, 8)} | {f"4.{i}" for i in range(1, 109)}
)


def name_key(name: str) -> tuple[int, int]:
    """(crossing count, index) of a table name: 2, 3 or 4, a dot, ASCII digits.

    Anything else (``3.x``, ``5.1``, non-ASCII digits) raises ValueError.
    """
    crossings, dot, index = name.partition(".")
    if crossings not in ("2", "3", "4") or not dot or not (index.isascii() and index.isdigit()):
        raise ValueError(f"not a table name: {name!r}")
    return int(crossings), int(index)


class KnotRecord(namedtuple("KnotRecord", "name diagram expected")):
    """A named tabulated knot: its ``name``, its ``diagram`` and the
    fingerprint it must have, ``expected``: (n, F^n) pairs."""

    __slots__ = ()


class Verdict(enum.Enum):
    EXACT_MATCH = "ExactMatch"
    MATCH_UNDER_INVERSION = "MatchUnderInversion"
    MISMATCH = "Mismatch"


class MatchVerdict(namedtuple("MatchVerdict", (
    "name", "status",  # status: a Verdict
    "details",  # per-n diffs, empty unless MISMATCH
    "report",  # FReport of the orientation that matched (the stored one on MISMATCH)
    "rows",  # (n, report's F^n) for each n compared
))):
    """Outcome of checking one record against its expected rows."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status is not Verdict.MISMATCH


def data_dir() -> Path:
    from pathlib import Path  # here, not at import: only locating the table needs it
    override = os.environ.get("VKNOT_TABLE_DIR")
    return Path(override) if override else Path(__file__).resolve().parent / "data"


def _read_rows(path: Path, width: int) -> list[list[str]]:
    """The *width* tab-separated fields of each non-blank line of *path*."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CorruptData(f"cannot read table data: {exc}") from exc
    rows = []
    for line in lines:
        if line.strip():
            rows.append(line.split("\t"))
            if len(rows[-1]) != width:
                raise CorruptData(f"bad {path.name} line: {line!r}")
    return rows


def read_expected(path: Path) -> dict[str, tuple[tuple[int, LaurentPoly2], ...]]:
    """The expected rows of ``fpolys.tsv`` at *path*, by name: each a
    well-formed fingerprint, the rows (n, F^n) for n = 1..k in order.

    Raises CorruptData if the file cannot be read as UTF-8, on a line
    that is not ``<name><TAB><n><TAB><poly>`` with n in ASCII digits and
    a parsable polynomial, if the names are not exactly 2.1..4.108, or
    if a name's rows are not n = 1..k or its last two rows are equal.
    """
    rows: dict[str, dict[int, LaurentPoly2]] = {}
    polys: dict[str, LaurentPoly2] = {}  # each distinct text parsed once
    for name, n_text, poly_text in _read_rows(path, 3):
        if not (n_text.isascii() and n_text.isdigit()):
            raise CorruptData(f"bad expected row for {name!r}: n is {n_text!r}")
        poly = polys.get(poly_text)
        try:
            n = int(n_text)
            if poly is None:
                poly = polys[poly_text] = parse_poly(poly_text)
        except ValueError as exc:  # PolyParseError, or more digits than int() converts
            raise CorruptData(f"bad expected row for {name!r}: {exc}") from exc
        if n < 1:
            raise CorruptData(f"bad expected row for {name!r}: n must be >= 1, got {n}")
        listed = rows.setdefault(name, {})
        if n in listed:
            raise CorruptData(f"record {name!r} repeats the expected row for n = {n}")
        listed[n] = poly
    if set(rows) != _EXPECTED_NAMES:
        odd = sorted(set(rows) ^ _EXPECTED_NAMES)
        raise CorruptData(f"table names do not cover 2.1..4.108: {odd}")
    for name, listed in rows.items():
        k = len(listed)
        if sorted(listed) != list(range(1, k + 1)):
            raise CorruptData(f"record {name!r} lists n = {sorted(listed)}, not n = 1..{k}")
        if k > 1 and listed[k] == listed[k - 1]:
            raise CorruptData(f"record {name!r} lists n = {k}, past the stable row n = {k - 1}")
    return {name: tuple(sorted(listed.items())) for name, listed in rows.items()}


def load_table() -> list[KnotRecord]:
    """Load and validate all 116 records of ``data_dir()``, sorted by
    name; each code is parsed once, into its record's ``diagram``.

    Raises CorruptData on structural problems: missing/duplicated
    names, unparsable codes, a crossing count that does not match the
    name prefix, or expected rows that ``read_expected`` rejects.
    """
    root = data_dir()
    expected = read_expected(root / "fpolys.tsv")
    codes: dict[str, str] = {}
    for name, code in _read_rows(root / "knots.tsv", 2):
        if name in codes:
            raise CorruptData(f"duplicate record {name!r}")
        codes[name] = code
    if set(codes) != set(expected):
        odd = sorted(set(codes) ^ set(expected))
        raise CorruptData(f"table names do not cover 2.1..4.108: {odd}")

    records = []
    for (promised, _), name in sorted((name_key(name), name) for name in codes):
        try:
            diagram = parse_gauss(codes[name])
        except GaussCodeError as exc:
            raise CorruptData(f"record {name!r} has a bad code: {exc}") from exc
        found = diagram.n_crossings
        if found != promised:
            raise CorruptData(f"record {name!r} has {found} crossings, name promises {promised}")
        records.append(KnotRecord(name, diagram, expected[name]))
    return records


def verify_record(record: KnotRecord) -> MatchVerdict:
    """Compare the stored diagram's fingerprint with the record's
    expected rows and, if they differ, the reversed diagram's
    (``MATCH_UNDER_INVERSION``).  A match's ``rows`` are the matching
    fingerprint.  A failure of both is a verdict, not an exception: its
    rows run over n = 1 .. the longer of the listed rows and the stored
    diagram's fingerprint, and its details name each n where F^n
    differs from row n (past the listed rows, the last).
    """
    report = f_sequence(record.diagram)
    if report.fingerprint == record.expected:
        return MatchVerdict(record.name, Verdict.EXACT_MATCH, (), report, report.fingerprint)
    reversed_report = f_sequence(record.diagram.reverse())
    if reversed_report.fingerprint == record.expected:
        status = Verdict.MATCH_UNDER_INVERSION
        return MatchVerdict(record.name, status, (), reversed_report, reversed_report.fingerprint)
    listed = [poly for _, poly in record.expected]
    k = max(len(listed), len(report.fingerprint))
    rows = tuple((n, report.f_at(n)) for n in range(1, k + 1))
    details = tuple(
        f"n={n}: expected {poly}, computed {f_n} (reversed {reversed_report.f_at(n)})"
        for (n, f_n), poly in zip(rows, listed + listed[-1:] * k)
        if f_n != poly
    )
    return MatchVerdict(record.name, Verdict.MISMATCH, details, report, rows)


def group_by_f_sequence(verdicts: list[MatchVerdict]) -> list[tuple[str, ...]]:
    """Partition the names of verdicts (from ``verify_record``) by their
    reports' fingerprints: each part sorted by ``name_key``, the parts
    ordered by their least member.

    Each verdict's report is of the orientation that matched its
    expected rows, so the grouping is independent of the stored codes'
    orientations; a matched member's ``rows`` are its part's fingerprint.
    With the shipped data this reproduces the row structure of the
    published tables; a knot and its inverse are never merged unless
    their fingerprints are equal.
    """
    buckets: dict[tuple[tuple[int, LaurentPoly2], ...], list[str]] = {}
    for verdict in verdicts:
        buckets.setdefault(verdict.report.fingerprint, []).append(verdict.name)
    groups = [tuple(sorted(names, key=name_key)) for names in buckets.values()]
    return sorted(groups, key=lambda names: name_key(names[0]))
