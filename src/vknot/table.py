"""The embedded table of virtual knots with up to four classical crossings.

The table names 116 knots: 2.1, 3.1-3.7 and 4.1-4.108, following the
standard tabulation of virtual knots by classical crossing number.
Two data files ship with the package (override the directory with the
``VKNOT_TABLE_DIR`` environment variable to test an alternative
tabulation):

* ``knots.tsv``   - one record per line, ``<name><TAB><gauss code>``;
* ``fpolys.tsv``  - expected invariants, ``<name><TAB><n><TAB><poly>``
  with the polynomial in the canonical syntax of :mod:`vknot.laurent`,
  listed for n = 1 upward until the F-polynomial stabilizes to the
  affine index polynomial.

The polynomial file is the ground truth; a Gauss code is considered
correct for a name exactly when its computed F-sequence reproduces the
expected rows (``verify_record``).  Published tabulations fix each
knot's orientation only implicitly, so a record whose code matches only
once its orientation is reversed (``Diagram.reverse``, the inverse knot)
is reported as ``MATCH_UNDER_INVERSION`` rather than as a failure.
Reversal is recomputed, not derived from the stored orientation's
values: it negates Ind(c) and dJ_n(D) but leaves every dJ_n(D_c) alone,
so F^n(t, l) does not in general become F^n(t^-1, l^-1).

``kauffman_family`` generates the classic infinite family D^k (odd k)
of distinct virtual knots sharing one F-polynomial: a vertical twist
chain of k positive kink-like crossings closed off through one virtual
crossing and two negative crossings.
"""

from __future__ import annotations

import enum
import os
from pathlib import Path
from typing import NamedTuple

from .gauss import Diagram, Entry, GaussCodeError, parse_gauss
from .invariants import FReport, f_sequence
from .laurent import LaurentPoly2, parse_poly


class CorruptData(RuntimeError):
    """The embedded (or overridden) table files fail validation."""


class EvenK(ValueError):
    """kauffman_family is defined for odd k >= 1 only."""


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


class KnotRecord:
    """A named tabulated knot: Gauss code plus expected F-sequence rows.

    The code is parsed once, on construction (GaussCodeError if it is
    bad), and ``diagram()`` returns that immutable Diagram.  Records
    are immutable and compare by (name, gauss, expected).
    """

    __slots__ = ("name", "gauss", "expected", "_diagram")

    def __init__(self, name: str, gauss: str, expected: tuple[tuple[int, LaurentPoly2], ...]):
        object.__setattr__(self, "_diagram", parse_gauss(gauss))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "gauss", gauss)
        object.__setattr__(self, "expected", expected)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("KnotRecord is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("KnotRecord is immutable")

    def _key(self) -> tuple:
        return self.name, self.gauss, self.expected

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnotRecord):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"KnotRecord(name={self.name!r}, gauss={self.gauss!r}, expected={self.expected!r})"

    def diagram(self) -> Diagram:
        return self._diagram


class Verdict(enum.Enum):
    EXACT_MATCH = "ExactMatch"
    MATCH_UNDER_INVERSION = "MatchUnderInversion"
    MISMATCH = "Mismatch"


class MatchVerdict(NamedTuple):
    """Outcome of checking one record against its expected rows."""

    name: str
    status: Verdict
    details: tuple[str, ...]  # per-n diffs, empty unless MISMATCH
    report: FReport  # of the orientation that matched (the stored one on MISMATCH)

    @property
    def ok(self) -> bool:
        return self.status is not Verdict.MISMATCH


def data_dir() -> Path:
    override = os.environ.get("VKNOT_TABLE_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "data"


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
    """The expected rows of ``fpolys.tsv`` at *path*, by name, sorted by n.

    Raises CorruptData if the file cannot be read as UTF-8, on a line
    that is not ``<name><TAB><n><TAB><poly>`` with n in ASCII digits and
    a parsable polynomial, if the names are not exactly 2.1..4.108, or
    if a name's rows are not listed for distinct n >= 1.
    """
    rows: dict[str, list[tuple[int, LaurentPoly2]]] = {}
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
        rows.setdefault(name, []).append((n, poly))
    if set(rows) != _EXPECTED_NAMES:
        odd = sorted(set(rows) ^ _EXPECTED_NAMES)
        raise CorruptData(f"table names do not cover 2.1..4.108: {odd}")
    for name, listed in rows.items():
        listed.sort(key=lambda row: row[0])
        ns = [n for n, _ in listed]
        if ns[0] < 1 or any(b <= a for a, b in zip(ns, ns[1:])):
            raise CorruptData(f"record {name!r} expected rows not strictly increasing")
    return {name: tuple(listed) for name, listed in rows.items()}


def load_table(directory: Path | None = None) -> list[KnotRecord]:
    """Load and validate all 116 records, sorted by name.

    Raises CorruptData on structural problems: missing/duplicated
    names, unparsable codes, a crossing count that does not match the
    name prefix, or expected rows that ``read_expected`` rejects.
    """
    root = directory if directory is not None else data_dir()
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
            record = KnotRecord(name, codes[name], expected[name])
        except GaussCodeError as exc:
            raise CorruptData(f"record {name!r} has a bad code: {exc}") from exc
        found = record.diagram().n_crossings
        if found != promised:
            raise CorruptData(f"record {name!r} has {found} crossings, name promises {promised}")
        records.append(record)
    return records


def verify_record(record: KnotRecord) -> MatchVerdict:
    """Compare the record's computed F-sequence with its expected rows.

    Tries the stored orientation first, then the reversed diagram.  A
    failure of both is a verdict, not an exception.
    """
    diagram = record.diagram()
    report = f_sequence(diagram)
    if all(report.f_at(n) == poly for n, poly in record.expected):
        return MatchVerdict(record.name, Verdict.EXACT_MATCH, (), report)
    reversed_report = f_sequence(diagram.reverse())
    if all(reversed_report.f_at(n) == poly for n, poly in record.expected):
        return MatchVerdict(record.name, Verdict.MATCH_UNDER_INVERSION, (), reversed_report)
    details = tuple(
        f"n={n}: expected {poly}, computed {report.f_at(n)} (reversed {reversed_report.f_at(n)})"
        for n, poly in record.expected
        if report.f_at(n) != poly
    )
    return MatchVerdict(record.name, Verdict.MISMATCH, details, report)


def verify_all(records: list[KnotRecord]) -> list[MatchVerdict]:
    """The verdict of each record, in the order given."""
    return [verify_record(r) for r in records]


class FGroup(NamedTuple):
    """Knot names sharing one F-sequence (in table orientation)."""

    rows: tuple[tuple[int, LaurentPoly2], ...]
    names: tuple[str, ...]


def group_by_f_sequence(verdicts: list[MatchVerdict]) -> list[FGroup]:
    """Partition verdicts (from ``verify_all``) by their reports' fingerprints.

    Each verdict's report is of the orientation that matched its
    expected rows, so the grouping is independent of the stored codes'
    orientations.  Groups are ordered by their least member name.  With
    the shipped data this reproduces the row structure of the published
    tables; a knot and its inverse are never merged unless their
    fingerprints are equal.
    """
    buckets: dict[tuple[tuple[int, LaurentPoly2], ...], list[str]] = {}
    for verdict in verdicts:
        buckets.setdefault(verdict.report.fingerprint(), []).append(verdict.name)
    groups = [FGroup(rows, tuple(sorted(names, key=name_key))) for rows, names in buckets.items()]
    groups.sort(key=lambda g: name_key(g.names[0]))
    return groups


def kauffman_family(k: int) -> Diagram:
    """The k-twist member D^k of the family sharing F^1 = -t+2-t^-1.

    k must be odd and >= 1.  Crossings are named a1..ak (the twist
    chain, sign +1) plus b and g (sign -1); the single virtual crossing
    of the drawing leaves no trace in the Gauss code.
    """
    if k < 1 or k % 2 == 0:
        raise EvenK(f"family parameter must be odd and >= 1, got {k}")
    entries = [Entry("g", True, -1), Entry("b", False, -1)]
    for i in range(1, k + 1):
        entries.append(Entry(f"a{i}", i % 2 == 0, 1))
    entries.append(Entry("b", True, -1))
    entries.append(Entry("g", False, -1))
    for i in range(k, 0, -1):
        entries.append(Entry(f"a{i}", i % 2 == 1, 1))
    return Diagram(entries)
