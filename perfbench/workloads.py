"""Seeded inputs and independent output oracles for the benchmark workloads.

Nothing in this module imports vknot.  Inputs are generated as Gauss-code
text from the workload seed, and every op's stdout is checked against the
table data files or against a direct implementation of the definitions,
so a defect in the engine cannot also hide in its oracle.

Workloads (one op each is one ``vknot`` command line):

* ``table``   - ``tabulate --groups`` over a freshly rotated and relabelled
  copy of all 116 table codes, loaded through ``VKNOT_TABLE_DIR``.  Many
  tiny diagrams: per-call overhead and the double verification in
  grouping dominate.  Fresh codes on every op keep a memo keyed on the
  code text from posing as a speed-up.
* ``compute`` - ``compute <code> --all`` on a random diagram with a fixed
  32 crossings.  Few, large diagrams: the cost is the invariant views and
  the smoothings.  One fixed size, because a mixed-size draw makes the
  median jump between size classes.
* ``fuzz``    - ``verify-moves <code> --trials 5 --steps 40 --seed <s>``
  from a table code.  The only workload that rewrites diagrams; it reads
  invariants through ``f_sequence`` only, never through the views.  Raw
  codes, not names, keep the table loader out of every op.
"""

from __future__ import annotations

import os
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

COMPUTE_CROSSINGS = 32
FUZZ_TRIALS = 5
FUZZ_STEPS = 40

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64: the same stream on every platform and Python version."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


# -- Gauss-code text -------------------------------------------------------------

_TOKEN_RE = re.compile(r"^([OU])([0-9A-Za-z]+)([+-])$")


def parse_code(text: str) -> list[tuple[str, bool, int]]:
    """Entries (crossing id, over, sign) of a code in the canonical format."""
    entries = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if m is None:
            raise ValueError(f"bad token {token!r}")
        entries.append((m.group(2), m.group(1) == "O", 1 if m.group(3) == "+" else -1))
    return entries


def format_code(entries: list[tuple[str, bool, int]]) -> str:
    return " ".join(f"{'O' if o else 'U'}{c}{'+' if s > 0 else '-'}" for c, o, s in entries)


def rotate_relabel(entries: list[tuple[str, bool, int]], rng: SplitMix64) -> list:
    """A random rotation of the word with fresh random crossing ids."""
    n = len(entries)
    k = rng.below(n) if n else 0
    rotated = entries[k:] + entries[:k]
    ids = list(dict.fromkeys(c for c, _, _ in rotated))
    pool = list(range(1, 4 * len(ids) + 1))
    rng.shuffle(pool)
    fresh = {c: str(pool[i]) for i, c in enumerate(ids)}
    return [(fresh[c], o, s) for c, o, s in rotated]


def random_diagram(m: int, rng: SplitMix64) -> list[tuple[str, bool, int]]:
    """A uniformly shuffled double-occurrence word with random passes and signs."""
    word = [c for c in range(1, m + 1) for _ in range(2)]
    rng.shuffle(word)
    over_first = {c: rng.below(2) == 1 for c in range(1, m + 1)}
    sign = {c: 1 if rng.below(2) else -1 for c in range(1, m + 1)}
    seen: set[int] = set()
    entries = []
    for c in word:
        over = over_first[c] if c not in seen else not over_first[c]
        seen.add(c)
        entries.append((str(c), over, sign[c]))
    return entries


# -- independent invariants --------------------------------------------------------

_TERM_RE = re.compile(r"([+-]?)(\d*)(t(?:\^(-?\d+))?)?\*?(l(?:\^(-?\d+))?)?")


def parse_poly(text: str) -> dict[tuple[int, int], int]:
    """Term map {(e_t, e_l): coeff} of a polynomial in vknot's text syntax."""
    if text == "0":
        return {}
    terms: dict[tuple[int, int], int] = {}
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        sign, digits, t_part, e_t, l_part, e_l = m.groups()
        if m.end() == pos or not (digits or t_part or l_part) or (pos and not sign):
            raise ValueError(f"bad polynomial {text!r}")
        key = (
            int(e_t) if e_t else (1 if t_part else 0),
            int(e_l) if e_l else (1 if l_part else 0),
        )
        coeff = (-1 if sign == "-" else 1) * int(digits or 1)
        terms[key] = terms.get(key, 0) + coeff
        pos = m.end()
    return {k: v for k, v in terms.items() if v}


def _add(acc: dict, key: tuple[int, int], coeff: int) -> None:
    acc[key] = acc.get(key, 0) + coeff
    if acc[key] == 0:
        del acc[key]


def indices(entries: list[tuple[str, bool, int]]) -> dict[str, int]:
    """Ind(c) for every crossing, in order of first appearance.

    The label of the arc leaving position p is the sign sum of the
    crossings whose first entry met after p is an Over pass.  Arc 0 is
    summed straight from that definition; stepping one position on, the
    entry passed becomes the last one met for its crossing, so the label
    gains the sign at an Under entry and loses it at an Over entry.
    Ind(c) = label(over-in arc) - label(under-in arc) - sgn(c).
    """
    n = len(entries)
    seen: set[str] = set()
    label = 0
    for c, over, s in entries[1:] + entries[:1]:
        if c not in seen:
            seen.add(c)
            label += s if over else 0
    labels = []
    for pos in range(n):
        labels.append(label)
        _, over, s = entries[(pos + 1) % n]
        label += -s if over else s
    over_in: dict[str, int] = {}
    under_in: dict[str, int] = {}
    sign: dict[str, int] = {}
    for pos, (c, over, s) in enumerate(entries):
        (over_in if over else under_in)[c] = labels[(pos - 1) % n]
        sign[c] = s
    return {c: over_in[c] - under_in[c] - sign[c] for c in sign}


def smooth(entries: list[tuple[str, bool, int]], crossing: str) -> list[tuple[str, bool, int]]:
    """The against-orientation smoothing at ``crossing``, up to rotation.

    The convention of vknot's Gauss-code model: delete both entries of the
    crossing, reverse the segment strictly between its Under and its Over
    pass, and negate the sign of every crossing with exactly one entry
    inside that segment.  Pass flags never change.
    """
    u = next(i for i, (c, over, _) in enumerate(entries) if c == crossing and not over)
    word = entries[u:] + entries[:u]
    o = next(i for i, (c, over, _) in enumerate(word) if c == crossing and over)
    segment, rest = word[1:o], word[o + 1 :]
    inside = [c for c, _, _ in segment]
    flipped = {c for c in inside if inside.count(c) == 1}
    return [(c, over, -s if c in flipped else s) for c, over, s in rest + segment[::-1]]


def affine_poly(entries, ind: dict[str, int]) -> dict[tuple[int, int], int]:
    """P(t) = sum_c sgn(c) (t^Ind(c) - 1)."""
    sign = {c: s for c, _, s in entries}
    acc: dict[tuple[int, int], int] = {}
    for c, k in ind.items():
        _add(acc, (k, 0), sign[c])
        _add(acc, (0, 0), -sign[c])
    return acc


def writhes(entries, ind: dict[str, int]) -> dict[int, int]:
    """J_k: the sign sum of the crossings of index k; dJ_n = J_n - J_-n."""
    sign = {c: s for c, _, s in entries}
    table: dict[int, int] = {}
    for c, k in ind.items():
        table[k] = table.get(k, 0) + sign[c]
    return table


def _dwrithe(table: dict[int, int], n: int) -> int:
    return table.get(n, 0) - table.get(-n, 0)


# -- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    argv: list[str]
    expect: object = None


def _name_key(name: str) -> tuple[int, int]:
    a, b = name.split(".")
    return int(a), int(b)


def _read_tsv(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text().splitlines() if line.strip()]


class TableWorkload:
    """``tabulate --groups`` on rotated, relabelled copies of the table."""

    def __init__(self, data_dir: Path, work_dir: Path, seed: int):
        self.seed = seed
        self.work_dir = work_dir
        self.codes = [(name, parse_code(code)) for name, code in _read_tsv(data_dir / "knots.tsv")]
        work_dir.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(data_dir / "fpolys.tsv", work_dir / "fpolys.tsv")
        self._saved_env = os.environ.get("VKNOT_TABLE_DIR")
        os.environ["VKNOT_TABLE_DIR"] = str(work_dir)

        rows: dict[str, list[tuple[int, str]]] = {}
        for name, n, poly in _read_tsv(data_dir / "fpolys.tsv"):
            rows.setdefault(name, []).append((int(n), poly))
        names = sorted(rows, key=_name_key)
        lines = [f"{name}\t{n}\t{poly}\tExactMatch" for name in names for n, poly in sorted(rows[name])]
        lines.append(f"{len(names)} records: {len(names)} ExactMatch, 0 MatchUnderInversion, 0 Mismatch")
        groups: dict[tuple, list[str]] = {}
        for name in names:
            key = tuple((n, frozenset(parse_poly(p).items())) for n, p in sorted(rows[name]))
            groups.setdefault(key, []).append(name)
        lines += ["group: " + " ".join(g) for g in sorted(groups.values(), key=lambda g: _name_key(g[0]))]
        self.expected = "\n".join(lines) + "\n"

    def ops(self):
        rng = SplitMix64(self.seed)
        while True:
            text = "".join(
                f"{name}\t{format_code(rotate_relabel(entries, rng))}\n" for name, entries in self.codes
            )
            (self.work_dir / "knots.tsv").write_text(text)
            yield Op(["tabulate", "--groups"])

    def check(self, op: Op, rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit status {rc}"
        if out == self.expected:
            return None
        got, want = out.splitlines(), self.expected.splitlines()
        if len(got) != len(want):
            return f"{len(got)} output lines, expected {len(want)}"
        for g, w in zip(got, want):
            if g == w:
                continue
            gp, wp = g.split("\t"), w.split("\t")
            if len(gp) == 4 and gp[:2] + gp[3:] == wp[:2] + wp[3:] and parse_poly(gp[2]) == parse_poly(wp[2]):
                continue
            return f"got {g!r}, expected {w!r}"
        return None

    def close(self) -> None:
        if self._saved_env is None:
            os.environ.pop("VKNOT_TABLE_DIR", None)
        else:
            os.environ["VKNOT_TABLE_DIR"] = self._saved_env


_CROSSING_RE = re.compile(r"^crossing (\S+): sign=([+-]1) index=(-?\d+)((?: dJ_\d+\(D_c\)=-?\d+)*)$")
_N_RE = re.compile(r"^n=(\d+): dJ_\d+\(D\)=(-?\d+) T_\d+=\{([^}]*)\} F\^\d+ = (\S+)$")


class ComputeWorkload:
    """``compute <code> --all`` on random diagrams of ``COMPUTE_CROSSINGS`` crossings."""

    def __init__(self, seed: int):
        self.seed = seed

    def ops(self):
        rng = SplitMix64(self.seed)
        while True:
            entries = random_diagram(COMPUTE_CROSSINGS, rng)
            yield Op(["compute", format_code(entries), "--all"], entries)

    def check(self, op: Op, rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit status {rc}"
        return _check_compute(op.expect, out.splitlines())

    def close(self) -> None:
        pass


def _check_compute(entries, lines: list[str]) -> str | None:
    """Check ``compute --all`` text against the definitions.

    Signs, indices, P(t), every smoothing D_c with its dwrithes, n_max
    (the largest index magnitude over D and its smoothings), dJ_n(D), T_n
    and F^n are recomputed here from the code.  F^n must also collapse to
    P(t) at l = 1, P(1) must be 0, and F^(n_max+1) must equal the stable
    tail.
    """
    ind = indices(entries)
    sign = {c: s for c, _, s in entries}
    p = affine_poly(entries, ind)
    m = len(ind)
    if lines[0] != f"gauss: {format_code(entries)}" or lines[1] != f"crossings: {m}":
        return "header lines differ"
    if sum(p.values()) != 0:
        return "P(1) != 0"
    j_d = writhes(entries, ind)
    j_smoothed = {}
    n_max = max((abs(k) for k in ind.values()), default=0)
    for c in ind:
        smoothed = smooth(entries, c)
        smoothed_ind = indices(smoothed)
        j_smoothed[c] = writhes(smoothed, smoothed_ind)
        n_max = max([n_max, *(abs(k) for k in smoothed_ind.values())])
    ns = range(1, n_max + 2)
    for line, c in zip(lines[2 : 2 + m], ind):
        row = _CROSSING_RE.match(line)
        if row is None or row.group(1) != c:
            return f"bad crossing line {line!r}"
        if int(row.group(2)) != sign[c] or int(row.group(3)) != ind[c]:
            return f"crossing {c}: expected sign {sign[c]} index {ind[c]}, got {line!r}"
        printed = re.findall(r"dJ_(\d+)\(D_c\)=(-?\d+)", row.group(4))
        if [(int(k), int(v)) for k, v in printed] != [(n, _dwrithe(j_smoothed[c], n)) for n in ns]:
            return f"crossing {c}: smoothed dwrithes differ, got {line!r}"
    rest = lines[2 + m :]
    if not rest[0].startswith("P(t) = ") or parse_poly(rest[0][7:]) != p:
        return f"P(t) differs: {rest[0]!r}"
    if rest[1] != f"n_max = {n_max}":
        return f"{rest[1]!r}, expected n_max = {n_max}"
    n_lines = rest[2:]
    if len(n_lines) != n_max + 2:
        return f"{len(n_lines)} lines after n_max, expected {n_max + 2}"
    last = None
    for n, line in zip(ns, n_lines[:-1]):
        row = _N_RE.match(line)
        if row is None or int(row.group(1)) != n:
            return f"bad n line {line!r}"
        d_n = _dwrithe(j_d, n)
        if int(row.group(2)) != d_n:
            return f"dJ_{n}(D) = {row.group(2)}, expected {d_n}"
        t_set = {c for c in ind if abs(_dwrithe(j_smoothed[c], n)) == abs(d_n)}
        if set(filter(None, row.group(3).split(","))) != t_set:
            return f"T_{n} differs"
        f = parse_poly(row.group(4))
        want: dict[tuple[int, int], int] = {}
        for c in ind:
            dc = _dwrithe(j_smoothed[c], n)
            _add(want, (ind[c], dc), sign[c])
            _add(want, (0, dc if c in t_set else d_n), -sign[c])
        if f != want:
            return f"F^{n} differs"
        at_l1: dict[tuple[int, int], int] = {}
        for (e_t, _), coeff in f.items():
            _add(at_l1, (e_t, 0), coeff)
        if at_l1 != p:
            return f"F^{n}(t,1) != P(t)"
        last = f
    tail = n_lines[-1]
    prefix = f"stable tail (n > {n_max}): "
    if not tail.startswith(prefix) or parse_poly(tail[len(prefix) :]) != p or last != p:
        return "F^(n_max+1) or the stable tail differs from P(t)"
    return None


class FuzzWorkload:
    """``verify-moves`` random Reidemeister walks from table codes."""

    def __init__(self, data_dir: Path, seed: int):
        self.seed = seed
        self.codes = [format_code(parse_code(code)) for _, code in _read_tsv(data_dir / "knots.tsv")]

    def ops(self):
        rng = SplitMix64(self.seed)
        while True:
            code = self.codes[rng.below(len(self.codes))]
            argv = ["verify-moves", code, "--trials", str(FUZZ_TRIALS), "--steps", str(FUZZ_STEPS)]
            yield Op(argv + ["--seed", str(rng.below(1 << 31))], code)

    def check(self, op: Op, rc: int, out: str) -> str | None:
        want = f"{op.expect}: {FUZZ_TRIALS} walks x {FUZZ_STEPS} moves: ok\ntotal failures: 0\n"
        if rc != 0 or out != want:
            return f"exit status {rc}, output {out[-200:]!r}"
        return None

    def close(self) -> None:
        pass
