"""Run-time tracing of the vknot modules for the per-layer metrics.

``Tracer.install`` wraps, in memory only, every public module-level
function of each layer module plus a few methods that carry the known
costs (``Diagram.__init__``, ``Diagram.crossings``, ``Diagram.smooth``,
``LaurentPoly2.from_terms``, ``LaurentPoly2.__str__``).  A function is
replaced in every ``vknot`` namespace that imported it, so calls across
modules are seen too.  Each call records one span: name, start, end,
parent span and op id, kept in flat arrays until the run ends.  A
layer's self time is its span's duration minus the time its direct
child spans cover.  Nothing under ``src/`` is edited; a function that a
later version drops simply records no calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("gauss", "invariants", "laurent", "moves", "table", "cli")

METHODS = {
    "gauss": {"Diagram": ("__init__", "crossings", "smooth")},
    "laurent": {"LaurentPoly2": ("from_terms", "__str__")},
}

_R_SITES = ("moves.r1_sites", "moves.r2_sites", "moves.r3_triples")
_R_REWRITE = ("moves.r1_insert", "moves.r1_remove", "moves.r2_insert", "moves.r2_remove", "moves.r3_apply")

# (metric, spans it sums, stats reported, end-to-end metric it should move)
TIMED = (
    ("gauss.crossings", ("gauss.Diagram.crossings",), ("calls", "self_ms"),
     "compute op_ms_*; small on table"),
    ("gauss.smooth", ("gauss.Diagram.smooth",), ("calls", "self_ms"), "compute, then table"),
    ("gauss.Diagram", ("gauss.Diagram.__init__",), ("calls", "self_ms"), "compute, then table"),
    ("gauss.parse_gauss", ("gauss.parse_gauss",), ("calls", "self_ms"), "table op_ms_p50"),
    ("laurent.from_terms", ("laurent.LaurentPoly2.from_terms",), ("calls", "self_ms"), "table op_ms_p50"),
    ("invariants.f_sequence", ("invariants.f_sequence",), ("calls", "self_ms"), "compute; fuzz unchanged"),
    ("invariants.crossing_reports", ("invariants.crossing_reports",), ("calls", "self_ms"),
     "compute; fuzz unchanged"),
    ("invariants.t_set", ("invariants.t_set",), ("calls", "self_ms"), "compute; fuzz unchanged"),
    ("invariants.dwrithe", ("invariants.dwrithe",), ("calls", "self_ms"), "compute; fuzz unchanged"),
    ("invariants.arc_labels", ("invariants.arc_labels",), ("calls", "self_ms"), "compute; fuzz unchanged"),
    ("table.load_table", ("table.load_table",), ("calls", "self_ms"), "table op_ms_p50"),
    ("table.verify_record", ("table.verify_record",), ("calls", "self_ms"), "table op_ms_p50"),
    ("table.group_by_f_sequence", ("table.group_by_f_sequence",), ("calls", "self_ms"), "table op_ms_p50"),
    ("moves.random_walk", ("moves.random_walk",), ("calls", "self_ms"), "fuzz ops_per_s only"),
    ("moves.sites", _R_SITES, ("calls", "self_ms"), "fuzz ops_per_s only"),
    ("moves.rewrite", _R_REWRITE, ("calls", "self_ms"), "fuzz ops_per_s only"),
    ("laurent.str", ("laurent.LaurentPoly2.__str__",), ("calls", "self_ms"), "table"),
    ("cli.main", ("cli.main",), ("self_ms",), "table"),
)

RATIOS = (
    ("invariants.smooth_per_crossing", "compute ops_per_s (ideal 1)"),
    ("table.f_sequence_per_record", "table op_ms_p50 (ideal 1)"),
    ("moves.scans_per_step", "fuzz ops_per_s only"),
)

UNITS = {"calls": "calls/op", "self_ms": "ms/op"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric this module reports, with its unit."""
    units = {f"{name}.{stat}": UNITS[stat] for name, _, stats, _ in TIMED for stat in stats}
    units.update({f"{layer}.self_ms": "ms/op" for layer in LAYERS})
    units.update({name: "ratio" for name, _ in RATIOS})
    return units


class Tracer:
    """Span recorder over the vknot layer modules."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"vknot.{layer}") for layer in LAYERS}
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.asked: set = set()  # (op, diagram) passed to f_sequence
        self.records: set[tuple[int, str]] = set()  # (op, record name) verified

    # -- installing ------------------------------------------------------------

    def _wrap(self, fn, span: str, hook=None):
        nid = len(self.names)
        self.names.append(span)
        name_id, parent, op, start, end, stack = (
            self.name_id, self.parent, self.op, self.start, self.end, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def _ask(self, args) -> None:
        if args:
            self.asked.add((self.current_op, args[0]))

    def _verify(self, args) -> None:
        if args:
            self.records.add((self.current_op, getattr(args[0], "name", None)))

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "vknot"]
        hooks = {"invariants.f_sequence": self._ask, "table.verify_record": self._verify}
        for layer, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                span = f"{layer}.{attr}"
                wrapped = self._wrap(obj, span, hooks.get(span))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapped)
                            self._undo.append((ns, key, obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name, None)
                for meth in methods:
                    raw = vars(cls).get(meth) if cls is not None else None
                    if raw is None:
                        continue
                    span = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(raw.__func__, span))
                    else:
                        wrapped = self._wrap(raw, span)
                    setattr(cls, meth, wrapped)
                    self._undo.append((cls, meth, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-op means of every per-layer metric over ``ops`` traced ops."""
        totals = self.totals()

        def calls(spans) -> int:
            return sum(totals.get(s, (0, 0.0))[0] for s in spans)

        def self_ms(spans) -> float:
            return 1000.0 * sum(totals.get(s, (0, 0.0))[1] for s in spans)

        out: dict[str, float] = {}
        for name, spans, stats, _ in TIMED:
            if "calls" in stats:
                out[f"{name}.calls"] = calls(spans) / ops
            if "self_ms" in stats:
                out[f"{name}.self_ms"] = self_ms(spans) / ops
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self_ms([s for s in totals if s.split(".")[0] == layer]) / ops

        crossings = sum(d.n_crossings for _, d in self.asked)
        out["invariants.smooth_per_crossing"] = _ratio(calls(["gauss.Diagram.smooth"]), crossings)
        out["table.f_sequence_per_record"] = _ratio(calls(["invariants.f_sequence"]), len(self.records))
        out["moves.scans_per_step"] = _ratio(calls(_R_SITES), calls(_R_REWRITE))
        return out

    def write(self, path: Path) -> dict:
        """Write the spans as flat binary columns; return their description."""
        columns = {"name_id": self.name_id, "parent": self.parent, "op": self.op,
                   "start": self.start, "end": self.end}
        with open(path, "wb") as fh:
            for column in columns.values():
                column.tofile(fh)
        return {
            "file": path.name,
            "spans": len(self.start),
            "names": self.names,
            "columns": [[k, c.typecode, c.itemsize] for k, c in columns.items()],
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
