"""Span tracing of the program's modules from outside the program.

Each public function of the ten ndsys modules is wrapped where its callers
look it up: the defining module, the package namespace and every module
that re-binds it with ``from .x import y``.  Per-point helpers (``order``,
``sub``, ``unit``, ``add``, ``as_index``, ``multinomial``,
``Box.contains``, ``LatticeSignal.value``) stay unwrapped, so their cost
lands in the caller's self time.  ``numpy.linalg.svd`` and ``solve`` are
counted, not timed: their time stays with the ndsys function that called
them.  Only direct ``numpy.linalg`` calls are seen; the SVD inside
``norm(m, 2)`` is not.

Spans (name, start, end, parent, request) live in flat arrays until the run
ends; a span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

LAYERS = (
    "cli", "lattice", "pencil", "system", "numerics",
    "analysis", "transfer", "laxphillips", "realization", "serialization",
)
PER_POINT = {"order", "sub", "unit", "add", "as_index", "multinomial"}

# (span name, class name, attribute): methods and constructors worth a span.
# A constructor span is named after its class.
METHODS = (
    ("lattice.Box.front", "Box", "front"),
    ("lattice.LatticeSignal", "LatticeSignal", "__post_init__"),
    ("lattice.LatticeSignal.items", "LatticeSignal", "items"),
    ("lattice.LatticeSignal.norm", "LatticeSignal", "norm"),
    ("pencil.OperatorTuple", "OperatorTuple", "__post_init__"),
    ("pencil.OperatorTuple.adjoint", "OperatorTuple", "adjoint"),
    ("system.MultiLSDS.block", "MultiLSDS", "block"),
    ("system.MultiLSDS.blocks", "MultiLSDS", "blocks"),
    ("system.MultiLSDS.require_wellformed", "MultiLSDS", "require_wellformed"),
    ("transfer.MatrixPolynomial", "MatrixPolynomial", "__post_init__"),
    ("transfer.MatrixPolynomial.evaluate", "MatrixPolynomial", "evaluate"),
    ("laxphillips.TruncatedLPVector", "TruncatedLPVector", "__post_init__"),
    ("laxphillips.TruncatedLPVector.norm", "TruncatedLPVector", "norm"),
    ("realization.AglerData", "AglerData", "__post_init__"),
)


def _lp_points(_, result):
    vec = result[0]
    return len(vec.u_plus.entries) + len(vec.y.entries) + len(vec.u_minus.entries)


# span name -> (counter name, count(args, result))
COUNTS = {
    "system.simulate": ("system.simulate.points", lambda a, r: len(r.outputs.entries)),
    "lattice.LatticeSignal": ("lattice.LatticeSignal.points", lambda a, r: len(a[0].entries)),
    "laxphillips.apply_generator": ("laxphillips.points", _lp_points),
    "laxphillips.apply_adjoint": ("laxphillips.points", _lp_points),
    "serialization.dump": ("serialization.dump.bytes", lambda a, r: len(r)),
    "analysis.dissipativity_scan": ("analysis.dissipativity_scan.points", lambda a, r: r.samples),
    "pencil.sym_multipower_table": ("pencil.multipower_table.entries", lambda a, r: len(r)),
    "pencil.bordered_multipower_table": ("pencil.multipower_table.entries", lambda a, r: len(r)),
    "realization.assemble_colligation": ("realization.grid_points", lambda a, r: r.grid_size),
}

# Per-layer metrics that sum several spans.
GROUPS = {
    "serialization.decode": lambda name: name.startswith("serialization.json_to_"),
    "serialization.encode": lambda name: name.startswith("serialization.") and name.endswith("_to_json"),
    "pencil.multipower_table": lambda name: name in (
        "pencil.sym_multipower_table", "pencil.bordered_multipower_table"
    ),
    "numerics.halton": lambda name: name.startswith("numerics.halton_"),
}

# name, unit, better; the metrics a traced run reports
PER_LAYER = (
    [
        ("system.simulate.self_s", "s", "lower"),
        ("system.simulate.points", "count", "lower"),
        ("system.energy_balance_report.self_s", "s", "lower"),
        ("system.front_energy.calls", "count", "lower"),
        ("system.front_energy.self_s", "s", "lower"),
        ("lattice.Box.front.calls", "count", "lower"),
        ("lattice.Box.front.self_s", "s", "lower"),
        ("lattice.LatticeSignal.points", "count", "lower"),
        ("laxphillips.apply_generator.self_s", "s", "lower"),
        ("laxphillips.apply_adjoint.self_s", "s", "lower"),
        ("laxphillips.points", "count", "lower"),
        ("serialization.load_file.self_s", "s", "lower"),
        ("serialization.decode.self_s", "s", "lower"),
        ("serialization.encode.self_s", "s", "lower"),
        ("serialization.dump.self_s", "s", "lower"),
        ("serialization.dump.bytes", "bytes", "lower"),
        ("pencil.eval_pencil.calls", "count", "lower"),
        ("pencil.eval_pencil.self_s", "s", "lower"),
        ("numerics.spectral_norm.calls", "count", "lower"),
        ("numerics.spectral_norm.self_s", "s", "lower"),
        ("linalg.svd.calls", "count", "lower"),
        ("analysis.dissipativity_scan.self_s", "s", "lower"),
        ("analysis.dissipativity_scan.points", "count", "higher"),
        ("analysis.conservativity_check.self_s", "s", "lower"),
        ("analysis.closely_connected_subspace.self_s", "s", "lower"),
        ("transfer.transfer_eval.calls", "count", "lower"),
        ("transfer.transfer_eval.self_s", "s", "lower"),
        ("transfer.transfer_eval_series.self_s", "s", "lower"),
        ("transfer.maclaurin_poly.self_s", "s", "lower"),
        ("pencil.multipower_table.entries", "count", "lower"),
        ("pencil.multipower_table.self_s", "s", "lower"),
        ("linalg.solve.calls", "count", "lower"),
        ("system.validate.calls", "count", "lower"),
        ("system.validate.self_s", "s", "lower"),
        ("transfer.MatrixPolynomial.evaluate.calls", "count", "lower"),
        ("transfer.MatrixPolynomial.evaluate.self_s", "s", "lower"),
        ("numerics.orth_basis.calls", "count", "lower"),
        ("numerics.orth_basis.self_s", "s", "lower"),
        ("realization.verify_agler_identity.self_s", "s", "lower"),
        ("realization.assemble_colligation.self_s", "s", "lower"),
        ("realization.grid_points", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("numerics.halton.self_s", "s", "lower"),
        ("numerics.import_s", "s", "lower"),
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    + [("trace.overhead_s", "s", "lower")]
)


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self, ndsys_modules: dict):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.child = array("q")
        self.request = array("i")
        self._stack: list[int] = []
        self._request = -1
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._patches = self._plan(ndsys_modules)

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request)
        self.end.append(0)
        self.child.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int):
        end = perf_counter_ns()
        self.end[idx] = end
        self._stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += end - self.start[idx]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        layer = name.split(".", 1)[0]
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                self._close(idx)
            if count is not None:
                self.counts[count[0]] += count[1](args, result)
            return result

        return traced

    def _counter(self, key: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------------

    def _plan(self, modules: dict) -> list:
        """(namespace, attribute, original, replacement) for every binding."""
        plan = []
        namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "ndsys"]
        for layer in LAYERS:
            mod = modules[layer]
            names = ["main"] if layer == "cli" else getattr(mod, "__all__", [])
            for attr in names:
                fn = getattr(mod, attr, None)
                if (
                    attr in PER_POINT
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            plan.append((ns, key, fn, wrapped))
        for span, cls_name, attr in METHODS:
            cls = getattr(modules[span.split(".", 1)[0]], cls_name)
            fn = vars(cls)[attr]
            plan.append((cls, attr, fn, self._wrap(span, fn)))
        for attr in ("svd", "solve"):
            fn = getattr(np.linalg, attr)
            plan.append((np.linalg, attr, fn, self._counter(f"linalg.{attr}.calls", fn)))
        return plan

    @contextlib.contextmanager
    def installed(self, request: int):
        """Trace one request: wrappers are in place only inside this block."""
        self._request = request
        for ns, key, _, wrapped in self._patches:
            setattr(ns, key, wrapped)
        try:
            yield
        finally:
            for ns, key, original, _ in self._patches:
                setattr(ns, key, original)

    # -- results -------------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Per span name: call count and self time in seconds."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_ns[nid] += self.end[i] - self.start[i] - self.child[i]
        named_calls = {self.names[k]: v for k, v in calls.items()}
        named_self = {self.names[k]: v / 1e9 for k, v in self_ns.items()}
        return named_calls, named_self

    def metrics(self, rounds: int) -> dict:
        """Per-layer values per traced round, by metric name, without the
        import time and overhead, which the caller measures."""
        calls, self_s = self.totals()
        for group, member in GROUPS.items():
            self_s[group] = sum(v for k, v in self_s.items() if member(k))
        for layer in LAYERS:
            self_s[layer] = sum(v for k, v in self_s.items() if k.startswith(layer + ".") and k in calls)
        out = {}
        for name, _, _ in PER_LAYER:
            base, _, what = name.rpartition(".")
            if what == "self_s":
                value = self_s.get(base, 0.0)
            elif what == "errors":
                value = self.errors.get(base, 0)
            elif what == "calls":
                value = calls.get(base, self.counts.get(name, 0))
            else:
                value = self.counts.get(name, 0)
            out[name] = value / rounds
        return out

    def request_time(self) -> float:
        """Summed duration of the ``cli.main`` root spans, in seconds."""
        root = self._ids.get("cli.main")
        return sum(
            self.end[i] - self.start[i] for i, nid in enumerate(self.name) if nid == root
        ) / 1e9

    def write(self, path: str):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("request\tspan\tname\tstart_ns\tend_ns\tparent\n")
            for i, nid in enumerate(self.name):
                fh.write(
                    f"{self.request[i]}\t{i}\t{self.names[nid]}\t"
                    f"{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n"
                )
