"""Spans and counters recorded from outside the program.

``Tracer.install`` rebinds public functions and methods of the ``hadamard``
modules to wrappers.  A function is rebound under every module attribute
that holds it (``products.homogeneous_parts`` and ``pit.hadamard_abp`` as
well as the defining module's own name), so calls between modules are seen
too.  Element classes get counting wrappers on ``__mul__``/``__add__`` and
their reflected forms; no span is opened around a single field operation.

Each span records its name, start, end, parent span and job id.  Spans stay
in memory until the run reads them; ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction
from typing import Callable, Optional


def _nodes(result, *args) -> dict:
    return {"nodes_out": result.node_count()}


def _layer_pairs(p, q) -> int:
    """Edge pairs the layered product visits: sum over layers of |E_p| * |E_q|."""
    per_p = [0] * p.depth
    per_q = [0] * q.depth
    for layer, _, _ in p.edges:
        per_p[layer] += 1
    for layer, _, _ in q.edges:
        per_q[layer] += 1
    return sum(x * y for x, y in zip(per_p, per_q))


def span_targets(modules) -> list[tuple]:
    """(span name, owner, attribute, sizes) for every traced boundary."""
    abp, products, pit = modules["abp"], modules["products"], modules["pit"]
    matrices, grammars, lab = modules["matrices"], modules["grammars"], modules["lab"]
    polynomials, circuits, cli = modules["polynomials"], modules["circuits"], modules["cli"]
    return [
        ("cli.load", cli, "_read_json", None),
        ("cli.load", cli, "_load_abp", None),
        ("cli.load", cli, "_load_circuit", None),
        ("cli.emit", cli, "_emit", None),
        ("cli.emit", abp.ABP, "to_json", None),
        ("cli.emit", circuits.Circuit, "to_json", None),
        ("abp.homogeneous_parts", abp, "homogeneous_parts",
         lambda r, *a: {"nodes_out": sum(part.node_count() for part in r)}),
        ("abp.normalize_edges", abp, "normalize_edges", _nodes),
        ("abp.abp_sum", abp, "abp_sum", _nodes),
        ("abp.prune", abp, "prune", lambda r, p: {"nodes_in": p.node_count(), "nodes_out": r.node_count()}),
        ("abp.ABP.build", abp.ABP, "build", None),
        ("abp.ABP.evaluate", abp.ABP, "evaluate", None),
        ("abp.coefficient_matrices", abp, "coefficient_matrices", None),
        ("products.hadamard_homogeneous", products, "hadamard_homogeneous",
         lambda r, p, q: {"pairs_tried": _layer_pairs(p, q), "edges_out": r.edge_count()}),
        ("products.hadamard_abp_detailed", products, "hadamard_abp_detailed",
         lambda r, *a: {"unpruned_nodes": r.unpruned.node_count(), "nodes_out": r.abp.node_count()}),
        ("products.hadamard_circuit_abp_detailed", products, "hadamard_circuit_abp_detailed",
         lambda r, *a: {"memo_size": r.memo_size, "gates_out": r.circuit.size()[0]}),
        ("pit.pit_rational", pit, "pit_rational", None),
        ("pit.pit_span_basis", pit, "pit_span_basis", None),
        ("pit.pit_randomized", pit, "pit_randomized", lambda r, *a, **k: {"trials": r.trials or 0}),
        ("matrices.independent_subset", matrices, "independent_subset",
         lambda r, vectors, field: {"vectors_in": len(vectors), "kept": len(r)}),
        ("matrices.Matrix.matmul", matrices.Matrix, "matmul", None),
        ("grammars.cfg_to_circuit", grammars, "cfg_to_circuit", lambda r, *a: {"gates_out": r.size()[0]}),
        ("lab.build_f", lab, "build_f", None),
        ("lab.exp_sum", lab, "exp_sum", None),
        ("lab.correlation_report", lab, "correlation_report", None),
        ("polynomials.corr", polynomials, "corr", None),
        ("polynomials.CPoly.mul", polynomials.CPoly, "mul", None),
    ]


def counter_targets(modules) -> list[tuple]:
    """(counter name, owner, attribute) for every counted call."""
    fields, lab, circuits = modules["fields"], modules["lab"], modules["circuits"]
    out = []
    for name, cls in (("q", Fraction), ("fp", fields.FpElement), ("ext", fields.ExtElement)):
        for op in ("mul", "add"):
            for attr in (f"__{op}__", f"__r{op}__"):
                out.append((f"fields.{name}_{op}", cls, attr))
    out.append(("fields.psi.calls", fields, "psi"))
    out.append(("lab.f_coefficient.calls", lab, "f_coefficient"))
    for attr in ("input", "const", "add", "mul"):
        out.append(("circuits.builder_ops", circuits.CircuitBuilder, attr))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job, sizes]
        self.counts: dict[str, int] = {}
        self.job: Optional[str] = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def run_job(self, job_id: str, fn: Callable, *args):
        """Call fn under a root span named cli.main tagged with job_id."""
        self.job = job_id
        try:
            return self._span_wrapper("cli.main", fn, None)(*args)
        finally:
            self.job = None

    def _span_wrapper(self, name: str, fn: Callable, sizes) -> Callable:
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if sizes is not None:
                rec[5] = sizes(result, *args, **kwargs)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, modules: dict) -> None:
        for name, owner, attr, sizes in span_targets(modules):
            self._rebind(owner, attr, lambda fn, n=name, s=sizes: self._span_wrapper(n, fn, s))
        for name, owner, attr in counter_targets(modules):
            self._rebind(owner, attr, lambda fn, n=name: self._count_wrapper(n, fn))

    def _rebind(self, owner, attr: str, make: Callable) -> None:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("hadamard"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, value))
                    setattr(module, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summaries ---------------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, self_s, incl_s (outermost spans only) and summed sizes."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, _, sizes) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - covered[i]
            if not self._inside(parent, name):
                row["incl_s"] += end - start
            for key, value in (sizes or {}).items():
                row[key] = row.get(key, 0) + value
        return out

    def _inside(self, index: Optional[int], name: str) -> bool:
        while index is not None:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False
