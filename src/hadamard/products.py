"""Hadamard (coefficient-wise) products.

The Hadamard product of two polynomials keeps the monomials common to both,
with multiplied coefficients.  Two constructions are provided:

* branching program x branching program: homogenize both inputs, normalize
  each degree part, and take a layered Cartesian product.  A product-layer
  node is a pair of factor nodes, and the edge between two pairs matches the
  factor labels variable by variable (the coefficient of x_t is the product
  of the factors' coefficients of x_t).  Within each degree the product
  layer sizes are exactly the products of the factor layer sizes.

* circuit x branching program: a circuit for f and a program for g yield a
  circuit for the product, built by running the circuit against every
  interval of the normalized program.  Each memoized sub-result is the
  product of a gate's polynomial with the sub-program between two nodes;
  multiplication gates split the interval at every intermediate node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .abp import (
    ABP,
    LinearForm,
    abp_sum,
    constant_abp,
    homogeneous_parts,
    normalize_edges,
    prune,
    zero_abp,
)
from .circuits import AddGate, Circuit, CircuitBuilder, ConstGate, InputGate
from .errors import ArityMismatchError, FieldMismatchError
from .fields import Field


@dataclass
class DegreeRecord:
    """Layer-size accounting for one degree of the product pipeline."""

    degree: int
    left_sizes: tuple[int, ...]
    right_sizes: tuple[int, ...]
    product_sizes: tuple[int, ...]


@dataclass
class ABPProductResult:
    abp: ABP  # pruned final program
    unpruned: ABP
    per_degree: list[DegreeRecord]


def _check_pair(n1: int, f1: Field, n2: int, f2: Field) -> None:
    if n1 != n2:
        raise ArityMismatchError(f"operands disagree on variable count: {n1} vs {n2}")
    if f1 != f2:
        raise FieldMismatchError("operands disagree on field")


def hadamard_homogeneous(p: ABP, q: ABP) -> ABP:
    """Cartesian product of two homogeneous programs of equal depth.

    Layer w of the result has one node per pair (a, b) of factor nodes,
    indexed a * q_w + b, so its size is exactly p_w * q_w.
    """
    _check_pair(p.n_vars, p.field, q.n_vars, q.field)
    if p.depth != q.depth:
        raise ArityMismatchError(f"depth mismatch: {p.depth} vs {q.depth}")
    field = p.field
    zero = field.zero()
    sizes = [pw * qw for pw, qw in zip(p.layer_sizes, q.layer_sizes)]
    # entries of the same variable pair up: coefficient of x_v is the product
    coeffs: dict[tuple[int, int, int], dict] = {}
    for layer, (pl, ql) in enumerate(zip(p.layers, q.layers)):
        q_from, q_to = q.layer_sizes[layer], q.layer_sizes[layer + 1]
        for v, p_entries in pl.by_var.items():
            q_entries = ql.by_var.get(v, ())
            for a, c, x in p_entries:
                for b, e, y in q_entries:
                    key = (layer, a * q_from + b, c * q_to + e)
                    coeffs.setdefault(key, {})[v] = x * y
    edges = {key: LinearForm(zero, cs) for key, cs in coeffs.items()}
    return ABP.build(p.n_vars, field, sizes, edges)


def hadamard_abp_detailed(p: ABP, q: ABP) -> ABPProductResult:
    """Full pipeline: homogenize, normalize, multiply per degree, sum, prune."""
    _check_pair(p.n_vars, p.field, q.n_vars, q.field)
    field = p.field
    p_parts = homogeneous_parts(p)
    q_parts = homogeneous_parts(q)
    records: list[DegreeRecord] = []
    summands: list[ABP] = []
    for k in range(min(len(p_parts), len(q_parts))):
        pk, qk = p_parts[k], q_parts[k]
        if k == 0:
            pc = pk.label(0, 0, 0)
            qc = qk.label(0, 0, 0)
            c = (pc.const if pc else field.zero()) * (qc.const if qc else field.zero())
            rk = constant_abp(p.n_vars, field, c)
            records.append(
                DegreeRecord(0, pk.layer_sizes, qk.layer_sizes, rk.layer_sizes)
            )
            if c:
                summands.append(rk)
            continue
        pk = normalize_edges(pk)
        qk = normalize_edges(qk)
        rk = hadamard_homogeneous(pk, qk)
        records.append(DegreeRecord(k, pk.layer_sizes, qk.layer_sizes, rk.layer_sizes))
        summands.append(rk)
    unpruned = abp_sum(summands) if summands else zero_abp(p.n_vars, field)
    return ABPProductResult(prune(unpruned), unpruned, records)


def hadamard_abp(p: ABP, q: ABP) -> ABP:
    return hadamard_abp_detailed(p, q).abp


@dataclass
class CircuitProductResult:
    circuit: Circuit
    per_degree: list[tuple[int, Optional[int]]]  # (degree, gate id of that part)
    memo_size: int


def hadamard_circuit_abp_detailed(c: Circuit, p: ABP) -> CircuitProductResult:
    """Circuit computing (polynomial of c) Hadamard (polynomial of p)."""
    _check_pair(c.n_vars, c.field, p.n_vars, p.field)
    field = c.field
    builder = CircuitBuilder(c.n_vars, field)
    parts = homogeneous_parts(p)
    degrees = c.formal_degrees()
    per_degree: list[tuple[int, Optional[int]]] = []
    memo: dict = {}

    # degree 0: the constant terms multiply
    zeros = [field.zero()] * c.n_vars
    c0 = c.evaluate(zeros) * p.evaluate(zeros)
    g0 = builder.const(c0)
    per_degree.append((0, g0))

    for k in range(1, min(c.formal_degree(), p.depth, len(parts) - 1) + 1):
        part = prune(parts[k])
        if part.depth != k:  # degree-k component is identically zero
            per_degree.append((k, None))
            continue
        part = normalize_edges(part)

        def result_gate(gi: int, i: int, a: int, j: int, b: int) -> Optional[int]:
            """Gate id for (gate gi's polynomial) o (sub-program (i,a)->(j,b))."""
            key = (k, gi, i, a, j, b)
            if key in memo:
                return memo[key]
            gate = c.gates[gi]
            length = j - i
            out: Optional[int] = None
            if isinstance(gate, ConstGate):
                if length == 0 and a == b:
                    out = builder.const(gate.value)
            elif isinstance(gate, InputGate):
                if length == 1:
                    form = part.label(i, a, b)
                    coeff = form.coeffs.get(gate.var) if form else None
                    if coeff:
                        out = builder.mul(builder.const(coeff), builder.input(gate.var))
            elif isinstance(gate, AddGate):
                out = builder.add(
                    result_gate(gate.left, i, a, j, b),
                    result_gate(gate.right, i, a, j, b),
                )
            else:  # MulGate: split the interval at every node of every split layer
                pieces = []
                for m in range(i, j + 1):
                    if degrees[gate.left] < m - i or degrees[gate.right] < j - m:
                        continue
                    if m == i:
                        candidates = [a]
                    elif m == j:
                        candidates = [b]
                    else:
                        candidates = range(part.layer_sizes[m])
                    for t in candidates:
                        left = result_gate(gate.left, i, a, m, t)
                        if left is None:
                            continue
                        right = result_gate(gate.right, m, t, j, b)
                        pieces.append(builder.mul(left, right))
                out = builder.add_many(pieces)
            memo[key] = out
            return out

        per_degree.append((k, result_gate(c.output, 0, 0, k, 0)))

    total = builder.add_many([g for _, g in per_degree])
    return CircuitProductResult(builder.finish(total), per_degree, len(memo))


def hadamard_circuit_abp(c: Circuit, p: ABP) -> Circuit:
    return hadamard_circuit_abp_detailed(c, p).circuit
