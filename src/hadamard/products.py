"""Hadamard (coefficient-wise) products.

The Hadamard product of two polynomials keeps the monomials common to both,
with multiplied coefficients.  Two constructions are provided:

* branching program x branching program: homogenize both inputs, normalize
  each degree part, and take a layered Cartesian product.  A product-layer
  node is a pair of factor nodes, and the edge between two pairs matches the
  factor labels variable by variable (the coefficient of x_t is the product
  of the factors' coefficients of x_t).  Within each degree the product
  layer sizes are exactly the products of the factor layer sizes.  The
  degree parts are summed as ``abp_sum`` does and pruned as ``prune`` does,
  but liveness comes before labels: which product nodes lie on a
  source-to-sink path follows from the arcs alone, so only the live arcs
  have their coefficients multiplied, and the result is built once.

* circuit x branching program: a circuit for f and a program for g yield a
  circuit for the product, built by running the circuit against every
  interval of the normalized program.  Each memoized sub-result is the
  product of a gate's polynomial with the sub-program between two nodes;
  multiplication gates split the interval at every intermediate node.  The
  sub-results are worked out depth first on an explicit stack of
  generators, not by recursion, so a circuit may be any number of gates
  deep.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from .abp import (
    ABP,
    LinearForm,
    homogeneous_parts,
    live_nodes,
    normalize_edges,
    prune,
    pruned_edges,
    sum_edges,
    sum_layout,
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
    per_degree: list[DegreeRecord]
    unpruned_nodes: int  # node count of the summed program before pruning
    build_unpruned: Callable[[], ABP]

    @cached_property
    def unpruned(self) -> ABP:
        """The summed program before pruning, built on first use."""
        return self.build_unpruned()


def _check_pair(n1: int, f1: Field, n2: int, f2: Field) -> None:
    if n1 != n2:
        raise ArityMismatchError(f"operands disagree on variable count: {n1} vs {n2}")
    if f1 != f2:
        raise FieldMismatchError("operands disagree on field")


def product_arcs(p: ABP, q: ABP) -> dict:
    """Arcs of the Cartesian product of two homogeneous programs of equal
    depth, before any coefficient is multiplied.

    Maps (layer, a * q_from + b, c * q_to + e) to the entries (v, x, y) that
    pair p's entry x on (a, c) with q's entry y on (b, e) for variable v;
    the arc's label has x_v coefficient x * y.
    """
    arcs: dict[tuple[int, int, int], list] = {}
    for layer, (pl, ql) in enumerate(zip(p.layers, q.layers)):
        q_from, q_to = q.layer_sizes[layer], q.layer_sizes[layer + 1]
        for v, p_entries in pl.by_var.items():
            q_entries = ql.by_var.get(v, ())
            for a, c, x in p_entries:
                for b, e, y in q_entries:
                    arcs.setdefault((layer, a * q_from + b, c * q_to + e), []).append((v, x, y))
    return arcs


def product_label(zero, entries: list) -> LinearForm:
    """The label of a product arc from its entries (v, x, y) in ``product_arcs``."""
    return LinearForm(zero, {v: x * y for v, x, y in entries})


def hadamard_homogeneous(p: ABP, q: ABP) -> ABP:
    """Cartesian product of two homogeneous programs of equal depth.

    Layer w of the result has one node per pair (a, b) of factor nodes,
    indexed a * q_w + b, so its size is exactly p_w * q_w.
    """
    _check_pair(p.n_vars, p.field, q.n_vars, q.field)
    if p.depth != q.depth:
        raise ArityMismatchError(f"depth mismatch: {p.depth} vs {q.depth}")
    zero = p.field.zero()
    sizes = [pw * qw for pw, qw in zip(p.layer_sizes, q.layer_sizes)]
    edges = {key: product_label(zero, entries) for key, entries in product_arcs(p, q).items()}
    return ABP.build(p.n_vars, p.field, sizes, edges)


def hadamard_abp_detailed(p: ABP, q: ABP) -> ABPProductResult:
    """Homogenize, normalize, multiply per degree, sum and prune.

    The result is what ``prune(abp_sum(...))`` of the per-degree
    ``hadamard_homogeneous`` products gives, but liveness is worked out on
    the summed layout's arcs first, and only the live arcs are labelled and
    built, once.
    """
    _check_pair(p.n_vars, p.field, q.n_vars, q.field)
    n_vars, field = p.n_vars, p.field
    zero = field.zero()
    p_parts = homogeneous_parts(p)
    q_parts = p_parts if q is p else homogeneous_parts(q)
    records: list[DegreeRecord] = []
    summands: list[tuple[tuple[int, ...], dict]] = []  # layer sizes, arc -> form or entries
    for k in range(min(len(p_parts), len(q_parts))):
        pk, qk = p_parts[k], q_parts[k]
        if k == 0:
            pc = pk.label(0, 0, 0)
            qc = qk.label(0, 0, 0)
            c = (pc.const if pc else zero) * (qc.const if qc else zero)
            records.append(DegreeRecord(0, pk.layer_sizes, qk.layer_sizes, (1, 1)))
            if c:
                summands.append(((1, 1), {(0, 0, 0): LinearForm.constant(field, c)}))
            continue
        pk = normalize_edges(pk)
        qk = pk if q is p else normalize_edges(qk)
        sizes = tuple(pw * qw for pw, qw in zip(pk.layer_sizes, qk.layer_sizes))
        records.append(DegreeRecord(k, pk.layer_sizes, qk.layer_sizes, sizes))
        summands.append((sizes, product_arcs(pk, qk)))
    if not summands:
        none = zero_abp(n_vars, field)
        return ABPProductResult(none, records, none.node_count(), lambda: none)

    layer_sizes, chain, placements = sum_layout([sizes for sizes, _ in summands])
    one_form = LinearForm.constant(field, 1)

    def summed():
        return sum_edges(chain, placements, [arcs.items() for _, arcs in summands], one_form)

    def labelled(items):
        """Items with product entries made into their labels; the chain's
        and the constant part's values are labels already."""
        for key, value in items:
            yield key, value if isinstance(value, LinearForm) else product_label(zero, value)

    def unpruned() -> ABP:
        return ABP.build(n_vars, field, layer_sizes, labelled(summed()))

    alive = live_nodes(len(layer_sizes) - 1, summed())
    if alive is None:
        return ABPProductResult(zero_abp(n_vars, field), records, sum(layer_sizes), unpruned)
    live_sizes = [len(nodes) for nodes in alive]
    pruned = ABP.build(n_vars, field, live_sizes, labelled(pruned_edges(alive, summed())))
    return ABPProductResult(pruned, records, sum(layer_sizes), unpruned)


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
    gates = c.gates
    degrees = c.formal_degrees()
    # interval length a leaf's sub-result needs to be nonzero; None for add/mul gates
    leaf_length = [
        0 if isinstance(g, ConstGate) else 1 if isinstance(g, InputGate) else None for g in gates
    ]
    per_degree: list[tuple[int, Optional[int]]] = []
    memo: dict = {}
    missing = object()

    # degree 0: the constant terms multiply
    zeros = [field.zero()] * c.n_vars
    c0 = c.evaluate(zeros) * p.evaluate(zeros)
    g0 = builder.const(c0)
    per_degree.append((0, g0))

    for k in range(1, min(degrees[c.output], p.depth, len(parts) - 1) + 1):
        part = prune(parts[k])
        if part.depth != k:  # degree-k component is identically zero
            per_degree.append((k, None))
            continue
        part = normalize_edges(part)

        def leaf(key: tuple) -> None:
            """Store in the memo the gate id for (constant or input gate gi) o
            (sub-program (i,a)->(j,b)): None unless the interval has the
            gate's length (0 for a constant, 1 for an input)."""
            _, gi, i, a, j, b = key
            gate = gates[gi]
            if j - i != leaf_length[gi]:
                out = None
            elif isinstance(gate, ConstGate):
                out = builder.const(gate.value) if a == b else None
            else:
                form = part.label(i, a, b)
                coeff = form.coeffs.get(gate.var) if form else None
                out = builder.mul(builder.const(coeff), builder.input(gate.var)) if coeff else None
            memo[key] = out

        def expand(key: tuple):
            """Store in the memo the gate id for (add or mul gate gi) o
            (sub-program (i,a)->(j,b)).  The memo is probed here, and a leaf
            child whose interval length rules it out is zero without a probe;
            a missing sub-result is yielded as its key."""
            _, gi, i, a, j, b = key
            gate = gates[gi]
            if isinstance(gate, AddGate):
                subs = []
                for g in (gate.left, gate.right):
                    need = leaf_length[g]
                    sub = None
                    if need is None or need == j - i:
                        sub_key = (k, g, i, a, j, b)
                        sub = memo.get(sub_key, missing)
                        if sub is missing:
                            yield sub_key
                            sub = memo[sub_key]
                    subs.append(sub)
                out = builder.add(*subs)
            else:  # MulGate: split the interval at every node of every split layer
                left, right = gate.left, gate.right
                left_need, right_need = leaf_length[left], leaf_length[right]
                pieces = []
                for m in range(i, j + 1):
                    if degrees[left] < m - i or degrees[right] < j - m:
                        continue
                    if left_need is not None and left_need != m - i:
                        continue
                    if m == i:
                        candidates = [a]
                    elif m == j:
                        candidates = [b]
                    else:
                        candidates = range(part.layer_sizes[m])
                    # the left factor is built even where the right one is zero
                    right_zero = right_need is not None and right_need != j - m
                    for t in candidates:
                        sub_key = (k, left, i, a, m, t)
                        lhs = memo.get(sub_key, missing)
                        if lhs is missing:
                            yield sub_key
                            lhs = memo[sub_key]
                        if lhs is None or right_zero:
                            continue
                        sub_key = (k, right, m, t, j, b)
                        rhs = memo.get(sub_key, missing)
                        if rhs is missing:
                            yield sub_key
                            rhs = memo[sub_key]
                        if rhs is not None:
                            pieces.append(builder.mul(lhs, rhs))
                out = builder.add_many(pieces)
            memo[key] = out

        root = (k, c.output, 0, 0, k, 0)
        if leaf_length[c.output] is not None:
            leaf(root)
        else:
            # depth first on an explicit stack of generators: a generator
            # yields the key of a missing sub-result and reads it from the
            # memo when resumed; a leaf is worked out at once
            stack = [expand(root)]
            while stack:
                key = next(stack[-1], None)
                if key is None:
                    stack.pop()
                elif leaf_length[key[1]] is not None:
                    leaf(key)
                else:
                    stack.append(expand(key))
        per_degree.append((k, memo[root]))

    total = builder.add_many([g for _, g in per_degree])
    memo_size = len(memo)
    memo.clear()  # before the circuit is validated and copied
    return CircuitProductResult(builder.finish(total), per_degree, memo_size)


def hadamard_circuit_abp(c: Circuit, p: ABP) -> Circuit:
    return hadamard_circuit_abp_detailed(c, p).circuit
