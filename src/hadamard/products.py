"""Hadamard (coefficient-wise) products.

The Hadamard product of two polynomials keeps the monomials common to both,
with multiplied coefficients.  Two constructions are provided:

* branching program x branching program: homogenize both inputs, normalize
  each degree part, and take a layered Cartesian product.  A product-layer
  node is a pair of factor nodes, and the edge between two pairs matches the
  factor labels variable by variable (the coefficient of x_t is the product
  of the factors' coefficients of x_t).  Within each degree the product
  layer sizes are exactly the products of the factor layer sizes, but arcs
  are grown forward from the source pair only out of pairs already
  reached.  Each degree is then pruned backward, its live arcs have their
  coefficients multiplied, and the rest are dropped before the next degree
  is paired, so one degree's unpruned arcs are held at a time.  The pruned
  parts are summed as ``abp_sum`` does, at the depth of the deepest degree
  paired, which is what pruning the sum of the unpruned parts gives, and
  the result is built once.

* circuit x branching program: a circuit for f and a program for g yield a
  circuit for the product, built by running the circuit against every
  interval of the normalized program, one degree at a time.  Each memoized
  sub-result is the product of a gate's polynomial with the sub-program
  between two nodes; multiplication gates split the interval at every node
  of the layers their factors' degrees allow.  A split's left factor does
  not depend on the interval's end node, so the nonzero ones are kept per
  start node and end layer, and later end nodes pair only those.  The
  sub-results are worked out depth first on an explicit stack of
  generators, not by recursion, so a circuit may be any number of gates
  deep.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .abp import (
    ABP,
    LinearForm,
    abp_sum,
    constant_abp,
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
    # in degree order: the constant part's program, then each normalized
    # factor pair (p_k, q_k) whose Cartesian product is a summand
    summands: list

    @cached_property
    def unpruned(self) -> ABP:
        """The summed program before pruning, built from the summands on
        first use: ``abp_sum`` of the constant program and of
        ``hadamard_homogeneous`` of each pair."""
        if not self.summands:
            return self.abp
        return abp_sum([s if isinstance(s, ABP) else hadamard_homogeneous(*s) for s in self.summands])


def _check_pair(n1: int, f1: Field, n2: int, f2: Field) -> None:
    if n1 != n2:
        raise ArityMismatchError(f"operands disagree on variable count: {n1} vs {n2}")
    if f1 != f2:
        raise FieldMismatchError("operands disagree on field")


def product_arcs(p: ABP, q: ABP) -> dict:
    """Arcs of the Cartesian product of two homogeneous programs of equal
    depth out of the pairs reachable from the source pair (0, 0), before
    any coefficient is multiplied.

    Maps (layer, a * q_from + b, c * q_to + e) to the entries (v, x, y) that
    pair p's entry x on (a, c) with q's entry y on (b, e) for variable v;
    the arc's label has x_v coefficient x * y.  Each layer pairs entries
    only out of the pairs the layer before reached, so an arc out of an
    unreachable pair is never made; arcs and entries come in the order of
    the all-pairs loop over variables, p's entries and q's entries.
    """
    arcs: dict[tuple[int, int, int], list] = {}
    reached = {0}
    for layer, (pl, ql) in enumerate(zip(p.layers, q.layers)):
        q_from, q_to = q.layer_sizes[layer], q.layer_sizes[layer + 1]
        partners: dict[int, set] = {}  # p node -> the q nodes paired with it so far
        for node in reached:
            a, b = divmod(node, q_from)
            partners.setdefault(a, set()).add(b)
        reached = set()
        for v, p_entries in pl.by_var.items():
            q_entries = ql.by_var.get(v)
            if not q_entries:
                continue
            mates: dict[int, list] = {}  # p node -> q's entries out of its partners
            for a, c, x in p_entries:
                ys = mates.get(a)
                if ys is None:
                    bs = partners.get(a, ())
                    ys = mates[a] = [(b, e, y) for b, e, y in q_entries if b in bs]
                src, dst = a * q_from, c * q_to
                for b, e, y in ys:
                    key = (layer, src + b, dst + e)
                    entries = arcs.get(key)
                    if entries is None:
                        arcs[key] = [(v, x, y)]
                        reached.add(dst + e)
                    else:
                        entries.append((v, x, y))
        if not reached:
            break
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
    ``hadamard_homogeneous`` products gives.  Each degree's arcs are grown
    forward from the source pair and pruned backward before the next
    degree is paired; only its live arcs are labelled, and the pruned parts
    are laid out and built once.  A part's node is live in the sum exactly
    when it is live in the part, and the chain reaches down to the
    shallowest live part, so the pruned sum is the sum of the pruned parts
    at the depth of the deepest part paired.
    """
    _check_pair(p.n_vars, p.field, q.n_vars, q.field)
    n_vars, field = p.n_vars, p.field
    zero = field.zero()
    p_parts = homogeneous_parts(p)
    q_parts = p_parts if q is p else homogeneous_parts(q)
    records: list[DegreeRecord] = []
    sizes_of: list[tuple] = []  # layer sizes per summand
    summands: list = []  # the constant program or the normalized factor pair per summand
    live: list[tuple] = []  # per summand with a source-to-sink path: (live layer sizes, labelled live arcs)
    for k in range(min(len(p_parts), len(q_parts))):
        pk, qk = p_parts[k], q_parts[k]
        if k == 0:
            pc = pk.label(0, 0, 0)
            qc = qk.label(0, 0, 0)
            c = (pc.const if pc else zero) * (qc.const if qc else zero)
            records.append(DegreeRecord(0, pk.layer_sizes, qk.layer_sizes, (1, 1)))
            if c:
                const = constant_abp(n_vars, field, c)
                sizes_of.append(const.layer_sizes)
                summands.append(const)
                live.append((const.layer_sizes, list(const.edges.items())))
            continue
        pk = normalize_edges(pk)
        qk = pk if q is p else normalize_edges(qk)
        sizes = tuple(pw * qw for pw, qw in zip(pk.layer_sizes, qk.layer_sizes))
        records.append(DegreeRecord(k, pk.layer_sizes, qk.layer_sizes, sizes))
        sizes_of.append(sizes)
        summands.append((pk, qk))
        arcs = product_arcs(pk, qk)
        alive = live_nodes(k, arcs.items())
        if alive is not None:
            kept = pruned_edges(alive, arcs.items())
            live.append(([len(nodes) for nodes in alive], [(key, product_label(zero, es)) for key, es in kept]))
        del arcs  # before the next degree's arcs are grown
    if not summands:
        none = zero_abp(n_vars, field)
        return ABPProductResult(none, records, none.node_count(), summands)

    layer_sizes = sum_layout(sizes_of)[0]
    if not live:
        return ABPProductResult(zero_abp(n_vars, field), records, sum(layer_sizes), summands)
    live_sizes, live_chain, live_placements = sum_layout([sizes for sizes, _ in live], len(layer_sizes) - 1)
    one_form = LinearForm.constant(field, 1)
    edges = sum_edges(live_chain, live_placements, [items for _, items in live], one_form)
    return ABPProductResult(ABP.build(n_vars, field, live_sizes, edges), records, sum(layer_sizes), summands)


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
    kind = [type(g) for g in gates]
    lefts = [getattr(g, "left", None) for g in gates]
    rights = [getattr(g, "right", None) for g in gates]
    # interval length a leaf's sub-result needs to be nonzero; None for add/mul gates
    leaf_length = [0 if t is ConstGate else 1 if t is InputGate else None for t in kind]
    per_degree: list[tuple[int, Optional[int]]] = []
    memo: dict = {}  # (gate, i, a, j, b) -> gate id of the sub-result, for one degree
    # (mul gate, i, a, j) -> ([(m, t, left factor)], split at j): the nonzero
    # left factors on split layers m < j whose right factor may be nonzero,
    # and whether layer j is a split layer, for one degree
    left_factors: dict = {}
    memo_size = 0
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
        sizes = part.layer_sizes
        memo.clear()
        left_factors.clear()

        def leaf(key: tuple) -> None:
            """Store in the memo the gate id for (constant or input gate gi) o
            (sub-program (i,a)->(j,b)): None unless the interval has the
            gate's length (0 for a constant, 1 for an input)."""
            gi, i, a, j, b = key
            out = None
            if j - i == leaf_length[gi]:
                gate = gates[gi]
                if kind[gi] is ConstGate:
                    if a == b:
                        out = builder.const(gate.value)
                else:
                    form = part.label(i, a, b)
                    coeff = form.coeffs.get(gate.var) if form else None
                    if coeff:
                        out = builder.mul(builder.const(coeff), builder.input(gate.var))
            memo[key] = out

        def expand(key: tuple):
            """Store in the memo the gate id for (add or mul gate gi) o
            (sub-program (i,a)->(j,b)).  The memo is probed here, and a leaf
            child whose interval length rules it out is zero without a probe;
            a missing sub-result is yielded as its key."""
            gi, i, a, j, b = key
            if kind[gi] is AddGate:
                subs = []
                for g in (lefts[gi], rights[gi]):
                    need = leaf_length[g]
                    sub = None
                    if need is None or need == j - i:
                        sub_key = (g, i, a, j, b)
                        sub = memo.get(sub_key, missing)
                        if sub is missing:
                            yield sub_key
                            sub = memo[sub_key]
                    subs.append(sub)
                memo[key] = builder.add(*subs)
                return
            # MulGate: split the interval at every node of every split layer
            # m the factors' degrees allow, the left factor on i..m
            left, right = lefts[gi], rights[gi]
            right_need = leaf_length[right]
            pieces = []
            head = (gi, i, a, j)
            found = left_factors.get(head)
            if found is None:
                # the first end node probes every left factor before j, in
                # order; later end nodes find them all in the memo
                lo, hi = max(i, j - degrees[right]), min(j, i + degrees[left])
                left_need = leaf_length[left]
                if left_need is not None:
                    lo, hi = max(lo, i + left_need), min(hi, i + left_need)
                kept = []
                for m in range(lo, min(hi, j - 1) + 1):
                    # the left factor is built even where the right one is zero
                    right_zero = right_need is not None and right_need != j - m
                    for t in [a] if m == i else range(sizes[m]):
                        sub_key = (left, i, a, m, t)
                        lhs = memo.get(sub_key, missing)
                        if lhs is missing:
                            yield sub_key
                            lhs = memo[sub_key]
                        if lhs is None or right_zero:
                            continue
                        kept.append((m, t, lhs))
                        sub_key = (right, m, t, j, b)
                        rhs = memo.get(sub_key, missing)
                        if rhs is missing:
                            yield sub_key
                            rhs = memo[sub_key]
                        if rhs is not None:
                            pieces.append(builder.mul(lhs, rhs))
                split_at_j = lo <= hi == j
                left_factors[head] = kept, split_at_j
            else:
                kept, split_at_j = found
                for m, t, lhs in kept:
                    sub_key = (right, m, t, j, b)
                    rhs = memo.get(sub_key, missing)
                    if rhs is missing:
                        yield sub_key
                        rhs = memo[sub_key]
                    if rhs is not None:
                        pieces.append(builder.mul(lhs, rhs))
            if split_at_j:  # its left factor ends at b
                t = a if i == j else b
                sub_key = (left, i, a, j, t)
                lhs = memo.get(sub_key, missing)
                if lhs is missing:
                    yield sub_key
                    lhs = memo[sub_key]
                if lhs is not None and right_need in (None, 0):
                    sub_key = (right, j, t, j, b)
                    rhs = memo.get(sub_key, missing)
                    if rhs is missing:
                        yield sub_key
                        rhs = memo[sub_key]
                    if rhs is not None:
                        pieces.append(builder.mul(lhs, rhs))
            memo[key] = builder.add_many(pieces)

        root = (c.output, 0, 0, k, 0)
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
                elif leaf_length[key[0]] is not None:
                    leaf(key)
                else:
                    stack.append(expand(key))
        per_degree.append((k, memo[root]))
        memo_size += len(memo)

    memo.clear()
    left_factors.clear()
    total = builder.add_many([g for _, g in per_degree])
    return CircuitProductResult(builder.finish(total), per_degree, memo_size)
