"""Hadamard (coefficient-wise) products.

The Hadamard product of two polynomials keeps the monomials common to both,
with multiplied coefficients.  Two constructions are provided:

* branching program x branching program: homogenize both inputs up to the
  other's depth, the highest degree a common monomial can have, normalize
  each degree part, and take a layered Cartesian product.  A product-layer
  node is a pair of factor nodes, and per variable the product's matrix is
  the Kronecker product of the factors' matrices.  Within each degree the
  product layer sizes are exactly the products of the factor layer sizes,
  but arcs are grown forward from the source pair only out of pairs already
  reached, holding the factors' entries x and y unmultiplied.  Each degree
  is then pruned backward, only its live arcs become entries x * y, and the
  rest are dropped before the next degree is paired, so one degree's
  unpruned arcs are held at a time.  The pruned parts are summed as
  ``abp_sum`` does, at the depth of the deepest degree paired, which is
  what pruning the sum of the unpruned parts gives.

* circuit x branching program: a circuit for f and a program for g yield a
  circuit for the product, built by running the circuit against every
  interval of the normalized program, one degree at a time, for the
  degrees up to the lower of the output's formal degree and the program's
  depth, which are the only degree parts laid out.  Each memoized
  sub-result is the product of a gate's polynomial with the sub-program
  between two nodes.  A constant or input gate's is nonzero only on an
  interval of its own length, 0 or 1; an addition gate adds its children's
  on the same interval, and a multiplication gate splits the interval at
  every node of the layers its factors' degrees allow.  A split's left
  factor does not depend on the interval's end node, so the nonzero ones
  are kept per start node and end layer, and later end nodes pair only
  those.  A later end node b also passes over a kept split whose right
  factor lies on a single step (m, t) -> (j, b) that carries none of the
  variables the right gate reads, itself or through a gate below it.  This
  changes no output byte, for two reasons.  First, by induction over the
  gates, a sub-result on (i, a) -> (j, b) is nonzero only along a path from
  a to b each of whose steps carries a variable its gate reads, so that
  right factor is zero, and so is the sub-result on that step of every gate
  below it.  Second, fetching it could then emit only sub-results on the
  empty interval at (m, t), which do not depend on b; the first end node,
  whose splits are kept only once it has fetched them all, fetched the same
  right gate on a single step out of (m, t), and with it every one of
  those, so they are all memoized.  At the first end node no
  such fetch need have been made yet, so the first end node fetches every
  right factor.  A gate's variables are a bitmask over the variables the
  program's entries carry, OR-ed up from its inputs.  The masks start at
  degree 2: a degree-1 part has a single end node, so only a restart meets
  a kept split there, and a mask would save no fetch.  When no part of
  degree 2 or more is read, every mask is -1, and only steps with no entry
  are passed over.

  An addition or multiplication sub-result fetches each sub-result it needs
  by a plain call, depth first.  The call stack holds at most
  ``CHECKPOINT_STEP`` gates' calls, so a circuit may be any number of gates
  deep: every chain of reads meets a checkpoint gate at least once every
  ``CHECKPOINT_STEP`` addition or multiplication gates, and a checkpoint
  sub-result not yet worked out unwinds the stack to the degree's driver.
  The driver keeps every interrupted sub-result, works the checkpoint's out
  first, and then starts each interrupted one again, innermost first.  A
  restart emits no gate twice, since every sub-result and split product
  made before the interruption is memoized.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .abp import (
    ABP,
    Layer,
    abp_sum,
    constant_abp,
    constant_value,
    homogeneous_parts,
    laid_out_sum,
    layers_of,
    live_nodes,
    normalize_edges,
    prune,
    pruned_edges,
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


def product_arcs(p: ABP, q: ABP) -> list:
    """Arcs of the Cartesian product of two homogeneous programs of equal
    depth out of the pairs reachable from the source pair (0, 0), before
    any coefficient is multiplied.

    One item ((layer, a * q_from + b, c * q_to + e), (v, x, y)) pairs p's
    entry x on (a, c) with q's entry y on (b, e) for variable v; the
    product's entry of v on the arc is x * y.  Each layer pairs entries only
    out of the pairs the layer before reached, so an arc out of an
    unreachable pair is never made; items come in the order of the
    all-pairs loop over variables, p's entries and q's entries.
    """
    arcs: list = []
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
                    arcs.append(((layer, src + b, dst + e), (v, x, y)))
                    reached.add(dst + e)
        if not reached:
            break
    return arcs


def product_layers(depth: int, arcs) -> list[Layer]:
    """The layers of product arc items ((layer, from, to), (v, x, y)):
    entry x * y of variable v on (from, to) for each."""
    return layers_of(depth, ((key, (v, x * y)) for key, (v, x, y) in arcs))


def hadamard_homogeneous(p: ABP, q: ABP) -> ABP:
    """Cartesian product of two homogeneous programs of equal depth.

    Layer w of the result has one node per pair (a, b) of factor nodes,
    indexed a * q_w + b, so its size is exactly p_w * q_w.
    """
    _check_pair(p.n_vars, p.field, q.n_vars, q.field)
    if p.depth != q.depth:
        raise ArityMismatchError(f"depth mismatch: {p.depth} vs {q.depth}")
    sizes = tuple(pw * qw for pw, qw in zip(p.layer_sizes, q.layer_sizes))
    return ABP(p.n_vars, p.field, sizes, product_layers(p.depth, product_arcs(p, q)))


def hadamard_abp_detailed(p: ABP, q: ABP) -> ABPProductResult:
    """Homogenize, normalize, multiply per degree, sum and prune.

    The result is what ``prune(abp_sum(...))`` of the per-degree
    ``hadamard_homogeneous`` products gives.  Each degree's arcs are grown
    forward from the source pair and pruned backward before the next
    degree is paired; only its live arcs become entries, and the pruned
    parts are laid out once.  A part's node is live in the sum exactly
    when it is live in the part, and the chain reaches down to the
    shallowest live part, so the pruned sum is the sum of the pruned parts
    at the depth of the deepest part paired.
    """
    _check_pair(p.n_vars, p.field, q.n_vars, q.field)
    n_vars, field = p.n_vars, p.field
    p_parts = homogeneous_parts(p, q.depth)
    q_parts = p_parts if q is p else homogeneous_parts(q, p.depth)
    records: list[DegreeRecord] = []
    sizes_of: list[tuple] = []  # layer sizes per summand
    summands: list = []  # the constant program or the normalized factor pair per summand
    live: list[tuple] = []  # per summand with a source-to-sink path: (live layer sizes, live layers)
    for k, (pk, qk) in enumerate(zip(p_parts, q_parts)):
        if k == 0:
            c = constant_value(pk) * constant_value(qk)
            records.append(DegreeRecord(0, pk.layer_sizes, qk.layer_sizes, (1, 1)))
            if c:
                const = constant_abp(n_vars, field, c)
                sizes_of.append(const.layer_sizes)
                summands.append(const)
                live.append((const.layer_sizes, const.layers))
            continue
        pk = normalize_edges(pk)
        qk = pk if q is p else normalize_edges(qk)
        sizes = tuple(pw * qw for pw, qw in zip(pk.layer_sizes, qk.layer_sizes))
        records.append(DegreeRecord(k, pk.layer_sizes, qk.layer_sizes, sizes))
        sizes_of.append(sizes)
        summands.append((pk, qk))
        arcs = product_arcs(pk, qk)
        alive = live_nodes(k, (key for key, _ in arcs))
        if alive is not None:
            live.append(([len(nodes) for nodes in alive], product_layers(k, pruned_edges(alive, arcs))))
        del arcs  # before the next degree's arcs are grown
    layer_sizes = sum_layout(sizes_of)[0] if sizes_of else [1, 1]
    pruned = laid_out_sum(n_vars, field, live, len(layer_sizes) - 1) if live else zero_abp(n_vars, field)
    return ABPProductResult(pruned, records, sum(layer_sizes), summands)


@dataclass
class CircuitProductResult:
    circuit: Circuit
    per_degree: list[tuple[int, Optional[int]]]  # (degree, gate id of that part)
    memo_size: int


# the most add/mul gates the circuit product's call stack holds at once (see
# ``hadamard_circuit_abp_detailed``)
CHECKPOINT_STEP = 64


class _Unwind(Exception):
    """Raised by the circuit product on a checkpoint sub-result that is not
    yet worked out, so its driver works it out first.  ``keys`` holds that
    sub-result, then each interrupted sub-result from the innermost out."""

    def __init__(self, key):
        self.keys = [key]


def hadamard_circuit_abp_detailed(c: Circuit, p: ABP) -> CircuitProductResult:
    """Circuit computing (polynomial of c) Hadamard (polynomial of p)."""
    _check_pair(c.n_vars, c.field, p.n_vars, p.field)
    field = c.field
    builder = CircuitBuilder(c.n_vars, field)
    mul = builder.mul
    gates = c.gates
    degrees = c.formal_degrees()
    parts = homogeneous_parts(p, degrees[c.output])
    kind = [type(g) for g in gates]
    lefts = [getattr(g, "left", None) for g in gates]
    rights = [getattr(g, "right", None) for g in gates]
    # interval length a leaf's sub-result needs to be nonzero; None for add/mul gates
    leaf_length = [0 if t is ConstGate else 1 if t is InputGate else None for t in kind]
    # per add/mul gate, the fewest layers its left child's sub-result spans:
    # the child's length if it is a leaf, else 0
    left_least = [0 if left is None else leaf_length[left] or 0 for left in lefts]
    # reads[g] has a bit for each variable that gate g or a gate below it
    # reads, of those the program's entries carry: bit index[v] for variable
    # v, so no mask is wider than the program's variable set.  Every mask is
    # -1 when no part of degree 2 or more is read (see the module docstring)
    masked = len(parts) > 2
    index = {v: n for n, v in enumerate(dict.fromkeys(v for lay in p.layers for v in lay.by_var))}
    # a checkpoint's sub-results are worked out by the driver, not by their
    # caller.  run[g] counts the add/mul gates, g included, on the longest
    # chain of reads down from g that meets no checkpoint, and a gate whose
    # run reaches CHECKPOINT_STEP is a checkpoint; a read that is not of a
    # checkpoint has a shorter run than its reader, so the call stack holds
    # at most CHECKPOINT_STEP gates' frames.  A gate that reads a checkpoint,
    # itself or through the gates its run covers, may be interrupted and
    # started again.
    step = CHECKPOINT_STEP
    run = [0] * len(gates)
    restartable = [False] * len(gates)
    reads = [0 if masked else -1] * len(gates)
    for g, need in enumerate(leaf_length):
        if need is None:
            left, right = lefts[g], rights[g]
            run[g] = 1 + max(run[left] % step, run[right] % step)
            restartable[g] = run[left] == step or run[right] == step or restartable[left] or restartable[right]
            reads[g] = reads[left] | reads[right]
        elif need and masked and gates[g].var in index:
            reads[g] = 1 << index[gates[g].var]
    checkpoint = [n == step for n in run]

    # degree 0: the constant terms multiply
    zero = field.zero()
    c0 = c.fold(lambda var: zero, lambda value: value, operator.add, operator.mul)[c.output]
    per_degree: list[tuple[int, Optional[int]]] = [(0, builder.const(c0 * constant_value(parts[0])))]
    memo_size = 0

    for k in range(1, len(parts)):
        part = prune(parts[k])
        if part.depth != k:  # degree-k component is identically zero
            per_degree.append((k, None))
            continue
        part = normalize_edges(part)
        sizes = part.layer_sizes
        # (layer, from, to, variable) -> the part's coefficient there, and
        # (layer, from, to) -> the bits of the variables its entries carry there
        coeff_at: dict = {}
        step_reads: dict = {}
        for i, lay in enumerate(part.layers):
            for v, es in lay.by_var.items():
                v_bit = 1 << index[v]
                for a, b, x in es:
                    coeff_at[i, a, b, v] = x
                    step_reads[i, a, b] = step_reads.get((i, a, b), 0) | v_bit
        memo: dict = {}  # (gate, i, a, j, b) -> gate id of the sub-result
        # (mul gate, i, a, j) -> ([(m, t, left factor)], split at j): the nonzero
        # left factors on split layers m < j whose right factor may be nonzero,
        # and whether layer j is a split layer
        left_factors: dict = {}
        # (restartable mul gate, i, a, j, b, m, t) -> gate id of the split
        # product on node t of layer m, so a restart does not emit it again
        splits: dict = {}

        # an empty interval (i, a) -> (i, b) always has a == b: the root runs
        # from (0, 0) to (k, 0) with k >= 1, a split at its start layer i
        # splits at a, and a split at its end layer j at b
        def leaf(gi, i, a, j, b):
            """The gate id for (constant or input gate gi) o (sub-program
            (i,a)->(j,b)), memoized when the interval has the gate's length
            (0 for a constant, 1 for an input); None, unmemoized, when not."""
            if j - i != leaf_length[gi]:
                return None
            gate = gates[gi]
            if kind[gi] is ConstGate:
                out = builder.const(gate.value)
            else:
                coeff = coeff_at.get((i, a, b, gate.var))
                out = mul(builder.const(coeff), builder.input(gate.var)) if coeff else None
            memo[gi, i, a, j, b] = out
            return out

        def get(gi, i, a, j, b):
            """The gate id for gate gi o (sub-program (i,a)->(j,b)): memoized,
            a leaf, or worked out here unless gi is a checkpoint."""
            key = gi, i, a, j, b
            if key in memo:
                return memo[key]
            if leaf_length[gi] is not None:
                return leaf(gi, i, a, j, b)
            if checkpoint[gi]:
                raise _Unwind(key)
            try:
                out = memo[key] = expand(gi, i, a, j, b)
            except _Unwind as stop:
                stop.keys.append(key)
                raise
            return out

        def split(gi, i, a, j, b, m, t, lhs, rhs):
            """The split product lhs * rhs at node t of layer m, emitted once
            per sub-result of a restartable gate."""
            key = gi, i, a, j, b, m, t
            out = splits.get(key)
            if out is None:
                out = splits[key] = mul(lhs, rhs)
            return out

        def expand(gi, i, a, j, b):
            """The gate id for (add or mul gate gi) o (sub-program
            (i,a)->(j,b)), fetching each sub-result with ``get``."""
            if kind[gi] is AddGate:
                return builder.add(get(lefts[gi], i, a, j, b), get(rights[gi], i, a, j, b))
            # MulGate: split the interval at every node of every split layer
            # m the factors' degrees allow, the left factor on i..m
            left, right = lefts[gi], rights[gi]
            right_need = leaf_length[right]
            again = restartable[gi]
            pieces = []
            head = (gi, i, a, j)
            found = left_factors.get(head)
            if found is None:
                # the first end node fetches every left factor before j, in
                # order; later end nodes pair only the kept ones
                lo, hi = max(i + left_least[gi], j - degrees[right]), min(j, i + degrees[left])
                kept = []
                for m in range(lo, min(hi, j - 1) + 1):
                    # the left factor is built even where the right one is zero
                    right_zero = right_need is not None and right_need != j - m
                    for t in [a] if m == i else range(sizes[m]):
                        lhs = get(left, i, a, m, t)
                        if lhs is None or right_zero:
                            continue
                        kept.append((m, t, lhs))
                        rhs = get(right, m, t, j, b)
                        if rhs is not None:
                            pieces.append(split(gi, i, a, j, b, m, t, lhs, rhs) if again else mul(lhs, rhs))
                found = left_factors[head] = kept, lo <= hi == j
            else:
                # a right factor on the single step (m, t) -> (j, b) is zero,
                # and fetching it would emit nothing, when the right gate reads
                # none of the variables the part carries on that step (see
                # the module docstring)
                right_reads = reads[right]
                for m, t, lhs in found[0]:
                    if m + 1 == j and not right_reads & step_reads.get((m, t, b), 0):
                        continue
                    rhs = get(right, m, t, j, b)
                    if rhs is not None:
                        pieces.append(split(gi, i, a, j, b, m, t, lhs, rhs) if again else mul(lhs, rhs))
            if found[1]:  # layer j is a split layer: its left factor ends at b
                lhs = get(left, i, a, j, b)
                if lhs is not None and right_need in (None, 0):
                    rhs = get(right, j, b, j, b)
                    if rhs is not None:
                        pieces.append(split(gi, i, a, j, b, j, b, lhs, rhs) if again else mul(lhs, rhs))
            return builder.add_many(pieces) if pieces else None

        root = (c.output, 0, 0, k, 0)
        if leaf_length[c.output] is not None:
            out = leaf(*root)
        else:
            # the driver works out the newest pending key; a checkpoint met
            # on the way is pushed above the sub-results it interrupted, so it
            # is worked out first and they start again innermost first, each
            # finding memoized everything it emitted before
            pending = [root]
            while pending:
                try:
                    out = memo[pending[-1]] = expand(*pending[-1])
                except _Unwind as stop:
                    pending += reversed(stop.keys)
                else:
                    pending.pop()
        del get  # breaks the get <-> expand reference cycle
        per_degree.append((k, out))
        memo_size += len(memo)

    total = builder.add_many([g for _, g in per_degree])
    return CircuitProductResult(builder.finish(total), per_degree, memo_size)
