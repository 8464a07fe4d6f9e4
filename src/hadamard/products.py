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
  reached, as one list per layer of flat records (from, to, v, x, y) with
  the factors' entries x and y unmultiplied.  Each degree is then pruned
  backward, its live arcs are written straight into the pruned layers as
  entries x * y, and the rest are dropped before the next degree is paired,
  so one degree's unpruned arcs are held at a time.  The pruned parts are
  summed as ``abp_sum`` does, at the depth of the deepest degree paired,
  which is what pruning the sum of the unpruned parts gives.

* circuit x branching program: a circuit for f and a program for g yield a
  circuit for the product, built by running the circuit against every
  interval of the normalized program, one degree at a time, for the
  degrees up to the lower of the output's formal degree and the program's
  depth, which are the only degree parts laid out.  Each memoized
  sub-result is the product of a gate's polynomial with the sub-program
  between two nodes, written below as an interval (i, a) -> (j, b) from
  node a of layer i.  A part numbers its N nodes across its layers, node a
  of layer i as u = start[i] + a, and keys a sub-result by the one int
  (gate * N + u) * N + v.  A constant or input gate's is nonzero only on an
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

import itertools
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
    live_nodes,
    normalize_edges,
    prune,
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


def product_arcs(p: ABP, q: ABP) -> list[list]:
    """Arcs of the Cartesian product of two homogeneous programs of equal
    depth out of the pairs reachable from the source pair (0, 0), before
    any coefficient is multiplied: one list per layer, stopping after the
    first layer that reaches no pair, so fewer lists than the depth means
    no path exists.  A record (a * q_from + b, c * q_to + e, v, x, y) pairs
    p's entry x on (a, c) with q's entry y on (b, e) for variable v; the
    product's entry of v on the arc is x * y.  Each layer pairs entries only
    out of the pairs the layer before reached, finding q's by from node, in
    the all-pairs loop's order over variables, p's entries and q's entries.
    """
    arcs: list = []
    reached = {0}
    for layer, (pl, ql) in enumerate(zip(p.layers, q.layers)):
        q_from, q_to = q.layer_sizes[layer], q.layer_sizes[layer + 1]
        partners: dict[int, set] = {}  # p node -> the q nodes paired with it so far
        for node in reached:
            a, b = divmod(node, q_from)
            partners.setdefault(a, set()).add(b)
        reached, records = set(), []
        arcs.append(records)
        for v, p_entries in pl.by_var.items():
            q_entries = ql.by_var.get(v)
            if not q_entries:
                continue
            out_of: dict[int, list] = {}  # q node -> the positions of q's entries out of it
            for i, entry in enumerate(q_entries):
                out_of.setdefault(entry[0], []).append(i)
            mates: dict[int, list] = {}  # p node -> q's entries out of its partners, in q's order
            for a, c, x in p_entries:
                ys = mates.get(a)
                if ys is None:
                    at = sorted(i for b in partners.get(a, ()) for i in out_of.get(b, ()))
                    ys = mates[a] = [q_entries[i] for i in at]
                src, dst = a * q_from, c * q_to
                for b, e, y in ys:
                    records.append((src + b, dst + e, v, x, y))
                    reached.add(dst + e)
        if not reached:
            break
    return arcs


def product_layers(depth: int, arcs: list[list], ranks: list) -> list[Layer]:
    """``depth`` layers holding entry x * y of variable v for each arc
    (from, to, v, x, y) in order whose two nodes are in ``ranks``, its
    nodes renumbered through them (per layer, node -> new node; a range
    keeps every node as it is)."""
    layers = [Layer([], {}) for _ in range(depth)]
    for records, lay, ra, rc in zip(arcs, layers, ranks, ranks[1:]):
        by_var = lay.by_var
        for a, c, v, x, y in records:
            if a in ra and c in rc:
                by_var.setdefault(v, []).append((ra[a], rc[c], x * y))
    return layers


def hadamard_homogeneous(p: ABP, q: ABP) -> ABP:
    """Cartesian product of two homogeneous programs of equal depth.

    Layer w of the result has one node per pair (a, b) of factor nodes,
    indexed a * q_w + b, so its size is exactly p_w * q_w.
    """
    _check_pair(p.n_vars, p.field, q.n_vars, q.field)
    if p.depth != q.depth:
        raise ArityMismatchError(f"depth mismatch: {p.depth} vs {q.depth}")
    sizes = tuple(pw * qw for pw, qw in zip(p.layer_sizes, q.layer_sizes))
    return ABP(p.n_vars, p.field, sizes, product_layers(p.depth, product_arcs(p, q), list(map(range, sizes))))


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
        ranks = live_nodes(k, arcs)  # per layer, live node -> its rank
        if ranks is not None:
            live.append(([len(rank) for rank in ranks], product_layers(k, arcs, ranks)))
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
    sub-result, then each interrupted sub-result from the innermost out, each
    as (gate, from node, to node)."""

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
        # node a of layer i is node u = start[i] + a of the part's N, and layer[u] == i
        start = list(itertools.accumulate(part.layer_sizes, initial=0))
        N = start[-1]
        layer = [i for i, size in enumerate(part.layer_sizes) for _ in range(size)]
        # (variable, u * N + v) -> the part's coefficient on the step u -> v,
        # and u * N + v -> the bits of the variables its entries carry there
        coeff_at: dict = {}
        step_reads: dict = {}
        for i, lay in enumerate(part.layers):
            for var, es in lay.by_var.items():
                v_bit = 1 << index[var]
                for a, b, x in es:
                    uv = (start[i] + a) * N + start[i + 1] + b
                    coeff_at[var, uv] = x
                    step_reads[uv] = step_reads.get(uv, 0) | v_bit
        memo: dict = {}  # (gate * N + u) * N + v -> gate id of the sub-result
        # (mul gate * N + u) * (k + 1) + j -> ([(w, left factor)], split at j):
        # the nonzero left factors ending at nodes w of split layers before j
        # whose right factor may be nonzero, and whether layer j is a split layer
        left_factors: dict = {}
        # ((restartable mul gate * N + u) * N + v) * N + w -> gate id of the
        # split product at node w, so a restart does not emit it again
        splits: dict = {}

        # an empty interval u -> v always has u == v: the root runs from the
        # source to the sink of a part of depth k >= 1, a split at its start
        # layer splits at u, and a split at its end layer at v
        def leaf(gi, u, v):
            """The gate id for (constant or input gate gi) o (sub-program
            u->v), memoized when the interval has the gate's length (0 for a
            constant, 1 for an input); None, unmemoized, when not."""
            if layer[v] - layer[u] != leaf_length[gi]:
                return None
            gate = gates[gi]
            if kind[gi] is ConstGate:
                out = builder.const(gate.value)
            else:
                coeff = coeff_at.get((gate.var, u * N + v))
                out = mul(builder.const(coeff), builder.input(gate.var)) if coeff else None
            memo[(gi * N + u) * N + v] = out
            return out

        def get(gi, u, v):
            """The gate id for gate gi o (sub-program u->v): memoized, a leaf,
            or worked out here unless gi is a checkpoint."""
            key = (gi * N + u) * N + v
            if key in memo:
                return memo[key]
            if leaf_length[gi] is not None:
                return leaf(gi, u, v)
            if checkpoint[gi]:
                raise _Unwind((gi, u, v))
            try:
                out = memo[key] = expand(gi, u, v)
            except _Unwind as stop:
                stop.keys.append((gi, u, v))
                raise
            return out

        def split(key, lhs, rhs):
            """The split product lhs * rhs keyed ``key`` in ``splits``,
            emitted once per sub-result of a restartable gate."""
            out = splits.get(key)
            if out is None:
                out = splits[key] = mul(lhs, rhs)
            return out

        def expand(gi, u, v):
            """The gate id for (add or mul gate gi) o (sub-program u->v),
            fetching each sub-result with ``get``."""
            if kind[gi] is AddGate:
                return builder.add(get(lefts[gi], u, v), get(rights[gi], u, v))
            # MulGate: split the interval at every node w of every split layer
            # m the factors' degrees allow, the left factor on u..w
            left, right = lefts[gi], rights[gi]
            right_need = leaf_length[right]
            i, j = layer[u], layer[v]
            again, at = restartable[gi], ((gi * N + u) * N + v) * N
            pieces = []
            head = (gi * N + u) * (k + 1) + j
            found = left_factors.get(head)
            if found is None:
                # the first end node fetches every left factor before j, in
                # order; later end nodes pair only the kept ones
                lo, hi = max(i + left_least[gi], j - degrees[right]), min(j, i + degrees[left])
                kept = []
                for m in range(lo, min(hi, j - 1) + 1):
                    # the left factor is built even where the right one is zero
                    right_zero = right_need is not None and right_need != j - m
                    for w in [u] if m == i else range(start[m], start[m + 1]):
                        lhs = get(left, u, w)
                        if lhs is None or right_zero:
                            continue
                        kept.append((w, lhs))
                        rhs = get(right, w, v)
                        if rhs is not None:
                            pieces.append(split(at + w, lhs, rhs) if again else mul(lhs, rhs))
                found = left_factors[head] = kept, lo <= hi == j
            else:
                # a right factor on the single step w -> v, from layer j - 1,
                # is zero, and fetching it would emit nothing, when the right
                # gate reads none of the variables the part carries on that
                # step (see the module docstring)
                right_reads, last = reads[right], start[j - 1]
                for w, lhs in found[0]:
                    if w >= last and not right_reads & step_reads.get(w * N + v, 0):
                        continue
                    rhs = get(right, w, v)
                    if rhs is not None:
                        pieces.append(split(at + w, lhs, rhs) if again else mul(lhs, rhs))
            if found[1]:  # layer j is a split layer: its left factor ends at v
                lhs = get(left, u, v)
                if lhs is not None and right_need in (None, 0):
                    rhs = get(right, v, v)
                    if rhs is not None:
                        pieces.append(split(at + v, lhs, rhs) if again else mul(lhs, rhs))
            return builder.add_many(pieces) if pieces else None

        if leaf_length[c.output] is not None:
            out = leaf(c.output, 0, start[k])
        else:
            # the driver works out the newest pending sub-result; a checkpoint
            # met on the way is pushed above the sub-results it interrupted,
            # so it is worked out first and they start again innermost first,
            # each finding memoized everything it emitted before
            pending = [(c.output, 0, start[k])]
            while pending:
                gi, u, v = pending[-1]
                try:
                    out = memo[(gi * N + u) * N + v] = expand(gi, u, v)
                except _Unwind as stop:
                    pending += reversed(stop.keys)
                else:
                    pending.pop()
        del get  # breaks the get <-> expand reference cycle
        per_degree.append((k, out))
        memo_size += len(memo)

    total = builder.add_many([g for _, g in per_degree])
    return CircuitProductResult(builder.finish(total), per_degree, memo_size)
