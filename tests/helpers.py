"""Shared generators and independent oracles for the test suite.

Everything here is deliberately naive: cofactor expansion for determinants,
breadth-first search for reachability, permutation sums for permanents,
schoolbook products and repeated powering for extension-field traces,
trial division for irreducibility, a program's constant closure summed
power by power over dense matrices, Gaussian elimination and the span walk on
field element objects, the JSON objects of programs and circuits built one
dict per edge or gate, the ``lab corr`` report assembled from the sign
polynomial F and its 0/1 shift as whole polynomials, homogeneous parts
laid out over lists of every declared node, programs decoded from JSON one
``LinearForm`` per label with repeated labels added by ``form_sum``, and
``pit rand`` stepping field elements.
The library must agree with these on random instances.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cache
from typing import Sequence

from hadamard.abp import (
    ABP,
    LinearForm,
    _variable_key,
    abp_sum,
    coefficient_of,
    constant_abp,
    homogeneous_parts,
    normalize_edges,
    prune,
    validate,
    zero_abp,
)
from hadamard.circuits import AddGate, Circuit, CircuitBuilder, ConstGate, InputGate, MulGate
from hadamard.errors import DEFAULT_MAX_TERMS, ResourceCapError, ValidationError
from hadamard.fields import ExtElement, _poly_mod, _poly_mul, field_from_json, json_int
from hadamard.lab import (
    ExplicitParams,
    build_f,
    correlation_report,
    exp_sum,
    random_product_poly,
    sum_coeffs,
    zero_one_shift,
)
from hadamard.pit import Digraph, PitVerdict, _extension_with_embedding
from hadamard.products import DegreeRecord, hadamard_homogeneous


def lf(field, const=0, **kw):
    return LinearForm.make(field, const=const, coeffs={int(k[1:]): v for k, v in kw.items()})


def random_abp(rng, field, n_vars=3, depth=3, width=3, affine=True, density=0.7):
    sizes = [1] + [rng.randint(1, width) for _ in range(depth - 1)] + [1]
    edges = {}
    for layer in range(depth):
        for a in range(sizes[layer]):
            for c in range(sizes[layer + 1]):
                if rng.random() > density:
                    continue
                const = rng.randint(-2, 2) if affine and rng.random() < 0.5 else 0
                coeffs = {}
                for v in range(n_vars):
                    if rng.random() < 0.5:
                        coeffs[v] = rng.randint(-2, 2)
                form = LinearForm.make(field, const=const, coeffs=coeffs)
                if form.const or form.coeffs:
                    edges[(layer, a, c)] = form
    return ABP.build(n_vars, field, sizes, edges)


def homogeneous_abp(rng, field, depth, width=2, n_vars=2):
    """A program of fixed width whose every node pair carries a random
    homogeneous label with a nonzero variable coefficient."""
    sizes = [1] + [width] * (depth - 1) + [1]
    edges = {}
    for layer in range(depth):
        for a in range(sizes[layer]):
            for c in range(sizes[layer + 1]):
                v = rng.randrange(n_vars)
                edges[(layer, a, c)] = LinearForm.make(field, coeffs={v: rng.choice((-2, -1, 1, 2))})
    return ABP.build(n_vars, field, sizes, edges)


def affine_chain(rng, field, depth, n_vars=2):
    """A width-1 program whose every label has a nonzero constant and a
    nonzero coefficient for each variable, so every word of length at most
    the depth can have a nonzero coefficient."""
    edges = {}
    for layer in range(depth):
        coeffs = {v: rng.choice((-2, -1, 1, 2)) for v in range(n_vars)}
        edges[(layer, 0, 0)] = LinearForm.make(field, const=rng.choice((-2, -1, 1, 2)), coeffs=coeffs)
    return ABP.build(n_vars, field, (1,) * (depth + 1), edges)


def dead_end(field):
    """x0 * (x0 + 3 x1) on layers [1, 2, 1]: x0 enters node 0 of layer 1 and
    2 x1 enters node 1, but only node 0 goes on to the sink, so no word
    through node 1 has a nonzero coefficient."""
    cells = {(0, 0, 0): {0: 1}, (0, 0, 1): {1: 2}, (1, 0, 0): {0: 1, 1: 3}}
    return ABP.build(2, field, (1, 2, 1), {key: LinearForm.make(field, coeffs=c) for key, c in cells.items()})


def form_sum(form: LinearForm, other: LinearForm, field) -> LinearForm:
    """The sum of two labels, variable by variable; a coefficient whose sum
    is zero is dropped, and a variable new to ``form`` comes last."""
    coeffs = dict(form.coeffs)
    for v, a in other.coeffs.items():
        s = coeffs.get(v, field.zero()) + a
        if s:
            coeffs[v] = s
        else:
            coeffs.pop(v, None)
    return LinearForm(form.const + other.const, coeffs)


def scale_form(form: LinearForm, c, field) -> LinearForm:
    """c times an edge label."""
    c = field.coerce(c)
    if not c:
        return LinearForm(field.zero(), {})
    return LinearForm(c * form.const, {v: c * a for v, a in form.coeffs.items()})


def cancelling_abp(rng, field, **kw):
    """A program that computes the zero polynomial non-trivially: a random
    program joined with a copy of itself whose final-layer labels are negated."""
    while True:
        base = random_abp(rng, field, **kw)
        if not base.expand().is_zero():
            break
    flipped = {}
    minus_one = field.zero() - field.one()
    for (layer, a, c), form in base.edges.items():
        if layer == base.depth - 1:
            form = scale_form(form, minus_one, field)
        flipped[(layer, a, c)] = form
    negated = ABP.build(base.n_vars, field, base.layer_sizes, flipped)
    return abp_sum([base, negated])


def cancel_join(rng, field, depth, width=2, n_vars=3, zero=True):
    """A program of fixed width joined, behind a shared source and sink,
    with a copy of itself whose last layer is negated: zero by
    cancellation.  With zero false, one internal label of the copy also
    gains delta * x_v first, so the join computes -(prefix into that edge)
    * delta x_v * (suffix out of it).  Every edge of the base exists, and
    its label has a constant with probability 0.4 and each variable with
    probability 0.45, as in the benchmark's identity inputs."""

    def coeff():
        return rng.choice((-1, 1)) * rng.randint(1, 7)

    sizes = [1] + [width] * (depth - 1) + [1]
    edges = {}
    for layer in range(depth):
        for a in range(sizes[layer]):
            for c in range(sizes[layer + 1]):
                const = coeff() if rng.random() < 0.4 else 0
                coeffs = {v: coeff() for v in range(n_vars) if rng.random() < 0.45}
                if not const and not coeffs:
                    coeffs = {rng.randrange(n_vars): coeff()}
                edges[(layer, a, c)] = LinearForm.make(field, const=const, coeffs=coeffs)
    base = ABP.build(n_vars, field, sizes, edges)
    if not zero:
        key = rng.choice(sorted(k for k in edges if 0 < k[0] < depth - 1))
        edges[key] = form_sum(edges[key], LinearForm.of_var(field, rng.randrange(n_vars), coeff()), field)
    minus_one = field.zero() - field.one()
    copy = {
        key: scale_form(form, minus_one, field) if key[0] == depth - 1 else form
        for key, form in edges.items()
    }
    return abp_sum([base, ABP.build(n_vars, field, sizes, copy)])


def random_circuit(rng, field, n_vars=3, n_gates=8, max_degree=3):
    gates = [InputGate(rng.randrange(n_vars))]
    degs = [1]
    while len(gates) < n_gates:
        roll = rng.random()
        if roll < 0.25:
            gates.append(InputGate(rng.randrange(n_vars)))
            degs.append(1)
        elif roll < 0.4:
            gates.append(ConstGate(field.coerce(rng.randint(-2, 2))))
            degs.append(0)
        else:
            l = rng.randrange(len(gates))
            r = rng.randrange(len(gates))
            if roll < 0.7 and degs[l] + degs[r] <= max_degree:
                gates.append(MulGate(l, r))
                degs.append(degs[l] + degs[r])
            else:
                gates.append(AddGate(l, r))
                degs.append(max(degs[l], degs[r]))
    return Circuit.build(n_vars, field, gates, len(gates) - 1)


def tall_circuit(rng, field, n_vars=2, n_gates=60, max_degree=4):
    """A circuit in which most gates read the gate just before them, so its
    height grows with its size."""
    gates = [InputGate(v) for v in range(n_vars)] + [ConstGate(field.coerce(rng.randint(-2, 2)))]
    degs = [1] * n_vars + [0]
    while len(gates) < n_gates:
        l, r = len(gates) - 1, rng.randrange(len(gates))
        if rng.random() < 0.5:
            l, r = r, l
        if rng.random() < 0.3 and degs[l] + degs[r] <= max_degree:
            gates.append(MulGate(l, r))
            degs.append(degs[l] + degs[r])
        else:
            gates.append(AddGate(l, r))
            degs.append(max(degs[l], degs[r]))
    return Circuit.build(n_vars, field, gates, len(gates) - 1)


def skipping_circuit(rng, field, height, skipped, n_vars=2, max_degree=4):
    """Two chains of the given height.  The first, A, has a gate at every
    height h: A_h = A_{h-1} op an input.  The second, B, has B_h = B' op
    A_{h-1} for every h not in ``skipped``, where B' is the B gate below it,
    so B_h is h tall and B holds no gate of a skipped height.  Each op is a
    product while the degree allows, at random, else a sum.  The output is
    the top B gate."""
    gates: list = [InputGate(v) for v in range(n_vars)]
    degs = [1] * n_vars
    a = b = 0

    def emit(l, r):
        if rng.random() < 0.3 and degs[l] + degs[r] <= max_degree:
            gates.append(MulGate(l, r))
            degs.append(degs[l] + degs[r])
        else:
            gates.append(AddGate(l, r))
            degs.append(max(degs[l], degs[r]))
        return len(gates) - 1

    for h in range(1, height + 1):
        below, a = a, emit(a, rng.randrange(n_vars))
        if h not in skipped:
            b = emit(b, below)
    return Circuit.build(n_vars, field, gates, b)


def program_circuit(abp: ABP) -> Circuit:
    """A circuit that follows the program layer by layer: a node's value is
    the sum over its incoming edges of (source value) * (label), each label
    written as const + sum of const * x_v, so the circuit computes the
    program's polynomial."""
    field = abp.field
    gates: list = [InputGate(v) for v in range(abp.n_vars)]

    def emit(gate) -> int:
        gates.append(gate)
        return len(gates) - 1

    def add(x, y):
        return y if x is None else x if y is None else emit(AddGate(x, y))

    by_layer: list[list] = [[] for _ in range(abp.depth)]
    for (layer, a, c), const, coeffs in abp.labels():
        by_layer[layer].append((a, c, const, coeffs))
    values = {0: emit(ConstGate(field.one()))}
    for edges in by_layer:
        nxt: dict = {}
        for a, c, const, coeffs in edges:
            if a not in values:
                continue
            label = emit(ConstGate(const)) if const else None
            for v, x in sorted(coeffs.items()):
                label = add(label, emit(MulGate(emit(ConstGate(x)), v)))
            nxt[c] = add(nxt.get(c), emit(MulGate(values[a], label)))
        values = nxt
    output = values[0] if 0 in values else emit(ConstGate(field.zero()))
    return Circuit.build(abp.n_vars, field, gates, output)


def random_monotone_circuit(rng, n_vars=3, n_gates=8, max_degree=4):
    from hadamard.fields import RationalField

    field = RationalField()
    gates = [InputGate(rng.randrange(n_vars))]
    degs = [1]
    while len(gates) < n_gates:
        roll = rng.random()
        if roll < 0.3:
            gates.append(InputGate(rng.randrange(n_vars)))
            degs.append(1)
        elif roll < 0.4:
            gates.append(ConstGate(Fraction(rng.randint(1, 3))))
            degs.append(0)
        else:
            l = rng.randrange(len(gates))
            r = rng.randrange(len(gates))
            if roll < 0.7 and degs[l] + degs[r] <= max_degree:
                gates.append(MulGate(l, r))
                degs.append(degs[l] + degs[r])
            else:
                gates.append(AddGate(l, r))
                degs.append(max(degs[l], degs[r]))
    return Circuit.build(n_vars, field, gates, len(gates) - 1)


def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [[rows[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        term = rows[0][j] * cofactor_det(minor)
        total = total - term if j % 2 else total + term
    return total


def random_digraph(rng, n_vertices=10, n_edges=14):
    edges = set()
    n_edges = min(n_edges, n_vertices * n_vertices)
    while len(edges) < n_edges:
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        edges.add((u, v))
    s = rng.randrange(n_vertices)
    t = rng.randrange(n_vertices)
    return Digraph(n_vertices, tuple(sorted(edges)), s, t)


def bfs_reachable(g: Digraph) -> bool:
    seen = {g.s}
    frontier = [g.s]
    adj = {}
    for (u, v) in g.edges:
        adj.setdefault(u, []).append(v)
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, []):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return g.t in seen


def trial_division_irreducible(coeffs, p: int) -> bool:
    """Is the monic polynomial (low-degree-first) irreducible over F_p?
    Trial division by every monic polynomial of degree up to half its own."""
    k = len(coeffs) - 1
    if k < 1:
        return False
    for d in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not _poly_mod(coeffs, list(low) + [1], p):
                return False
    return True


def trial_division_find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """The first monic irreducible of degree k over F_p in lexicographic
    order of (c_0, ..., c_{k-1}), scanning every candidate."""
    for low in itertools.product(range(p), repeat=k):
        if trial_division_irreducible(list(low) + [1], p):
            return tuple(low) + (1,)
    raise AssertionError(f"no irreducible of degree {k} over F_{p}")


def schoolbook_mul(a: ExtElement, b: ExtElement) -> ExtElement:
    """Product in F_p[x]/(modulus) by polynomial multiplication and division."""
    f = a.field
    red = _poly_mod(_poly_mul(a.coeffs, b.coeffs, f.p), f.modulus, f.p)
    return ExtElement(tuple(red + [0] * (f.k - len(red))), f)


def coefficient_sum(a: ExtElement, b: ExtElement) -> ExtElement:
    """Sum in F_p[x]/(modulus), coefficient by coefficient."""
    f = a.field
    return ExtElement(tuple((x + y) % f.p for x, y in zip(a.coeffs, b.coeffs)), f)


def powering_trace(a: ExtElement) -> int:
    """Tr(a) = a + a^p + ... + a^(p^(k-1)), each power by p schoolbook products."""
    f = a.field
    total = power = a
    for _ in range(f.k - 1):
        prev, power = power, f.one()
        for _ in range(f.p):
            power = schoolbook_mul(power, prev)
        total = coefficient_sum(total, power)
    assert not any(total.coeffs[1:]), "trace left the prime field"
    return total.coeffs[0]


def permanent(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
            if not prod:
                break
        total += prod
    return total


def polynomial_lab_corr(t: int, p: int, seed: int, battery: int) -> dict:
    """The ``lab corr`` report built on F and F' = (F+1)/2 as polynomials:
    the report of F against F', the coefficient sum of F, and the battery of
    product splits, each correlated against F term by term."""
    params = ExplicitParams(t, p)
    f = build_f(params)
    rep = correlation_report(f, zero_one_shift(f))
    out = rep.to_json()
    out["t"], out["p"] = t, p
    out["sum_coeffs"] = str(sum_coeffs(f))
    out["lower_bound"] = str(Fraction(2) ** (params.n - 1))
    out["meets_lower_bound"] = rep.corr >= Fraction(2) ** (params.n - 1)
    rng = random.Random(seed)
    out["product_battery"] = []
    for _ in range(battery):
        r = correlation_report(f, random_product_poly(params, rng).poly())
        out["product_battery"].append({"corr": str(r.corr), "ratio_sq": str(r.ratio_sq)})
    field = params.field
    out["exp_sum_samples"] = [
        {"z": code, "value": exp_sum(params, z=z)}
        for z, code in ((field.zero(), 0), (field.one(), 1), (field.gen(), field.p))
    ]
    return out


def random_grammar(rng, n_nonterminals=5, terminals=2, max_prods=3):
    """Acyclic by construction: each nonterminal only references earlier ones."""
    from hadamard.grammars import AcyclicCFG

    names = [f"N{i}" for i in range(n_nonterminals)]
    prods = {}
    for i, name in enumerate(names):
        rhss = []
        for _ in range(rng.randint(1, max_prods)):
            length = rng.choice([0, 1, 1, 2, 2])
            rhs = []
            for _ in range(length):
                if i > 0 and rng.random() < 0.5:
                    rhs.append(names[rng.randrange(i)])
                else:
                    rhs.append(rng.randrange(terminals))
            rhss.append(tuple(rhs))
        prods[name] = tuple(rhss)
    return AcyclicCFG.build(names, terminals, names[-1], prods)


def all_pairs_product_arcs(p: ABP, q: ABP) -> list:
    """``product_arcs`` of every pair of entries, reachable or not: for
    each layer, variable, entry x of p on (a, c) and entry y of q on (b, e),
    the item ((layer, a * q_from + b, c * q_to + e), (v, x, y))."""
    arcs = []
    for layer, (pl, ql) in enumerate(zip(p.layers, q.layers)):
        q_from, q_to = q.layer_sizes[layer], q.layer_sizes[layer + 1]
        for v, p_entries in pl.by_var.items():
            for a, c, x in p_entries:
                for b, e, y in ql.by_var.get(v, ()):
                    arcs.append(((layer, a * q_from + b, c * q_to + e), (v, x, y)))
    return arcs


def reachable_arcs(arcs: list) -> list:
    """The arc items, in order, whose tail is reached from node 0 of layer 0
    by a path of arcs, found by a plain graph search."""
    succ: dict = {}
    for (layer, a, c), _ in arcs:
        succ.setdefault((layer, a), []).append((layer + 1, c))
    seen, frontier = {(0, 0)}, [(0, 0)]
    while frontier:
        node = frontier.pop()
        for nxt in succ.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return [(key, entry) for key, entry in arcs if key[:2] in seen]


def naive_hadamard_abp(p: ABP, q: ABP) -> tuple[ABP, ABP, list]:
    """(pruned product, unpruned product, per-degree records) by building
    every stage in full: per-degree ``hadamard_homogeneous`` products,
    their ``abp_sum`` and its ``prune``."""
    field = p.field
    p_parts, q_parts = homogeneous_parts(p, p.depth), homogeneous_parts(q, q.depth)
    records, summands = [], []
    for k in range(min(len(p_parts), len(q_parts))):
        pk, qk = p_parts[k], q_parts[k]
        if k == 0:
            pc, qc = pk.edges.get((0, 0, 0)), qk.edges.get((0, 0, 0))
            c = (pc.const if pc else field.zero()) * (qc.const if qc else field.zero())
            rk = constant_abp(p.n_vars, field, c)
            records.append(DegreeRecord(0, pk.layer_sizes, qk.layer_sizes, rk.layer_sizes))
            if c:
                summands.append(rk)
            continue
        pk, qk = normalize_edges(pk), normalize_edges(qk)
        rk = hadamard_homogeneous(pk, qk)
        records.append(DegreeRecord(k, pk.layer_sizes, qk.layer_sizes, rk.layer_sizes))
        summands.append(rk)
    unpruned = abp_sum(summands) if summands else zero_abp(p.n_vars, field)
    return prune(unpruned), unpruned, records


def recursive_hadamard_circuit_abp(c: Circuit, p: ABP) -> Circuit:
    """The circuit x program product by plain recursion over (gate,
    interval) pairs, one memoized call per sub-result; deep circuits exceed
    Python's recursion limit."""
    field = c.field
    builder = CircuitBuilder(c.n_vars, field)
    parts = homogeneous_parts(p, p.depth)
    degrees = c.formal_degrees()
    memo: dict = {}
    zeros = [field.zero()] * c.n_vars
    per_degree = [builder.const(c.evaluate(zeros) * p.evaluate(zeros))]
    for k in range(1, min(c.formal_degree(), p.depth, len(parts) - 1) + 1):
        part = prune(parts[k])
        if part.depth != k:
            per_degree.append(None)
            continue
        part = normalize_edges(part)

        def result_gate(gi, i, a, j, b):
            key = (k, gi, i, a, j, b)
            if key in memo:
                return memo[key]
            gate = c.gates[gi]
            out = None
            if isinstance(gate, ConstGate):
                if j == i and a == b:
                    out = builder.const(gate.value)
            elif isinstance(gate, InputGate):
                if j == i + 1:
                    form = part.edges.get((i, a, b))
                    coeff = form.coeffs.get(gate.var) if form else None
                    if coeff:
                        out = builder.mul(builder.const(coeff), builder.input(gate.var))
            elif isinstance(gate, AddGate):
                out = builder.add(result_gate(gate.left, i, a, j, b), result_gate(gate.right, i, a, j, b))
            else:
                pieces = []
                for m in range(i, j + 1):
                    if degrees[gate.left] < m - i or degrees[gate.right] < j - m:
                        continue
                    for t in [a] if m == i else [b] if m == j else range(part.layer_sizes[m]):
                        left = result_gate(gate.left, i, a, m, t)
                        if left is not None:
                            pieces.append(builder.mul(left, result_gate(gate.right, m, t, j, b)))
                out = builder.add_many(pieces)
            memo[key] = out
            return out

        per_degree.append(result_gate(c.output, 0, 0, k, 0))
    return builder.finish(builder.add_many(per_degree))


class ElementEchelon:
    """Incremental row echelon on field element objects: every entry of
    every row operation is one element operation."""

    def __init__(self, field):
        self.field = field
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def insert(self, vec: Sequence):
        """Reduce and keep the vector; its pivot value before normalizing
        if it enlarged the span, else None."""
        v = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            if v[piv]:
                f = v[piv]
                v = [a - f * b for a, b in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return None
        pivot = v[piv]
        inv = self.field.one() / pivot
        self.rows.append([inv * x for x in v])
        self.pivots.append(piv)
        return pivot


def element_independent_subset(vectors, field) -> list[int]:
    """First-come indices of a maximal independent subsequence."""
    ech = ElementEchelon(field)
    return [i for i, vec in enumerate(vectors) if ech.insert(vec)]


def element_span_basis(p: ABP) -> PitVerdict:
    """The span test's forward word-tagged row basis with element vectors,
    each stepped by ``Layer.times`` at the unit point e_v, where a
    homogeneous layer's matrix is M_v."""
    field = p.field
    zero, one = field.zero(), field.one()
    units = [[one if u == v else zero for u in range(p.n_vars)] for v in range(p.n_vars)]
    for k, part in enumerate(homogeneous_parts(p, p.depth)):
        if k == 0:
            form = part.edges.get((0, 0, 0))
            if form is not None and form.const:
                return PitVerdict(
                    is_zero=False,
                    method="span_basis",
                    witness={"word": [], "coeff": field.coeff_to_json(form.const)},
                )
            continue
        basis = [((), [one])]
        for lay, width in zip(part.layers, part.layer_sizes[1:]):
            grown = [
                (word + (v,), lay.times(vec, units[v], width, zero))
                for word, vec in basis
                for v in sorted(lay.by_var)
            ]
            keep = element_independent_subset([vec for _, vec in grown], field)
            basis = [grown[i] for i in keep]
        if basis:
            word, (c,) = basis[0]
            assert coefficient_of(p, word) == c
            return PitVerdict(
                is_zero=False,
                method="span_basis",
                witness={"word": list(word), "coeff": field.coeff_to_json(c)},
            )
    return PitVerdict(is_zero=True, method="span_basis")


def dense_walks(p: ABP) -> tuple[list, dict]:
    """(C*, {v: V_v}) of a program as dense matrices of field elements over
    the node numbers start[i] + a: C holds the constant entries, V_v those
    of x_v, and C* = I + C + C² + ⋯ is summed power by power until a power
    is zero."""
    field = p.field
    zero, one = field.zero(), field.one()
    start = list(itertools.accumulate(p.layer_sizes, initial=0))
    n = start[-1]

    def matrix(entries_by_layer):
        m = [[zero] * n for _ in range(n)]
        for i, entries in entries_by_layer:
            for a, b, k in entries:
                m[start[i] + a][start[i + 1] + b] = k
        return m

    def product(x, y):
        return [[sum((x[i][k] * y[k][j] for k in range(n)), zero) for j in range(n)] for i in range(n)]

    const = matrix(enumerate(lay.const for lay in p.layers))
    variables = {v for lay in p.layers for v in lay.by_var}
    steps = {v: matrix((i, lay.by_var.get(v, ())) for i, lay in enumerate(p.layers)) for v in variables}
    closure = power = [[one if i == j else zero for j in range(n)] for i in range(n)]
    while True:
        power = product(power, const)
        if not any(map(any, power)):
            return closure, steps
        closure = [[a + b for a, b in zip(r, s)] for r, s in zip(closure, power)]


def node_list_homogeneous_parts(abp: ABP) -> list[ABP]:
    """``homogeneous_parts`` as it was first written: every part layer lists
    all its declared nodes and indexes them by a dict.  The library lays the
    parts out by offsets and walks only nodes that some entry leaves; the
    parts must be equal edge for edge, in the same order.

    The part for degree k has k+1 layers.  A node of its layer w is a pair
    (original layer, original node) reachable after w variable-carrying
    steps; an edge bundles a constant-only walk followed by one
    variable-carrying original edge, and edges into the sink also absorb the
    trailing constant-only walk.  Every label is a homogeneous linear form.

    Constant-only walks are propagated sparsely over ``abp.layers``.  One
    backward pass gives each node's constant weight to the sink.  The steps
    out of a node (i, a) — a constant walk to layer j-1, then one variable
    entry into layer j, for every later j — are walked forward from (i, a)
    once and shared by every degree, as is their sum weighted by the
    constant walks on to the sink, which labels the edges into a part's sink.
    """
    field = abp.field
    zero, one = field.zero(), field.one()
    d = abp.depth
    layers = abp.layers

    # to_sink[j][b]: sum over constant-only walks from node b of layer j to the sink
    to_sink: list[dict] = [dict() for _ in range(d + 1)]
    to_sink[d][0] = one
    for j in range(d - 1, -1, -1):
        here, after = to_sink[j], to_sink[j + 1]
        for a, c, k in layers[j].const:
            t = after.get(c)
            if t:
                here[a] = here.get(a, zero) + k * t

    @cache
    def steps(i: int, a: int) -> tuple[dict, LinearForm]:
        """({j: {b: form}}, sink form) for the steps out of node a of layer i."""
        by_layer: dict[int, dict[int, LinearForm]] = {}
        sink: dict = {}
        reach = {a: one}  # constant-only walks from (i, a) into layer j-1
        for j in range(i + 1, d + 1):
            lay = layers[j - 1]
            coeffs: dict[int, dict] = {}
            for v, entries in lay.by_var.items():
                for m, b, k in entries:
                    w = reach.get(m)
                    if w:
                        per_b = coeffs.setdefault(b, {})
                        per_b[v] = per_b.get(v, zero) + w * k
            forms = {}
            for b, cs in coeffs.items():
                cs = {v: x for v, x in cs.items() if x}
                if cs:
                    forms[b] = LinearForm(zero, cs)
                    t = to_sink[j].get(b)
                    if t:
                        for v, x in cs.items():
                            sink[v] = sink.get(v, zero) + x * t
            by_layer[j] = forms
            nxt: dict = {}
            for m, c, k in lay.const:
                w = reach.get(m)
                if w:
                    nxt[c] = nxt.get(c, zero) + w * k
            reach = nxt
            if not reach:
                break
        return by_layer, LinearForm(zero, {v: x for v, x in sink.items() if x})

    parts = [constant_abp(abp.n_vars, field, to_sink[0].get(0, zero))]

    for k in range(1, d + 1):
        # layer w of part k holds original pairs (i, a), w <= i <= d-(k-w)
        node_lists: list[list[tuple[int, int]]] = [[(0, 0)]]
        for w in range(1, k):
            nodes = [
                (i, a)
                for i in range(w, d - (k - w) + 1)
                for a in range(abp.layer_sizes[i])
            ]
            node_lists.append(nodes)
        node_lists.append([(d, 0)])
        index = [
            {node: idx for idx, node in enumerate(layer_nodes)}
            for layer_nodes in node_lists
        ]

        edges = {}
        for w in range(k - 1):
            for src, (i, a) in enumerate(node_lists[w]):
                by_layer = steps(i, a)[0]
                for j in range(i + 1, d - (k - w - 1) + 1):
                    for b, lf in by_layer.get(j, {}).items():
                        edges[(w, src, index[w + 1][(j, b)])] = lf
        # final step: variable edge at any remaining position, then constants to the sink
        for src, (i, a) in enumerate(node_lists[k - 1]):
            sink = steps(i, a)[1]
            if sink.coeffs:
                edges[(k - 1, src, 0)] = sink

        layer_sizes = [len(nodes) for nodes in node_lists]
        parts.append(ABP.build(abp.n_vars, field, layer_sizes, edges))

    return parts


def label_json(form: LinearForm, field) -> dict:
    """A label's JSON object, built as a dict."""
    return {
        "const": field.coeff_to_json(form.const),
        "coeffs": {str(v): field.coeff_to_json(a) for v, a in sorted(form.coeffs.items())},
    }


def abp_json(p: ABP) -> dict:
    """A program's JSON object with one dict per edge: the reference that
    ``ABP.json_text`` must match byte for byte under
    ``json.dumps(..., sort_keys=True, separators=(",", ":"))``."""
    return {
        "nvars": p.n_vars,
        "field": p.field.descriptor(),
        "layers": list(p.layer_sizes),
        "edges": [
            {"from": [layer, a], "to": [layer + 1, c], "label": label_json(p.edges[(layer, a, c)], p.field)}
            for layer, a, c in sorted(p.edges)
        ],
    }


def circuit_json(c: Circuit) -> dict:
    """A circuit's JSON object with one dict per gate, the reference for
    ``Circuit.json_text``."""
    gates = []
    for g in c.gates:
        if isinstance(g, InputGate):
            gates.append({"op": "in", "var": g.var})
        elif isinstance(g, ConstGate):
            gates.append({"op": "const", "value": c.field.coeff_to_json(g.value)})
        elif isinstance(g, AddGate):
            gates.append({"op": "add", "l": g.left, "r": g.right})
        else:
            gates.append({"op": "mul", "l": g.left, "r": g.right})
    return {"nvars": c.n_vars, "field": c.field.descriptor(), "gates": gates, "output": c.output}


def form_label(obj, field) -> LinearForm:
    """A JSON label as the ``LinearForm`` it names."""
    if not isinstance(obj, dict) or not isinstance(obj.get("coeffs", {}), dict):
        raise TypeError("a label must be an object whose coeffs are an object")
    return LinearForm.make(
        field,
        const=field.coeff_from_json(obj.get("const", field.coeff_to_json(field.zero()))),
        coeffs={_variable_key(v): field.coeff_from_json(a) for v, a in obj.get("coeffs", {}).items()},
    )


def form_decoded_abp(obj: dict, field=None) -> ABP:
    """``ABP.from_json`` through labels: each edge's label parsed into a
    ``LinearForm``, the forms of a repeated node pair added by ``form_sum``,
    one form per pair laid out by ``ABP.build``, then ``validate``."""
    if field is None:
        if "field" not in obj:
            raise ValidationError("ABP JSON lacks a field descriptor")
        field = field_from_json(obj["field"])
    layers = [json_int(s) for s in obj["layers"]]
    if sum(layers) > DEFAULT_MAX_TERMS:
        raise ResourceCapError(f"the program declares {sum(layers)} nodes, past the cap of {DEFAULT_MAX_TERMS}")
    labels: dict = {}
    for e in obj["edges"]:
        fl, fn = json_int(e["from"][0]), json_int(e["from"][1])
        tl, tn = json_int(e["to"][0]), json_int(e["to"][1])
        if tl != fl + 1:
            raise ValidationError(f"edge {e['from']} -> {e['to']} skips layers")
        if not 0 <= fl < len(layers) - 1:
            raise ValidationError(f"edge layer {fl} out of range")
        key, form = (fl, fn, tn), form_label(e["label"], field)
        labels[key] = form_sum(labels[key], form, field) if key in labels else form
    abp = ABP.build(json_int(obj["nvars"]), field, layers, labels)
    err = validate(abp)
    if err:
        raise ValidationError(err)
    return abp


def element_pit_randomized(p: ABP, trials: int = 20, seed: int = 0) -> PitVerdict:
    """``pit_randomized`` with element vectors stepped through
    ``Layer.times`` in every field, drawing ``big.random(rng)`` per layer
    and variable."""
    d = p.depth
    big, embed = _extension_with_embedding(p.field, max(2 * d, 2))
    bound = Fraction(d, big.order) if d else Fraction(0)
    zero, one = big.zero(), big.one()
    layers = [lay.map(embed) for lay in p.layers]
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        points = [[big.random(rng) for _ in range(p.n_vars)] for _ in range(d)]
        vec = [one]
        for layer, lay in enumerate(layers):
            vec = lay.times(vec, points[layer], p.layer_sizes[layer + 1], zero)
        if vec[0]:
            return PitVerdict(
                is_zero=False,
                method="randomized",
                witness={"trial": trial},
                trials=trial + 1,
                per_trial_bound=bound,
                value_json=big.coeff_to_json(vec[0]),
            )
    return PitVerdict(is_zero=True, method="randomized", trials=trials, per_trial_bound=bound)
