"""Layered algebraic branching programs.

An ABP has layers 0..d with one node in layer 0 (the source) and one in
layer d (the sink).  Every edge goes from a layer to the next and carries an
affine linear form; the program computes the sum over source-to-sink paths
of the ordered product of the labels, a noncommutative polynomial of degree
at most d.  Parallel edges are not represented: ingesting two labels on the
same node pair means adding them, which ``ABP.build`` does.

A label's coefficients are canonical elements of the program's field, and
only the converting constructors ``LinearForm.make``, ``constant``,
``of_var`` and ``from_json`` turn other values (plain integers, JSON) into
such elements.  ``ABP.build`` stores the forms it is given as they are,
after merging parallel edges and dropping zero forms, and checks nothing.
Programs are checked once, where they enter from outside data:
``ABP.from_json`` runs ``validate``, which checks the layer shape, the edge
ranges and that every label is canonical, without converting anything.
Programs the library makes from programs it trusts are not checked again.

The edge map ``ABP.edges``, keyed (layer, from, to), is the stored form:
JSON, equality and validation read it.  Everything that walks a program
layer by layer reads the derived view ``ABP.layers`` instead.  Per layer it
holds the sparse constant matrix and one sparse coefficient matrix per
variable, each a list of (from, to, coefficient) entries; it is built once
per program, in one pass over the edges.

``homogeneous_parts`` splits a program into one degree-homogeneous program
per degree by degree-tracking node duplication: a node of the part for
degree k remembers which original node it is and how much degree has been
accumulated, and each new edge bundles a run of constant-labeled original
edges followed by exactly one variable-carrying step.  The parts therefore
have only homogeneous linear forms on their edges and their path length
equals their degree.  Constant runs are propagated sparsely: a backward
pass gives each node's constant weight to the sink, and the steps out of
each node are walked forward once and shared by every degree.

``normalize_edges`` further splits internal nodes per arriving variable so
that every edge except those into the sink mentions a single variable.  The
edge map has no parallel edges and the sink cannot be duplicated, so labels
on the last layer (and the single edge of a degree-1 program) may still
combine several variables; downstream constructions treat labels
variable-by-variable, which agrees with the single-variable normal form
whenever it applies.  Like every other walker it reads ``abp.layers``: each
node's copies are worked out once, and each per-variable entry becomes one
edge per pair of copies it joins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Optional, Sequence

from .errors import (
    ArityMismatchError,
    DEFAULT_MAX_TERMS,
    FieldMismatchError,
    ResourceCapError,
    ValidationError,
)
from .fields import Field, field_from_json, json_int
from .matrices import Matrix
from .polynomials import NCPoly


@dataclass
class LinearForm:
    """An affine form: constant + sum of coefficient * variable.

    ``LinearForm(const, coeffs)`` takes elements of the program's field as
    they are, every coefficient nonzero; ``make``, ``constant``, ``of_var``
    and ``from_json`` convert plain values and drop zero coefficients.
    """

    const: object
    coeffs: dict  # variable index -> nonzero coefficient

    @classmethod
    def make(cls, field: Field, const=0, coeffs: Optional[dict] = None) -> "LinearForm":
        c = field.coerce(const)
        out = {}
        for v, a in (coeffs or {}).items():
            a = field.coerce(a)
            if a:
                out[int(v)] = a
        return cls(c, out)

    @classmethod
    def constant(cls, field: Field, c) -> "LinearForm":
        return cls.make(field, const=c)

    @classmethod
    def of_var(cls, field: Field, v: int, coeff=1) -> "LinearForm":
        return cls.make(field, coeffs={v: coeff})

    def is_zero(self) -> bool:
        return not self.const and not self.coeffs

    def is_homogeneous(self) -> bool:
        return not self.const

    def single_variable(self) -> Optional[tuple[int, object]]:
        if not self.const and len(self.coeffs) == 1:
            return next(iter(self.coeffs.items()))
        return None

    def add(self, other: "LinearForm", field: Field) -> "LinearForm":
        coeffs = dict(self.coeffs)
        for v, a in other.coeffs.items():
            s = coeffs.get(v, field.zero()) + a
            if s:
                coeffs[v] = s
            else:
                coeffs.pop(v, None)
        return LinearForm(self.const + other.const, coeffs)

    def scale(self, c, field: Field) -> "LinearForm":
        c = field.coerce(c)
        if not c:
            return LinearForm(field.zero(), {})
        return LinearForm(c * self.const, {v: c * a for v, a in self.coeffs.items()})

    def to_json(self, field: Field) -> dict:
        return {
            "const": field.coeff_to_json(self.const),
            "coeffs": {str(v): field.coeff_to_json(a) for v, a in sorted(self.coeffs.items())},
        }

    @classmethod
    def from_json(cls, obj: dict, field: Field) -> "LinearForm":
        if not isinstance(obj, dict) or not isinstance(obj.get("coeffs", {}), dict):
            raise TypeError("a label must be an object whose coeffs are an object")
        return cls.make(
            field,
            const=field.coeff_from_json(obj.get("const", field.coeff_to_json(field.zero()))),
            coeffs={int(v): field.coeff_from_json(a) for v, a in obj.get("coeffs", {}).items()},
        )


@dataclass
class Layer:
    """Sparse coefficient matrices of one layer, entries (from, to, coefficient)."""

    const: list
    by_var: dict  # variable -> entries of its coefficient matrix

    def map(self, fn) -> "Layer":
        """The same layer with every coefficient replaced by fn(coefficient)."""
        return Layer(
            [(a, c, fn(k)) for a, c, k in self.const],
            {v: [(a, c, fn(k)) for a, c, k in es] for v, es in self.by_var.items()},
        )

    def times(self, vec: list, point: Sequence, width: int, zero) -> list:
        """The row vector vec times this layer's matrix evaluated at point."""
        out = [zero] * width
        for a, c, k in self.const:
            if vec[a]:
                out[c] = out[c] + vec[a] * k
        for v, entries in self.by_var.items():
            x = point[v]
            if not x:
                continue
            for a, c, k in entries:
                if vec[a]:
                    out[c] = out[c] + vec[a] * k * x
        return out


@dataclass
class ABP:
    n_vars: int
    field: Field
    layer_sizes: tuple[int, ...]
    edges: dict  # (layer, from_node, to_node) -> LinearForm, zero forms omitted

    @property
    def depth(self) -> int:
        return len(self.layer_sizes) - 1

    def node_count(self) -> int:
        return sum(self.layer_sizes)

    def edge_count(self) -> int:
        return len(self.edges)

    def label(self, layer: int, a: int, c: int) -> Optional[LinearForm]:
        return self.edges.get((layer, a, c))

    @cached_property
    def layers(self) -> list[Layer]:
        """Per layer, the sparse constant and per-variable coefficient matrices.

        Built on first use in one pass over ``edges``, in insertion order.
        Programs are not changed after ``build``, so it is built at most once.
        """
        out = [Layer([], {}) for _ in range(self.depth)]
        for (layer, a, c), form in self.edges.items():
            lay = out[layer]
            if form.const:
                lay.const.append((a, c, form.const))
            for v, k in form.coeffs.items():
                lay.by_var.setdefault(v, []).append((a, c, k))
        return out

    @classmethod
    def build(
        cls,
        n_vars: int,
        field: Field,
        layer_sizes: Sequence[int],
        edges: dict | Iterable[tuple[tuple[int, int, int], LinearForm]],
    ) -> "ABP":
        """A program from a dict or an iterable of ((layer, from, to), form)
        pairs; parallel edges merge by addition, zero labels drop.  Forms
        are stored as given and nothing is checked: callers pass canonical
        forms that fit the layers, and ``from_json`` validates outside data."""
        clean = {}
        for key, form in edges.items() if isinstance(edges, dict) else edges:
            if form.is_zero():
                continue
            if key in clean:  # parallel edges merge by addition
                form = clean[key].add(form, field)
                if form.is_zero():
                    del clean[key]
                    continue
            clean[key] = form
        return cls(n_vars, field, tuple(layer_sizes), clean)

    def expand(self, max_terms: int = DEFAULT_MAX_TERMS) -> NCPoly:
        """Path-by-path expansion into an explicit polynomial."""
        zero = self.field.zero()
        current = [{(): self.field.one()}]  # polynomials per node of layer 0
        for layer, lay in enumerate(self.layers):
            nxt = [dict() for _ in range(self.layer_sizes[layer + 1])]
            steps = [((), lay.const)] + [((v,), es) for v, es in lay.by_var.items()]
            for suffix, entries in steps:
                for a, c, k in entries:
                    src = current[a]
                    if not src:
                        continue
                    dst = nxt[c]
                    for word, coeff in src.items():
                        w = word + suffix
                        s = dst.get(w, zero) + coeff * k
                        if s:
                            dst[w] = s
                        else:
                            dst.pop(w, None)
            live = sum(len(d) for d in nxt)
            if live > max_terms:
                raise ResourceCapError(f"expansion exceeds {max_terms} terms at layer {layer + 1}")
            current = nxt
        return NCPoly(self.n_vars, self.field, dict(current[0]))

    def evaluate(self, point: Sequence):
        """Iterated matrix product of the labels evaluated at the point."""
        if len(point) != self.n_vars:
            raise ArityMismatchError(f"expected {self.n_vars} values, got {len(point)}")
        point = [self.field.coerce(x) for x in point]
        zero = self.field.zero()
        vec = [self.field.one()]
        for layer, lay in enumerate(self.layers):
            vec = lay.times(vec, point, self.layer_sizes[layer + 1], zero)
        return vec[0]

    def to_json(self) -> dict:
        out_edges = []
        for (layer, a, c) in sorted(self.edges):
            form = self.edges[(layer, a, c)]
            out_edges.append(
                {"from": [layer, a], "to": [layer + 1, c], "label": form.to_json(self.field)}
            )
        return {
            "nvars": self.n_vars,
            "field": self.field.descriptor(),
            "layers": list(self.layer_sizes),
            "edges": out_edges,
        }

    @classmethod
    def from_json(cls, obj: dict, field: Field | None = None) -> "ABP":
        if field is None:
            if "field" not in obj:
                raise ValidationError("ABP JSON lacks a field descriptor")
            field = field_from_json(obj["field"])
        layers = [json_int(s) for s in obj["layers"]]
        edges = []
        for e in obj["edges"]:
            fl, fn = json_int(e["from"][0]), json_int(e["from"][1])
            tl, tn = json_int(e["to"][0]), json_int(e["to"][1])
            if tl != fl + 1:
                raise ValidationError(f"edge {e['from']} -> {e['to']} skips layers")
            edges.append(((fl, fn, tn), LinearForm.from_json(e["label"], field)))
        abp = cls.build(json_int(obj["nvars"]), field, layers, edges)
        err = validate(abp)
        if err:
            raise ValidationError(err)
        return abp

    def __repr__(self) -> str:
        return f"ABP(layers={list(self.layer_sizes)}, edges={len(self.edges)}, vars={self.n_vars})"


def validate(abp: ABP) -> Optional[str]:
    """First structural or label violation as a message, or None if well formed."""
    ls = abp.layer_sizes
    if len(ls) < 1:
        return "no layers"
    if any(s < 1 for s in ls):
        return f"empty layer in {list(ls)}"
    if ls[0] != 1 or ls[-1] != 1:
        return "source and sink layers must have exactly one node"
    depth, n_vars, coerce = abp.depth, abp.n_vars, abp.field.coerce
    if n_vars < 0:
        return "negative variable count"
    for (layer, a, c), form in abp.edges.items():
        if not 0 <= layer < depth:
            return f"edge layer {layer} out of range"
        if not 0 <= a < ls[layer]:
            return f"edge source node {a} out of range in layer {layer}"
        if not 0 <= c < ls[layer + 1]:
            return f"edge target node {c} out of range in layer {layer + 1}"
        if form.is_zero():
            return f"edge ({layer},{a},{c}) stores an explicit zero label"
        # coerce raises FieldMismatchError on another field's element and
        # returns a new object for a plain number
        if coerce(form.const) is not form.const:
            return f"edge ({layer},{a},{c}) has a label that is not canonical"
        for v, x in form.coeffs.items():
            if not 0 <= v < n_vars:
                return f"edge ({layer},{a},{c}) references a variable out of range"
            if not x or coerce(x) is not x:
                return f"edge ({layer},{a},{c}) has a label that is not canonical"
    return None


def zero_abp(n_vars: int, field: Field) -> ABP:
    return ABP.build(n_vars, field, (1, 1), {})


def constant_abp(n_vars: int, field: Field, c) -> ABP:
    c = field.coerce(c)
    edges = {(0, 0, 0): LinearForm.constant(field, c)} if c else {}
    return ABP.build(n_vars, field, (1, 1), edges)


# ---------------------------------------------------------------------------
# homogenization


def homogeneous_parts(abp: ABP) -> list[ABP]:
    """Degree-homogeneous programs (one per degree 0..depth) summing to the input.

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


def is_homogeneous_program(abp: ABP) -> bool:
    return all(form.is_homogeneous() for form in abp.edges.values())


def normalize_edges(abp: ABP) -> ABP:
    """Split nodes so every edge label is 0 or a single alpha * x_i.

    Requires a degree-homogeneous program of degree >= 1.  Internal nodes
    are duplicated per arriving variable; nodes feeding the sink are also
    duplicated per departing variable, so sink-bound labels split as well.
    Already-normal programs are returned as is.  A degree-1 program is the
    one shape that cannot be split at all — the lone source-to-sink label
    would need parallel edges, which the edge map merges — so it is
    returned unchanged and consumers accept multi-variable labels there.
    """
    if abp.depth < 1:
        raise ValidationError("normalization requires degree at least 1")
    if not is_homogeneous_program(abp):
        raise ValidationError("normalization requires homogeneous edge labels")
    d = abp.depth
    if d == 1:
        return abp
    if all(form.single_variable() is not None for form in abp.edges.values()):
        return abp

    zero = abp.field.zero()
    layers = abp.layers
    # arriving variables per internal node; departing variables at layer d-1
    arriving: list[dict[int, set]] = [dict() for _ in range(d)]
    for layer in range(d - 1):
        for v, entries in layers[layer].by_var.items():
            for _, c, _ in entries:
                arriving[layer + 1].setdefault(c, set()).add(v)
    departing: dict[int, list[int]] = {}
    for v, entries in layers[d - 1].by_var.items():
        for a, _, _ in entries:
            departing.setdefault(a, []).append(v)

    # copies[w][c]: (index, arriving variable, departing variable or -1) of
    # each copy of node c of layer w, in node order
    copies: list[dict[int, list[tuple[int, int, int]]]] = [{0: [(0, -1, -1)]}]
    layer_sizes = [1]
    for w in range(1, d):
        here: dict[int, list[tuple[int, int, int]]] = {}
        count = 0
        for c in range(abp.layer_sizes[w]):
            outs = sorted(departing.get(c, ())) if w == d - 1 else [-1]
            for v in sorted(arriving[w].get(c, ())):
                for t in outs:
                    here.setdefault(c, []).append((count, v, t))
                    count += 1
        copies.append(here)
        layer_sizes.append(max(count, 1))  # a placeholder keeps the layer nonempty
    layer_sizes.append(1)

    edges: list[tuple[tuple[int, int, int], LinearForm]] = []
    for layer, lay in enumerate(layers):
        for v, entries in lay.by_var.items():
            for a, c, k in entries:
                form = LinearForm(zero, {v: k})
                srcs = copies[layer].get(a, ())
                if layer == d - 1:
                    # each copy's sink edge keeps only its own departing variable
                    edges.extend(((layer, i, 0), form) for i, _, t in srcs if t == v)
                else:
                    for j, u, _ in copies[layer + 1].get(c, ()):
                        if u == v:
                            edges.extend(((layer, i, j), form) for i, _, _ in srcs)
    return ABP.build(abp.n_vars, abp.field, layer_sizes, edges)


# ---------------------------------------------------------------------------
# sums and pruning


def sum_layout(
    part_sizes: Sequence[Sequence[int]], depth: Optional[int] = None
) -> tuple[list[int], list[tuple], list[tuple]]:
    """Node layout of ``abp_sum`` from the summands' layer sizes alone.

    Returns the layer sizes of the sum, the keys of the delay-chain edges
    (each labelled 1), and per summand its placement: (shift, node offset
    per inner layer, depth).  Every summand has depth at least 1.  Node 0
    of layers 1..(longest shift) is the chain; a summand shifted by s
    hangs off its node in layer s (the source when s is 0).  The sum is as
    deep as its deepest summand unless ``depth``, at least that deep, is
    given.
    """
    depths = [len(sizes) - 1 for sizes in part_sizes]
    depth = max(depths) if depth is None else depth
    chain = depth - min(depths)
    offsets: list[dict] = [dict() for _ in part_sizes]
    layer_nodes = [1] * (depth + 1)
    for w in range(1, depth):
        count = 1 if w <= chain else 0
        for pi, (sizes, d) in enumerate(zip(part_sizes, depths)):
            local = w - (depth - d)
            if 0 < local < d:
                offsets[pi][local] = count
                count += sizes[local]
        layer_nodes[w] = max(count, 1)  # an empty layer keeps a placeholder node
    placements = [(depth - d, offsets[pi], d) for pi, d in enumerate(depths)]
    return layer_nodes, [(w, 0, 0) for w in range(chain)], placements


def placed(placement: tuple, items: Iterable[tuple[tuple[int, int, int], object]]):
    """(key in the sum, value) for each (key in a summand, value), in order,
    where placement is the summand's entry from ``sum_layout``."""
    shift, offsets, depth = placement
    for (layer, a, c), value in items:
        src = 0 if layer == 0 else offsets[layer] + a
        dst = 0 if layer + 1 == depth else offsets[layer + 1] + c
        yield (layer + shift, src, dst), value


def sum_edges(chain: Sequence[tuple], placements: Sequence[tuple], item_iters: Sequence[Iterable], one_form):
    """(key, value) of the sum's edges in ``abp_sum``'s order: the delay
    chain's keys with ``one_form``, then each summand's items placed as
    ``sum_layout`` lays them out."""
    for key in chain:
        yield key, one_form
    for placement, items in zip(placements, item_iters):
        yield from placed(placement, items)


def abp_sum(parts: Sequence[ABP]) -> ABP:
    """Disjoint union behind a shared source and sink.

    Shorter programs are fed through a shared constant-1 delay chain hanging
    off the source, so the overhead over the summed sizes is at most the
    maximum depth plus one.
    """
    parts = list(parts)
    if not parts:
        raise ValidationError("empty sum")
    n_vars = parts[0].n_vars
    field = parts[0].field
    for p in parts:
        if p.n_vars != n_vars:
            raise ArityMismatchError("summands disagree on variable count")
        if p.field != field:
            raise FieldMismatchError("summands disagree on field")
    # a single-layer program computes the constant 1; lift it to depth 1
    parts = [constant_abp(n_vars, field, 1) if p.depth == 0 else p for p in parts]
    layer_nodes, chain, placements = sum_layout([p.layer_sizes for p in parts])
    one_form = LinearForm.constant(field, 1)
    edges = sum_edges(chain, placements, [p.edges.items() for p in parts], one_form)
    return ABP.build(n_vars, field, layer_nodes, edges)


def live_nodes(depth: int, arcs: Iterable[tuple[tuple[int, int, int], object]]) -> Optional[list[list[int]]]:
    """Per layer, the sorted nodes on some source-to-sink path of the arcs,
    given as ((layer, from, to), label) pairs; None if no such path exists."""
    by_layer: list[list[tuple[int, int]]] = [[] for _ in range(depth)]
    for (layer, a, c), _ in arcs:
        by_layer[layer].append((a, c))
    fwd = [set() for _ in range(depth + 1)]
    fwd[0].add(0)
    for layer in range(depth):
        fwd[layer + 1].update(c for a, c in by_layer[layer] if a in fwd[layer])
    bwd = [set() for _ in range(depth + 1)]
    bwd[depth].add(0)
    for layer in range(depth - 1, -1, -1):
        bwd[layer].update(a for a, c in by_layer[layer] if c in bwd[layer + 1])
    alive = [sorted(fwd[w] & bwd[w]) for w in range(depth + 1)]
    return None if any(not nodes for nodes in alive) else alive


def pruned_edges(alive: Sequence[Sequence[int]], items: Iterable[tuple[tuple[int, int, int], object]]):
    """(key, value) for each item whose two nodes are alive, in order, its
    nodes renumbered by their rank in ``alive`` (from ``live_nodes``)."""
    remap = [{node: i for i, node in enumerate(nodes)} for nodes in alive]
    for (layer, a, c), value in items:
        src, dst = remap[layer].get(a), remap[layer + 1].get(c)
        if src is not None and dst is not None:
            yield (layer, src, dst), value


def prune(abp: ABP) -> ABP:
    """Drop nodes not on any source-to-sink edge path; canonical zero if none."""
    d = abp.depth
    if d == 0:
        return abp
    alive = live_nodes(d, abp.edges.items())
    if alive is None:
        return zero_abp(abp.n_vars, abp.field)
    edges = pruned_edges(alive, abp.edges.items())
    return ABP.build(abp.n_vars, abp.field, [len(nodes) for nodes in alive], edges)


# ---------------------------------------------------------------------------
# coefficient matrices and word coefficients


def coefficient_matrices(abp: ABP) -> list[dict[int, Matrix]]:
    """Per layer, per variable: the matrix of that variable's coefficients.

    Requires homogeneous edge labels.  The coefficient of the degree-d word
    w_1...w_d is then the 1x1 iterated product M[0][w_1] ... M[d-1][w_d].
    """
    if not is_homogeneous_program(abp):
        raise ValidationError("coefficient matrices require homogeneous edge labels")
    field = abp.field
    out = []
    for layer, lay in enumerate(abp.layers):
        r, c = abp.layer_sizes[layer], abp.layer_sizes[layer + 1]
        mats = {}
        for v, entries in sorted(lay.by_var.items()):
            grid = [[field.zero()] * c for _ in range(r)]
            for a, b, k in entries:
                grid[a][b] = k
            mats[v] = Matrix.from_rows(field, grid)
        out.append(mats)
    return out


def coefficient_of(abp: ABP, word: Sequence[int]):
    """Coefficient of a word, read off the program's own layers.

    One row vector per prefix word[:i] is walked forward: at each layer the
    constant entries keep a prefix and the entries of variable word[i]
    extend word[:i] by one letter.  The coefficient is the sink entry of the
    vector for the whole word.
    """
    word = tuple(int(v) for v in word)
    if any(not 0 <= v < abp.n_vars for v in word):
        raise ValidationError("word references a variable out of range")
    zero = abp.field.zero()
    n = len(word)
    vecs = [[abp.field.one()]] + [[zero] for _ in range(n)]
    for lay, width in zip(abp.layers, abp.layer_sizes[1:]):
        nxt = [[zero] * width for _ in range(n + 1)]
        for i, vec in enumerate(vecs):
            steps = [(nxt[i], lay.const)]
            if i < n:
                steps.append((nxt[i + 1], lay.by_var.get(word[i], ())))
            for out, entries in steps:
                for a, c, k in entries:
                    if vec[a]:
                        out[c] = out[c] + vec[a] * k
        vecs = nxt
    return vecs[n][0]


# ---------------------------------------------------------------------------
# Nisan communication matrices


def nisan_matrix(f: NCPoly, k: int, max_entries: int = DEFAULT_MAX_TERMS) -> Matrix:
    """Rows are degree-k words, columns degree-(d-k) words, both lexicographic;
    the entry at (m, m') is the coefficient of the concatenation m m'."""
    if not f.is_homogeneous():
        raise ValidationError("Nisan matrices require a homogeneous polynomial")
    d = max(f.degree(), 0)
    if not 0 <= k <= d:
        raise ValidationError(f"k={k} outside 0..{d}")
    n = f.n_vars
    n_rows = n ** k
    n_cols = n ** (d - k)
    if n_rows * n_cols > max_entries:
        raise ResourceCapError(f"Nisan matrix would hold {n_rows * n_cols} entries")
    zero = f.field.zero()
    rows = []
    for left in _words(n, k):
        row = []
        for right in _words(n, d - k):
            row.append(f.terms.get(left + right, zero))
        rows.append(row)
    return Matrix.from_rows(f.field, rows)


def _words(n_vars: int, length: int):
    yield from itertools.product(range(n_vars), repeat=length)


def nisan_complexity(f: NCPoly, max_entries: int = DEFAULT_MAX_TERMS) -> int:
    """Sum of the ranks of all the communication matrices."""
    if f.is_zero():
        return 0
    d = f.degree()
    return sum(nisan_matrix(f, k, max_entries).rank() for k in range(d + 1))
