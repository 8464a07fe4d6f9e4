"""Layered algebraic branching programs.

An ABP has layers 0..d with one node in layer 0 (the source) and one in
layer d (the sink).  Every edge goes from a layer to the next and carries an
affine linear form; the program computes the sum over source-to-sink paths
of the ordered product of the labels, a noncommutative polynomial of degree
at most d.  Parallel edges are not represented: ingesting two labels on the
same node pair means adding them, which ``merged_layers`` does, the one
place the rule is written, for ``ABP.from_json``, ``ABP.build``,
``abp_sum``'s depth-1 join and the determinant reduction of ``pit``.

A label's coefficients are canonical elements of the program's field, and
only the converting constructors ``LinearForm.make``, ``constant`` and
``of_var`` turn plain integers into such elements.  ``ABP.build`` stores the
coefficients it is given as they are and checks nothing.  Programs are
checked once, where they enter from outside data: ``ABP.from_json`` decodes
each label's coefficients through the field's ``coeff_from_json``, then runs
``validate``, which checks the layer shape, the entry ranges and that every
coefficient is canonical, without converting anything.  Before that it
refuses a file that declares more than ``DEFAULT_MAX_TERMS`` nodes in all,
since walks that lay out dense rows size them by the declared layer widths.
Programs the library makes from programs it trusts are not checked again.

A program stores its layers: per layer a ``Layer`` holding the sparse
constant matrix and one sparse coefficient matrix per variable, each a list
of (from, to, coefficient) entries, at most one per node pair and matrix,
none zero.  Entry order carries no meaning, and equality ignores it.  Every
builder writes entries straight into layers, through ``merged_layers`` where
node pairs repeat; ``prune`` and the program product renumber the live
entries as they write them.  ``ABP.from_json`` decodes each label into cells
{-1: constant, variable: coefficient} and makes no ``LinearForm``.  Labels
exist only at the JSON boundary: ``ABP.labels`` groups the entries for
``json_text``, ``ABP.build`` lays out forms for callers outside the library,
and ``ABP.edges`` is a read-only view of one ``LinearForm`` per (layer,
from, to), built on first read, which no library path reads.

Each walk is described where it is defined.  One of them applies the
constant closure C* = I + C + C² + ⋯ of the constant entries C: ``Walks``
closes a sparse vector over node numbers, forward or backward, and steps it
on one variable entry, so c_w = e₀·C*·V_{w_1}·C*⋯V_{w_L}·C*·e_sink and
neither C* nor any product with it is laid out.  ``homogeneous_parts``, one
degree-homogeneous part per degree, closes e_sink and each V_v·f backward
once, but a node's steps forward only when a part asks for them, since a
product that reads only low degrees asks from few nodes, where eager rows
would cost time quadratic in the depth.  ``normalize_edges`` splits a
part's nodes until every node pair carries a single variable, bar the lone
pair of a degree-1 part, which consumers read variable by variable; and
``word_bases`` keeps words by their unclosed vectors with one echelon over
all lengths for the span test and ``nisan_ranks``' zero test, and one per
length for its ranks, closing only the kept ones, so none expands the
program.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    ArityMismatchError,
    DEFAULT_MAX_TERMS,
    FieldMismatchError,
    ResourceCapError,
    ValidationError,
)
from .fields import Field, coeff_text, count_text, field_from_json, json_int, json_text, raw_ops
from .matrices import Echelon, Matrix
from .polynomials import NCPoly


@dataclass
class LinearForm:
    """An edge label, the affine form constant + sum of coefficient *
    variable, as ``ABP.build`` takes it and ``ABP.edges`` shows it.  It is a
    record with no arithmetic: labels add only as cells, in
    ``merged_layers``.

    ``LinearForm(const, coeffs)`` takes elements of the program's field as
    they are, every coefficient nonzero; ``make``, ``constant`` and
    ``of_var`` convert plain values and drop zero coefficients.
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


def _variable_key(key: str) -> int:
    """The variable a label's coeffs key names.  Only ``str(v)`` of a
    nonnegative v is accepted, so that no two keys of one label ("0", "00",
    " 0") can name the same variable."""
    try:
        v = int(key)
    except ValueError:
        v = -1
    if v < 0 or str(v) != key:
        raise ValidationError(f"label variable key {key!r} is not a nonnegative integer in canonical form")
    return v


def _coefficient_decoder(field: Field):
    """``field.coeff_from_json``, which a program's decode runs once per
    distinct string: its labels repeat few values, and each string is parsed
    and made an element only once."""
    decode = field.coeff_from_json
    seen: dict = {}

    def coefficient(x):
        if type(x) is not str:
            return decode(x)
        k = seen.get(x)
        if k is None:
            k = seen[x] = decode(x)
        return k

    return coefficient


@dataclass
class Layer:
    """Sparse coefficient matrices of one layer, entries (from, to,
    coefficient); two layers are equal when they hold the same entries, in
    whatever order."""

    const: list
    by_var: dict  # variable -> entries of its coefficient matrix

    def __eq__(self, other) -> bool:
        return isinstance(other, Layer) and self.cells() == other.cells()

    def matrices(self) -> list:
        """(variable, or -1 for the constant, entries) of each matrix, the
        constant first."""
        return [(-1, self.const), *self.by_var.items()]

    def cells(self) -> dict:
        """(from, to, variable, or -1 for the constant) -> coefficient."""
        return {(a, c, v): k for v, entries in self.matrices() for a, c, k in entries}

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


def layers_of(depth: int, items: Iterable[tuple[tuple[int, int, int], tuple[int, object]]]) -> list[Layer]:
    """``depth`` layers holding the items ((layer, from, to), (variable, or
    -1 for the constant, coefficient)), each nonzero and at most one per
    node pair and matrix."""
    layers = [Layer([], {}) for _ in range(depth)]
    for (layer, a, c), (v, k) in items:
        lay = layers[layer]
        (lay.const if v < 0 else lay.by_var.setdefault(v, [])).append((a, c, k))
    return layers


def merged_layers(depth: int, labels: Iterable[tuple[tuple[int, int, int], dict]]) -> list[Layer]:
    """``depth`` layers holding the labels ((layer, from, to), cells {-1:
    constant, variable: coefficient}).  The cells of a repeated node pair
    add into the first cells given for it, a sum that is zero leaves them,
    and the merged cells become entries in the order given, zeros
    dropped."""
    merged: dict = {}
    for key, cells in labels:
        old = merged.setdefault(key, cells)
        if old is not cells:  # a repeated node pair: add the labels
            for v, x in cells.items():
                x = old[v] + x if v in old else x
                if x:
                    old[v] = x
                else:
                    old.pop(v, None)
    return layers_of(depth, ((key, (v, x)) for key, cells in merged.items() for v, x in cells.items() if x))


@dataclass
class ABP:
    n_vars: int
    field: Field
    layer_sizes: tuple[int, ...]
    layers: list[Layer]  # layer i joins the nodes of layers i and i + 1

    @property
    def depth(self) -> int:
        return len(self.layer_sizes) - 1

    def node_count(self) -> int:
        return sum(self.layer_sizes)

    def edge_count(self) -> int:
        """Node pairs that carry a label, over all layers: each layer's
        distinct (from, to) pairs, read from its entries."""
        return sum(len({(a, c) for _, entries in lay.matrices() for a, c, _ in entries}) for lay in self.layers)

    def labels(self) -> Iterator[tuple[tuple[int, int, int], object, dict]]:
        """((layer, from, to), constant, {variable: coefficient}) of each
        labelled node pair in key order: one sort per layer of its rows (from,
        to, variable or -1 for the constant, coefficient), equal (from, to)
        runs grouped.  The sort never compares coefficients, since a layer
        holds at most one entry per node pair and matrix."""
        zero = self.field.zero()
        for layer, lay in enumerate(self.layers):
            rows = [(a, c, v, k) for v, entries in lay.matrices() for a, c, k in entries]
            rows.sort()
            pa = pc = label = None
            for a, c, v, k in rows:
                if a != pa or c != pc:  # a new pair; its constant, if any, sorts first
                    if label:
                        yield label  # the pair before is complete
                    pa, pc, label = a, c, ((layer, a, c), k if v < 0 else zero, {})
                if v >= 0:
                    label[2][v] = k
            if label:
                yield label

    @cached_property
    def edges(self) -> dict:
        """Read-only view: (layer, from, to) -> its ``LinearForm``, in key
        order, built on first read."""
        return {key: LinearForm(const, coeffs) for key, const, coeffs in self.labels()}

    @classmethod
    def build(
        cls,
        n_vars: int,
        field: Field,
        layer_sizes: Sequence[int],
        labels: dict | Iterable[tuple[tuple[int, int, int], LinearForm]],
    ) -> "ABP":
        """A program from a dict or an iterable of ((layer, from, to), form)
        pairs, each form's cells laid out by ``merged_layers``.  Nothing is
        checked: callers pass canonical forms that fit the layers."""
        pairs = labels.items() if isinstance(labels, dict) else labels
        cells = ((key, {-1: form.const, **form.coeffs}) for key, form in pairs)
        return cls(n_vars, field, tuple(layer_sizes), merged_layers(len(layer_sizes) - 1, cells))

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

    def json_text(self) -> str:
        """The program's compact sorted-key JSON text, edges in key order,
        each formatted directly from ``labels``, with no form or dict built
        for it.  A label with one variable, as every normalized product edge
        has, is written as it is; the coeffs keys of any other label sort as
        strings ("10" before "2"), as ``sort_keys`` sorts them."""
        text = coeff_text(self.field)
        parts = []
        for (layer, a, c), const, coeffs in self.labels():
            if len(coeffs) == 1:
                [(v, x)] = coeffs.items()
                body = f'"{v}":{text(x)}'
            else:
                body = ",".join(f'"{v}":{text(x)}' for v, x in sorted((str(v), x) for v, x in coeffs.items()))
            parts.append(
                f'{{"from":[{layer},{a}],"label":{{"coeffs":{{{body}}},"const":{text(const)}}},'
                f'"to":[{layer + 1},{c}]}}'
            )
        layers = ",".join(map(str, self.layer_sizes))
        return (
            f'{{"edges":[{",".join(parts)}],"field":{json_text(self.field.descriptor())},'
            f'"layers":[{layers}],"nvars":{self.n_vars}}}'
        )

    def to_json(self) -> dict:
        return json.loads(self.json_text())

    @classmethod
    def from_json(cls, obj: dict, field: Field | None = None) -> "ABP":
        """The program a JSON object describes, over its own field or else
        ``field``.  Each label is decoded straight into cells {-1: constant,
        variable: coefficient}, zero coefficients dropped, and the cells are
        laid out by ``merged_layers``.  ``validate`` then checks the
        result."""
        if field is None:
            if "field" not in obj:
                raise ValidationError("ABP JSON lacks a field descriptor")
            field = field_from_json(obj["field"])
        layers = [json_int(s) for s in obj["layers"]]
        if sum(layers) > DEFAULT_MAX_TERMS:
            raise ResourceCapError(
                f"the program declares {count_text(sum(layers))} nodes, past the cap of {DEFAULT_MAX_TERMS}"
            )
        decode, zero = _coefficient_decoder(field), field.zero()

        def labels():
            for e in obj["edges"]:
                fl, fn = json_int(e["from"][0]), json_int(e["from"][1])
                tl, tn = json_int(e["to"][0]), json_int(e["to"][1])
                if tl != fl + 1:
                    raise ValidationError(f"edge {e['from']} -> {e['to']} skips layers")
                if not 0 <= fl < len(layers) - 1:
                    raise ValidationError(f"edge layer {fl} out of range")
                label = e["label"]
                if not isinstance(label, dict) or not isinstance(label.get("coeffs", {}), dict):
                    raise TypeError("a label must be an object whose coeffs are an object")
                cells = {-1: decode(label["const"]) if "const" in label else zero}
                for v, x in label.get("coeffs", {}).items():
                    v, x = _variable_key(v), decode(x)
                    if x:
                        cells[v] = x
                yield (fl, fn, tn), cells

        merged = merged_layers(len(layers) - 1, labels())
        abp = cls(json_int(obj["nvars"]), field, tuple(layers), merged)
        err = validate(abp)
        if err:
            raise ValidationError(err)
        return abp

    def __repr__(self) -> str:
        return f"ABP(layers={list(self.layer_sizes)}, edges={self.edge_count()}, vars={self.n_vars})"


def validate(abp: ABP) -> Optional[str]:
    """First structural or entry violation as a message, or None if well formed."""
    ls = abp.layer_sizes
    if len(ls) < 1:
        return "no layers"
    if any(s < 1 for s in ls):
        return f"empty layer in {list(ls)}"
    if ls[0] != 1 or ls[-1] != 1:
        return "source and sink layers must have exactly one node"
    n_vars, coerce = abp.n_vars, abp.field.coerce
    if n_vars < 0:
        return "negative variable count"
    for layer, lay in enumerate(abp.layers):
        for v, entries in [(None, lay.const), *lay.by_var.items()]:
            for a, c, k in entries:
                if not 0 <= a < ls[layer]:
                    return f"edge source node {a} out of range in layer {layer}"
                if not 0 <= c < ls[layer + 1]:
                    return f"edge target node {c} out of range in layer {layer + 1}"
                if v is not None and not 0 <= v < n_vars:
                    return f"edge ({layer},{a},{c}) references a variable out of range"
                # coerce raises FieldMismatchError on another field's element
                # and returns a new object for a plain number
                if not k or coerce(k) is not k:
                    return f"edge ({layer},{a},{c}) has a label that is not canonical"
    return None


def zero_abp(n_vars: int, field: Field) -> ABP:
    return ABP(n_vars, field, (1, 1), [Layer([], {})])


def constant_abp(n_vars: int, field: Field, c) -> ABP:
    c = field.coerce(c)
    return ABP(n_vars, field, (1, 1), [Layer([(0, 0, c)] if c else [], {})])


def constant_value(part: ABP):
    """The value of a constant part, as ``homogeneous_parts`` returns first."""
    const = part.layers[0].const
    return const[0][2] if const else part.field.zero()


# ---------------------------------------------------------------------------
# homogenization


class Walks:
    """A program's constant closure C* = I + C + C² + ⋯ and its variable
    steps, applied to sparse vectors {node number: value}, node a of layer
    i numbered start[i] + a, so c_w = e₀·C*·V_{w_1}·C*⋯V_{w_L}·C*·e_sink
    for C the constant entries and V_v those of x_v.  Neither C* nor a
    product C*·V_v is laid out: ``close`` sums a vector's walks over the
    constant entries it reaches, ``step`` takes one variable entry.

    Values are ``fields.raw_ops`` values, with its ``into``, ``reduce`` and
    ``out``: over ℚ a program with integer entries is walked on ints."""

    def __init__(self, abp: ABP):
        self.into, self.reduce, _, self.out = raw_ops(abp.field)
        self.zero = self.into(0)
        start = list(itertools.accumulate(abp.layer_sizes, initial=0))
        self.sink = start[-2]
        # forward and backward: constant entries [(node, value)] and variable
        # entries [(variable, node, value)] out of each node
        self.const: tuple[dict, dict] = ({}, {})
        self.var: tuple[dict, dict] = ({}, {})
        for i, lay in enumerate(abp.layers):
            for v, entries in lay.matrices():
                for a, c, k in entries:
                    x = self.into(k)
                    g, h = start[i] + a, start[i + 1] + c
                    if v < 0:
                        self.const[0].setdefault(g, []).append((h, x))
                        self.const[1].setdefault(h, []).append((g, x))
                    else:
                        self.var[0].setdefault(g, []).append((v, h, x))
                        self.var[1].setdefault(h, []).append((v, g, x))

    def close(self, vec: dict, backward: bool = False) -> dict:
        """vec·C*, or C*·vec backward, zeros dropped, in one pass over the
        nodes that vec's constant walks reach and that a constant entry
        leaves, least first from a heap (greatest first backward): a node's
        value is complete when it is popped, since every constant entry
        enters a later layer."""
        into, entries = self.into, self.const[backward]
        sign = -1 if backward else 1
        out = dict(vec)
        heap = [sign * g for g in out if g in entries]
        heapify(heap)
        while heap:
            g = sign * heappop(heap)
            x = out[g] = into(out[g])
            if x:
                for h, k in entries[g]:
                    if h in out:
                        out[h] += k * x
                    else:
                        out[h] = k * x
                        if h in entries:
                            heappush(heap, sign * h)
        return self.reduce(out)

    def step(self, vec: dict, backward: bool = False) -> dict:
        """{v: vec·V_v}, or {v: V_v·vec} backward, for each variable whose
        product is nonzero, in variable order."""
        zero, entries = self.zero, self.var[backward]
        rows: dict = {}
        for g, x in vec.items():
            for v, h, k in entries.get(g, ()):
                row = rows.get(v)
                if row is None:
                    row = rows[v] = {}
                row[h] = row.get(h, zero) + k * x
        return {v: row for v in sorted(rows) if (row := self.reduce(rows[v]))}


def homogeneous_parts(abp: ABP, top: int) -> list[ABP]:
    """Degree-homogeneous programs, one per degree 0..min(top, depth).

    The part for degree k has k+1 layers.  A node of its layer w is a pair
    (original layer, original node) reachable after w variable-carrying
    steps; an edge bundles a constant-only walk followed by one
    variable-carrying original edge, and edges into the sink also absorb the
    trailing constant-only walk.  No part after the first has a constant
    entry.  With top >= depth the parts sum to the input; a reader passes
    the highest degree it reads.  The node count, cubic in the depth when
    top reaches it, is worked out from the layer sizes first: past
    ``DEFAULT_MAX_TERMS`` nothing is walked.

    The edges come from ``Walks``.  Those into the sink, and the constant
    part, read f = C*·e_sink and C*·V_v·f, closed backward once for every
    node.  An inner edge is a step e_g·C*·V_v, closed forward from node g
    only when a part holds g, and cached: a product that reads only low
    degrees asks from few nodes, where every node's steps would cost time
    quadratic in the depth on a deep affine chain.
    """
    field = abp.field
    d = abp.depth
    top = min(top, d)
    # layer w (0 < w < k) of part k lays out original layers w..d-(k-w) end to
    # end, so node g = start[i] + a sits at g - start[w] and the layer has
    # start[d-k+w+1] - start[w] nodes; summed over w by prefix sums of start
    start = list(itertools.accumulate(abp.layer_sizes, initial=0))
    twice = list(itertools.accumulate(start, initial=0))
    total = 2 + sum(2 + twice[d + 1] - twice[d - k + 2] - twice[k] for k in range(1, top + 1))
    if total > DEFAULT_MAX_TERMS:
        raise ResourceCapError(f"the homogeneous parts take {total} nodes, past the cap of {DEFAULT_MAX_TERMS}")
    walks = Walks(abp)
    f = walks.close({walks.sink: walks.into(1)}, True)
    to_sink: dict = {}  # node -> [(v, coefficient of its walks to the sink through one entry of x_v)]
    for v, vec in walks.step(f, True).items():
        for g, x in walks.close(vec, True).items():
            to_sink.setdefault(g, []).append((v, walks.out(x)))

    @cache
    def steps(g: int) -> list:
        rows = walks.step(walks.close({g: walks.into(1)}))
        return [(h, v, walks.out(x)) for v, row in rows.items() for h, x in row.items()]

    parts = [constant_abp(abp.n_vars, field, walks.out(f[0]) if 0 in f else field.zero())]
    leaving = sorted(walks.const[0].keys() | walks.var[0].keys())  # only nodes that an entry leaves are walked
    for k in range(1, top + 1):
        layers = [Layer([], {}) for _ in range(k)]
        for w, lay in enumerate(layers):
            # part layer w holds original layer 0, or layers w..d-k+w, node g at g - lo
            lo, hi = start[w], start[d - k + w + 1 if w else 1]
            for g in leaving[bisect_left(leaving, lo) : bisect_left(leaving, hi)]:
                if w == k - 1:  # constants, one variable entry, constants to the sink
                    edges = [(v, 0, x) for v, x in to_sink.get(g, ())]
                else:  # constants and one variable entry into part layer w + 1
                    edges = [(v, h - start[w + 1], x) for h, v, x in steps(g) if h < start[d - k + w + 2]]
                for v, c, x in edges:
                    lay.by_var.setdefault(v, []).append((g - lo, c, x))
        layer_sizes = (1, *(start[d - k + w + 1] - start[w] for w in range(1, k)), 1)
        parts.append(ABP(abp.n_vars, field, layer_sizes, layers))

    return parts


def is_homogeneous_program(abp: ABP) -> bool:
    return not any(lay.const for lay in abp.layers)


def normalize_edges(abp: ABP) -> ABP:
    """Split nodes so every node pair carries 0 or a single alpha * x_i.

    Requires a degree-homogeneous program of degree >= 1.  Internal nodes
    are duplicated per arriving variable; nodes feeding the sink are also
    duplicated per departing variable, so sink-bound labels split as well.
    Already-normal programs are returned as is.  A degree-1 program is the
    one shape that cannot be split at all — the lone source-to-sink label
    would need parallel edges, and a node pair carries one label — so it is
    returned unchanged and consumers accept multi-variable labels there.
    """
    if abp.depth < 1:
        raise ValidationError("normalization requires degree at least 1")
    if not is_homogeneous_program(abp):
        raise ValidationError("normalization requires homogeneous edge labels")
    d = abp.depth
    if d == 1:
        return abp
    layers = abp.layers
    if sum(len(es) for lay in layers for es in lay.by_var.values()) == abp.edge_count():  # one entry per labelled pair
        return abp

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

    out = [Layer([], {}) for _ in range(d)]
    for layer, lay in enumerate(layers):
        for v, entries in lay.by_var.items():
            split = []
            for a, c, k in entries:
                srcs = copies[layer].get(a, ())
                if layer == d - 1:
                    # each copy's sink edge keeps only its own departing variable
                    split.extend((i, 0, k) for i, _, t in srcs if t == v)
                else:
                    for j, u, _ in copies[layer + 1].get(c, ()):
                        if u == v:
                            split.extend((i, j, k) for i, _, _ in srcs)
            if split:
                out[layer].by_var[v] = split
    return ABP(abp.n_vars, abp.field, tuple(layer_sizes), out)


# ---------------------------------------------------------------------------
# sums and pruning


def sum_layout(
    part_sizes: Sequence[Sequence[int]], depth: Optional[int] = None
) -> tuple[list[int], int, list[tuple]]:
    """Node layout of ``abp_sum`` from the summands' layer sizes alone.

    Returns the layer sizes of the sum, the length of the delay chain (its
    edges (w, 0, 0), each labelled 1, for w below it), and per summand its
    placement: (shift, node offset per inner layer, depth).  Every summand
    has depth at least 1.  Node 0 of layers 1..(longest shift) is the chain;
    a summand shifted by s hangs off its node in layer s (the source when s
    is 0).  The sum is as deep as its deepest summand unless ``depth``, at
    least that deep, is given.
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
    return layer_nodes, chain, placements


def laid_out_sum(n_vars: int, field: Field, summands: Sequence[tuple], depth: Optional[int] = None) -> ABP:
    """The sum of the summands, each given as (layer sizes, layers), laid out
    as ``sum_layout`` lays them out: the delay chain's entries, each 1, then
    each summand's entries with their nodes moved to their places.  Every
    depth-1 summand joins the same two nodes, so their entries must lie in
    different matrices."""
    sizes, chain, placements = sum_layout([part_sizes for part_sizes, _ in summands], depth)
    layers = [Layer([(0, 0, field.one())] if w < chain else [], {}) for w in range(len(sizes) - 1)]
    for (shift, offsets, d), (_, lays) in zip(placements, summands):
        for layer, lay in enumerate(lays):
            sa = offsets[layer] if layer else 0
            sc = offsets[layer + 1] if layer + 1 < d else 0
            out = layers[layer + shift]
            out.const.extend([(a + sa, c + sc, k) for a, c, k in lay.const])
            for v, entries in lay.by_var.items():
                out.by_var.setdefault(v, []).extend([(a + sa, c + sc, k) for a, c, k in entries])
    return ABP(n_vars, field, tuple(sizes), layers)


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
    flat = [p for p in parts if p.depth == 1]
    if len(flat) > 1:
        # every depth-1 summand joins the chain's end to the sink: add their
        # labels into one summand, which has no inner node to lay out
        cells = (((0, 0, 0), {v: k for v, es in p.layers[0].matrices() for _, _, k in es}) for p in flat)
        parts = [p for p in parts if p.depth > 1] + [ABP(n_vars, field, (1, 1), merged_layers(1, cells))]
    return laid_out_sum(n_vars, field, [(p.layer_sizes, p.layers) for p in parts])


def live_nodes(depth: int, by_layer: Sequence[Sequence[tuple]]) -> Optional[list[dict[int, int]]]:
    """Per layer, {node: rank in sorted order} of the nodes on a source-to-sink
    path of the arcs, given as one list per layer of records (from, to, ...);
    None if no such path exists, as when fewer than ``depth`` lists are."""
    if len(by_layer) < depth:
        return None
    fwd, bwd = [{0}], [{0}]
    for records in by_layer:
        fwd.append({r[1] for r in records if r[0] in fwd[-1]})
    for records in reversed(by_layer):
        bwd.append({r[0] for r in records if r[1] in bwd[-1]})
    ranks = [{node: i for i, node in enumerate(sorted(f & b))} for f, b in zip(fwd, reversed(bwd))]
    return None if any(not rank for rank in ranks) else ranks


def prune(abp: ABP) -> ABP:
    """Drop nodes not on any source-to-sink edge path, renumbering each
    kept entry's nodes by their rank among the live ones; canonical zero if
    none."""
    d = abp.depth
    if d == 0:
        return abp
    ranks = live_nodes(d, [[e for _, es in lay.matrices() for e in es] for lay in abp.layers])
    if ranks is None:
        return zero_abp(abp.n_vars, abp.field)
    layers = []
    for lay, ra, rc in zip(abp.layers, ranks, ranks[1:]):
        kept = {v: [(ra[a], rc[c], k) for a, c, k in es if a in ra and c in rc] for v, es in lay.matrices()}
        layers.append(Layer(kept[-1], {v: es for v, es in kept.items() if v >= 0 and es}))
    return ABP(abp.n_vars, abp.field, tuple(map(len, ranks)), layers)


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
    vector for the whole word.  A vector is a dict holding only the nodes
    some entry reached, so a declared node no entry touches costs nothing.
    """
    word = tuple(int(v) for v in word)
    if any(not 0 <= v < abp.n_vars for v in word):
        raise ValidationError("word references a variable out of range")
    zero = abp.field.zero()
    n = len(word)
    vecs = [{0: abp.field.one()}] + [{} for _ in range(n)]
    for lay in abp.layers:
        nxt = [{} for _ in range(n + 1)]
        for i, vec in enumerate(vecs):
            steps = [(nxt[i], lay.const)]
            if i < n:
                steps.append((nxt[i + 1], lay.by_var.get(word[i], ())))
            for out, entries in steps:
                for a, c, k in entries:
                    y = vec.get(a)
                    if y:
                        out[c] = out.get(c, zero) + y * k
        vecs = nxt
    return vecs[n].get(0, zero)


# ---------------------------------------------------------------------------
# word bases and Nisan ranks


def word_bases(walks: Walks, backward: bool, echelons: Iterable[Echelon]) -> Iterator[list]:
    """Word-tagged bases [(word, vector, closed vector)], sparse in raw
    values, one per length while the length's echelon, the next of
    ``echelons``, keeps a word.  The vector of w is e₀·C*·V_{w_1}⋯C*·V_{w_L},
    unclosed, which the echelon takes; a kept word's vector is closed and
    grows by a ``Walks.step``.  Words go in length-then-lexicographic order
    and only kept ones grow, so every word's vector lies in the span of the
    kept words not after it.  Backward the walk starts at the sink, and
    (v_1, ..., v_L) tags V_{v_L}·C*⋯V_{v_1}·C*·e_sink.
    """
    grown = [((), {walks.sink if backward else 0: walks.into(1)})]
    for kept in echelons:
        basis = [(word, vec, walks.close(vec, backward)) for word, vec in grown if kept.add(vec)]
        if not basis:
            return
        yield basis
        grown = [(word + (v,), vec) for word, _, closed in basis for v, vec in walks.step(closed, backward).items()]


def nisan_ranks(abp: ABP) -> list[int]:
    """Ranks of the Nisan matrices M_0, ..., M_d of the polynomial the
    program computes, or [] when it is zero, decided first as ``pit span``
    decides it; one with terms of two degrees has none and raises
    ``ValidationError``.  M_k[u][w] = c_{uw} over |u| = k and |w| = d-k is
    the closed forward vector of u times the unclosed backward vector of w
    from e_sink, so rank M_k = rank(F_k·B_{d-k}ᵀ) for the ``word_bases`` F
    and B, one echelon per length: F_k must span every length-k vector.
    """
    field = abp.field
    walks = Walks(abp)
    sink = walks.sink

    def row(f: dict, basis: list) -> dict:
        """f's row of F_k·B_{d-k}ᵀ: its products with the unclosed vectors of B_{d-k}."""
        return {j: sum(x * b[c] for c, x in f.items() if c in b) for j, (_, b, _) in enumerate(basis)}

    shared = word_bases(walks, False, [Echelon(field)] * (abp.depth + 1))
    if not any(closed.get(sink) for basis in shared for _, _, closed in basis):
        return []
    fresh = map(Echelon, itertools.repeat(field))  # a new echelon per length of either walk
    forward = list(word_bases(walks, False, fresh))
    degrees = [k for k, basis in enumerate(forward) if any(closed.get(sink) for _, _, closed in basis)]
    if len(degrees) > 1:
        raise ValidationError("Nisan matrices require a homogeneous polynomial")
    (d,) = degrees
    backward = list(itertools.islice(word_bases(walks, True, fresh), d + 1))
    return [sum(map(Echelon(field).add, (row(f, backward[d - k]) for _, _, f in forward[k]))) for k in range(d + 1)]
