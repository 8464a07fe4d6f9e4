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
builder writes entries straight into layers through ``layers_of``, or
through ``merged_layers`` where node pairs repeat; ``ABP.from_json`` decodes
each label into cells {-1: constant, variable: coefficient} and makes no
``LinearForm``.  Labels exist only at the JSON boundary: ``ABP.labels``
groups the entries for ``json_text``, ``ABP.build`` lays out forms for
callers outside the library, and ``ABP.edges`` is a read-only view of one
``LinearForm`` per (layer, from, to), built on first read, which no library
path reads.

Each walk is described where it is defined.  Two of them walk the
constant closure, each the way its readers need it.
``linear_representation`` builds (S, f), c_w = e₀·S_{w_1}⋯S_{w_L}·f over
the program's own nodes, in one backward pass that sums each node's row
once, since the identity tests and ``nisan_ranks`` read all of S.
``constant_walks`` serves ``homogeneous_parts``, one degree-homogeneous
part per degree: it sums the walks to the sink backward, but a node's steps
forward only when a part asks for them, since a product that reads only
low degrees asks from few nodes, where eager rows would cost time quadratic
in the depth.  ``normalize_edges`` splits a part's nodes until every node
pair carries a single variable, bar the lone pair of a degree-1 part, which
consumers read variable by variable; and ``word_bases`` walks S with one
echelon over all lengths for the span test and ``nisan_ranks``' zero test,
and one per length for its ranks, so none expands the program.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    ArityMismatchError,
    DEFAULT_MAX_TERMS,
    FieldMismatchError,
    ResourceCapError,
    ValidationError,
)
from .fields import Field, coeff_text, field_from_json, json_int, json_text, raw_ops
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
        labelled node pair in key order, grouped from the entries."""
        zero = self.field.zero()
        for layer, lay in enumerate(self.layers):
            grouped = {(a, c): (k, {}) for a, c, k in lay.const}
            for v, entries in lay.by_var.items():
                for a, c, k in entries:
                    grouped.setdefault((a, c), (zero, {}))[1][v] = k
            for a, c in sorted(grouped):
                yield (layer, a, c), *grouped[(a, c)]

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
                f"the program declares {sum(layers)} nodes, past the cap of {DEFAULT_MAX_TERMS}"
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


def constant_walks(abp: ABP) -> tuple[list[dict], object]:
    """(to_sink, steps), for ``homogeneous_parts``.  ``to_sink[j][b]`` sums
    the walks from node b of layer j to the sink as cells {-1: constants
    only, v: through one entry of x_v}, zeros dropped, in one backward pass:
    a constant entry carries every cell of the node it enters, an entry of
    x_v its -1 cell as the cell of v.  ``steps(i, a)``, cached, sums the
    steps out of node a of layer i — a constant-only walk, then one variable
    entry into a later layer j — as {j: [(b, v, coefficient)]}, zeros
    dropped.  Steps are walked forward on demand because a part reads them
    only from the nodes its inner layers hold: against a deep affine chain,
    a product of degree 2 reads those of the source alone, where summing
    every node's steps, as ``linear_representation`` does, would take time
    quadratic in the depth.

    The sums run on the field's raw values (``fields.raw_ops``): over F_p on
    residues, reduced and rid of zeros after each layer, and a coefficient
    becomes an element once, where ``to_sink`` or a step stores it.
    """
    into, reduce, _, out = raw_ops(abp.field)
    zero, one = into(0), into(1)
    d = abp.depth
    layers = [lay.map(into) for lay in abp.layers]

    to_sink: list[dict] = [dict() for _ in range(d + 1)]  # raw cells
    to_sink[d][0] = {-1: one}
    for j in range(d - 1, -1, -1):
        here, after = {}, to_sink[j + 1]
        for v, entries in layers[j].matrices():
            for a, c, k in entries:
                cells = after.get(c, {})
                if v >= 0:
                    cells = {v: cells[-1]} if -1 in cells else {}
                for u, t in cells.items():
                    mine = here.setdefault(a, {})
                    mine[u] = mine.get(u, zero) + k * t
        to_sink[j] = {a: kept for a, cells in here.items() if (kept := reduce(cells))}

    @cache
    def steps(i: int, a: int) -> dict[int, list]:
        by_layer: dict[int, list] = {}
        reach = {a: one}  # constant-only walks from (i, a) into layer j-1
        for j in range(i + 1, d + 1):
            coeffs: dict[tuple[int, int], object] = {}  # (b, v or -1) -> coefficient
            for v, entries in layers[j - 1].matrices():
                for m, b, k in entries:
                    w = reach.get(m)
                    if w:
                        coeffs[(b, v)] = coeffs.get((b, v), zero) + w * k
            coeffs = reduce(coeffs)
            by_layer[j] = [(b, v, out(x)) for (b, v), x in coeffs.items() if v >= 0]
            reach = {b: x for (b, v), x in coeffs.items() if v < 0}
            if not reach:
                break
        return by_layer

    return [{b: {u: out(x) for u, x in cells.items()} for b, cells in walks.items()} for walks in to_sink], steps


def homogeneous_parts(abp: ABP, top: int) -> list[ABP]:
    """Degree-homogeneous programs, one per degree 0..min(top, depth).

    The part for degree k has k+1 layers.  A node of its layer w is a pair
    (original layer, original node) reachable after w variable-carrying
    steps; an edge bundles a constant-only walk followed by one
    variable-carrying original edge, and edges into the sink also absorb the
    trailing constant-only walk.  No part after the first has a constant
    entry.  Inner edges are the ``constant_walks`` steps, edges into the sink
    and the constant part its backward sums.  With top >= depth the parts sum
    to the input; a reader passes the highest degree it reads.  The node
    count, cubic in the depth when top reaches it, is worked out from the
    layer sizes first: past ``DEFAULT_MAX_TERMS`` nothing is walked.
    """
    field = abp.field
    d = abp.depth
    layers = abp.layers
    top = min(top, d)
    # layer w (0 < w < k) of part k lays out original layers w..d-(k-w) end to
    # end, so node (i, a) sits at start[i] - start[w] + a and the layer has
    # start[d-k+w+1] - start[w] nodes; summed over w by prefix sums of start
    start = list(itertools.accumulate(abp.layer_sizes, initial=0))
    twice = list(itertools.accumulate(start, initial=0))
    total = 2 + sum(2 + twice[d + 1] - twice[d - k + 2] - twice[k] for k in range(1, top + 1))
    if total > DEFAULT_MAX_TERMS:
        raise ResourceCapError(f"the homogeneous parts take {total} nodes, past the cap of {DEFAULT_MAX_TERMS}")
    to_sink, steps = constant_walks(abp)

    parts = [constant_abp(abp.n_vars, field, to_sink[0].get(0, {}).get(-1, field.zero()))]
    # only the nodes that some entry leaves are walked, in node order
    leaving = [sorted({a for _, entries in lay.matrices() for a, _, _ in entries}) for lay in layers]

    for k in range(1, top + 1):
        nodes = [[(0, 0, a) for a in leaving[0]]] + [
            [(start[i] - start[w] + a, i, a) for i in range(w, d - k + w + 1) for a in leaving[i]]
            for w in range(1, k)
        ]
        out = [Layer([], {}) for _ in range(k)]
        for w in range(k - 1):
            by_var = out[w].by_var
            for src, i, a in nodes[w]:
                by_layer = steps(i, a)
                for j in range(i + 1, d - (k - w - 1) + 1):
                    offset = start[j] - start[w + 1]
                    for b, v, x in by_layer.get(j, ()):
                        by_var.setdefault(v, []).append((src, offset + b, x))
        # final step: constants, one variable entry, constants to the sink
        by_var = out[k - 1].by_var
        for src, i, a in nodes[k - 1]:
            for v, x in to_sink[i].get(a, {}).items():
                if v >= 0:
                    by_var.setdefault(v, []).append((src, 0, x))

        layer_sizes = (1, *(start[d - k + w + 1] - start[w] for w in range(1, k)), 1)
        parts.append(ABP(abp.n_vars, field, layer_sizes, out))

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
    cells = [lay.cells() for lay in layers]
    if all(len(cs) == len({(a, c) for a, c, _ in cs}) for cs in cells):  # no pair carries two variables
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


def live_nodes(depth: int, keys: Iterable[tuple[int, int, int]]) -> Optional[list[list[int]]]:
    """Per layer, the sorted nodes on some source-to-sink path of the arcs,
    given by their (layer, from, to) keys; None if no such path exists."""
    by_layer: list[list[tuple[int, int]]] = [[] for _ in range(depth)]
    for layer, a, c in keys:
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
    items = [((w, a, c), (v, k)) for w, lay in enumerate(abp.layers) for v, es in lay.matrices() for a, c, k in es]
    alive = live_nodes(d, (key for key, _ in items))
    if alive is None:
        return zero_abp(abp.n_vars, abp.field)
    return ABP(abp.n_vars, abp.field, tuple(len(nodes) for nodes in alive), layers_of(d, pruned_edges(alive, items)))


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
# the linear representation, its word bases and Nisan ranks


def linear_representation(abp: ABP) -> tuple[Layer, list]:
    """(S, f) with c_w = e₀·S_{w_1}⋯S_{w_L}·f for every word w, in
    ``fields.raw_ops`` values, from one backward pass over the program's
    layers.  The row of node a of layer i holds a's entries of x_v, each a
    step on x_v to the node it enters, plus k times the row of c for each
    constant entry (a, c, k); f(a) sums k·f(c) over the same constant
    entries, from f = 1 at the sink.  An entry of x_v into a node with
    neither a row nor a nonzero f adds no step, since every word through it
    has coefficient 0.  Each row is summed once, where its layer is passed.

    Positions are the source and every node that the row of a position
    enters, indexed in (layer, node) order, which the span test's echelon
    pivots by.  S is one square ``Layer`` whose entries (p, q, coefficient)
    of variable v are the steps of p's row into q on x_v, and f[p] is p's
    weight.  Every step enters a later layer, so S is nilpotent.
    """
    into, reduce, _, _ = raw_ops(abp.field)
    zero, one = into(0), into(1)
    start = list(itertools.accumulate(abp.layer_sizes, initial=0))
    n = 1 + max((v for lay in abp.layers for v in lay.by_var), default=0)
    # keyed by node number start[layer] + node: rows {node * n + variable:
    # coefficient} and f, zeros dropped
    rows: dict = {}
    f: dict = {start[-2]: one}
    for i in range(abp.depth - 1, -1, -1):
        here, after, lay = start[i], start[i + 1], abp.layers[i]
        sums: dict = {}
        weights: dict = {}
        for a, c, k in lay.const:
            row, y = rows.get(after + c), f.get(after + c)
            if row or y:
                a, k = here + a, into(k)
                if row:
                    acc = sums.setdefault(a, {})
                    for key, x in row.items():
                        acc[key] = acc.get(key, zero) + k * x
                if y:
                    weights[a] = weights.get(a, zero) + k * y
        for v, entries in lay.by_var.items():
            for a, c, k in entries:
                c += after
                if c in rows or c in f:
                    sums.setdefault(here + a, {})[c * n + v] = into(k)
        rows.update((a, row) for a, acc in sums.items() if (row := reduce(acc)))
        f.update(reduce(weights))

    entered = {0}
    for g in sorted(rows):
        if g in entered:
            entered.update(key // n for key in rows[g])
    index = {g: p for p, g in enumerate(sorted(entered))}
    by_var: dict = {}
    for g, p in index.items():
        for key, x in rows.pop(g, {}).items():
            q, v = divmod(key, n)
            by_var.setdefault(v, []).append((p, index[q], x))
    return Layer([], by_var), [f.get(g, zero) for g in index]


def word_bases(field: Field, matrices: Layer, start: dict, echelons: Iterable[Echelon]) -> Iterator[list]:
    """Word-tagged bases [(word, start·S_{w_1}⋯S_{w_L})], sparse in raw values,
    one per length while the length's echelon, the next of ``echelons``,
    keeps a word.  Words go in length-then-lexicographic order and only kept
    ones grow, so every word's vector lies in the span of the kept words not
    after it.  Over the transposed matrices (v_1, ..., v_L) tags S_{v_L}⋯S_{v_1}·start.
    The entries of S are raw values, as ``linear_representation`` gives them.
    """
    into, reduce, _, _ = raw_ops(field)
    zero = into(0)
    out_of: dict = {}  # position -> [(variable, position, raw coefficient)]
    for v, entries in matrices.by_var.items():
        for a, c, x in entries:
            out_of.setdefault(a, []).append((v, c, x))
    variables = sorted(matrices.by_var)
    grown = [((), reduce({a: into(x) for a, x in start.items()}))]
    for kept in echelons:
        basis = [(word, vec) for word, vec in grown if kept.add(vec)]
        if not basis:
            return
        yield basis
        grown = []
        for word, vec in basis:
            rows: dict = {v: {} for v in variables}
            for a, y in vec.items():
                for v, c, x in out_of.get(a, ()):
                    row = rows[v]
                    row[c] = row.get(c, zero) + y * x
            grown.extend((word + (v,), reduce(row)) for v, row in rows.items())


def nisan_ranks(abp: ABP) -> list[int]:
    """Ranks of the Nisan matrices M_0, ..., M_d of the polynomial the
    program computes, or [] when it is zero, decided first as ``pit span``
    decides it; one with terms of two degrees has none and raises
    ``ValidationError``.  M_k[u][w] = c_{uw} = e₀·S_u·S_w·f over |u| = k and
    |w| = d-k, so rank M_k = rank(F_k·B_{d-k}ᵀ) for the ``word_bases`` F
    from e₀ and B over the transposed S from f, one echelon per length: F_k
    must span every length-k vector.
    """
    field = abp.field
    into = raw_ops(field)[0]

    def dot(u: dict, w: dict):
        return sum(x * w[c] for c, x in u.items() if c in w)

    matrices, final = linear_representation(abp)
    column = {p: x for p, x in enumerate(final) if x}
    shared = word_bases(field, matrices, {0: field.one()}, [Echelon(field)] * (abp.depth + 1))
    if not any(into(dot(vec, column)) for basis in shared for _, vec in basis):
        return []
    fresh = map(Echelon, itertools.repeat(field))  # a new echelon per length of either walk
    forward = list(word_bases(field, matrices, {0: field.one()}, fresh))
    degrees = [k for k, basis in enumerate(forward) if any(into(dot(vec, column)) for _, vec in basis)]
    if len(degrees) > 1:
        raise ValidationError("Nisan matrices require a homogeneous polynomial")
    (d,) = degrees
    transposed = Layer([], {v: [(c, a, x) for a, c, x in es] for v, es in matrices.by_var.items()})
    backward = list(itertools.islice(word_bases(field, transposed, dict(enumerate(final)), fresh), d + 1))
    return [
        sum(map(Echelon(field).add, ({j: dot(f, b) for j, (_, b) in enumerate(backward[d - k])} for _, f in forward[k])))
        for k in range(d + 1)
    ]
