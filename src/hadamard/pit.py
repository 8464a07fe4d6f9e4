"""Identity testing for branching programs, plus reductions into them.

Four testers with different contracts:

* ``pit_rational``  — deterministic, rationals only.  The squared-coefficient
  sum of f, which is (f∘f)(1, …, 1) and over the rationals vanishes exactly
  when f does, comes from the Gram iteration X ← Σ_v S_vᵀ X S_v from
  X = e₀e₀ᵀ over the program's linear representation (S, f), where
  c_w = e₀·S_{w_1}⋯S_{w_L}·f (``abp.linear_representation``).  The product
  program f∘f is never built.
* ``pit_span_basis`` — deterministic, any field.  Walks ``abp.word_bases``
  over the same (S, f) from the source with one ``matrices.Echelon`` over
  words of every length, where ``abp.nisan_ranks``' ranks keep one per length;
  the first kept word with a nonzero coefficient is the shortest, then
  lexicographically least, such word: the witness that expanding the
  program would give.  Neither walk lays out homogeneous parts.
* ``pit_randomized`` — finite fields.  Replaces each variable with a fresh
  value per layer, which separates words by position, and evaluates at
  uniform points in an extension large enough for the usual degree-over-
  field-size failure bound.  Over an extension field F_{p^k} of order at
  most ``fields.TABLE_MAX_ORDER`` (F_16 for F_2 inputs of depth 5 to 8,
  F_25 for F_5 inputs of depth 3 to 12) it evaluates on the exponents of
  the field's log tables; over a prime field of at least 2·depth
  elements, and over a larger extension, on field elements.
* ``pit_bruteforce`` — expands the program (or circuit) outright.

``det_to_abp`` encodes a matrix determinant as a constant-labeled program
(closed-walk-sequence dynamic programming), and ``reach_to_abp`` encodes
s-t reachability of a digraph, so both reduce to identity tests.  Both write
the program's layer entries directly: the determinant's constants, whose
repeated node pairs add, through ``abp.merged_layers``, and reachability's
one entry per edge, each its own variable, through ``abp.layers_of``.
"""

from __future__ import annotations

import math
import random as _random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .abp import ABP, Layer, coefficient_of, constant_abp, layers_of, linear_representation, merged_layers, word_bases
from .circuits import Circuit
from .errors import DEFAULT_MAX_TERMS, ResourceCapError, ValidationError
from .fields import ExtField, Field, PrimeField, RationalField, json_int, raw_ops
from .matrices import Echelon


@dataclass
class PitVerdict:
    is_zero: bool
    method: str
    witness: Optional[dict] = None
    trials: Optional[int] = None
    per_trial_bound: Optional[Fraction] = None
    value_json: Optional[object] = None

    def to_json(self) -> dict:
        failure = None
        if self.per_trial_bound is not None and self.trials is not None:
            failure = str(self.per_trial_bound**self.trials)
        return {
            "is_zero": self.is_zero,
            "method": self.method,
            "witness": self.witness,
            "trials": self.trials,
            "per_trial_bound": None
            if self.per_trial_bound is None
            else str(self.per_trial_bound),
            "failure_bound": failure,
            "value": self.value_json,
        }


def _gram_step(x: dict, lay: Layer) -> dict:
    """Σ_v M_vᵀ X M_v over the layer's integer variable matrices, for a
    sparse X = {row: {col: value}}: per variable the product M_vᵀ X, then
    its product with M_v.  Constant entries are not read."""
    out: dict = {}
    for entries in lay.by_var.values():
        left: dict = {}  # M_vᵀ X, by row
        for a, c, k in entries:
            row = x.get(a)
            if row:
                acc = left.setdefault(c, {})
                for b, y in row.items():
                    acc[b] = acc.get(b, 0) + k * y
        by_row: dict = {}
        for b, d, k in entries:
            by_row.setdefault(b, []).append((d, k))
        for c, row in left.items():
            acc = out.setdefault(c, {})
            for b, y in row.items():
                if y:
                    for d, k in by_row.get(b, ()):
                        acc[d] = acc.get(d, 0) + y * k
    return out


def pit_rational(p: ABP) -> PitVerdict:
    """Zero iff the sum of squared coefficients is zero (rationals only).

    Over the ``linear_representation`` (S, f), the words of length L give
    Σ_{|w|=L} c_w² = fᵀ·X_L·f, where X_0 = e₀e₀ᵀ and X_{L+1} = Σ_v S_vᵀ X_L S_v;
    S is nilpotent, so X vanishes after at most depth + 1 lengths.
    """
    if not isinstance(p.field, RationalField):
        raise ValidationError("squared-coefficient test needs rational coefficients")
    matrices, final = linear_representation(p)
    # the iteration runs on integers: S is scaled by the least common
    # denominator of its entries and f by that of its own, and each length's
    # term is divided by the squared scales
    den = math.lcm(*(k.denominator for es in matrices.by_var.values() for _, _, k in es))
    steps = matrices.map(lambda k: k.numerator * (den // k.denominator))
    fden = math.lcm(*(k.denominator for k in final))
    f = [k.numerator * (fden // k.denominator) for k in final]
    total, x, scale = Fraction(0), {0: {0: 1}}, fden * fden
    while x:
        total += Fraction(sum(f[a] * y * f[b] for a, row in x.items() for b, y in row.items()), scale)
        x = _gram_step(x, steps)
        scale *= den * den
    return PitVerdict(
        is_zero=total == 0,
        method="square_sum",
        value_json=p.field.coeff_to_json(total),
    )


def pit_span_basis(p: ABP) -> PitVerdict:
    """Deterministic: the first word of the forward ``word_bases`` of the
    ``linear_representation`` (S, f), one ``Echelon`` for every length,
    whose vector has a nonzero product with f.  Every word's vector lies in
    the span of the kept words not after it, so no earlier word has one."""
    field = p.field
    into, _, _, out = raw_ops(field)
    matrices, final = linear_representation(p)
    column = {q: into(x) for q, x in enumerate(final) if x}
    for basis in word_bases(field, matrices, {0: field.one()}, [Echelon(field)] * (p.depth + 1)):
        for word, vec in basis:
            c = into(sum(x * column[q] for q, x in vec.items() if q in column))
            if c:
                c = out(c)
                if coefficient_of(p, word) != c:
                    raise RuntimeError(f"span basis witness {list(word)} disagrees with the program's coefficient")
                return PitVerdict(
                    is_zero=False,
                    method="span_basis",
                    witness={"word": list(word), "coeff": field.coeff_to_json(c)},
                )
    return PitVerdict(is_zero=True, method="span_basis")


# ---------------------------------------------------------------------------
# randomized evaluation


def _poly_eval_in(coeffs: Sequence[int], x):
    """Evaluate an integer-coefficient polynomial (low-degree-first) at x."""
    field = x.field
    acc = field.zero()
    for c in reversed(list(coeffs)):
        acc = acc * x + field.from_int(c)
    return acc


def _extension_with_embedding(field: Field, min_size: int):
    """A field of size >= min_size containing ``field``, with the embedding map."""
    if not isinstance(field, (PrimeField, ExtField)):
        raise ValidationError("randomized evaluation needs a finite field")
    if field.order >= min_size:
        return field, lambda x: x
    e = 2
    while field.order**e < min_size:
        e += 1
    if isinstance(field, PrimeField):
        big = ExtField.make(field.p, e)
        return big, lambda x: big.from_int(x.value)
    big = ExtField.make(field.p, field.k * e)
    root = next((cand for cand in big.elements() if not _poly_eval_in(field.modulus, cand)), None)
    assert root is not None, "an irreducible factor always has a root upstairs"
    return big, lambda x: _poly_eval_in(x.coeffs, root)


def _evaluator(big: Field, layers: list[Layer], sizes: Sequence[int], n_vars: int):
    """rng -> the value of the program with layers ``layers`` (over ``big``)
    at a point drawn from rng: one ``big.random(rng)`` per layer and
    variable, layer by layer, then a row vector stepped through the layers.

    Over an extension field with log tables (order at most
    ``fields.TABLE_MAX_ORDER``) the vector holds exponents of the tables'
    generator g, zero as 2(q-1): a product adds exponents, a sum takes a
    Zech logarithm, g^s + g^t = g^(s + zech[t - s]), and a drawn value is
    looked up by the coefficients ``big.random`` would give it.  Otherwise
    the vector holds elements and steps through ``Layer.times``.
    """
    tables = big._log_tables if isinstance(big, ExtField) else None
    if tables is None:
        zero, one = big.zero(), big.one()

        def element_value(rng):
            points = [[big.random(rng) for _ in range(n_vars)] for _ in layers]
            vec = [one]
            for lay, point, width in zip(layers, points, sizes[1:]):
                vec = lay.times(vec, point, width, zero)
            return vec[0]

        return element_value

    log, antilog = tables
    zech, n = big._zech, big.order - 1
    nil, p, k = 2 * n, big.p, big.k
    exponents = [lay.map(lambda x: log[x.coeffs]) for lay in layers]

    def exponent_value(rng):
        points = [[log[tuple(rng.randrange(p) for _ in range(k))] for _ in range(n_vars)] for _ in layers]
        vec = [0]
        for lay, point, width in zip(exponents, points, sizes[1:]):
            out = [nil] * width
            steps = [(lay.const, 0)] + [(es, point[v]) for v, es in lay.by_var.items() if point[v] != nil]
            for entries, x in steps:
                for a, c, e in entries:
                    y = vec[a]
                    if y != nil:
                        t = (y + e + x) % n
                        s = out[c]
                        if s == nil:
                            out[c] = t
                        else:
                            z = zech[(t - s) % n]
                            out[c] = nil if z == nil else (s + z) % n
            vec = out
        return antilog[vec[0]]

    return exponent_value


def pit_randomized(p: ABP, trials: int = 20, seed: int = 0) -> PitVerdict:
    """Per-layer variable relabeling + random evaluation over a big-enough
    extension.  A nonzero evaluation proves nonzero; all-zero evaluations
    leave a per-trial failure chance of at most depth / field size."""
    if isinstance(p.field, RationalField):
        raise ValidationError("use the square-sum test for rational programs")
    if trials < 1:
        raise ValidationError("at least one trial required")
    d = p.depth
    if d * p.n_vars > DEFAULT_MAX_TERMS:  # values each trial draws, one per layer and variable
        raise ResourceCapError(f"a trial draws {d * p.n_vars} values, past the cap of {DEFAULT_MAX_TERMS}")
    big, embed = _extension_with_embedding(p.field, max(2 * d, 2))
    bound = Fraction(d, big.order) if d else Fraction(0)
    value = _evaluator(big, [lay.map(embed) for lay in p.layers], p.layer_sizes, p.n_vars)
    for trial in range(trials):
        # each trial gets its own stream keyed by (seed, trial), so trial t
        # draws the same points no matter how many trials run before it
        x = value(_random.Random(f"{seed}:{trial}"))
        if x:
            return PitVerdict(
                is_zero=False,
                method="randomized",
                witness={"trial": trial},
                trials=trial + 1,
                per_trial_bound=bound,
                value_json=big.coeff_to_json(x),
            )
    return PitVerdict(
        is_zero=True, method="randomized", trials=trials, per_trial_bound=bound
    )


def pit_bruteforce(
    obj: Union[ABP, Circuit], max_terms: int = DEFAULT_MAX_TERMS
) -> PitVerdict:
    """Expand outright and look at the terms."""
    f = obj.expand(max_terms=max_terms)
    if f.is_zero():
        return PitVerdict(is_zero=True, method="bruteforce")
    word, coeff = f.sorted_terms()[0]
    return PitVerdict(
        is_zero=False,
        method="bruteforce",
        witness={"word": list(word), "coeff": f.field.coeff_to_json(coeff)},
    )


# ---------------------------------------------------------------------------
# determinant as a constant-labeled program


def det_to_abp(rows: Sequence[Sequence], field: Optional[Field] = None) -> ABP:
    """Program whose (constant) polynomial is the determinant.

    States walk closed-walk sequences: a node remembers the head of the
    current closed walk and the walk's position; closing a walk costs a
    sign flip, and a final global sign straightens the count out.  Paths
    use exactly n edges, so the program has n+1 layers of O(n^2) nodes and
    O(n^4) edges; more than ``DEFAULT_MAX_TERMS`` edges are refused before
    any is made.
    """
    if field is None:
        field = RationalField()
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValidationError("determinant needs a nonempty square matrix")
    # 2(n-1-h) edges leave the source for each head h, and each of the n-h
    # states with head h on each internal layer; one enters the sink per state
    n_edges = n * (n - 1) + (n - 2) * 2 * (n + 1) * n * (n - 1) // 3 + n * (n + 1) // 2
    if n_edges > DEFAULT_MAX_TERMS:
        raise ResourceCapError(
            f"the determinant program of a {n} x {n} matrix needs {n_edges} edges, "
            f"past the cap of {DEFAULT_MAX_TERMS}"
        )
    a = [[field.coerce(x) for x in row] for row in rows]
    minus_one = field.zero() - field.one()
    final_sign = field.one() if (n + 1) % 2 == 0 else minus_one

    if n == 1:
        return constant_abp(0, field, a[0][0])

    # internal layers share one state list: (head, current) with head <= current
    states = [(h, u) for h in range(n) for u in range(h, n)]
    index = {s: i for i, s in enumerate(states)}
    sizes = [1] + [len(states)] * (n - 1) + [1]
    edges = []

    def add(key, c):
        edges.append((key, {-1: c}))

    # layer 0: open the first walk at head h, take its first step
    for h in range(n):
        for v in range(h + 1, n):
            add((0, 0, index[(h, v)]), a[h][v])
        for h2 in range(h + 1, n):
            add((0, 0, index[(h2, h2)]), minus_one * a[h][h])
    # internal steps
    for layer in range(1, n - 1):
        for (h, u) in states:
            src = index[(h, u)]
            for v in range(h + 1, n):
                add((layer, src, index[(h, v)]), a[u][v])
            for h2 in range(h + 1, n):
                add((layer, src, index[(h2, h2)]), minus_one * a[u][h])
    # last step: close the final walk
    for (h, u) in states:
        add((n - 1, index[(h, u)], 0), final_sign * a[u][h])

    return ABP(0, field, tuple(sizes), merged_layers(n, edges))


# ---------------------------------------------------------------------------
# reachability as a multilinear program


@dataclass(frozen=True)
class Digraph:
    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    s: int
    t: int

    def __post_init__(self):
        if not (0 <= self.s < self.n_vertices and 0 <= self.t < self.n_vertices):
            raise ValidationError("endpoint out of range")
        for (u, v) in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValidationError(f"edge ({u},{v}) out of range")

    @classmethod
    def from_json(cls, obj: dict) -> "Digraph":
        return cls(
            json_int(obj["vertices"]),
            tuple((json_int(u), json_int(v)) for u, v in obj["edges"]),
            json_int(obj["s"]),
            json_int(obj["t"]),
        )

    def to_json(self) -> dict:
        return {
            "vertices": self.n_vertices,
            "edges": [[u, v] for u, v in self.edges],
            "s": self.s,
            "t": self.t,
        }


def reach_to_abp(g: Digraph, field: Optional[Field] = None) -> ABP:
    """Program that is nonzero exactly when t is reachable from s.

    Vertices are copied once per level; every program edge (graph step or
    stay-in-place) carries its own fresh variable, so distinct paths give
    distinct monomials and nothing can cancel.  More than
    ``DEFAULT_MAX_TERMS`` edges are refused before any is made."""
    if field is None:
        field = RationalField()
    if g.s == g.t:
        return constant_abp(0, field, 1)
    n = g.n_vertices
    depth = n - 1
    # one step along any out-edge, or stay in place to pad the path
    targets = [{u} for u in range(n)]
    for u, v in g.edges:
        targets[u].add(v)
    targets = [sorted(ts) for ts in targets]
    # out of s, then out of every vertex on each middle layer, then into t
    if depth == 1:
        n_edges = int(g.t in targets[g.s])
    else:
        n_edges = len(targets[g.s]) + (depth - 2) * sum(map(len, targets)) + sum(g.t in ts for ts in targets)
    if n_edges > DEFAULT_MAX_TERMS:
        raise ResourceCapError(
            f"the reachability program of a {n}-vertex graph needs {n_edges} edges, "
            f"past the cap of {DEFAULT_MAX_TERMS}"
        )
    # edge i carries variable i; the last layer keeps only the steps onto t
    keys = [
        (layer, src, v if layer < depth - 1 else 0)
        for layer in range(depth)
        for u, src in ([(g.s, 0)] if layer == 0 else [(u, u) for u in range(n)])
        for v in targets[u]
        if layer < depth - 1 or v == g.t
    ]
    one = field.one()
    layers = layers_of(depth, ((key, (var, one)) for var, key in enumerate(keys)))
    return ABP(len(keys), field, (1, *[n] * (depth - 1), 1), layers)
