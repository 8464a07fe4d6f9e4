"""Identity testing for branching programs, plus reductions into them.

Four testers with different contracts:

* ``pit_rational``  — deterministic, rationals only.  The squared-coefficient
  sum of f, which is (f∘f)(1, …, 1) and over the rationals vanishes exactly
  when f does, comes from a Gram iteration over the homogeneous parts of f:
  per part, X ← Σ_v M_vᵀ X M_v layer by layer from X = e₀e₀ᵀ, read at the
  sink.  The product program f∘f is never built.
* ``pit_span_basis`` — deterministic, any field.  Walks each homogeneous
  part forward, layer by layer, keeping a basis of the row vectors that the
  words read so far leave at the layer's nodes (at most one vector per
  node), each tagged with its word.  Words grow in length-then-lexicographic
  order and a vector is kept only when it leaves the span of those before
  it, so the first word to reach the sink is the shortest, then
  lexicographically least, word with a nonzero coefficient: the witness
  that expanding the program would give.
* ``pit_randomized`` — finite fields.  Replaces each variable with a fresh
  value per layer, which separates words by position, and evaluates at
  uniform points in an extension large enough for the usual degree-over-
  field-size failure bound.
* ``pit_bruteforce`` — expands the program (or circuit) outright.

``det_to_abp`` encodes a matrix determinant as a constant-labeled program
(closed-walk-sequence dynamic programming), and ``reach_to_abp`` encodes
s-t reachability of a digraph, so both reduce to identity tests.
"""

from __future__ import annotations

import math
import random as _random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .abp import (
    ABP,
    Layer,
    LinearForm,
    coefficient_of,
    constant_abp,
    homogeneous_parts,
)
from .circuits import Circuit
from .errors import DEFAULT_MAX_TERMS, ValidationError
from .fields import ExtField, Field, PrimeField, RationalField, json_int, raw_ops
from .matrices import independent_subset


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

    The sum is taken per homogeneous part: the constant part gives its
    square, and a part of degree k >= 1 with coefficient matrices M_v gives
    Σ_w c_w² = X[0][0] after X ← Σ_v M_vᵀ X M_v at each of its layers,
    starting from X = e₀e₀ᵀ.  The product program of p with itself, whose
    value at all-ones is the same sum, is never built.
    """
    if not isinstance(p.field, RationalField):
        raise ValidationError("squared-coefficient test needs rational coefficients")
    parts = homogeneous_parts(p)
    form = parts[0].label(0, 0, 0)
    total = form.const * form.const if form else Fraction(0)
    for part in parts[1:]:
        # the iteration runs on integers: each layer's matrices are scaled by
        # the least common denominator of their entries, and the part's value
        # is divided by the product of the squared scales at the end
        x, scale = {0: {0: 1}}, 1
        for lay in part.layers:
            den = math.lcm(*(k.denominator for es in lay.by_var.values() for _, _, k in es))
            x = _gram_step(x, lay.map(lambda k: k.numerator * (den // k.denominator)))
            scale *= den * den
        total += Fraction(x.get(0, {}).get(0, 0), scale)
    return PitVerdict(
        is_zero=total == 0,
        method="square_sum",
        value_json=p.field.coeff_to_json(total),
    )


def pit_span_basis(p: ABP) -> PitVerdict:
    """Deterministic: per degree, a forward word-tagged row basis of the
    homogeneous part; a word that reaches the sink is the witness.  Vectors
    hold the field's raw values (``fields.raw_ops``); each is multiplied by
    a layer's M_v directly."""
    field = p.field
    into, reduce, _, out = raw_ops(field)
    zero, one = into(field.zero()), into(field.one())
    for k, part in enumerate(homogeneous_parts(p)):
        if k == 0:
            form = part.label(0, 0, 0)
            if form is not None and form.const:
                return PitVerdict(
                    is_zero=False,
                    method="span_basis",
                    witness={"word": [], "coeff": field.coeff_to_json(form.const)},
                )
            continue
        basis = [((), [one])]
        for lay, width in zip(part.layers, part.layer_sizes[1:]):
            # a part's labels are homogeneous: its layers have no constants
            mats = sorted(lay.map(into).by_var.items())
            grown = []
            for word, vec in basis:
                for v, entries in mats:
                    row = [zero] * width
                    for a, c, x in entries:
                        y = vec[a]
                        if y:
                            row[c] = row[c] + y * x
                    grown.append((word + (v,), reduce(row)))
            keep = independent_subset([vec for _, vec in grown], field)
            basis = [grown[i] for i in keep]
        if basis:  # the sink has width 1: one kept word, nonzero coefficient
            word, (c,) = basis[0]
            c = out(c)
            if coefficient_of(p, word) != c:
                raise RuntimeError(
                    f"span basis witness {list(word)} disagrees with the "
                    "program's coefficient"
                )
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
    if isinstance(field, PrimeField):
        if field.p >= min_size:
            return field, lambda x: x
        e = 1
        while field.p**e < min_size:
            e += 1
        big = ExtField.make(field.p, e)
        return big, lambda x: big.from_int(x.value)
    if isinstance(field, ExtField):
        if field.order >= min_size:
            return field, lambda x: x
        e = 2
        while field.order**e < min_size:
            e += 1
        big = ExtField.make(field.p, field.k * e)
        root = None
        for cand in big.elements():
            if not _poly_eval_in(field.modulus, cand):
                root = cand
                break
        assert root is not None, "an irreducible factor always has a root upstairs"

        def embed(x, _root=root, _big=big):
            acc = _big.zero()
            for c in reversed(x.coeffs):
                acc = acc * _root + _big.from_int(c)
            return acc

        return big, embed
    raise ValidationError("randomized evaluation needs a finite field")


def pit_randomized(p: ABP, trials: int = 20, seed: int = 0) -> PitVerdict:
    """Per-layer variable relabeling + random evaluation over a big-enough
    extension.  A nonzero evaluation proves nonzero; all-zero evaluations
    leave a per-trial failure chance of at most depth / field size."""
    if isinstance(p.field, RationalField):
        raise ValidationError("use the square-sum test for rational programs")
    if trials < 1:
        raise ValidationError("at least one trial required")
    d = p.depth
    big, embed = _extension_with_embedding(p.field, max(2 * d, 2))
    bound = Fraction(d, big.order) if d else Fraction(0)
    zero, one = big.zero(), big.one()
    layers = [lay.map(embed) for lay in p.layers]
    for trial in range(trials):
        # each trial gets its own stream keyed by (seed, trial), so trial t
        # draws the same points no matter how many trials run before it
        rng = _random.Random(f"{seed}:{trial}")
        points = [
            [big.random(rng) for _ in range(p.n_vars)] for _ in range(d)
        ]
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


def hadamard_zero_circuits(
    c1: Circuit,
    c2: Circuit,
    max_degree: int = 12,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> PitVerdict:
    """Is the coefficient-wise product of two monotone circuits zero?

    Monotonicity rules out cancellation, so the product vanishes exactly
    when the circuits' monomial supports are disjoint."""
    if not (c1.is_monotone() and c2.is_monotone()):
        raise ValidationError("support comparison requires monotone circuits")
    f = c1.expand(max_degree=max_degree, max_terms=max_terms)
    g = c2.expand(max_degree=max_degree, max_terms=max_terms)
    common = f.mon_set() & g.mon_set()
    if not common:
        return PitVerdict(is_zero=True, method="monotone_support")
    word = min(common, key=lambda w: (len(w), w))
    return PitVerdict(
        is_zero=False,
        method="monotone_support",
        witness={"word": list(word), "coeff": None},
    )


# ---------------------------------------------------------------------------
# determinant as a constant-labeled program


def det_to_abp(rows: Sequence[Sequence], field: Optional[Field] = None) -> ABP:
    """Program whose (constant) polynomial is the determinant.

    States walk closed-walk sequences: a node remembers the head of the
    current closed walk and the walk's position; closing a walk costs a
    sign flip, and a final global sign straightens the count out.  Paths
    use exactly n edges, so the program has n+1 layers of O(n^2) nodes.
    """
    if field is None:
        field = RationalField()
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValidationError("determinant needs a nonempty square matrix")
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
        edges.append((key, LinearForm.constant(field, c)))

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

    return ABP.build(0, field, sizes, edges)


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
    distinct monomials and nothing can cancel."""
    if field is None:
        field = RationalField()
    if g.s == g.t:
        return constant_abp(0, field, 1)
    n = g.n_vertices
    depth = n - 1
    arcs = sorted(set(g.edges))
    sizes = [1] + [n] * (depth - 1) + [1]
    var_of: dict = {}

    for layer in range(depth):
        if layer == 0:
            outs = [(g.s, 0)]
        else:
            outs = [(u, u) for u in range(n)]
        for (u, src) in outs:
            # one step along any out-edge, or stay in place to pad the path
            targets = sorted({v for (uu, v) in arcs if uu == u} | {u})
            for v in targets:
                if layer == depth - 1:
                    if v != g.t:
                        continue
                    dst = 0
                else:
                    dst = v
                var_of.setdefault((layer, src, dst), len(var_of))

    labels = {
        key: LinearForm.of_var(field, var) for key, var in var_of.items()
    }
    return ABP.build(len(var_of), field, sizes, labels)
