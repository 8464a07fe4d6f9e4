"""A desk-scale lab for an explicit sign polynomial over small binary fields.

Variables come in ``t`` blocks of ``p`` (a prime), one block per coordinate
of a vector over the 2^p-element field.  A multilinear monomial selects a
subset of each block; the subset's characteristic bits encode a field
element per block, and the monomial's coefficient is the +-1 additive
character of the product of those elements.  The resulting sign polynomial
F has full multilinear support, squared norm 2^n, and correlates strongly
with its own 0/1 shift — the quantities this module computes exactly.

F is held as one list of its 2^n signs, indexed by the monomial's bit mask
(``sign_list``); ``build_f`` is a view of that list.  ``lab corr`` builds
neither F nor its shift F' = (F+1)/2: with P the count of +1 signs and
N = 2^n, corr(F, F') = |F'|^2 = P, |F|^2 = N and the coefficient sum is
2P - N (``shift_report``), and a product-split polynomial reads F's sign at
each of its own monomials (``sign_correlation``).

Over fields with log tables (2^p at most ``fields.TABLE_MAX_ORDER`` = 2^12)
the signs and character sums are computed on exponents through
``ExtField.sign_tables``: a block's bits are an element code, its code a log,
and psi of a product is read at the sum of the logs.  A character sum folds
each set into a histogram of running log sums mod q-1, so it costs at most
(q-1) times the set's distinct logs per set, not the product of the set
sizes.  Larger fields go through field elements (``f_coefficient`` and the
element loop of ``exp_sum``), the only path that runs there.  The field is
built on first use, after the term and evaluation caps that need only t and
p, so a request past a cap is refused before a modulus is searched.

Also here: product polynomials on disjoint variable halves to correlate
against, and the permanent as a coefficient-wise product of row and column
polynomials on grids of at most ``MAX_PERMANENT_N`` rows.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import DEFAULT_MAX_TERMS, ResourceCapError, ValidationError
from .fields import ExtElement, ExtField, RationalField, count_text, is_prime, psi
from .polynomials import CPoly, corr, norm_sq, rational_sum

_Q = RationalField()


@dataclass(frozen=True)
class ExplicitParams:
    t: int  # number of blocks
    p: int  # block width, prime

    def __post_init__(self):
        if self.t < 1:
            raise ValidationError("need at least one block")
        if not is_prime(self.p):
            raise ValidationError(f"block width {self.p} must be prime")

    @property
    def n(self) -> int:
        return self.t * self.p

    @cached_property
    def field(self) -> ExtField:
        """F_{2^p}, built on first use: the caps that need only t and p are
        checked before its modulus is searched."""
        return ExtField.make(2, self.p)

    def block(self, i: int) -> range:
        if not 0 <= i < self.t:
            raise ValidationError(f"block {i} out of range")
        return range(i * self.p, (i + 1) * self.p)


def y_vector(params: ExplicitParams, monomial: Iterable[int]) -> list[ExtElement]:
    """Per block, the field element whose basis bits say which of the
    block's variables the monomial uses."""
    chosen = set(monomial)
    if any(not 0 <= v < params.n for v in chosen):
        raise ValidationError("monomial references a variable out of range")
    out = []
    for i in range(params.t):
        bits = [1 if v in chosen else 0 for v in params.block(i)]
        out.append(ExtElement(tuple(bits), params.field))
    return out


def f_coefficient(params: ExplicitParams, monomial: Iterable[int]) -> int:
    """The sign (+1 or -1) attached to a multilinear monomial."""
    ys = y_vector(params, monomial)
    prod = params.field.one()
    for y in ys:
        prod = prod * y
    return psi(prod)


def sign_list(params: ExplicitParams, max_terms: int = DEFAULT_MAX_TERMS) -> list[int]:
    """F's 2^n signs (+1 or -1), indexed by the monomial's bit mask: bit v
    is set exactly when x_v is in the monomial.  The cap is checked before
    the field is built."""
    n = params.n
    if _power_of_two_past(n, max_terms):
        raise ResourceCapError(f"2^{count_text(n)} terms exceed the cap of {max_terms}")
    tables = params.field.sign_tables
    if tables is None:
        return [
            f_coefficient(params, [v for v in range(n) if mask >> v & 1]) for mask in range(2**n)
        ]
    log_of_code, psi_of_log = tables
    order = len(psi_of_log)
    # a monomial's bit mask holds block i's code at bits i*p and up; taking
    # the blocks last to first, the place of a tuple of block logs is the mask
    return [
        1 if None in logs else psi_of_log[sum(logs) % order]
        for logs in itertools.product(log_of_code, repeat=params.t)
    ]


_SIGNS = {1: Fraction(1), -1: Fraction(-1)}


def build_f(params: ExplicitParams, max_terms: int = DEFAULT_MAX_TERMS) -> CPoly:
    """The full sign polynomial: all 2^n multilinear monomials, coefficients
    +-1 read off ``sign_list``, keyed by size and then lexicographically."""
    signs = sign_list(params, max_terms)
    n = params.n
    bits = [1 << v for v in range(n)]
    terms = {}
    for size in range(n + 1):
        for m, mask in zip(itertools.combinations(range(n), size), itertools.combinations(bits, size)):
            terms[m] = _SIGNS[signs[sum(mask)]]
    return CPoly(n, _Q, terms)


def build_f_prime(params: ExplicitParams, max_terms: int = DEFAULT_MAX_TERMS) -> CPoly:
    """The 0/1 shift (F+1)/2: indicator of the monomials where F is +1."""
    return zero_one_shift(build_f(params, max_terms=max_terms))


def zero_one_shift(f: CPoly) -> CPoly:
    """(c+1)/2 on each coefficient c of f: for a sign polynomial F, the
    indicator of the monomials where F is +1."""
    terms = {}
    for m, c in f.terms.items():
        # c = a/b gives (c+1)/2 = (a+b)/2b
        a, b = c.numerator, c.denominator
        if a != -b:
            terms[m] = Fraction(a + b, 2 * b)
    return CPoly(f.n_vars, _Q, terms)


def sum_coeffs(f: CPoly) -> Fraction:
    """Exact coefficient sum over the multilinear monomials."""
    return rational_sum(
        (c.numerator, c.denominator) for m, c in f.terms.items() if len(set(m)) == len(m)
    )


def _power_of_two_past(e: int, cap: int) -> bool:
    """Whether 2^e > cap, decided from the cap's bit length without making
    2^e."""
    return cap < 1 or e >= cap.bit_length()


def _evaluations(count: int, max_terms: int) -> int:
    if count > max_terms:
        raise ResourceCapError(f"character sum needs {count_text(count)} evaluations")
    return count


def full_sum_count(params: ExplicitParams, max_terms: int = DEFAULT_MAX_TERMS) -> int:
    """(2^p)^t, the evaluations of a character sum over t whole fields;
    ``ResourceCapError`` past ``max_terms``, before the field is built and
    before 2^(pt) is made."""
    e = params.p * params.t
    if _power_of_two_past(e, max_terms):
        raise ResourceCapError(f"character sum needs 2^{count_text(e)} evaluations, past the cap of {max_terms}")
    return 2**e


def exp_sum(
    params: ExplicitParams,
    z=1,
    sets: Optional[Sequence[Iterable]] = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> int:
    """Character sum over a rectangle of field subsets: the sum of
    psi(z * y_1 * ... * y_s) with y_i ranging over the i-th set.

    ``sets`` defaults to t copies of the whole field.  Entries are field
    elements (plain ints coerce to prime-subfield constants, so pass real
    elements for anything outside {0, 1})."""
    if sets is None:
        count = full_sum_count(params, max_terms)
    field = params.field
    z = field.coerce(z)
    if sets is None:
        chosen = [list(field.elements())] * params.t
    else:
        chosen = [[field.coerce(y) for y in group] for group in sets]
        if not chosen:
            return psi(z)
        # checked before any product is taken
        count = _evaluations(math.prod(len(group) for group in chosen), max_terms)
    tables = field.sign_tables
    if tables is not None:
        return _exp_sum_on_logs(tables, z, chosen, count)
    total = 0
    for combo in itertools.product(*chosen):
        prod = z
        for y in combo:
            prod = prod * y
        total += psi(prod)
    return total


def _exp_sum_on_logs(tables, z: ExtElement, chosen: list[list[ExtElement]], count: int) -> int:
    """``exp_sum`` over the ``count`` combinations of the sets ``chosen`` on
    exponents.  A combination with a zero factor, or any combination when z
    is zero, has the zero product and contributes psi(0) = 1.  The nonzero
    ones are folded set by set into a histogram of log(z) plus their logs
    mod q-1, each log counted as often as its set repeats it; psi is then
    read once per histogram entry."""
    log_of_code, psi_of_log = tables
    order = len(psi_of_log)

    def log(y: ExtElement):
        return log_of_code[sum(c << j for j, c in enumerate(y.coeffs))]

    start = log(z)
    if start is None:
        return count
    hist = {start: 1}
    for group in chosen:
        logs = Counter(e for e in map(log, group) if e is not None)
        folded = defaultdict(int)
        for e, a in hist.items():
            for d, b in logs.items():
                folded[(e + d) % order] += a * b
        hist = folded
    return count - sum(hist.values()) + sum(a * psi_of_log[e] for e, a in hist.items())


@dataclass
class CorrelationReport:
    corr: Fraction
    norm_f_sq: Fraction
    norm_g_sq: Fraction
    ratio_sq: Fraction  # corr^2 / (|f|^2 |g|^2), 0 when either norm vanishes

    def to_json(self) -> dict:
        return {
            "corr": str(self.corr),
            "norm_f_sq": str(self.norm_f_sq),
            "norm_g_sq": str(self.norm_g_sq),
            "ratio_sq": str(self.ratio_sq),
        }


def correlation_report(f: CPoly, g: CPoly) -> CorrelationReport:
    c = corr(f, g)
    nf, ng = norm_sq(f), norm_sq(g)
    ratio = c * c / (nf * ng) if nf and ng else Fraction(0)
    return CorrelationReport(c, nf, ng, ratio)


def shift_report(signs: Sequence[int]) -> CorrelationReport:
    """``correlation_report(F, zero_one_shift(F))`` for the sign polynomial
    F with this sign list, in closed form.  F' is the indicator of the P
    signs that are +1, so corr = |F'|^2 = P, |F|^2 = N = len(signs) and
    the squared ratio is P^2 / (N P) = P/N."""
    plus, total = signs.count(1), len(signs)
    return CorrelationReport(Fraction(plus), Fraction(total), Fraction(plus), Fraction(plus, total))


def sign_correlation(signs: Sequence[int], g: CPoly) -> CorrelationReport:
    """``correlation_report(F, g)`` for the sign polynomial F with this sign
    list: F has every multilinear monomial, so each multilinear monomial of
    g reads F's sign at its bit mask, and |F|^2 = len(signs)."""
    products = (
        (c.numerator * signs[sum(1 << v for v in m)], c.denominator)
        for m, c in g.terms.items()
        if len(set(m)) == len(m)
    )
    c = abs(rational_sum(products))
    nf, ng = Fraction(len(signs)), norm_sq(g)
    ratio = c * c / (nf * ng) if ng else Fraction(0)
    return CorrelationReport(c, nf, ng, ratio)


@dataclass(frozen=True)
class ProductPoly:
    """A polynomial split as g * h, with g over a_vars and h over b_vars."""

    a_vars: frozenset
    b_vars: frozenset
    g: CPoly
    h: CPoly

    def poly(self) -> CPoly:
        return self.g.mul(self.h)


def random_product_poly(params: ExplicitParams, rng) -> ProductPoly:
    """A random product split for correlation batteries: shuffle the
    variables, cut them in half, and draw sparse +-1 multilinear factors."""
    n = params.n
    order = list(range(n))
    rng.shuffle(order)
    half = n // 2
    a, b = sorted(order[:half]), sorted(order[half:])

    def draw(vars_):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(0, len(vars_))
            mono = tuple(sorted(rng.sample(vars_, size)))
            terms[mono] = Fraction(rng.choice((-1, 1)))
        return CPoly.from_terms(n, _Q, terms)

    return ProductPoly(frozenset(a), frozenset(b), draw(a), draw(b))


# ---------------------------------------------------------------------------
# the permanent as a coefficient-wise product


# the row polynomial of an n x n grid has n^n terms
MAX_PERMANENT_N = 5


def permanent_polynomials(n: int) -> tuple[CPoly, CPoly]:
    """Row and column polynomials on an n x n variable grid (x_ij at i*n+j):
    the product of row sums and the product of column sums.  Their
    coefficient-wise product keeps exactly the permutation monomials."""
    if not 1 <= n <= MAX_PERMANENT_N:
        raise ValidationError(f"grid size must be between 1 and {MAX_PERMANENT_N}")
    nv = n * n
    rows = CPoly.const(nv, _Q, 1)
    for i in range(n):
        rows = rows.mul(
            CPoly.from_terms(nv, _Q, {(i * n + j,): 1 for j in range(n)})
        )
    cols = CPoly.const(nv, _Q, 1)
    for j in range(n):
        cols = cols.mul(
            CPoly.from_terms(nv, _Q, {(i * n + j,): 1 for i in range(n)})
        )
    return rows, cols


def permanent_via_hadamard(matrix: Sequence[Sequence]) -> Fraction:
    """Permanent of a rational matrix, via the row/column product pair."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValidationError("permanent needs a square matrix")
    rows, cols = permanent_polynomials(n)
    point = [Fraction(matrix[i][j]) for i in range(n) for j in range(n)]
    return rows.hadamard(cols).evaluate(point)
