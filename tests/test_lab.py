"""Exact identities of the sign-polynomial lab."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hadamard import fields
from hadamard.cli import main
from hadamard.errors import ResourceCapError, ValidationError
from hadamard.fields import ExtField, psi
from hadamard.lab import (
    CorrelationReport,
    ExplicitParams,
    build_f,
    build_f_prime,
    correlation_report,
    exp_sum,
    f_coefficient,
    permanent_polynomials,
    permanent_via_hadamard,
    random_product_poly,
    shift_report,
    sign_correlation,
    sign_list,
    sum_coeffs,
    y_vector,
    zero_one_shift,
)
from hadamard.polynomials import CPoly, corr, norm_sq, rational_sum
from hadamard.fields import RationalField

from helpers import permanent, polynomial_lab_corr

Q = RationalField()

PARAM_GRID = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]


def test_params_validation():
    with pytest.raises(ValidationError):
        ExplicitParams(1, 4)  # block width must be prime
    with pytest.raises(ValidationError):
        ExplicitParams(0, 2)
    params = ExplicitParams(2, 3)
    assert params.n == 6
    assert list(params.block(1)) == [3, 4, 5]
    assert params.field.order == 8


def test_y_vector_encodes_block_membership():
    params = ExplicitParams(2, 2)
    ys = y_vector(params, (0, 3))
    assert ys[0].coeffs == (1, 0)  # block 0 uses its first variable
    assert ys[1].coeffs == (0, 1)  # block 1 uses its second variable
    assert y_vector(params, ())[0] == params.field.zero()


def test_coefficients_are_signs_and_respect_character():
    params = ExplicitParams(2, 2)
    for m in [(), (0,), (0, 1, 2, 3), (1, 2)]:
        assert f_coefficient(params, m) in (1, -1)
    # empty monomial gives the zero product, whose character is +1
    assert f_coefficient(params, ()) == 1
    # a monomial missing a whole block also zeroes the product
    assert f_coefficient(params, (0,)) == 1


def test_build_f_support_and_norm():
    for t, p in PARAM_GRID:
        params = ExplicitParams(t, p)
        f = build_f(params)
        assert len(f.terms) == 2**params.n  # full multilinear support
        assert all(c in (1, -1) for c in f.terms.values())
        assert norm_sq(f) == 2**params.n


def test_sum_coeffs_matches_closed_form():
    # summing the character over independent blocks: each block ranges over
    # the whole field, so the sum is q * (q^(t-1) - (q-1)^(t-1)) with q = 2^p
    for t, p in PARAM_GRID:
        params = ExplicitParams(t, p)
        q = 2**p
        expect = q * (q ** (t - 1) - (q - 1) ** (t - 1)) if t >= 1 else 0
        assert sum_coeffs(build_f(params)) == expect
        assert expect >= 0


def test_f_prime_is_indicator_and_correlates():
    for t, p in PARAM_GRID:
        params = ExplicitParams(t, p)
        f = build_f(params)
        fp = build_f_prime(params)
        assert all(c == 1 for c in fp.terms.values())
        # corr(F, (F+1)/2) = (2^n + sum F)/2 >= 2^(n-1)
        c = corr(f, fp)
        assert c == (Fraction(2**params.n) + sum_coeffs(f)) / 2
        assert c >= 2 ** (params.n - 1)


def test_exp_sum_orthogonality():
    params = ExplicitParams(2, 2)
    field = params.field
    full = list(field.elements())
    gen = field.gen()
    # over a single full-field set the character sums to zero unless z = 0
    assert exp_sum(params, z=0, sets=[full]) == 4
    assert exp_sum(params, z=1, sets=[full]) == 0
    assert exp_sum(params, z=gen, sets=[full]) == 0
    # with no sets the sum is the single character value
    assert exp_sum(params, z=0, sets=[]) == 1
    # two full sets: q*(q - (q-1)) = q
    assert exp_sum(params, z=1, sets=[full, full]) == 4
    assert exp_sum(params, z=1) == sum_coeffs(build_f(params))


def test_exp_sum_checks_its_cap_before_listing_the_field(monkeypatch):
    def listed(field):
        raise AssertionError("the field's elements were listed")

    monkeypatch.setattr(ExtField, "elements", listed)
    with pytest.raises(ResourceCapError):
        exp_sum(ExplicitParams(1, 13), max_terms=100)


def test_exp_sum_over_subsets():
    params = ExplicitParams(2, 2)
    field = params.field
    gen = field.gen()
    # singleton sets pick out a single character value
    assert exp_sum(params, sets=[[gen], [gen]]) == psi(gen * gen)
    # arbitrary rectangles match the brute-force definition
    s1 = [field.zero(), field.one(), gen]
    s2 = [field.one(), gen * gen]
    brute = sum(psi(a * b) for a in s1 for b in s2)
    assert exp_sum(params, sets=[s1, s2]) == brute
    # plain ints coerce to prime-subfield constants
    assert exp_sum(params, sets=[[0, 1], [1]]) == psi(field.zero()) + psi(field.one())


def test_exp_sum_agrees_with_bruteforce_definition():
    params = ExplicitParams(2, 3)
    field = params.field
    brute = 0
    for a in field.elements():
        for b in field.elements():
            brute += psi(a * b)
    assert exp_sum(params, z=1) == brute


# every field with sign tables that a test can walk whole: p in {2, 3, 5, 7}, t*p <= 10
TABLE_GRID = [(t, p) for p in (2, 3, 5, 7) for t in range(1, 10 // p + 1)]


@pytest.mark.parametrize("t, p", TABLE_GRID)
def test_table_build_f_matches_f_coefficient(t, p):
    params = ExplicitParams(t, p)
    assert params.field.sign_tables is not None
    n = params.n
    expected = {
        m: Fraction(f_coefficient(params, m))
        for size in range(n + 1)
        for m in itertools.combinations(range(n), size)
    }
    # the same coefficients, inserted in the same order
    assert list(build_f(params).terms.items()) == list(expected.items())


def _element_exp_sum(z, sets) -> int:
    """The character sum by its definition, one field product at a time."""
    total = 0
    for combo in itertools.product(*sets):
        prod = z
        for y in combo:
            prod = prod * y
        total += psi(prod)
    return total


@pytest.mark.parametrize("t, p", [(1, 2), (2, 2), (2, 3), (3, 3), (2, 5)])
def test_table_exp_sum_matches_element_loop(t, p):
    params = ExplicitParams(t, p)
    field = params.field
    rng = random.Random(f"expsum:{t}:{p}")
    elements = list(field.elements())
    zero, one, gen = field.zero(), field.one(), field.gen()
    zs = [zero, one, gen, rng.choice(elements[2:])]
    sets_list = [
        None,
        [[zero, one, gen, gen, zero]] + [[gen * gen, one, one, zero]] * (t - 1),
        [[zero, zero]] * t,
        [[gen]] * (t - 1) + [[]],
    ] + [
        [[rng.choice(elements) for _ in range(rng.randint(1, 6))] for _ in range(t)]
        for _ in range(4)
    ]
    for sets in sets_list:
        full = [elements] * t if sets is None else sets
        for z in zs:
            assert exp_sum(params, z=z, sets=sets) == _element_exp_sum(z, full), (sets, z)


def _exp_sum_sets(rng, field, t: int) -> list:
    """t random sets of 0 to 5 elements each, drawn with repeats from a pool
    of at most 6 elements that always holds zero and one."""
    elements = list(field.elements()) if field.order <= 64 else [field.random(rng) for _ in range(6)]
    pool = [field.zero(), field.one()] + rng.sample(elements, min(4, len(elements)))
    return [[rng.choice(pool) for _ in range(rng.randint(0, 5))] for _ in range(t)]


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_histogram_exp_sum_matches_enumeration(p):
    rng = random.Random(f"histogram:{p}")
    for t in (1, 2, 3) if p < 13 else (1, 2):
        params = ExplicitParams(t, p)
        field = params.field
        for _ in range(12):
            sets = _exp_sum_sets(rng, field, t)
            for z in (field.zero(), field.one(), field.gen()):
                assert exp_sum(params, z=z, sets=sets) == _element_exp_sum(z, sets), (sets, z)


def test_sign_list_is_indexed_by_bit_mask():
    for t, p in PARAM_GRID + [(1, 13)]:
        params = ExplicitParams(t, p)
        signs = sign_list(params)
        assert len(signs) == 2**params.n
        for m, c in build_f(params).terms.items():
            assert signs[sum(1 << v for v in m)] == c
    with pytest.raises(ResourceCapError, match="2\\^6 terms exceed the cap of 63"):
        sign_list(ExplicitParams(2, 3), max_terms=63)


def test_sign_reports_match_polynomial_reports():
    for t, p in PARAM_GRID:
        params = ExplicitParams(t, p)
        f, signs = build_f(params), sign_list(params)
        assert shift_report(signs) == correlation_report(f, zero_one_shift(f))
        assert 2 * shift_report(signs).corr - len(signs) == sum_coeffs(f)
        rng = random.Random(f"battery:{t}:{p}")
        for _ in range(5):
            g = random_product_poly(params, rng).poly()
            assert sign_correlation(signs, g) == correlation_report(f, g)
        zero = CPoly.zero(params.n, Q)
        assert sign_correlation(signs, zero) == correlation_report(f, zero)


# every (t, p) with p in {2, 3, 5, 7, 11} and t * p <= 12, then F_{2^13},
# where the signs go through field elements
CORR_GRID = [(t, p) for p in (2, 3, 5, 7, 11) for t in range(1, 12 // p + 1)] + [(1, 13)]


def _run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("t, p", CORR_GRID)
def test_lab_corr_matches_polynomial_assembly(t, p):
    runs = [(seed, battery) for seed in range(5) for battery in (0, 5)] if p < 13 else [(0, 2)]
    for seed, battery in runs:
        code, out, _ = _run("lab", "corr", "--t", str(t), "--p", str(p), "--seed", str(seed), "--battery", str(battery))
        expected = polynomial_lab_corr(t, p, seed, battery)
        assert code == 0
        assert out == json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n", (seed, battery)


@pytest.mark.parametrize("argv", [
    ["corr", "--t", "1", "--p", "257"],
    ["build-f", "--t", "1", "--p", "257"],
    ["expsum", "--t", "1", "--p", "257", "--z", "1"],
    ["corr", "--t", "7", "--p", "3"],
])
def test_lab_checks_its_caps_before_building_the_field(argv, monkeypatch):
    def searched(p, k):
        raise AssertionError("a modulus was searched")

    monkeypatch.setattr(fields, "find_irreducible", searched)
    start = time.perf_counter()
    code, out, err = _run("lab", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("resource cap:")


_COEFFS = st.fractions(min_value=-10, max_value=10, max_denominator=12)
_POLYS = st.dictionaries(
    st.lists(st.integers(0, 3), max_size=3).map(lambda m: tuple(sorted(m))), _COEFFS, max_size=12
)


def _multilinear(m) -> bool:
    return len(set(m)) == len(m)


@given(st.lists(_COEFFS, max_size=20), _POLYS, _POLYS)
def test_integer_sums_match_fraction_sums(values, a, b):
    assert rational_sum((c.numerator, c.denominator) for c in values) == sum(values, Fraction(0))
    f, g = CPoly.from_terms(4, Q, a), CPoly.from_terms(4, Q, b)
    common = [m for m in f.terms if _multilinear(m) and m in g.terms]
    assert corr(f, g) == abs(sum((f.terms[m] * g.terms[m] for m in common), Fraction(0)))
    assert norm_sq(f) == sum((c * c for m, c in f.terms.items() if _multilinear(m)), Fraction(0))
    assert sum_coeffs(f) == sum((c for m, c in f.terms.items() if _multilinear(m)), Fraction(0))


def test_zero_one_shift_of_rationals():
    # the constructor stores what it is given, a zero coefficient too
    for c in (Fraction(1, 3), Fraction(-5, 7), Fraction(0)):
        assert zero_one_shift(CPoly(3, Q, {(0, 2): c})).terms == {(0, 2): (c + 1) / 2}
    # -1 shifts to 0, which is not stored
    assert zero_one_shift(CPoly(3, Q, {(1,): Fraction(-1)})).terms == {}


def test_random_product_poly_is_deterministic_and_valid():
    params = ExplicitParams(2, 2)
    one = random_product_poly(params, random.Random(7))
    two = random_product_poly(params, random.Random(7))
    assert one == two
    assert one.a_vars.isdisjoint(one.b_vars)
    assert one.a_vars | one.b_vars == set(range(params.n))
    assert set().union(*one.g.terms) <= one.a_vars
    assert set().union(*one.h.terms) <= one.b_vars
    assert all(_multilinear(m) for m in [*one.g.terms, *one.h.terms])
    rep = correlation_report(build_f(params), one.poly())
    assert 0 <= rep.ratio_sq <= 1


def test_correlation_report_bounds():
    params = ExplicitParams(2, 2)
    f = build_f(params)
    g1 = CPoly.from_terms(4, Q, {(0,): 1, (0, 1): -1})
    h1 = CPoly.from_terms(4, Q, {(2,): 1, (3,): 1})
    g = g1.mul(h1)
    rep = correlation_report(f, g)
    assert isinstance(rep, CorrelationReport)
    assert 0 <= rep.ratio_sq <= 1  # Cauchy-Schwarz
    zero = correlation_report(f, CPoly.zero(4, Q))
    assert zero.ratio_sq == 0


def test_permanent_matches_permutation_oracle():
    rng = random.Random(321)
    for n in range(1, 5):
        rows, cols = permanent_polynomials(n)
        had = rows.hadamard(cols)
        # exactly the permutation monomials survive
        assert len(had.terms) == math.factorial(n)
        for _ in range(5):
            matrix = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            assert permanent_via_hadamard(matrix) == permanent(matrix)
    with pytest.raises(ValidationError):
        permanent_polynomials(7)
