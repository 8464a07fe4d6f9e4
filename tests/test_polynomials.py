import random
from fractions import Fraction

import pytest

from hadamard.errors import ArityMismatchError, FieldMismatchError, ResourceCapError
from hadamard.fields import PrimeField, RationalField
from hadamard.polynomials import CPoly, NCPoly, corr, norm_sq

Q = RationalField()
F5 = PrimeField(5)


def nc(terms, n=2, field=Q):
    return NCPoly.from_terms(n, field, terms)


def random_nc(rng, n_vars, max_deg, n_terms, field=Q):
    terms = {}
    for _ in range(n_terms):
        d = rng.randint(0, max_deg)
        w = tuple(rng.randrange(n_vars) for _ in range(d))
        terms[w] = field.coerce(rng.randint(-3, 3))
    return NCPoly.from_terms(n_vars, field, terms)


def test_noncommutative_product_order_matters():
    x0 = NCPoly.var(2, Q, 0)
    x1 = NCPoly.var(2, Q, 1)
    assert x0.mul(x1) != x1.mul(x0)
    assert x0.mul(x1).terms == {(0, 1): Fraction(1)}


def test_square_of_sum_expands_to_four_words():
    s = NCPoly.var(2, Q, 0).add(NCPoly.var(2, Q, 1))
    sq = s.mul(s)
    assert sq.terms == {
        (0, 0): Fraction(1),
        (0, 1): Fraction(1),
        (1, 0): Fraction(1),
        (1, 1): Fraction(1),
    }


def test_hadamard_examples():
    f = nc({(0, 1): 2, (1, 0): 1})
    g = nc({(0, 1): 3, (0, 0): 7})
    assert f.hadamard(g).terms == {(0, 1): Fraction(6)}
    assert f.hadamard(NCPoly.zero(2, Q)).is_zero()
    # shared word with opposite coefficients over F_2: pointwise 1*1 = 1
    f2 = nc({(0, 1): 1}, field=PrimeField(2))
    g2 = nc({(0, 1): 1}, field=PrimeField(2))
    assert not f2.hadamard(g2).is_zero()


def test_mon_set_intersection_law():
    rng = random.Random(11)
    for _ in range(200):
        f = random_nc(rng, 3, 4, rng.randint(0, 8))
        g = random_nc(rng, 3, 4, rng.randint(0, 8))
        assert set(f.hadamard(g).terms) == set(f.terms) & set(g.terms)


def test_hadamard_bilinear_and_commutative():
    rng = random.Random(5)
    for _ in range(50):
        f = random_nc(rng, 2, 3, 5)
        g = random_nc(rng, 2, 3, 5)
        h = random_nc(rng, 2, 3, 5)
        assert f.hadamard(g) == g.hadamard(f)
        assert f.add(g).hadamard(h) == f.hadamard(h).add(g.hadamard(h))


def test_hadamard_with_all_ones_mask_is_identity():
    rng = random.Random(6)
    f = random_nc(rng, 2, 3, 6)
    mask = NCPoly.from_terms(2, Q, {w: 1 for w in f.terms})
    assert f.hadamard(mask) == f


def test_self_hadamard_at_ones_is_sum_of_squared_coeffs():
    rng = random.Random(7)
    for _ in range(30):
        f = random_nc(rng, 3, 3, 6)
        value = f.hadamard(f).evaluate([Fraction(1)] * 3)
        assert value == sum(c * c for c in f.terms.values())
        assert value >= 0


def test_evaluate_respects_substitution():
    f = nc({(0, 1): 1, (1, 0): 1})
    # commuting values: both words evaluate alike
    assert f.evaluate([Fraction(2), Fraction(3)]) == 12
    with pytest.raises(ArityMismatchError):
        f.evaluate([Fraction(1)])


def test_mul_resource_cap():
    f = nc({(0,): 1, (1,): 1})
    with pytest.raises(ResourceCapError):
        f.mul(f, max_terms=3)


def test_nc_product_cancellation():
    # (x0 + x0x0)(x0 - 1): the two x0x0 terms cancel
    f = nc({(0,): 1, (0, 0): 1})
    g = nc({(0,): 1, (): -1})
    assert f.mul(g).terms == {(0,): Fraction(-1), (0, 0, 0): Fraction(1)}


def test_equality_is_class_strict_and_unhashable():
    f = nc({(0,): 1})
    g = CPoly.from_terms(2, Q, {(0,): 1})
    assert f.terms == g.terms and f != g and g != f
    assert f == nc({(0,): 1}) and f != nc({(0,): 1}, field=F5)
    for p in (f, g):
        with pytest.raises(TypeError):
            hash(p)


def test_field_mismatch_refused():
    f = nc({(0,): 1})
    g = nc({(0,): 1}, field=F5)
    with pytest.raises(FieldMismatchError):
        f.add(g)


def test_nc_serialization_round_trip():
    rng = random.Random(9)
    for field in (Q, F5):
        f = random_nc(rng, 3, 3, 6, field)
        assert NCPoly.from_json(f.to_json()) == f


# ---------------------------------------------------------------------------
# commutative polynomials


def test_cpoly_product_merges_monomials():
    x0 = CPoly.var(2, Q, 0)
    x1 = CPoly.var(2, Q, 1)
    assert x0.mul(x1) == x1.mul(x0)
    s = x0.add(x1)
    assert s.mul(s).terms == {
        (0, 0): Fraction(1),
        (0, 1): Fraction(2),
        (1, 1): Fraction(1),
    }


def test_cpoly_from_terms_merges_sorted_keys():
    assert CPoly.from_terms(2, Q, {(1, 0): 1, (0, 1): 2}).terms == {(0, 1): Fraction(3)}
    assert CPoly.from_terms(2, Q, {(1, 0): 1, (0, 1): -1}).is_zero()


def test_cpoly_product_cancellation_and_cap():
    # (x0 + x1)(x0 - x1): the two x0x1 terms cancel
    f = CPoly.from_terms(2, Q, {(0,): 1, (1,): 1})
    g = CPoly.from_terms(2, Q, {(0,): 1, (1,): -1})
    assert f.mul(g).terms == {(0, 0): Fraction(1), (1, 1): Fraction(-1)}
    with pytest.raises(ResourceCapError):
        f.mul(g, max_terms=3)


def test_corr_examples():
    f = CPoly.from_terms(2, Q, {(0,): 1, (1,): 1})
    g = CPoly.from_terms(2, Q, {(0,): 1, (1,): -1})
    assert corr(f, g) == 0
    assert corr(f, f) == 2
    assert norm_sq(f) == 2
    assert corr(f, CPoly.zero(2, Q)) == 0


def test_corr_is_absolute():
    f = CPoly.from_terms(1, Q, {(0,): 1})
    g = CPoly.from_terms(1, Q, {(0,): -3})
    assert corr(f, g) == 3


def test_corr_cauchy_schwarz():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 4)
        def rand_ml():
            terms = {}
            for _ in range(rng.randint(0, 6)):
                support = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
                terms[support] = Fraction(rng.randint(-3, 3))
            return CPoly.from_terms(n, Q, terms)
        f, g = rand_ml(), rand_ml()
        assert corr(f, g) ** 2 <= norm_sq(f) * norm_sq(g)


def test_cpoly_hadamard_keeps_common_monomials():
    f = CPoly.from_terms(2, Q, {(0,): 2, (0, 1): 3})
    g = CPoly.from_terms(2, Q, {(0, 1): 5, (1,): 1})
    assert f.hadamard(g).terms == {(0, 1): Fraction(15)}


def test_cpoly_serialization_round_trip():
    f = CPoly.from_terms(4, Q, {(0, 3): Fraction(-1, 2), (): 2, (1, 1): 3})
    assert CPoly.from_json(f.to_json()) == f
    emitted = f.to_json()
    assert {"support": [0, 3], "coeff": "-1/2"} in emitted["terms"]
