import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hadamard import fields
from hadamard.errors import FieldMismatchError, ResourceCapError, ValidationError
from hadamard.fields import (
    MODULUS_BITS,
    PRIME_TEST_BOUND,
    TABLE_MAX_ORDER,
    ExtField,
    PrimeField,
    RationalField,
    field_from_json,
    find_irreducible,
    is_prime,
    parse_field_spec,
    psi,
    raw_ops,
    _poly_is_irreducible,
)
from helpers import (
    coefficient_sum,
    powering_trace,
    schoolbook_mul,
    trial_division_find_irreducible,
    trial_division_irreducible,
)

Q = RationalField()
F5 = PrimeField(5)
F4 = ExtField.make(2, 2)
# every field F_{p^k} of order at most 32, degree 1 included
SMALL = [ExtField.make(p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)] + [
    ExtField.make(p, k) for p, k in ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5))
]


def test_rational_arithmetic():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Q.coerce(3) == Fraction(3)
    assert Q.coeff_from_json("-1/2") == Fraction(-1, 2)
    assert Q.coeff_to_json(Fraction(5, 6)) == "5/6"


def test_rational_raw_values_are_ints_where_integral():
    into, reduce, inverse, out = raw_ops(Q)
    six = into(Fraction(6))
    assert type(six) is int and six == 6
    assert type(into(Fraction(1, 2))) is Fraction and into(Fraction(1, 2)) == Fraction(1, 2)
    assert type(into(-4)) is int and into(-4) == -4
    with pytest.raises(FieldMismatchError):
        into(F5.one())
    assert type(out(6)) is Fraction and out(6) == Fraction(6)
    assert out(Fraction(1, 2)) == Fraction(1, 2)
    # an integral Fraction a product leaves becomes an int, zeros drop
    reduced = reduce({0: Fraction(1, 2) * 4, 1: Fraction(0), 2: Fraction(2, 3), 3: 5})
    assert reduced == {0: 2, 2: Fraction(2, 3), 3: 5}
    assert [type(x) for x in reduced.values()] == [int, Fraction, int]
    assert type(inverse(3)) is Fraction and inverse(3) == Fraction(1, 3)


def test_prime_field_arithmetic():
    a, b = F5.from_int(3), F5.from_int(4)
    assert (a * b).value == 2
    assert (a + b).value == 2
    assert (a / b).value == 2  # 3 * 4^{-1} = 3 * 4 = 12 = 2
    assert (F5.one() / a).value == 2
    with pytest.raises(ZeroDivisionError):
        F5.one() / F5.zero()


def test_f4_multiplication_table():
    x = F4.gen()
    assert (x * x) == x + F4.one()  # x^2 = x + 1 mod x^2+x+1
    assert (x * x * x) == F4.one()  # multiplicative order 3


def test_find_irreducible_smallest():
    assert find_irreducible(2, 1) == (0, 1)  # x itself
    assert find_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert find_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
    with pytest.raises(ValidationError):
        find_irreducible(4, 2)


def test_rabin_test_agrees_with_trial_division():
    for p, max_degree in ((2, 9), (3, 6), (5, 4), (7, 3)):
        for k in range(1, max_degree + 1):
            for low in itertools.product(range(p), repeat=k):
                f = list(low) + [1]
                assert _poly_is_irreducible(f, p) == trial_division_irreducible(f, p), (p, f)


def test_moduli_unchanged_up_to_order_4096():
    for p in filter(is_prime, range(2, 4097)):
        k = 1
        while p**k <= 4096:
            assert find_irreducible(p, k) == trial_division_find_irreducible(p, k), (p, k)
            k += 1


def test_high_degree_extension_fields_build_quickly():
    start = time.perf_counter()
    f = ExtField.make(2, 31)
    assert time.perf_counter() - start < 1.0
    assert f.order == 2**31 and f.gen() ** (2**31) == f.gen()


def test_degree_bound_is_checked_before_any_modulus_test(monkeypatch):
    def tested(coeffs, p):
        raise AssertionError("a modulus was tested")

    monkeypatch.setattr(fields, "_poly_is_irreducible", tested)
    for p in (2, 3, 5, 2**31 - 1, 2**61 - 1):
        bound = MODULUS_BITS // p.bit_length()
        assert bound * p.bit_length() <= MODULUS_BITS < (bound + 1) * p.bit_length()
        k = bound + 1
        with pytest.raises(ResourceCapError, match=f"degree {k} over F_{p} exceeds the bound of {bound}"):
            find_irreducible(p, k)
        with pytest.raises(ResourceCapError, match=f"bound of {bound}"):
            ExtField(p, k, (1,) + (0,) * (k - 1) + (1,))
    assert MODULUS_BITS // (2).bit_length() == 64


def _is_square(a: int, p: int) -> bool:
    return pow(a % p, (p - 1) // 2, p) != p - 1


@pytest.mark.parametrize("p", [2**61 - 1, 10**9 + 9])
def test_quadratic_moduli_over_large_primes_are_found_at_once(p):
    start = time.perf_counter()
    c0, c1, lead = find_irreducible(p, 2)
    assert time.perf_counter() - start < 1.0
    # x^2 + c1 x + c0 is irreducible exactly when its discriminant is not a
    # square, and every candidate before it, (1, 0), (1, 1), ..., is reducible
    assert lead == 1 and c0 == 1 and not _is_square(c1 * c1 - 4, p)
    assert all(_is_square(b * b - 4, p) for b in range(c1))


def test_trace_on_f4():
    zero, one, x = F4.zero(), F4.one(), F4.gen()
    elems = (zero, one, x, x + one)
    assert [psi(a) for a in elems] == [1, 1, -1, -1]
    assert all(psi(a) == (-1) ** powering_trace(a) for a in elems)


@pytest.mark.parametrize("f", SMALL, ids=repr)
def test_table_products_match_schoolbook(f):
    assert f._log_tables is not None
    elems = list(f.elements())
    for a in elems:
        for b in elems:
            assert a * b == schoolbook_mul(a, b)


@pytest.mark.parametrize("f", SMALL, ids=repr)
def test_zech_sums_match_coefficient_sums(f):
    assert f._zech is not None
    elems = list(f.elements())
    for a in elems:
        for b in elems:
            s = a + b
            assert s == coefficient_sum(a, b) and s.field is f


@pytest.mark.parametrize("k", [2, TABLE_MAX_ORDER.bit_length()], ids=["table", "above-table"])
def test_ext_sum_lifts_ints_and_rejects_other_fields(k):
    f = ExtField.make(2, k)
    x = f.gen()
    assert 0 + x == x and x + 0 == x
    assert x + 3 == 3 + x == coefficient_sum(x, f.from_int(3))
    assert sum([x, x, f.one()]) == f.one()
    with pytest.raises(FieldMismatchError):
        x + ExtField.make(3, 2).gen()
    with pytest.raises(FieldMismatchError):
        x + F5.one()


@pytest.mark.parametrize("f", SMALL, ids=repr)
def test_linear_trace_matches_powering(f):
    for a in f.elements():
        assert fields._trace_value(a) == powering_trace(a)
        if f.p == 2:
            assert psi(a) == (-1) ** powering_trace(a)


def test_field_above_table_order_matches_oracles():
    k = TABLE_MAX_ORDER.bit_length()  # the smallest k with 2^k above the constant
    f = ExtField.make(2, k)
    rng = random.Random(3)
    for _ in range(50):
        a, b = f.random(rng), f.random(rng)
        prod = a * b
        assert prod == schoolbook_mul(a, b)
        assert a + b == coefficient_sum(a, b)
        assert psi(prod) == (-1) ** powering_trace(prod)
    assert f._log_tables is None and f._zech is None


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_sign_tables_give_psi_of_products(k):
    f = ExtField.make(2, k)
    log_of_code, psi_of_log = f.sign_tables
    elements = list(f.elements())

    def log(a):
        return log_of_code[sum(c << j for j, c in enumerate(a.coeffs))]

    assert [a for a in elements if log(a) is None] == [f.zero()]
    for a in elements[1:]:
        for b in elements[1:]:
            assert psi_of_log[(log(a) + log(b)) % (f.order - 1)] == psi(a * b)


def test_sign_tables_only_in_characteristic_2_below_the_table_order():
    assert ExtField.make(2, TABLE_MAX_ORDER.bit_length()).sign_tables is None
    with pytest.raises(ValidationError):
        ExtField.make(3, 2).sign_tables


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(20_000) if is_prime(n)] == [n for n in range(20_000) if _trial_division(n)]


def test_is_prime_rejects_pseudoprimes_and_decides_large_primes():
    # Carmichael numbers and a strong pseudoprime to the bases 2, 3, 5 and 7
    for n in (561, 41041, 3215031751):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(10**12 + 39) and is_prime(10**14 + 31)
    assert not is_prime((2**31 - 1) * (10**12 + 39))
    with pytest.raises(ResourceCapError, match=str(PRIME_TEST_BOUND)):
        is_prime(PRIME_TEST_BOUND)


def test_psi_on_f4():
    x = F4.gen()
    assert psi(F4.zero()) == 1
    assert psi(x) == -1
    assert sum(psi(a) for a in F4.elements()) == 0


def test_psi_nontrivial_on_every_small_field():
    for k in (1, 2, 3, 4):
        f = ExtField.make(2, k)
        values = [psi(a) for a in f.elements()]
        assert sum(values) == 0
        assert set(values) == {1, -1}


def test_psi_is_multiplicative_under_addition():
    # psi(a + b) = psi(a) psi(b), exhaustively for orders up to 16
    for k in (1, 2, 3, 4):
        f = ExtField.make(2, k)
        elems = list(f.elements())
        for a in elems:
            for b in elems:
                assert psi(a + b) == psi(a) * psi(b)


def test_frobenius_fixes_the_field():
    # a^(p^k) = a for every element, exhaustively on small orders
    for p, k in ((2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (2, 8)):
        f = ExtField.make(p, k)
        q = f.order
        for a in f.elements():
            assert a ** q == a


def test_extension_field_inverse_exhaustive():
    f9 = ExtField.make(3, 2)
    for a in f9.elements():
        if a:
            assert a * a.inverse() == f9.one()


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_prime_field_ring_axioms(x, y, z):
    a, b, c = F5.from_int(x), F5.from_int(y), F5.from_int(z)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
def test_ext_field_ring_axioms(x0, x1, y0, y1):
    a = F4.from_coeffs([x0, x1])
    b = F4.from_coeffs([y0, y1])
    c = a * b
    assert c == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) ** 2 == a * a + b * b  # char 2: Frobenius is additive


def test_mixed_field_operations_fail():
    with pytest.raises(FieldMismatchError):
        F5.from_int(1) + PrimeField(7).from_int(1)
    with pytest.raises(FieldMismatchError):
        F4.from_int(1) * ExtField.make(2, 3).from_int(1)
    with pytest.raises(FieldMismatchError):
        F5.coerce(Fraction(1, 2))


def test_descriptor_round_trip():
    for f in (Q, F5, F4, ExtField.make(3, 3)):
        assert field_from_json(f.descriptor()) == f
    d = F4.descriptor()
    assert d == {"kind": "Fpk", "p": 2, "k": 2, "modulus": [1, 1, 1]}
    with pytest.raises(ValidationError):
        field_from_json({"kind": "Fpk", "p": 2, "k": 2, "modulus": [1, 0, 1]})


def test_parse_field_spec():
    assert parse_field_spec("q") == Q
    assert parse_field_spec("fp:5") == F5
    assert parse_field_spec("fpk:2:2") == F4
    with pytest.raises(ValidationError):
        parse_field_spec("gf:8")


def test_random_elements_deterministic():
    r1, r2 = random.Random(7), random.Random(7)
    assert [F5.random(r1).value for _ in range(10)] == [F5.random(r2).value for _ in range(10)]


PRIMES = [p for p in range(2, 32) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize("f", [PrimeField(p) for p in PRIMES] + SMALL, ids=repr)
def test_subtraction_division_and_powers(f):
    one, zero = f.one(), f.zero()
    elems = list(f.elements())
    ints = (-3, 0, 2, f.p + 1)
    for a in elems:
        for n in ints:
            assert n - a == f.from_int(n) + (-a)
            assert a - n == a + f.from_int(-n)
        for b in elems:
            assert a - b == a + (-b)
            if b:
                assert (a / b) * b == a
        assert a ** 0 == one
        if a:
            for n in ints:
                assert (n / a) * a == f.from_int(n)
            for e in (1, 2, 5):
                assert (a ** -e) * (a ** e) == one
    with pytest.raises(ZeroDivisionError):
        one / zero
    with pytest.raises(ZeroDivisionError):
        zero ** -1


@pytest.mark.parametrize("make", [lambda: PrimeField(5), lambda: ExtField.make(2, 3)], ids=["F_5", "F_2^3"])
def test_equal_fields_mix(make):
    f, g = make(), make()
    assert f == g and f is not g
    for a in f.elements():
        for b in g.elements():
            assert a + b == b + a == f.coerce(a) + f.coerce(b)
            assert a - b == a + (-b)
            assert a * b == b * a
            if b:
                assert (a / b) * b == a


@pytest.mark.parametrize("p", [2, 5])
def test_prime_and_degree_one_elements_do_not_mix(p):
    fp, e1 = PrimeField(p), ExtField.make(p, 1)
    for x, y in ((fp.one(), e1.one()), (e1.one(), fp.one())):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b):
            with pytest.raises(FieldMismatchError):
                op(x, y)
    with pytest.raises(FieldMismatchError):
        fp.coerce(e1.one())
    with pytest.raises(FieldMismatchError):
        e1.coerce(fp.one())
