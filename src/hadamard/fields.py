"""Exact scalar arithmetic: rationals, prime fields, extension fields.

Rationals are plain ``fractions.Fraction`` values.  Elements of F_p and
F_{p^k} are small frozen objects that carry a reference to their field;
mixing elements of different fields raises ``FieldMismatchError``.  Integers
are lifted implicitly so that generic code can scale by -1 or compare
against zero without ceremony.  The two element classes share one protocol,
``_Element``: lifting through the field's ``coerce`` (which ``PrimeField``
and ``ExtField`` share), subtraction by negation, division by ``inverse``
and powers by squaring.  Each class writes only its own addition,
multiplication, negation and inverse; addition and multiplication take an
element of the same field object without a lift.

Extension fields use a polynomial basis modulo a monic irreducible, stored
low-degree-first including the leading 1.  ``find_irreducible`` picks the
lexicographically smallest modulus so that a field descriptor is a function
of (p, k) alone.  Irreducibility, of a candidate or of a descriptor's
modulus, is decided by Rabin's test, in time polynomial in k and log p.
Both paths first check one degree bound: degree k over F_p is taken only
while k * bit_length(p) <= ``MODULUS_BITS`` = 128 (degree 64 over F_2 and
F_3, 2 over a 61-bit prime).  A test costs about k^3 log p coefficient
steps, so the bound caps it near 128 k^2; past it both raise
``ResourceCapError`` before any polynomial arithmetic.

F_q^x is cyclic, so a field of order at most ``TABLE_MAX_ORDER`` (2^12)
multiplies through log/antilog tables over a primitive element: two dict
lookups and a list index instead of a schoolbook product and division, which
is 10 to 20 times slower.  The tables are built on a field's first use and
cost about as much as q/2 to q schoolbook products, so a larger field would
make a short run pay for tables it never repays; above the constant the
schoolbook product is the only path.  Such a field also adds through a Zech
table, zech[e] = log(1 + g^e), so that g^a + g^b = g^(a + zech[b - a]); above
the constant addition is coefficient-wise.  The trace is F_p-linear: the
traces of the basis elements x^i are computed once by the definition
a + a^p + ... + a^(p^(k-1)), and every other trace is their dot product with
the coefficients.

In characteristic 2 such a field also has ``sign_tables``, for code that
takes the additive character psi of many products (the sign polynomial and
character sums of ``lab``): the log of the element with each basis-bit code
(zero has none) and psi of each power of the primitive element.  psi of a
product of nonzero elements is then psi_of_log at the sum of their logs mod
q-1, with no element made.  Above the constant there are no sign tables and
psi is taken of field elements.

Linear algebra that runs many operations per value it reads or returns
(the span walk of ``pit`` and the elimination of ``matrices``) works on raw
values through ``raw_ops``: over F_p a raw value is an int in [0, p), and
elements are made only on the way out.  Rationals and F_{p^k} elements are
their own raw values.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import FieldMismatchError, ResourceCapError, ValidationError


# Miller-Rabin to the first 13 prime bases decides primality for every n
# below the bound (Sorenson and Webster, 2015)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.  Raises ``ResourceCapError`` from
    ``PRIME_TEST_BOUND`` (about 3.3e24) on, where the bases no longer
    decide."""
    if n < 2:
        return False
    if n >= PRIME_TEST_BOUND:
        raise ResourceCapError(
            f"primality is decided only below {PRIME_TEST_BOUND}, got a {len(str(n))}-digit number"
        )
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p, coefficients low-degree-first


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)

def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    # m must be monic
    r = [x % p for x in a]
    _poly_trim(r)
    dm = len(m) - 1
    while len(r) - 1 >= dm:
        lead = r[-1]
        shift = len(r) - 1 - dm
        for i in range(dm + 1):
            r[shift + i] = (r[shift + i] - lead * m[i]) % p
        _poly_trim(r)
    return r


def _poly_powmod(a: Sequence[int], e: int, m: Sequence[int], p: int) -> list[int]:
    """a^e mod the monic m, for e >= 1, by left-to-right squaring."""
    acc = a = _poly_mod(a, m, p)
    for bit in bin(e)[3:]:
        acc = _poly_mod(_poly_mul(acc, acc, p), m, p)
        if bit == "1":
            acc = _poly_mod(_poly_mul(acc, a, p), m, p)
    return acc


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic greatest common divisor (the empty list when both are zero)."""
    a, b = _poly_trim([x % p for x in a]), _poly_trim([x % p for x in b])
    while b:
        inv = pow(b[-1], p - 2, p)
        b = [x * inv % p for x in b]
        a, b = b, _poly_mod(a, b, p)
    return a


def _poly_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Rabin's test for a monic f of degree k >= 1 over F_p: f is
    irreducible exactly when x^(p^k) = x mod f and, for each prime r
    dividing k, x^(p^(k/r)) - x is coprime to f.  It takes k p-th powers
    mod f and one gcd per prime factor of k; a failed gcd ends it early."""
    k = len(coeffs) - 1
    if k < 1:
        return False
    checked = {k // r for r in range(2, k + 1) if k % r == 0 and is_prime(r)}
    x = h = _poly_mod([0, 1], coeffs, p)
    for j in range(1, k + 1):
        h = _poly_powmod(h, p, coeffs, p)  # x^(p^j) mod f
        if j in checked:
            diff = [a - b for a, b in itertools.zip_longest(h, x, fillvalue=0)]
            if len(_poly_gcd(coeffs, diff, p)) > 1:
                return False
    return h == x


# the degree bound of the module docstring: k * bit_length(p) at most this
MODULUS_BITS = 128


def _check_extension_degree(p: int, k: int) -> None:
    """Raise ``ResourceCapError`` when degree k over F_p is past the bound
    ``MODULUS_BITS // bit_length(p)``; run before any modulus is tested."""
    bound = MODULUS_BITS // p.bit_length()
    if k > bound:
        raise ResourceCapError(
            f"extension degree {k} over F_{p} exceeds the bound of {bound}"
            f" (degree times the bits of p at most {MODULUS_BITS})"
        )


def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k over F_p.

    Candidates x^k + c_{k-1}x^{k-1} + ... + c_0 are scanned in lexicographic
    order of the coefficient tuple (c_0, ..., c_{k-1}); the scan is exhaustive
    so the result is deterministic.  From degree 2 on it starts at c_0 = 1,
    since every candidate with c_0 = 0 is divisible by x.  The tuple is read
    off the base-p digits of a counter, c_0 the most significant, so no range
    of residues is ever listed.  Returned low-degree-first with the leading
    1 included.
    """
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if k < 1:
        raise ValidationError("degree must be at least 1")
    _check_extension_degree(p, k)
    for code in range(p ** (k - 1) if k > 1 else 0, p**k):
        cand = [1] * (k + 1)
        for i in range(k - 1, -1, -1):
            code, cand[i] = divmod(code, p)
        if _poly_is_irreducible(cand, p):
            return tuple(cand)
    raise ValidationError(f"no irreducible of degree {k} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# the rational field

# the exponent of a rational written as ``Fraction`` reads it ("1.5e-3")
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _digits(n: int) -> int:
    """The number of decimal digits of n > 0, found without writing n."""
    d = max(int((n.bit_length() - 1) * math.log10(2)) - 1, 0)
    while n >= 10**d:
        d += 1
    return d


@dataclass(frozen=True)
class RationalField:
    """The field of rational numbers; elements are ``Fraction`` values.  A
    value is read and written only while its numerator and denominator have
    at most ``sys.get_int_max_str_digits()`` digits, the most ``str``
    writes."""

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise FieldMismatchError(f"cannot interpret {x!r} as a rational")

    def random(self, rng) -> Fraction:
        return Fraction(rng.randint(-3, 3))

    def coeff_to_json(self, x) -> str:
        try:
            return str(x)
        except ValueError:  # the numerator or denominator is past the limit
            digits, limit = _digits(max(abs(x.numerator), x.denominator)), sys.get_int_max_str_digits()
            raise ResourceCapError(f"a rational value has {digits} digits, past the limit of {limit}") from None

    def coeff_from_json(self, obj) -> Fraction:
        if not isinstance(obj, str):
            raise ValidationError(f"rational coefficient must be a string, got {obj!r}")
        limit, exponent = sys.get_int_max_str_digits(), _EXPONENT.search(obj)
        # past this exponent a nonzero value has more digits than the limit,
        # so the value is refused before it is built
        if limit and exponent and abs(e := int(exponent.group(1))) > limit + len(obj):
            raise ValidationError(f"a rational coefficient has exponent {e}, past the limit of {limit} digits")
        x = Fraction(obj)
        n = max(abs(x.numerator), x.denominator)
        if limit and n.bit_length() > 3 * limit and n >= 10**limit:  # 2^3 < 10
            raise ValidationError(f"a rational coefficient has {_digits(n)} digits, past the limit of {limit}")
        return x

    def descriptor(self) -> dict:
        return {"kind": "Q"}

    def __repr__(self) -> str:
        return "Q"


# ---------------------------------------------------------------------------
# what F_p and F_{p^k} share


class _Element:
    """What F_p and F_{p^k} elements share.  An int lifts into the
    element's field through the field's ``coerce``; subtraction and
    division go through negation and ``inverse``; powers are taken by
    squaring, a negative exponent through ``inverse``.  A class adds
    ``__add__``, ``__mul__`` and their reflected forms, which the
    benchmark's tracer counts in the class's own dict, ``__neg__``,
    ``inverse``, ``__bool__`` and ``__repr__``."""

    def _lift(self, other):
        return self.field.coerce(other)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc


class _FiniteField:
    """``coerce`` for a field whose elements are ``_element`` objects."""

    def coerce(self, x):
        if type(x) is self._element:
            if x.field is not self and x.field != self:
                raise FieldMismatchError(f"{x.field} vs {self}")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise FieldMismatchError(f"cannot interpret {x!r} as an element of {self}")


# ---------------------------------------------------------------------------
# prime fields


@dataclass(frozen=True)
class FpElement(_Element):
    value: int
    field: "PrimeField"

    def __add__(self, other):
        f = self.field
        o = other if type(other) is FpElement and other.field is f else self._lift(other)
        return FpElement((self.value + o.value) % f.p, f)

    __radd__ = __add__

    def __neg__(self):
        return FpElement(-self.value % self.field.p, self.field)

    def __mul__(self, other):
        f = self.field
        o = other if type(other) is FpElement and other.field is f else self._lift(other)
        return FpElement((self.value * o.value) % f.p, f)

    __rmul__ = __mul__

    def inverse(self) -> "FpElement":
        if not self.value:
            raise ZeroDivisionError("division by zero field element")
        p = self.field.p
        return FpElement(pow(self.value, p - 2, p), self.field)

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.field.p})"


@dataclass(frozen=True)
class PrimeField(_FiniteField):
    p: int
    _element = FpElement

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValidationError(f"{self.p} is not prime")

    @property
    def order(self) -> int:
        return self.p

    def zero(self) -> FpElement:
        return FpElement(0, self)

    def one(self) -> FpElement:
        return FpElement(1, self)

    def from_int(self, n: int) -> FpElement:
        return FpElement(n % self.p, self)

    def elements(self) -> Iterator[FpElement]:
        for v in range(self.p):
            yield FpElement(v, self)

    def random(self, rng) -> FpElement:
        return FpElement(rng.randrange(self.p), self)

    def coeff_to_json(self, x: FpElement) -> str:
        return str(x.value)

    def coeff_from_json(self, obj) -> FpElement:
        if not isinstance(obj, str):
            raise ValidationError(f"F_p coefficient must be a string, got {obj!r}")
        return self.from_int(int(obj))

    def descriptor(self) -> dict:
        return {"kind": "Fp", "p": self.p}

    def __repr__(self) -> str:
        return f"F_{self.p}"


# ---------------------------------------------------------------------------
# extension fields F_{p^k}

# Fields of at most this order multiply through log/antilog tables.
TABLE_MAX_ORDER = 2**12


@dataclass(frozen=True)
class ExtElement(_Element):
    coeffs: tuple[int, ...]  # length k, low-degree-first
    field: "ExtField"

    def __add__(self, other):
        f = self.field
        o = other if type(other) is ExtElement and other.field is f else self._lift(other)
        zech = f._zech
        if zech is None:
            p = f.p
            return ExtElement(tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)), f)
        log, antilog = f._log_tables
        n = len(zech)  # q - 1; log gives zero the exponent 2n
        a, b = log[self.coeffs], log[o.coeffs]
        if a == 2 * n:
            return o
        if b == 2 * n:
            return self
        # g^a + g^b = g^a (1 + g^(b-a)); when 1 + g^(b-a) = 0 the index
        # lands past 2n, where antilog holds zero
        return antilog[a + zech[(b - a) % n]]

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return ExtElement(tuple(-a % p for a in self.coeffs), self.field)

    def __mul__(self, other):
        f = self.field
        o = other if type(other) is ExtElement and other.field is f else self._lift(other)
        tables = f._log_tables
        if tables is None:
            return ExtElement(f._mul_coeffs(self.coeffs, o.coeffs), f)
        log, antilog = tables
        return antilog[log[self.coeffs] + log[o.coeffs]]

    __rmul__ = __mul__

    def inverse(self) -> "ExtElement":
        if not self:
            raise ZeroDivisionError("division by zero field element")
        return self ** (self.field.order - 2)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        return f"{list(self.coeffs)} in {self.field}"


@dataclass(frozen=True)
class ExtField(_FiniteField):
    p: int
    k: int
    modulus: tuple[int, ...]  # monic, length k+1, low-degree-first
    _element = ExtElement

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValidationError(f"{self.p} is not prime")
        if self.k < 1:
            raise ValidationError("extension degree must be at least 1")
        _check_extension_degree(self.p, self.k)
        if len(self.modulus) != self.k + 1 or self.modulus[-1] != 1:
            raise ValidationError("modulus must be monic of degree k, low-degree-first")
        if any(not (0 <= c < self.p) for c in self.modulus):
            raise ValidationError("modulus coefficients must be reduced mod p")
        if not _poly_is_irreducible(self.modulus, self.p):
            raise ValidationError(f"modulus {list(self.modulus)} is reducible over F_{self.p}")

    @classmethod
    def make(cls, p: int, k: int) -> "ExtField":
        return cls(p, k, find_irreducible(p, k))

    def _mul_coeffs(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        """Schoolbook product of two coefficient vectors, reduced mod the modulus."""
        red = _poly_mod(_poly_mul(a, b, self.p), self.modulus, self.p)
        return tuple(red + [0] * (self.k - len(red)))

    @cached_property
    def _log_tables(self) -> Optional[tuple[dict, list]]:
        """``(log, antilog)`` for multiplying through a generator g of the
        cyclic group F_q^x, or None when the order exceeds ``TABLE_MAX_ORDER``.

        ``log`` maps a coefficient tuple to its exponent base g, and zero to
        2(q-1).  ``antilog[e]`` is g^e for e < 2(q-1) and zero from there on,
        so ``antilog[log[a] + log[b]]`` is a*b with no test for zero.
        """
        q = self.order
        if q > TABLE_MAX_ORDER:
            return None
        n = q - 1
        one = self.one().coeffs
        # g is primitive when g^((q-1)/r) != 1 for every prime r dividing q-1;
        # candidates go in element-code order, sparse low-degree ones first
        for digits in itertools.product(range(self.p), repeat=self.k):
            g = digits[::-1]
            if any(g) and all(
                _poly_powmod(g, n // r, self.modulus, self.p) != [1]
                for r in range(2, q)
                if n % r == 0 and is_prime(r)
            ):
                break
        log, antilog, power = {}, [], one
        for e in range(n):
            log[power] = e
            antilog.append(ExtElement(power, self))
            power = self._mul_coeffs(g, power)
        zero = self.zero()
        log[zero.coeffs] = 2 * n
        return log, antilog + antilog + [zero] * (2 * n + 1)

    @cached_property
    def _zech(self) -> Optional[list[int]]:
        """``zech[e]`` = log(1 + g^e) for 0 <= e < q-1, with 2(q-1) where
        1 + g^e = 0; None when the order exceeds ``TABLE_MAX_ORDER``."""
        tables = self._log_tables
        if tables is None:
            return None
        log, antilog = tables
        p = self.p
        # 1 + g^e adds one to the constant coefficient of g^e
        return [log[((a.coeffs[0] + 1) % p,) + a.coeffs[1:]] for a in antilog[: self.order - 1]]

    @cached_property
    def sign_tables(self) -> Optional[tuple[list, list[int]]]:
        """``(log_of_code, psi_of_log)`` for taking the character psi on
        exponents in a characteristic-2 field, or None when the order
        exceeds ``TABLE_MAX_ORDER``.

        ``log_of_code[c]`` is the log base g of the element whose x^j
        coefficient is bit j of c, and None for c = 0.  ``psi_of_log[e]``
        is psi(g^e) for 0 <= e < q-1, so psi of a product of nonzero
        elements is ``psi_of_log[sum of their logs % (q-1)]``.
        """
        if self.p != 2:
            raise ValidationError("psi is defined for characteristic-2 fields")
        tables = self._log_tables
        if tables is None:
            return None
        log, antilog = tables
        k = self.k
        log_of_code = [None] + [
            log[tuple((code >> j) & 1 for j in range(k))] for code in range(1, self.order)
        ]
        return log_of_code, [psi(a) for a in antilog[: self.order - 1]]

    @cached_property
    def _basis_traces(self) -> tuple[int, ...]:
        """Tr(x^i) for each basis element x^i, by the definition
        x^i + (x^i)^p + ... + (x^i)^(p^(k-1)); the trace is F_p-linear, so
        these k values give every other trace as a dot product."""
        out = []
        for i in range(self.k):
            total = power = ExtElement((0,) * i + (1,) + (0,) * (self.k - 1 - i), self)
            for _ in range(self.k - 1):
                power = power ** self.p
                total = total + power
            if any(total.coeffs[1:]):
                raise ValidationError("trace did not land in the prime field")
            out.append(total.coeffs[0])
        return tuple(out)

    @property
    def order(self) -> int:
        return self.p ** self.k

    def zero(self) -> ExtElement:
        return ExtElement((0,) * self.k, self)

    def one(self) -> ExtElement:
        return self.from_int(1)

    def from_int(self, n: int) -> ExtElement:
        return ExtElement((n % self.p,) + (0,) * (self.k - 1), self)

    def from_coeffs(self, coeffs: Sequence[int]) -> ExtElement:
        if len(coeffs) != self.k:
            raise ValidationError(f"expected {self.k} coefficients, got {len(coeffs)}")
        return ExtElement(tuple(c % self.p for c in coeffs), self)

    def gen(self) -> ExtElement:
        """The image of x in F_p[x]/(modulus)."""
        if self.k == 1:
            return self.from_int(-self.modulus[0])
        return ExtElement((0, 1) + (0,) * (self.k - 2), self)

    def elements(self) -> Iterator[ExtElement]:
        for tup in itertools.product(range(self.p), repeat=self.k):
            yield ExtElement(tup, self)

    def random(self, rng) -> ExtElement:
        return ExtElement(tuple(rng.randrange(self.p) for _ in range(self.k)), self)

    def coeff_to_json(self, x: ExtElement) -> list[int]:
        return list(x.coeffs)

    def coeff_from_json(self, obj) -> ExtElement:
        if not isinstance(obj, list):
            raise ValidationError(f"extension-field coefficient must be a list, got {obj!r}")
        return self.from_coeffs([json_int(c) for c in obj])

    def descriptor(self) -> dict:
        return {"kind": "Fpk", "p": self.p, "k": self.k, "modulus": list(self.modulus)}

    def __repr__(self) -> str:
        return f"F_{self.p}^{self.k}"


Field = Union[RationalField, PrimeField, ExtField]


def raw_ops(field: Field) -> tuple:
    """``(into, reduce, inverse, out)``: how linear algebra holds the
    field's values.

    Over F_p a raw value is an int in [0, p).  ``into`` takes an element or
    an int to its residue, ``reduce`` takes a dict's int values to their
    residues, zeros dropped, ``inverse`` is x^(p-2) mod p and ``out`` makes
    the element.  Rationals and F_{p^k} elements are their own raw values:
    ``into`` coerces, ``reduce`` drops zeros and ``out`` returns the value.
    """
    if isinstance(field, PrimeField):
        p, coerce = field.p, field.coerce

        def into(x) -> int:
            return x % p if type(x) is int else coerce(x).value

        return (
            into,
            lambda d: {k: y for k, x in d.items() if (y := x % p)},
            lambda x: pow(x, p - 2, p),
            lambda x: FpElement(x, field),
        )
    one = field.one()
    return field.coerce, lambda d: {k: x for k, x in d.items() if x}, lambda x: one / x, lambda x: x


# ---------------------------------------------------------------------------
# trace, additive character, bit-vector encoding


def _trace_value(a: ExtElement) -> int:
    f = a.field
    return sum(map(operator.mul, a.coeffs, f._basis_traces)) % f.p


def psi(a: ExtElement) -> int:
    """The additive character (-1)^trace(a) of a characteristic-2 field."""
    if a.field.p != 2:
        raise ValidationError("psi is defined for characteristic-2 fields")
    return 1 - 2 * _trace_value(a)


# ---------------------------------------------------------------------------
# descriptors and JSON values


def json_text(obj) -> str:
    """obj as JSON with sorted keys and no whitespace, the form of every
    output."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def coeff_text(field: Field) -> Callable[[object], str]:
    """x -> ``json_text(field.coeff_to_json(x))``, formatted directly: none
    of these strings needs escaping."""
    if isinstance(field, PrimeField):
        return lambda x: '"%d"' % x.value
    if isinstance(field, RationalField):
        return lambda x: '"' + field.coeff_to_json(x) + '"'
    return lambda x: "[" + ",".join(map(str, x.coeffs)) + "]"


def json_int(x) -> int:
    """An integer value read from JSON.  A float, bool or string raises
    ``TypeError``, which the command line reports as malformed input."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def field_from_json(obj: dict) -> Field:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(f"not a field descriptor: {obj!r}")
    kind = obj["kind"]
    if kind == "Q":
        return RationalField()
    if kind == "Fp":
        return PrimeField(json_int(obj["p"]))
    if kind == "Fpk":
        return ExtField(json_int(obj["p"]), json_int(obj["k"]), tuple(map(json_int, obj["modulus"])))
    raise ValidationError(f"unknown field kind {kind!r}")


def parse_field_spec(spec: str) -> Field:
    """Parse a command-line field spec: ``q``, ``fp:<p>`` or ``fpk:<p>:<k>``."""
    parts = spec.lower().split(":")
    if parts == ["q"]:
        return RationalField()
    if parts[0] == "fp" and len(parts) == 2:
        return PrimeField(int(parts[1]))
    if parts[0] == "fpk" and len(parts) == 3:
        return ExtField.make(int(parts[1]), int(parts[2]))
    raise ValidationError(f"unrecognized field spec {spec!r}")
