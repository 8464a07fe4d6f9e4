"""Exact scalar arithmetic: rationals, prime fields, extension fields.

Rationals are plain ``fractions.Fraction`` values.  Elements of F_p and
F_{p^k} are small frozen objects that carry a reference to their field;
mixing elements of different fields raises ``FieldMismatchError``.  Integers
are lifted implicitly so that generic code can scale by -1 or compare
against zero without ceremony.

Extension fields use a polynomial basis modulo a monic irreducible, stored
low-degree-first including the leading 1.  ``find_irreducible`` picks the
lexicographically smallest modulus so that a field descriptor is a function
of (p, k) alone.

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

Linear algebra that runs many operations per value it reads or returns
(the span walk of ``pit`` and the elimination of ``matrices``) works on raw
values through ``raw_ops``: over F_p a raw value is an int in [0, p), and
elements are made only on the way out.  Rationals and F_{p^k} elements are
their own raw values.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

from .errors import FieldMismatchError, ValidationError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
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


def _poly_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree up to deg/2."""
    k = len(coeffs) - 1
    if k < 1:
        return False
    if coeffs[0] == 0:  # divisible by x
        return k == 1
    for d in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            divisor = list(low) + [1]
            if not _poly_mod(coeffs, divisor, p):
                return False
    return True


def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k over F_p.

    Candidates x^k + c_{k-1}x^{k-1} + ... + c_0 are scanned in lexicographic
    order of the coefficient tuple (c_0, ..., c_{k-1}); the scan is exhaustive
    so the result is deterministic.  Returned low-degree-first with the
    leading 1 included.
    """
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if k < 1:
        raise ValidationError("degree must be at least 1")
    for low in itertools.product(range(p), repeat=k):
        cand = list(low) + [1]
        if _poly_is_irreducible(cand, p):
            return tuple(cand)
    raise ValidationError(f"no irreducible of degree {k} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# the rational field


@dataclass(frozen=True)
class RationalField:
    """The field of rational numbers; elements are ``Fraction`` values."""

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
        return str(x)

    def coeff_from_json(self, obj) -> Fraction:
        if not isinstance(obj, str):
            raise ValidationError(f"rational coefficient must be a string, got {obj!r}")
        return Fraction(obj)

    def descriptor(self) -> dict:
        return {"kind": "Q"}

    def __repr__(self) -> str:
        return "Q"


# ---------------------------------------------------------------------------
# prime fields


@dataclass(frozen=True)
class FpElement:
    value: int
    field: "PrimeField"

    def _lift(self, other) -> "FpElement":
        if isinstance(other, FpElement):
            if other.field != self.field:
                raise FieldMismatchError(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        raise FieldMismatchError(f"cannot mix {other!r} into {self.field}")

    def __add__(self, other):
        o = self._lift(other)
        return FpElement((self.value + o.value) % self.field.p, self.field)

    __radd__ = __add__

    def __neg__(self):
        return FpElement(-self.value % self.field.p, self.field)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        return FpElement((self.value * o.value) % self.field.p, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o.value == 0:
            raise ZeroDivisionError("division by zero field element")
        inv = pow(o.value, self.field.p - 2, self.field.p)
        return FpElement((self.value * inv) % self.field.p, self.field)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return (self.field.one() / self) ** (-n)
        return FpElement(pow(self.value, n, self.field.p), self.field)

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.field.p})"


@dataclass(frozen=True)
class PrimeField:
    p: int

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

    def coerce(self, x) -> FpElement:
        if isinstance(x, FpElement):
            if x.field != self:
                raise FieldMismatchError(f"{x.field} vs {self}")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise FieldMismatchError(f"cannot interpret {x!r} as an element of {self}")

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
class ExtElement:
    coeffs: tuple[int, ...]  # length k, low-degree-first
    field: "ExtField"

    def _lift(self, other) -> "ExtElement":
        if isinstance(other, ExtElement):
            if other.field != self.field:
                raise FieldMismatchError(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        raise FieldMismatchError(f"cannot mix {other!r} into {self.field}")

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

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        f = self.field
        o = other if type(other) is ExtElement and other.field is f else self._lift(other)
        tables = f._log_tables
        if tables is None:
            return ExtElement(f._mul_coeffs(self.coeffs, o.coeffs), f)
        log, antilog = tables
        return antilog[log[self.coeffs] + log[o.coeffs]]

    __rmul__ = __mul__

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

    def inverse(self) -> "ExtElement":
        if not self:
            raise ZeroDivisionError("division by zero field element")
        return self ** (self.field.order - 2)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        return f"{list(self.coeffs)} in {self.field}"


@dataclass(frozen=True)
class ExtField:
    p: int
    k: int
    modulus: tuple[int, ...]  # monic, length k+1, low-degree-first

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValidationError(f"{self.p} is not prime")
        if self.k < 1:
            raise ValidationError("extension degree must be at least 1")
        if len(self.modulus) != self.k + 1 or self.modulus[-1] != 1:
            raise ValidationError("modulus must be monic of degree k, low-degree-first")
        if any(not (0 <= c < self.p) for c in self.modulus):
            raise ValidationError("modulus coefficients must be reduced mod p")
        if not _poly_is_irreducible(self.modulus, self.p):
            raise ValidationError(f"modulus {list(self.modulus)} is reducible over F_{self.p}")
        object.__setattr__(self, "prime_field", PrimeField(self.p))

    @classmethod
    def make(cls, p: int, k: int) -> "ExtField":
        return cls(p, k, find_irreducible(p, k))

    def _mul_coeffs(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        """Schoolbook product of two coefficient vectors, reduced mod the modulus."""
        red = _poly_mod(_poly_mul(a, b, self.p), self.modulus, self.p)
        return tuple(red + [0] * (self.k - len(red)))

    def _pow_coeffs(self, a: tuple[int, ...], n: int) -> tuple[int, ...]:
        acc = self.one().coeffs
        while n:
            if n & 1:
                acc = self._mul_coeffs(a, acc)
            a = self._mul_coeffs(a, a)
            n >>= 1
        return acc

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
                self._pow_coeffs(g, n // r) != one for r in range(2, q) if n % r == 0 and is_prime(r)
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

    def coerce(self, x) -> ExtElement:
        if isinstance(x, ExtElement):
            if x.field != self:
                raise FieldMismatchError(f"{x.field} vs {self}")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise FieldMismatchError(f"cannot interpret {x!r} as an element of {self}")

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
        return self.from_coeffs([int(c) for c in obj])

    def descriptor(self) -> dict:
        return {"kind": "Fpk", "p": self.p, "k": self.k, "modulus": list(self.modulus)}

    def __repr__(self) -> str:
        return f"F_{self.p}^{self.k}"


Field = Union[RationalField, PrimeField, ExtField]


def raw_ops(field: Field) -> tuple:
    """``(into, reduce, inverse, out)``: how linear algebra holds the
    field's values.

    Over F_p a raw value is an int in [0, p).  ``into`` takes an element or
    an int to its residue, ``reduce`` takes a list of ints to their
    residues, ``inverse`` is x^(p-2) mod p and ``out`` makes the element.
    Rationals and F_{p^k} elements are their own raw values: ``into``
    coerces, ``reduce`` returns the list and ``out`` the value.
    """
    if isinstance(field, PrimeField):
        p, coerce = field.p, field.coerce

        def into(x) -> int:
            return x % p if type(x) is int else coerce(x).value

        return (
            into,
            lambda xs: [x % p for x in xs],
            lambda x: pow(x, p - 2, p),
            lambda x: FpElement(x, field),
        )
    one = field.one()
    return field.coerce, lambda xs: xs, lambda x: one / x, lambda x: x


# ---------------------------------------------------------------------------
# trace, additive character, bit-vector encoding


def _trace_value(a: ExtElement) -> int:
    f = a.field
    return sum(map(operator.mul, a.coeffs, f._basis_traces)) % f.p


def frobenius_trace(a: ExtElement) -> FpElement:
    """Trace down to the prime field: a + a^p + ... + a^(p^(k-1)), computed
    as the dot product of a's coefficients with the basis traces."""
    return FpElement(_trace_value(a), a.field.prime_field)


def psi(a: ExtElement) -> int:
    """The additive character (-1)^trace(a) of a characteristic-2 field."""
    if a.field.p != 2:
        raise ValidationError("psi is defined for characteristic-2 fields")
    return 1 - 2 * _trace_value(a)


# ---------------------------------------------------------------------------
# descriptors


def field_to_json(field: Field) -> dict:
    return field.descriptor()


def field_from_json(obj: dict) -> Field:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(f"not a field descriptor: {obj!r}")
    kind = obj["kind"]
    if kind == "Q":
        return RationalField()
    if kind == "Fp":
        return PrimeField(int(obj["p"]))
    if kind == "Fpk":
        return ExtField(int(obj["p"]), int(obj["k"]), tuple(int(c) for c in obj["modulus"]))
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
