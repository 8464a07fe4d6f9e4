"""Sparse polynomials, noncommutative and commutative.

A noncommutative monomial is a word: a tuple of variable indices read left
to right.  A commutative monomial is a sorted tuple of variable indices,
repeats meaning powers, so the multilinear case is exactly the tuples with
distinct entries.  Coefficients live in one of the fields from
``hadamard.fields`` and zero coefficients are never stored.

Both kinds share one body, ``_TermMap``: construction, the ring
operations, the Hadamard product, evaluation, queries and JSON.  A class
adds only its key rule (``NCPoly`` keeps a word as given, ``CPoly`` sorts
it), the noun and JSON key of a term (``word``, or ``monomial`` and
``support``) and its own queries.  Keys that coincide under the rule have
their coefficients added, in a product too: the product joins two keys and
puts the result through the rule.  Equality is class-strict: an ``NCPoly``
never equals a ``CPoly``.

The Hadamard product f o g keeps the monomials common to both operands and
multiplies their coefficients pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    ArityMismatchError,
    DEFAULT_MAX_TERMS,
    FieldMismatchError,
    ResourceCapError,
    ValidationError,
)
from .fields import Field, RationalField, field_from_json, json_int


def _check_compatible(a, b):
    if a.n_vars != b.n_vars:
        raise ArityMismatchError(f"{a.n_vars} variables vs {b.n_vars}")
    if a.field != b.field:
        raise FieldMismatchError(f"{a.field} vs {b.field}")


def word_key(word: tuple[int, ...]):
    """Canonical ordering key: by length, then lexicographic."""
    return (len(word), word)


@dataclass
class _TermMap:
    """Monomial keys to nonzero coefficients.  A subclass sets the key rule
    ``_key`` (variable indices to the stored tuple), ``_noun`` and
    ``_json_key``."""

    n_vars: int
    field: Field
    terms: dict = dc_field(default_factory=dict)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int, field: Field):
        return cls(n_vars, field, {})

    @classmethod
    def const(cls, n_vars: int, field: Field, c):
        c = field.coerce(c)
        return cls(n_vars, field, {(): c} if c else {})

    @classmethod
    def var(cls, n_vars: int, field: Field, i: int):
        if not 0 <= i < n_vars:
            raise ValidationError(f"variable {i} out of range")
        return cls(n_vars, field, {(i,): field.one()})

    @classmethod
    def from_terms(cls, n_vars: int, field: Field, terms: Mapping):
        """Coefficients of keys that coincide under the key rule are added."""
        out = {}
        for mono, c in terms.items():
            mono = cls._key(mono)
            if any(not 0 <= v < n_vars for v in mono):
                raise ValidationError(f"{cls._noun} {mono} references a variable out of range")
            c = field.coerce(c)
            if mono in out:
                c = out[mono] + c
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
        return cls(n_vars, field, out)

    # -- ring operations ----------------------------------------------------

    def add(self, other):
        _check_compatible(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, self.field.zero()) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return type(self)(self.n_vars, self.field, out)

    def hadamard(self, other):
        _check_compatible(self, other)
        small, big = (self.terms, other.terms) if len(self.terms) <= len(other.terms) else (other.terms, self.terms)
        out = {}
        for m, c in small.items():
            d = big.get(m)
            if d is not None:
                prod = c * d
                if prod:
                    out[m] = prod
        return type(self)(self.n_vars, self.field, out)

    def mul(self, other, max_terms: int = DEFAULT_MAX_TERMS):
        """Product of every pair of terms, their keys joined left to right
        and put through the key rule; for ``NCPoly`` the order of the
        factors matters."""
        _check_compatible(self, other)
        if len(self.terms) * len(other.terms) > max_terms:
            raise ResourceCapError(
                f"product support may reach {len(self.terms) * len(other.terms)} terms, cap is {max_terms}"
            )
        out = {}
        zero = self.field.zero()
        key = self._key
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = key(m1 + m2)
                s = out.get(m, zero) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return type(self)(self.n_vars, self.field, out)

    # -- queries ------------------------------------------------------------

    def mon_set(self) -> set:
        return set(self.terms)

    def coeff(self, mono: Iterable[int]):
        return self.terms.get(self._key(mono), self.field.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Max monomial length; -1 for the zero polynomial."""
        return max((len(m) for m in self.terms), default=-1)

    def evaluate(self, point: Sequence):
        """Substitute commuting field values for the variables."""
        if len(point) != self.n_vars:
            raise ArityMismatchError(f"expected {self.n_vars} values, got {len(point)}")
        point = [self.field.coerce(x) for x in point]
        total = self.field.zero()
        for m, c in self.terms.items():
            v = c
            for i in m:
                v = v * point[i]
            total = total + v
        return total

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: word_key(kv[0]))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "nvars": self.n_vars,
            "field": self.field.descriptor(),
            "terms": [
                {self._json_key: list(m), "coeff": self.field.coeff_to_json(c)}
                for m, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict, field: Field | None = None):
        if field is None:
            if "field" not in obj:
                raise ValidationError("polynomial JSON lacks a field descriptor")
            field = field_from_json(obj["field"])
        terms = {}
        for t in obj["terms"]:
            m = cls._key(json_int(v) for v in t[cls._json_key])
            if m in terms:
                raise ValidationError(f"duplicate {cls._noun} {list(m)}")
            terms[m] = field.coeff_from_json(t["coeff"])
        return cls.from_terms(json_int(obj["nvars"]), field, terms)

    def __repr__(self) -> str:
        name = type(self).__name__
        if self.is_zero():
            return f"{name}(0)"
        bits = [f"{c!r}*x{list(m)}" for m, c in self.sorted_terms()[:6]]
        more = "..." if len(self.terms) > 6 else ""
        return f"{name}({' + '.join(bits)}{more})"


class NCPoly(_TermMap):
    """Noncommutative polynomial: a map from words to nonzero coefficients."""

    _key = staticmethod(tuple)
    _noun = "word"
    _json_key = "word"

    def is_homogeneous(self) -> bool:
        lengths = {len(w) for w in self.terms}
        return len(lengths) <= 1


class CPoly(_TermMap):
    """Commutative polynomial keyed by sorted variable tuples (repeats = powers)."""

    _key = staticmethod(lambda mono: tuple(sorted(mono)))
    _noun = "monomial"
    _json_key = "support"

    # its own entry, since the benchmark's tracer hooks CPoly.mul in this dict
    mul = _TermMap.mul

    def is_multilinear(self) -> bool:
        return all(len(set(m)) == len(m) for m in self.terms)

    def support_vars(self) -> set:
        out = set()
        for m in self.terms:
            out.update(m)
        return out


# ---------------------------------------------------------------------------
# multilinear correlation


def corr(f: CPoly, g: CPoly) -> Fraction:
    """|sum over multilinear monomials m of f(m) g(m)|, over the rationals.

    Coefficients of non-multilinear monomials are ignored: the correlation
    ranges over the multilinear monomials only.
    """
    _check_compatible(f, g)
    if not isinstance(f.field, RationalField):
        raise ValidationError("correlation is defined over the rationals")
    total = Fraction(0)
    small, big = (f.terms, g.terms) if len(f.terms) <= len(g.terms) else (g.terms, f.terms)
    for m, c in small.items():
        if len(set(m)) != len(m):
            continue
        d = big.get(m)
        if d is not None:
            total += c * d
    return abs(total)


def norm_sq(f: CPoly) -> Fraction:
    """Sum of squared coefficients over the multilinear monomials."""
    if not isinstance(f.field, RationalField):
        raise ValidationError("norm_sq is defined over the rationals")
    return sum(
        (c * c for m, c in f.terms.items() if len(set(m)) == len(m)),
        Fraction(0),
    )
