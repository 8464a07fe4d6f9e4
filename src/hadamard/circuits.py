"""Noncommutative arithmetic circuits.

A circuit is a topologically ordered list of gates over a shared field:
inputs (one variable each), constants, fan-in-two additions, and fan-in-two
ordered multiplications.  Multiplication is noncommutative — the left and
right operands keep their order when monomials are concatenated.

Every pass that works out a value per gate from its children's values goes
through ``Circuit.fold``, one loop over the gates in order: formal degrees,
evaluation, expansion, ``propagate_zeros`` (which replays the gates through
a ``CircuitBuilder``) and the grammar translation of ``grammars``.  Passes
that read gate indices rather than child values (JSON, validation, the
wire count) walk the gates themselves.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .errors import (
    ArityMismatchError,
    DEFAULT_MAX_DEGREE,
    DEFAULT_MAX_TERMS,
    ResourceCapError,
    ValidationError,
)
from .fields import Field, RationalField, field_from_json, json_int
from .polynomials import NCPoly


@dataclass(frozen=True)
class InputGate:
    var: int


@dataclass(frozen=True)
class ConstGate:
    value: object


@dataclass(frozen=True)
class AddGate:
    left: int
    right: int


@dataclass(frozen=True)
class MulGate:
    left: int
    right: int


Gate = Union[InputGate, ConstGate, AddGate, MulGate]


@dataclass
class Circuit:
    n_vars: int
    field: Field
    gates: tuple[Gate, ...]
    output: int

    @classmethod
    def build(cls, n_vars: int, field: Field, gates: Sequence[Gate], output: int) -> "Circuit":
        coerced = []
        for g in gates:
            if isinstance(g, ConstGate):
                g = ConstGate(field.coerce(g.value))
            coerced.append(g)
        c = cls(n_vars, field, tuple(coerced), output)
        err = validate_circuit(c)
        if err:
            raise ValidationError(err)
        return c

    def size(self) -> tuple[int, int]:
        """(gate count, wire count)."""
        wires = sum(2 for g in self.gates if isinstance(g, (AddGate, MulGate)))
        return len(self.gates), wires

    def fold(self, input: Callable, const: Callable, add: Callable, mul: Callable) -> list:
        """Each gate's result, in gate order: ``input(var)``, ``const(value)``,
        and ``add`` or ``mul`` of the two children's results."""
        out: list = []
        for g in self.gates:
            t = type(g)
            if t is InputGate:
                out.append(input(g.var))
            elif t is ConstGate:
                out.append(const(g.value))
            elif t is AddGate:
                out.append(add(out[g.left], out[g.right]))
            else:
                out.append(mul(out[g.left], out[g.right]))
        return out

    def formal_degrees(self) -> list[int]:
        return self.fold(lambda var: 1, lambda value: 0, max, operator.add)

    def formal_degree(self) -> int:
        return self.formal_degrees()[self.output]

    def evaluate(self, point: Sequence):
        if len(point) != self.n_vars:
            raise ArityMismatchError(f"expected {self.n_vars} values, got {len(point)}")
        point = [self.field.coerce(x) for x in point]
        return self.fold(point.__getitem__, lambda value: value, operator.add, operator.mul)[self.output]

    def expand(
        self,
        max_degree: int = DEFAULT_MAX_DEGREE,
        max_terms: int = DEFAULT_MAX_TERMS,
    ) -> NCPoly:
        """Gate-by-gate expansion into an explicit polynomial."""
        if self.formal_degree() > max_degree:
            raise ResourceCapError(
                f"formal degree {self.formal_degree()} exceeds cap {max_degree}"
            )

        def capped(poly: NCPoly) -> NCPoly:
            if len(poly.terms) > max_terms:
                raise ResourceCapError(f"gate expansion exceeds {max_terms} terms")
            return poly

        n, field = self.n_vars, self.field
        return self.fold(
            lambda var: capped(NCPoly.var(n, field, var)),
            lambda value: capped(NCPoly.const(n, field, value)),
            lambda l, r: capped(l.add(r)),
            lambda l, r: capped(l.mul(r, max_terms=max_terms)),
        )[self.output]

    def is_monotone(self) -> bool:
        """Rational constants, all strictly positive."""
        if not isinstance(self.field, RationalField):
            return False
        return all(
            g.value > 0 for g in self.gates if isinstance(g, ConstGate)
        )

    def to_json(self) -> dict:
        out = []
        for g in self.gates:
            if isinstance(g, InputGate):
                out.append({"op": "in", "var": g.var})
            elif isinstance(g, ConstGate):
                out.append({"op": "const", "value": self.field.coeff_to_json(g.value)})
            elif isinstance(g, AddGate):
                out.append({"op": "add", "l": g.left, "r": g.right})
            else:
                out.append({"op": "mul", "l": g.left, "r": g.right})
        return {
            "nvars": self.n_vars,
            "field": self.field.descriptor(),
            "gates": out,
            "output": self.output,
        }

    @classmethod
    def from_json(cls, obj: dict, field: Field | None = None) -> "Circuit":
        if field is None:
            if "field" not in obj:
                raise ValidationError("circuit JSON lacks a field descriptor")
            field = field_from_json(obj["field"])
        gates: list[Gate] = []
        for g in obj["gates"]:
            op = g["op"]
            if op == "in":
                gates.append(InputGate(json_int(g["var"])))
            elif op == "const":
                gates.append(ConstGate(field.coeff_from_json(g["value"])))
            elif op == "add":
                gates.append(AddGate(json_int(g["l"]), json_int(g["r"])))
            elif op == "mul":
                gates.append(MulGate(json_int(g["l"]), json_int(g["r"])))
            else:
                raise ValidationError(f"unknown gate op {op!r}")
        return cls.build(json_int(obj["nvars"]), field, gates, json_int(obj["output"]))

    def __repr__(self) -> str:
        return f"Circuit(gates={len(self.gates)}, vars={self.n_vars}, output={self.output})"


def validate_circuit(c: Circuit) -> Optional[str]:
    if not c.gates:
        return "no gates"
    if not 0 <= c.output < len(c.gates):
        return f"output {c.output} out of range"
    for i, g in enumerate(c.gates):
        if isinstance(g, InputGate):
            if not 0 <= g.var < c.n_vars:
                return f"gate {i} reads variable {g.var} outside 0..{c.n_vars - 1}"
        elif isinstance(g, (AddGate, MulGate)):
            if not (0 <= g.left < i and 0 <= g.right < i):
                return f"gate {i} references a later or negative gate"
    return None


def propagate_zeros(c: Circuit) -> Circuit:
    """Eliminate zero constants: a*0 = 0, a+0 = a.  Output zero becomes a
    single zero-constant circuit.  The gates are replayed through
    ``CircuitBuilder``, which does the folding."""
    builder = CircuitBuilder(c.n_vars, c.field)
    # gate -> surviving gate id, None if identically zero
    ids = c.fold(builder.input, builder.const, builder.add, builder.mul)
    return builder.finish(ids[c.output])


class CircuitBuilder:
    """Incremental construction; None stands for the zero polynomial."""

    def __init__(self, n_vars: int, field: Field):
        self.n_vars = n_vars
        self.field = field
        self.gates: list[Gate] = []

    def _emit(self, g: Gate) -> int:
        self.gates.append(g)
        return len(self.gates) - 1

    def input(self, var: int) -> int:
        return self._emit(InputGate(var))

    def const(self, value) -> Optional[int]:
        value = self.field.coerce(value)
        if not value:
            return None
        return self._emit(ConstGate(value))

    def add(self, l: Optional[int], r: Optional[int]) -> Optional[int]:
        if l is None:
            return r
        if r is None:
            return l
        return self._emit(AddGate(l, r))

    def add_many(self, ids: Sequence[Optional[int]]) -> Optional[int]:
        acc: Optional[int] = None
        for i in ids:
            acc = self.add(acc, i)
        return acc

    def mul(self, l: Optional[int], r: Optional[int]) -> Optional[int]:
        if l is None or r is None:
            return None
        return self._emit(MulGate(l, r))

    def finish(self, output: Optional[int]) -> Circuit:
        """The circuit of the gates emitted so far, computing gate ``output``.

        Built as it stands, not through ``Circuit.build``: ``const`` made
        every constant canonical, and every child is a gate id the builder
        returned, so the gates are in order by construction.  Input
        variables are taken from the caller, whose own circuit or grammar
        was validated when it was built.
        """
        if output is None:
            return Circuit(self.n_vars, self.field, (ConstGate(self.field.zero()),), 0)
        return Circuit(self.n_vars, self.field, tuple(self.gates), output)
