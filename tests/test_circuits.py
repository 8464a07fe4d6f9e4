"""Circuit construction, expansion, zero propagation, and serialization."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from hadamard.circuits import (
    AddGate,
    Circuit,
    CircuitBuilder,
    ConstGate,
    InputGate,
    MulGate,
    propagate_zeros,
    validate_circuit,
)
from hadamard.errors import ArityMismatchError, ResourceCapError, ValidationError
from hadamard.fields import PrimeField, RationalField, parse_field_spec
from hadamard.grammars import cfg_to_circuit
from hadamard.polynomials import NCPoly
from hadamard.products import hadamard_circuit_abp_detailed

Q = RationalField()
F3 = PrimeField(3)


def xy_plus_yx():
    # x0*x1 + x1*x0
    gates = [
        InputGate(0),
        InputGate(1),
        MulGate(0, 1),
        MulGate(1, 0),
        AddGate(2, 3),
    ]
    return Circuit.build(2, Q, gates, 4)


def random_circuit(rng, field, n_vars=3, n_gates=8, max_degree=4):
    gates = [InputGate(rng.randrange(n_vars))]
    degs = [1]
    while len(gates) < n_gates:
        roll = rng.random()
        if roll < 0.25:
            gates.append(InputGate(rng.randrange(n_vars)))
            degs.append(1)
        elif roll < 0.4:
            gates.append(ConstGate(field.coerce(rng.randint(-2, 2))))
            degs.append(0)
        else:
            l = rng.randrange(len(gates))
            r = rng.randrange(len(gates))
            if roll < 0.7 and degs[l] + degs[r] <= max_degree:
                gates.append(MulGate(l, r))
                degs.append(degs[l] + degs[r])
            else:
                gates.append(AddGate(l, r))
                degs.append(max(degs[l], degs[r]))
    return Circuit.build(n_vars, field, gates, len(gates) - 1)


def test_expand_noncommutative_order():
    c = xy_plus_yx()
    assert c.expand() == NCPoly.from_terms(2, Q, {(0, 1): 1, (1, 0): 1})
    assert c.formal_degree() == 2
    assert c.size() == (5, 6)


def test_evaluate_matches_expansion():
    rng = random.Random(15)
    for _ in range(25):
        c = random_circuit(rng, Q)
        f = c.expand()
        point = [Fraction(rng.randint(-3, 3)) for _ in range(c.n_vars)]
        assert c.evaluate(point) == f.evaluate(point)
    for _ in range(10):
        c = random_circuit(rng, F3, n_vars=2, n_gates=6)
        f = c.expand()
        point = [F3.coerce(rng.randrange(3)) for _ in range(2)]
        assert c.evaluate(point) == f.evaluate(point)


def test_evaluate_checks_the_point_length_first():
    # as the program and polynomial evaluators do: a point of the wrong
    # length is an arity error, before any value is converted
    c = xy_plus_yx()
    f = c.expand()
    for point in ([Fraction(1)], [1, 2, 3], [Fraction(1, 2)] * 3):
        for evaluate in (c.evaluate, f.evaluate):
            with pytest.raises(ArityMismatchError):
                evaluate(point)
    g = Circuit.build(1, F3, [InputGate(0)], 0)
    with pytest.raises(ArityMismatchError):
        g.evaluate([Fraction(1, 2), 1])


def test_validation_rejects_forward_references():
    with pytest.raises(ValidationError):
        Circuit.build(1, Q, [AddGate(0, 1), InputGate(0)], 0)
    with pytest.raises(ValidationError):
        Circuit.build(1, Q, [InputGate(3)], 0)
    assert validate_circuit(xy_plus_yx()) is None


def test_degree_cap_enforced():
    # ((x^2)^2)^2 has degree 8
    gates = [InputGate(0), MulGate(0, 0), MulGate(1, 1), MulGate(2, 2)]
    c = Circuit.build(1, Q, gates, 3)
    with pytest.raises(ResourceCapError):
        c.expand(max_degree=4)
    assert c.expand(max_degree=8).degree() == 8


def test_propagate_zeros():
    # (x0 + 0) * 0 + x1  ->  x1
    gates = [
        InputGate(0),
        ConstGate(Fraction(0)),
        AddGate(0, 1),
        MulGate(2, 1),
        InputGate(1),
        AddGate(3, 4),
    ]
    c = Circuit.build(2, Q, gates, 5)
    p = propagate_zeros(c)
    assert all(not isinstance(g, ConstGate) or g.value for g in p.gates)
    assert p.expand() == c.expand()
    # identically zero output collapses to a single constant gate
    z = Circuit.build(1, Q, [InputGate(0), ConstGate(Fraction(0)), MulGate(0, 1)], 2)
    pz = propagate_zeros(z)
    assert len(pz.gates) == 1 and pz.expand().is_zero()


def test_propagate_zeros_random_equivalence():
    rng = random.Random(77)
    for _ in range(30):
        c = random_circuit(rng, Q)
        assert propagate_zeros(c).expand() == c.expand()


def test_monotone_detection():
    assert xy_plus_yx().is_monotone()
    gates = [InputGate(0), ConstGate(Fraction(-1)), MulGate(0, 1)]
    assert not Circuit.build(1, Q, gates, 2).is_monotone()
    assert not random_circuit(random.Random(0), F3).is_monotone()


def test_builder_folds_zeros():
    b = CircuitBuilder(2, Q)
    x = b.input(0)
    z = b.const(0)
    assert z is None
    assert b.mul(x, z) is None
    y = b.add(b.mul(x, z), b.input(1))
    c = b.finish(y)
    assert c.expand() == NCPoly.var(2, Q, 1)
    assert b.finish(None).expand().is_zero()


def test_json_round_trip():
    c = xy_plus_yx()
    assert Circuit.from_json(c.to_json()) == c
    r = random_circuit(random.Random(5), F3, n_vars=2, n_gates=6)
    assert Circuit.from_json(r.to_json()) == r
    obj = c.to_json()
    obj["gates"][0] = {"op": "nope"}
    with pytest.raises(ValidationError):
        Circuit.from_json(obj)


@settings(max_examples=50, deadline=None)
@given(
    field=st.sampled_from([Q, PrimeField(2), F3, parse_field_spec("fpk:2:2")]),
    seed=st.integers(0, 2**32),
)
def test_builder_circuits_are_well_formed(field, seed):
    # CircuitBuilder.finish does not re-validate what the library builds:
    # each output must pass validate_circuit, hold canonical constants and
    # equal the circuit Circuit.build makes of its gates
    rng = random.Random(seed)
    c = helpers.random_circuit(rng, field, n_vars=2, n_gates=rng.randint(1, 12))
    p = helpers.random_abp(rng, field, n_vars=2, depth=rng.randint(1, 4), width=2)
    built = [hadamard_circuit_abp_detailed(c, p).circuit, propagate_zeros(c), cfg_to_circuit(helpers.random_grammar(rng))]
    for out in built:
        assert validate_circuit(out) is None
        for g in out.gates:
            if isinstance(g, ConstGate):
                assert out.field.coerce(g.value) is g.value
        assert Circuit.build(out.n_vars, out.field, out.gates, out.output) == out
