"""The JSON writers of programs and circuits, byte for byte against the
dict builders of ``helpers``."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from hadamard.abp import ABP, LinearForm, constant_abp, zero_abp
from hadamard.circuits import AddGate, Circuit, CircuitBuilder, ConstGate, InputGate, MulGate
from hadamard.fields import ExtField, PrimeField, RationalField
from hadamard.grammars import cfg_to_circuit
from hadamard.products import hadamard_circuit_abp_detailed

Q = RationalField()
F2 = PrimeField(2)
F5 = PrimeField(5)
F4 = ExtField.make(2, 2)
FIELDS = [Q, F2, F5, F4]


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def written(x) -> str:
    return x.json_text()


def coefficients(field):
    if field is Q:
        return st.fractions(min_value=-5, max_value=5, max_denominator=7)
    return st.sampled_from(list(field.elements()))


@st.composite
def programs(draw):
    field = draw(st.sampled_from(FIELDS))
    n_vars = draw(st.integers(1, 12))
    depth = draw(st.integers(1, 4))
    sizes = [1] + [draw(st.integers(1, 3)) for _ in range(depth - 1)] + [1]
    coeff = coefficients(field)
    edges = {}
    for layer in range(depth):
        for a in range(sizes[layer]):
            for c in range(sizes[layer + 1]):
                if draw(st.booleans()):
                    coeffs = draw(st.dictionaries(st.integers(0, n_vars - 1), coeff, max_size=5))
                    edges[(layer, a, c)] = LinearForm.make(field, const=draw(coeff), coeffs=coeffs)
    return ABP.build(n_vars, field, sizes, edges)


@st.composite
def circuits(draw):
    field = draw(st.sampled_from(FIELDS))
    n_vars = draw(st.integers(1, 12))
    gates = [InputGate(draw(st.integers(0, n_vars - 1)))]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from([InputGate, ConstGate, AddGate, MulGate]))
        if kind is InputGate:
            gates.append(InputGate(draw(st.integers(0, n_vars - 1))))
        elif kind is ConstGate:
            gates.append(ConstGate(draw(coefficients(field))))
        else:
            gates.append(kind(draw(st.integers(0, len(gates) - 1)), draw(st.integers(0, len(gates) - 1))))
    return Circuit.build(n_vars, field, gates, draw(st.integers(0, len(gates) - 1)))


@settings(max_examples=200, deadline=None)
@given(programs())
def test_program_writer_matches_the_dict_reference(p):
    assert written(p) == dumps(helpers.abp_json(p))
    assert p.to_json() == helpers.abp_json(p)


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_circuit_writer_matches_the_dict_reference(c):
    assert written(c) == dumps(helpers.circuit_json(c))
    assert c.to_json() == helpers.circuit_json(c)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_writers_on_edge_cases(field):
    # keys "10" and "11" sort before "2" as strings; rationals may be negative
    one = field.one()
    form = LinearForm.make(field, const=-one, coeffs={2: one, 10: -one, 11: one + one})
    p = ABP.build(12, field, (1, 1), {(0, 0, 0): form})
    assert written(p) == dumps(helpers.abp_json(p))
    assert '"coeffs":{"10":' in written(p)
    cases = [p, zero_abp(3, field), constant_abp(3, field, 3), constant_abp(3, field, 0)]
    if field is Q:
        cases.append(constant_abp(1, Q, Fraction(-3, 4)))
    for q in cases:
        assert written(q) == dumps(helpers.abp_json(q))
    zero = CircuitBuilder(2, field).finish(None)
    assert len(zero.gates) == 1
    assert written(zero) == dumps(helpers.circuit_json(zero))


@pytest.mark.parametrize("seed", range(10))
def test_writers_on_product_and_grammar_circuits(seed):
    rng = random.Random(seed)
    c = helpers.random_circuit(rng, Q, n_vars=2, n_gates=rng.randint(1, 10))
    p = helpers.random_abp(rng, Q, n_vars=2, depth=rng.randint(1, 4), width=2)
    for out in (hadamard_circuit_abp_detailed(c, p).circuit, cfg_to_circuit(helpers.random_grammar(rng))):
        assert written(out) == dumps(helpers.circuit_json(out))
