"""The JSON writers of programs and circuits, byte for byte against the
dict builders of ``helpers``, and the size counts the writers' callers read."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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


def one_edge(field, const, coeffs):
    """A depth-1 program over 12 variables whose one edge is labelled
    const + sum of coeffs[v] x_v."""
    return ABP.build(12, field, (1, 1), {(0, 0, 0): LinearForm.make(field, const=const, coeffs=coeffs)})


def with_examples(programs_):
    """The test run on each program as an explicit ``@example`` first."""

    def decorate(test):
        for p in reversed(programs_):
            test = example(p)(test)
        return test

    return decorate


# a one-variable label on variable 10 with a zero and a nonzero constant, and
# a label on variables 2 and 10, whose keys sort as strings ("10" before "2")
LABEL_EXAMPLES = [
    one_edge(f, const, coeffs)
    for f in FIELDS
    for const, coeffs in [(f.zero(), {10: f.one()}), (-f.one(), {10: -f.one()}), (f.one(), {2: f.one(), 10: f.one()})]
]


@settings(max_examples=200, deadline=None)
@given(programs())
@with_examples(LABEL_EXAMPLES)
def test_program_writer_matches_the_dict_reference(p):
    assert written(p) == dumps(helpers.abp_json(p))
    assert p.to_json() == helpers.abp_json(p)


def test_label_examples_take_both_coefficient_paths():
    # no example collapses over F_2: each keeps its constant and variables
    shapes = [(bool(const), sorted(coeffs)) for p in LABEL_EXAMPLES for _, const, coeffs in p.labels()]
    assert shapes == [(False, [10]), (True, [10]), (True, [2, 10])] * len(FIELDS)
    assert all('"coeffs":{"10":' in written(p) for p in LABEL_EXAMPLES)


@settings(max_examples=200, deadline=None)
@given(programs())
def test_edge_count_is_the_number_of_labels(p):
    assert p.edge_count() == sum(1 for _ in p.labels())


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_circuit_size_counts_gates_and_wires(c):
    binary = sum(1 for g in c.gates if isinstance(g, (AddGate, MulGate)))
    assert c.size() == (len(c.gates), 2 * binary)


@settings(max_examples=100, deadline=None)
@given(circuits(), st.data())
def test_circuits_differ_when_one_op_is_flipped(c, data):
    assert Circuit.from_json(c.to_json()) == c
    binary = [i for i, g in enumerate(c.gates) if isinstance(g, (AddGate, MulGate))]
    if not binary:
        return
    i = data.draw(st.sampled_from(binary))
    g = c.gates[i]
    flipped = (MulGate if isinstance(g, AddGate) else AddGate)(g.left, g.right)
    other = Circuit(c.n_vars, c.field, c.gates[:i] + (flipped,) + c.gates[i + 1 :], c.output)
    assert other != c and c != other


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
