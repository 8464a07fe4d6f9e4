"""Coefficient-wise products: program x program and circuit x program."""

from __future__ import annotations

import gc
import operator
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from hadamard.abp import ABP, LinearForm, coefficient_of, homogeneous_parts, normalize_edges
from hadamard.circuits import Circuit, InputGate, MulGate, AddGate, ConstGate
from hadamard.errors import ArityMismatchError, FieldMismatchError
from hadamard.fields import PrimeField, RationalField, parse_field_spec
from hadamard.grammars import build_mirror_suffix_grammar, cfg_to_circuit
from hadamard import products
from hadamard.polynomials import NCPoly
from hadamard.products import (
    hadamard_abp_detailed,
    hadamard_circuit_abp_detailed,
    hadamard_homogeneous,
    product_arcs,
)

Q = RationalField()
F5 = PrimeField(5)


def lf(field, const=0, **kw):
    return LinearForm.make(field, const=const, coeffs={int(k[1:]): v for k, v in kw.items()})


def random_abp(rng, field, n_vars=3, depth=3, width=3, affine=True):
    sizes = [1] + [rng.randint(1, width) for _ in range(depth - 1)] + [1]
    edges = {}
    for layer in range(depth):
        for a in range(sizes[layer]):
            for c in range(sizes[layer + 1]):
                if rng.random() < 0.3:
                    continue
                const = rng.randint(-2, 2) if affine and rng.random() < 0.5 else 0
                coeffs = {}
                for v in range(n_vars):
                    if rng.random() < 0.5:
                        coeffs[v] = rng.randint(-2, 2)
                form = LinearForm.make(field, const=const, coeffs=coeffs)
                if form.const or form.coeffs:
                    edges[(layer, a, c)] = form
    return ABP.build(n_vars, field, sizes, edges)


def random_circuit(rng, field, n_vars=3, n_gates=8, max_degree=3):
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


def test_homogeneous_product_small_example():
    # f = x0*x1 + x1*x0, g = x0*x1 - x1*x0; f o g = x0x1 - x1x0
    p = ABP.build(
        2, Q, (1, 2, 1),
        {
            (0, 0, 0): lf(Q, x0=1),
            (0, 0, 1): lf(Q, x1=1),
            (1, 0, 0): lf(Q, x1=1),
            (1, 1, 0): lf(Q, x0=1),
        },
    )
    q = ABP.build(
        2, Q, (1, 2, 1),
        {
            (0, 0, 0): lf(Q, x0=1),
            (0, 0, 1): lf(Q, x1=1),
            (1, 0, 0): lf(Q, x1=1),
            (1, 1, 0): lf(Q, x0=-1),
        },
    )
    r = hadamard_homogeneous(p, q)
    assert r.layer_sizes == (1, 4, 1)
    assert r.expand() == NCPoly.from_terms(2, Q, {(0, 1): 1, (1, 0): -1})


def test_full_pipeline_matches_polynomial_hadamard():
    rng = random.Random(2024)
    for _ in range(30):
        p = random_abp(rng, Q, depth=rng.randint(1, 4), width=2)
        q = random_abp(rng, Q, depth=rng.randint(1, 4), width=2)
        r = hadamard_abp_detailed(p, q).abp
        assert r.expand() == p.expand().hadamard(q.expand())
    for _ in range(10):
        p = random_abp(rng, F5, n_vars=2, depth=3, width=2)
        q = random_abp(rng, F5, n_vars=2, depth=3, width=2)
        assert hadamard_abp_detailed(p, q).abp.expand() == p.expand().hadamard(q.expand())


def test_layer_sizes_are_exact_products():
    rng = random.Random(31337)
    for _ in range(20):
        p = random_abp(rng, Q, depth=rng.randint(1, 4))
        q = random_abp(rng, Q, depth=rng.randint(1, 4))
        detail = hadamard_abp_detailed(p, q)
        assert detail.per_degree, "at least the degree-0 record is always present"
        for rec in detail.per_degree:
            assert len(rec.product_sizes) == len(rec.left_sizes) == len(rec.right_sizes)
            for rw, pw, qw in zip(rec.product_sizes, rec.left_sizes, rec.right_sizes):
                assert rw == pw * qw


def test_product_rejects_mismatched_operands():
    p = random_abp(random.Random(1), Q)
    with pytest.raises(ArityMismatchError):
        hadamard_abp_detailed(p, random_abp(random.Random(2), Q, n_vars=2))
    with pytest.raises(FieldMismatchError):
        hadamard_abp_detailed(p, random_abp(random.Random(3), F5))


def test_cancelling_product_prunes_to_zero_structure():
    # f = x0x1, g = x1x0 share no monomial: product polynomial is zero
    p = ABP.build(2, Q, (1, 1, 1), {(0, 0, 0): lf(Q, x0=1), (1, 0, 0): lf(Q, x1=1)})
    q = ABP.build(2, Q, (1, 1, 1), {(0, 0, 0): lf(Q, x1=1), (1, 0, 0): lf(Q, x0=1)})
    r = hadamard_abp_detailed(p, q).abp
    assert r.expand().is_zero()


def test_circuit_abp_product_examples():
    # circuit: (x0 + x1)^2; program: x0*x1 + 3 x1*x0
    c = Circuit.build(
        2, Q, [InputGate(0), InputGate(1), AddGate(0, 1), MulGate(2, 2)], 3
    )
    p = ABP.build(
        2, Q, (1, 2, 1),
        {
            (0, 0, 0): lf(Q, x0=1),
            (0, 0, 1): lf(Q, x1=1),
            (1, 0, 0): lf(Q, x1=1),
            (1, 1, 0): lf(Q, x0=3),
        },
    )
    r = hadamard_circuit_abp_detailed(c, p).circuit
    assert r.expand() == NCPoly.from_terms(2, Q, {(0, 1): 1, (1, 0): 3})


def test_circuit_abp_product_random():
    rng = random.Random(616)
    for _ in range(25):
        c = random_circuit(rng, Q, n_vars=2, n_gates=rng.randint(3, 8))
        p = random_abp(rng, Q, n_vars=2, depth=rng.randint(1, 3), width=2)
        expect = c.expand().hadamard(p.expand())
        detail = hadamard_circuit_abp_detailed(c, p)
        assert detail.circuit.expand() == expect
    for _ in range(10):
        c = random_circuit(rng, F5, n_vars=2, n_gates=6)
        p = random_abp(rng, F5, n_vars=2, depth=2, width=2)
        assert hadamard_circuit_abp_detailed(c, p).circuit.expand() == c.expand().hadamard(p.expand())


def test_circuit_abp_constant_only_operands():
    c = Circuit.build(1, Q, [ConstGate(Fraction(3))], 0)
    p = ABP.build(1, Q, (1, 1), {(0, 0, 0): lf(Q, const=2, x0=1)})
    r = hadamard_circuit_abp_detailed(c, p).circuit
    assert r.expand() == NCPoly.const(1, Q, 6)


ORACLE_FIELDS = [Q, PrimeField(2), F5, parse_field_spec("fpk:2:2")]


def _program(rng, field, depth, cancelling, n_vars=2):
    """The constant 1 at depth 0, else a random or a cancelling program."""
    if depth == 0:
        return ABP.build(n_vars, field, (1,), {})
    if cancelling:
        return helpers.cancelling_abp(rng, field, n_vars=n_vars, depth=depth, width=2)
    width, density = rng.randint(1, 3), rng.choice((0.4, 0.7, 1.0))
    return helpers.random_abp(rng, field, n_vars=n_vars, depth=depth, width=width, density=density)


@st.composite
def _program_pairs(draw):
    field = draw(st.sampled_from(ORACLE_FIELDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = _program(rng, field, draw(st.integers(0, 5)), draw(st.booleans()))
    if draw(st.booleans()):
        return p, p
    return p, _program(rng, field, draw(st.integers(0, 5)), draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(_program_pairs())
def test_abp_product_matches_the_full_pipeline(pair):
    # the product labels only live arcs; building every stage must agree,
    # edge order included
    p, q = pair
    detail = hadamard_abp_detailed(p, q)
    pruned, unpruned, records = helpers.naive_hadamard_abp(p, q)
    assert detail.abp.to_json() == pruned.to_json()
    assert list(detail.abp.edges) == list(pruned.edges)
    assert detail.per_degree == records
    assert detail.unpruned_nodes == unpruned.node_count()
    assert detail.unpruned == unpruned
    assert list(detail.unpruned.edges) == list(unpruned.edges)


@st.composite
def _homogeneous_pairs(draw):
    """Degree-k parts of two programs over one field, normalized or not."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    k = draw(st.integers(1, 5))
    normalized = draw(st.booleans())

    def part(depth, cancelling):
        pk = homogeneous_parts(_program(rng, field, depth, cancelling), depth)[k]
        return normalize_edges(pk) if normalized else pk

    p = part(draw(st.integers(k, 5)), draw(st.booleans()))
    if draw(st.booleans()):
        return p, p
    return p, part(draw(st.integers(k, 5)), draw(st.booleans()))


@settings(max_examples=80, deadline=None)
@given(_homogeneous_pairs())
def test_product_arcs_are_the_reachable_all_pairs_arcs(pair):
    # grown forward from the source pair: exactly the all-pairs arc items out
    # of reachable pairs, with the same entries, in the same order
    p, q = pair
    expect = helpers.reachable_arcs(helpers.all_pairs_product_arcs(p, q))
    assert product_arcs(p, q) == expect


def test_product_arcs_skip_unreachable_pairs():
    # node 1 of layer 1 has no arc in: of the self-product's 5 arcs, the 3
    # out of the pairs (0, 1), (1, 0) and (1, 1) are never made
    p = ABP.build(1, Q, (1, 2, 1), {(0, 0, 0): lf(Q, x0=2), (1, 0, 0): lf(Q, x0=3), (1, 1, 0): lf(Q, x0=5)})
    two, three = Fraction(2), Fraction(3)
    assert len(helpers.all_pairs_product_arcs(p, p)) == 5
    assert product_arcs(p, p) == [((0, 0, 0), (0, two, two)), ((1, 0, 0), (0, three, three))]


def test_a_top_degree_that_prunes_to_nothing_keeps_the_sum_depth():
    # f = x0 + x0*x1 and g = x0 + x1*x0 share no degree-2 monomial, so the
    # product x0 hangs off the sum's constant-1 delay chain: layers (1, 1, 1)
    p = ABP.build(2, Q, (1, 1, 1), {(0, 0, 0): lf(Q, x0=1), (1, 0, 0): lf(Q, const=1, x1=1)})
    q = ABP.build(2, Q, (1, 1, 1), {(0, 0, 0): lf(Q, const=1, x1=1), (1, 0, 0): lf(Q, x0=1)})
    r = hadamard_abp_detailed(p, q).abp
    assert r.layer_sizes == (1, 1, 1)
    assert r.edges == {(0, 0, 0): lf(Q, const=1), (1, 0, 0): lf(Q, x0=1)}
    assert r.to_json() == helpers.naive_hadamard_abp(p, q)[0].to_json()


@st.composite
def _circuit_cases(draw):
    """A circuit and a program over one field.  Tall circuits put many
    sub-results on the call stack at once and cross checkpoints; skipping
    circuits read gates two or more levels below, so their reads jump over
    heights; grammar circuits, homogeneous of degree 3n with an add chain per
    alternative, meet a program of that depth, as in the benchmark's grammar
    jobs; program circuits follow another program of the same depth layer by
    layer, as in the benchmark's other circuit jobs, so most right factors
    are labels on a single step."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    depth, cancelling = draw(st.integers(0, 5)), draw(st.booleans())
    shape = draw(st.sampled_from(("random", "tall", "skipping", "grammar", "program")))
    if shape == "grammar":
        n = rng.randint(1, 2)
        c = cfg_to_circuit(build_mirror_suffix_grammar(n, rng.randint(2, 3)))
        return c, _program(rng, Q, 3 * n, cancelling, n_vars=c.n_vars)
    p = _program(rng, field, depth, cancelling)
    if shape == "program":
        return helpers.program_circuit(_program(rng, field, depth, False)), p
    if shape == "tall":
        return helpers.tall_circuit(rng, field, n_gates=rng.randint(36, 80)), p
    if shape == "skipping":
        height = rng.randint(10, 40)
        skipped = {h for h in range(1, height + 1) if rng.random() < 0.4}
        return helpers.skipping_circuit(rng, field, height, skipped), p
    return helpers.random_circuit(rng, field, n_vars=2, n_gates=rng.randint(1, 14), max_degree=5), p


# at step 3, gate 4 is a checkpoint; the product gate 6 reads it only
# through gate 5, so it is interrupted after some of its split products
# are emitted
_INDIRECT_RESTART = (
    Circuit.build(
        2, Q, [InputGate(0), InputGate(1), AddGate(0, 1), AddGate(2, 0), AddGate(3, 1), AddGate(4, 0), MulGate(0, 5)], 6
    ),
    helpers.random_abp(random.Random(4), Q, n_vars=2, depth=2, width=2, density=1.0),
)


# ((x1 x1) (3 x0)) x1 against a degree-4 program whose pair (2, 0) -> (3, 0)
# has no entry.  The split at layer 2 of (x1 x1)(3 x0) on (0, 0) -> (3, 0)
# fetches 3 x0 on that pair first, which emits the constant 3 and comes out
# zero; had that right factor been passed over, the constant would be
# emitted later, at end node (3, 1)
_FIRST_RIGHT_FACTOR_ON_NO_ENTRY = (
    Circuit.build(
        3, Q, [InputGate(0), InputGate(1), ConstGate(Fraction(3)), MulGate(1, 1), MulGate(2, 0), MulGate(3, 4), MulGate(5, 1)], 6
    ),
    ABP.build(
        3, Q, (1, 1, 2, 2, 1),
        {
            (0, 0, 0): lf(Q, x1=1),
            (1, 0, 0): lf(Q, x1=1), (1, 0, 1): lf(Q, x1=2),
            (2, 0, 1): lf(Q, x0=1), (2, 1, 0): lf(Q, x0=5), (2, 1, 1): lf(Q, x0=7),
            (3, 0, 0): lf(Q, x1=1), (3, 1, 0): lf(Q, x1=1),
        },
    ),
)

# (x1 + 4) * (2 x0) against the degree-1 label 1 + 2 x0 + 5 x1, which is not
# normalized, so its one step carries two variables.  At step 1 the product
# gate is started again after its left factors are kept, and its right
# factor 2 x0 is looked at on that step: it reads x0 only through its input
# gate, and x0 is the first of the step's two variables
_TWO_VARIABLE_STEP = (
    Circuit.build(
        2, Q, [InputGate(0), InputGate(1), ConstGate(Fraction(4)), ConstGate(Fraction(2)), AddGate(1, 2), MulGate(3, 0), MulGate(4, 5)], 6
    ),
    ABP.build(2, Q, (1, 1), {(0, 0, 0): lf(Q, const=1, x0=2, x1=5)}),
)


@settings(max_examples=120, deadline=None)
@given(_circuit_cases(), st.sampled_from([1, 2, 3]))
@example(_INDIRECT_RESTART, 3)
@example(_FIRST_RIGHT_FACTOR_ON_NO_ENTRY, 1)
@example(_TWO_VARIABLE_STEP, 1)
def test_circuit_product_matches_the_recursion(case, step):
    # with checkpoints at runs of `step` gates instead, sub-results are
    # interrupted and started again; a restart emits no gate twice and
    # memoizes nothing new
    c, p = case
    expect = helpers.recursive_hadamard_circuit_abp(c, p).json_text()
    default = hadamard_circuit_abp_detailed(c, p)
    with mock.patch.object(products, "CHECKPOINT_STEP", step):
        restarted = hadamard_circuit_abp_detailed(c, p)
    assert default.circuit.json_text() == expect
    assert restarted.circuit.json_text() == expect
    assert restarted.memo_size == default.memo_size


def _linear_part(c: Circuit) -> tuple:
    """(constant, {variable: coefficient}) of a circuit of formal degree at
    most 1: its value and its gradient at zero, the gradient worked out
    backward over the gates."""
    assert c.formal_degree() <= 1
    field = c.field
    zero = field.zero()
    at_zero = c.fold(lambda var: zero, lambda value: value, operator.add, operator.mul)
    grad = [zero] * len(c.gates)
    grad[c.output] = field.one()
    coeffs: dict = {}
    for g in reversed(range(len(c.gates))):
        gate, d = c.gates[g], grad[g]
        if not d:
            continue
        if isinstance(gate, InputGate):
            coeffs[gate.var] = coeffs.get(gate.var, zero) + d
        elif isinstance(gate, AddGate):
            grad[gate.left] += d
            grad[gate.right] += d
        elif isinstance(gate, MulGate):
            grad[gate.left] += d * at_zero[gate.right]
            grad[gate.right] += d * at_zero[gate.left]
    return at_zero[c.output], {v: x for v, x in coeffs.items() if x}


def test_circuit_product_of_a_wide_add_chain():
    # the sum of 20,000 distinct inputs against one label that carries all
    # 20,000 variables: at degree 1 no gate gets a variable mask, which would
    # grow one bit per gate (a traced peak of 78 MiB with them, 26 without),
    # and the product still finishes well inside 5 s
    n = 20000
    gates = [InputGate(v) for v in range(n)] + [AddGate(0, 1)]
    gates += [AddGate(n + v - 2, v) for v in range(2, n)]
    c = Circuit.build(n, F5, gates, len(gates) - 1)
    coeffs = {v: 1 + v % 4 for v in range(n)}
    p = ABP.build(n, F5, (1, 1), {(0, 0, 0): LinearForm.make(F5, coeffs=coeffs)})
    start = time.perf_counter()
    result = hadamard_circuit_abp_detailed(c, p)
    elapsed = time.perf_counter() - start
    assert _linear_part(result.circuit) == (F5.zero(), {v: F5.coerce(x) for v, x in coeffs.items()})
    assert elapsed < 5.0
    del result
    tracemalloc.start()
    try:
        hadamard_circuit_abp_detailed(c, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def _low_degree_product(f: NCPoly, p: ABP) -> NCPoly:
    """The sum over the words w of f of f_w times p's coefficient of w,
    each read off p's layers by ``coefficient_of``."""
    return NCPoly.from_terms(f.n_vars, f.field, {w: x * coefficient_of(p, w) for w, x in f.terms.items()})


def test_a_low_degree_circuit_lays_out_only_the_low_parts_of_a_deep_program():
    # (x0 + x1)^2 against a depth-100, width-2 homogeneous program: every
    # part would take 333,502 nodes and most of 2 s, parts 0-2 take a few
    # milliseconds
    c = Circuit.build(2, F5, [InputGate(0), InputGate(1), AddGate(0, 1), MulGate(2, 2)], 3)
    p = helpers.homogeneous_abp(random.Random(100), F5, 100)
    start = time.perf_counter()
    result = hadamard_circuit_abp_detailed(c, p)
    elapsed = time.perf_counter() - start
    assert result.circuit.expand() == _low_degree_product(c.expand(), p)
    assert elapsed < 0.1


def test_a_low_degree_circuit_meets_a_program_whose_parts_pass_the_cap():
    # (x0 + x1 + 1)^2 against a width-1 affine program of depth 200: every
    # part would take 1,333,702 nodes, past the cap, parts 0-2 far fewer.
    # At depth 1,000 the parts' last layers come from one backward pass, and
    # only the source's steps are walked
    gates = [InputGate(0), InputGate(1), ConstGate(F5.one()), AddGate(0, 1), AddGate(3, 2), MulGate(4, 4)]
    c = Circuit.build(2, F5, gates, 5)
    for depth in (200, 1000):
        p = helpers.affine_chain(random.Random(depth), F5, depth)
        start = time.perf_counter()
        result = hadamard_circuit_abp_detailed(c, p)
        elapsed = time.perf_counter() - start
        got = result.circuit.expand()
        assert got == _low_degree_product(c.expand(), p)
        assert len(got.terms) == {200: 7, 1000: 6}[depth]  # p has no x1*x1 at depth 1,000
        assert elapsed < 0.5


def test_a_shallow_program_meets_a_deep_affine_chain():
    # a depth-2 affine chain against one of depth 1,000: the product pairs
    # parts 0-2 only, and lays out no deeper part of the deep operand
    q = helpers.affine_chain(random.Random(2), F5, 2)
    p = helpers.affine_chain(random.Random(1000), F5, 1000)
    start = time.perf_counter()
    got = hadamard_abp_detailed(q, p).abp
    elapsed = time.perf_counter() - start
    assert got.expand() == _low_degree_product(q.expand(), p)
    assert elapsed < 0.5


def test_circuit_product_masks_do_not_grow_with_declared_variables():
    # the last of 10^6 declared variables, read through a chain of 40 gates
    # and carried by the program: each mask is one bit wide, not 10^6
    n = 10**6
    gates = [InputGate(n - 1), ConstGate(F5.coerce(2))]
    for g in range(2, 42):
        gates.append(AddGate(g - 1, g % 2))
    c = Circuit.build(n, F5, gates, len(gates) - 1)
    p = ABP.build(n, F5, (1, 1), {(0, 0, 0): lf(F5, const=1, **{f"x{n - 1}": 3})})
    tracemalloc.start()
    try:
        result = hadamard_circuit_abp_detailed(c, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.circuit.expand() == c.expand().hadamard(p.expand())
    assert peak < 2**20


def test_circuit_product_leaves_no_garbage_cycle():
    # a 200-gate tall circuit crosses checkpoints, so sub-results are
    # interrupted and restarted; nothing the product made is left to the
    # cycle collector
    rng = random.Random(7)
    c = helpers.tall_circuit(rng, F5, n_gates=200)
    p = helpers.random_abp(rng, F5, n_vars=2, depth=3, width=2, density=0.7)
    gc.collect()
    gc.disable()
    try:
        hadamard_circuit_abp_detailed(c, p)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_circuit_product_memory_does_not_grow_with_declared_variables():
    # the degree-0 term comes from the constant parts, not from a point of
    # 10^6 zeros, so only what the files hold is allocated
    n = 10**6
    c = Circuit.build(n, F5, [InputGate(0), ConstGate(F5.coerce(2)), AddGate(0, 1)], 2)
    p = ABP.build(n, F5, (1, 1, 1), {(0, 0, 0): lf(F5, const=1, x0=1), (1, 0, 0): lf(F5, const=3, x1=2)})
    tracemalloc.start()
    try:
        result = hadamard_circuit_abp_detailed(c, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.circuit.expand() == c.expand().hadamard(p.expand())
    assert peak < 2**20


def test_circuit_product_of_a_deep_chain():
    # 3,000 gates deep, past Python's recursion limit: additions of x0, x1
    # and 2, with every third gate a product by 2 on the left
    gates = [InputGate(0), InputGate(1), ConstGate(Fraction(2))]
    for g in range(3, 3000):
        gates.append(MulGate(2, g - 1) if g % 3 == 0 else AddGate(g - 1, g % 3))
    c = Circuit.build(2, Q, gates, len(gates) - 1)
    p = ABP.build(2, Q, (1, 1), {(0, 0, 0): lf(Q, const=3, x0=2, x1=-1)})
    assert hadamard_circuit_abp_detailed(c, p).circuit.expand() == c.expand().hadamard(p.expand())


def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_circuit_product_stack_is_bounded_by_the_step():
    # the deep chain again, and a 3,000-gate-tall skipping circuit whose
    # output chain holds no gate of a height that is a multiple of the step,
    # with room for only a few hundred more frames: the call stack holds at
    # most CHECKPOINT_STEP gates' sub-results
    step = products.CHECKPOINT_STEP
    c = helpers.skipping_circuit(random.Random(3), Q, 3000, set(range(step, 3001, step)))
    p = ABP.build(2, Q, (1, 1), {(0, 0, 0): lf(Q, const=3, x0=2, x1=-1)})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 300)
    try:
        test_circuit_product_of_a_deep_chain()
        skipping = hadamard_circuit_abp_detailed(c, p).circuit
    finally:
        sys.setrecursionlimit(limit)
    assert skipping.expand() == c.expand().hadamard(p.expand())
