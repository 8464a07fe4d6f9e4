"""Branching-program mechanics: evaluation, expansion, homogenization,
normalization, sums, coefficient extraction, and rank-sum complexity."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hadamard.abp import (
    ABP,
    LinearForm,
    abp_sum,
    coefficient_matrices,
    coefficient_of,
    constant_abp,
    homogeneous_parts,
    is_homogeneous_program,
    nisan_complexity,
    nisan_matrix,
    normalize_edges,
    prefix_subprogram,
    prune,
    subprogram,
    validate,
    zero_abp,
)
from hadamard.errors import FieldMismatchError, ValidationError
from hadamard.fields import ExtField, PrimeField, RationalField
from hadamard.matrices import Matrix
from hadamard.polynomials import NCPoly
from hadamard.products import hadamard_abp_detailed

from helpers import cancelling_abp

Q = RationalField()
F2 = PrimeField(2)
F5 = PrimeField(5)
F4 = ExtField.make(2, 2)


def lf(field, const=0, **kw):
    return LinearForm.make(field, const=const, coeffs={int(k[1:]): v for k, v in kw.items()})


def mixed_example():
    # computes 1 + x1 + x1*x2 (vars x0 unused; n_vars=3)
    return ABP.build(
        3,
        Q,
        (1, 2, 1),
        {
            (0, 0, 0): lf(Q, const=1),
            (0, 0, 1): lf(Q, x1=1),
            (1, 0, 0): lf(Q, const=1),
            (1, 1, 0): lf(Q, const=1, x2=1),
        },
    )


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
                if not form.is_zero():
                    edges[(layer, a, c)] = form
    return ABP.build(n_vars, field, sizes, edges)


def test_expand_and_evaluate_mixed_example():
    p = mixed_example()
    f = p.expand()
    assert f == NCPoly.from_terms(
        3, Q, {(): 1, (1,): 1, (1, 2): 1}
    )
    # evaluation agrees with the expanded polynomial at a few points
    for point in [(0, 0, 0), (1, 2, 3), (-1, 1, 4)]:
        assert p.evaluate(point) == f.evaluate(point)


def test_validate_catches_bad_shapes():
    with pytest.raises(ValidationError):
        ABP.build(1, Q, (2, 1), {})
    with pytest.raises(ValidationError):
        ABP.build(1, Q, (1, 0, 1), {})
    with pytest.raises(ValidationError):
        ABP.build(1, Q, (1, 1), {(0, 0, 5): lf(Q, const=1)})
    with pytest.raises(ValidationError):
        ABP.build(1, Q, (1, 1), {(0, 0, 0): lf(Q, x3=1)})
    assert validate(zero_abp(2, Q)) is None


def test_build_checks_labels_instead_of_converting():
    # another field's element is refused, as when build converted labels
    with pytest.raises(FieldMismatchError):
        ABP.build(1, F5, (1, 1), {(0, 0, 0): LinearForm.make(PrimeField(7), coeffs={0: 1})})
    # a raw form with a zero or a plain-number coefficient is not rewritten
    for form in (
        LinearForm(F5.zero(), {0: F5.zero()}),
        LinearForm(F5.zero(), {0: 1}),
        LinearForm(1, {0: F5.one()}),
    ):
        with pytest.raises(ValidationError, match="not canonical"):
            ABP.build(1, F5, (1, 1), {(0, 0, 0): form})


@settings(max_examples=60, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from([Q, F2, F5, F4]),
    st.booleans(),
)
def test_every_stage_returns_canonical_labels(rng, field, cancelling):
    if cancelling:
        p = cancelling_abp(rng, field, n_vars=2, depth=3, width=2)
    else:
        p = random_abp(rng, field, n_vars=2, depth=3, width=2)
    q = random_abp(rng, field, n_vars=2, depth=3, width=2)
    parts = homogeneous_parts(p)
    product = hadamard_abp_detailed(p, q)
    stages = parts + [normalize_edges(part) for part in parts[1:]]
    stages += [product.abp, product.unpruned, abp_sum(parts), prune(p)]
    for x in stages:
        assert validate(x) is None
        assert ABP.from_json(x.to_json()) == x


def test_build_merges_parallel_edge_labels():
    # ingesting the same node pair twice adds the labels
    p = ABP.build(2, Q, (1, 1), {(0, 0, 0): lf(Q, x0=1)})
    obj = p.to_json()
    obj["edges"].append({"from": [0, 0], "to": [1, 0], "label": lf(Q, x1=2).to_json(Q)})
    merged = ABP.from_json(obj)
    assert merged.expand() == NCPoly.from_terms(2, Q, {(0,): 1, (1,): 2})


def test_zero_and_constant_programs():
    assert zero_abp(2, Q).expand().is_zero()
    assert constant_abp(2, Q, Fraction(7, 2)).expand() == NCPoly.const(2, Q, Fraction(7, 2))


def test_homogeneous_parts_mixed_example():
    parts = homogeneous_parts(mixed_example())
    assert len(parts) == 3
    assert parts[0].expand() == NCPoly.const(3, Q, 1)
    assert parts[1].expand() == NCPoly.from_terms(3, Q, {(1,): 1})
    assert parts[2].expand() == NCPoly.from_terms(3, Q, {(1, 2): 1})
    for k, part in enumerate(parts):
        if k >= 1:
            assert is_homogeneous_program(part)
        assert part.depth == max(k, 1)


def test_homogeneous_parts_reassemble_random():
    rng = random.Random(20260816)
    for _ in range(40):
        p = random_abp(rng, Q)
        f = p.expand()
        parts = homogeneous_parts(p)
        total = NCPoly.zero(p.n_vars, Q)
        for k, part in enumerate(parts):
            g = part.expand()
            assert g.is_zero() or (g.is_homogeneous() and g.degree() == k)
            total = total.add(g)
        assert total == f
    for _ in range(20):
        p = random_abp(rng, F5, n_vars=2, depth=3, width=2)
        parts = homogeneous_parts(p)
        total = NCPoly.zero(p.n_vars, F5)
        for part in parts:
            total = total.add(part.expand())
        assert total == p.expand()


def test_normalize_preserves_polynomial_and_splits_variables():
    rng = random.Random(7)
    for _ in range(30):
        p = random_abp(rng, Q, affine=False)
        if not any(form.coeffs for form in p.edges.values()):
            continue
        q = normalize_edges(p)
        assert q.expand() == p.expand()
        # degree >= 2 splits everything, sink-bound labels included
        for form in q.edges.values():
            assert form.is_homogeneous()
            assert form.single_variable() is not None


def test_normalize_rejects_affine_labels():
    with pytest.raises(ValidationError):
        normalize_edges(mixed_example())


def test_normalize_depth_one_unchanged():
    p = ABP.build(2, Q, (1, 1), {(0, 0, 0): lf(Q, x0=1, x1=2)})
    assert normalize_edges(p) is p


def test_abp_sum_matches_polynomial_sum():
    rng = random.Random(99)
    for _ in range(25):
        k = rng.randint(1, 4)
        parts = [random_abp(rng, Q, depth=rng.randint(1, 4), width=2) for _ in range(k)]
        total = abp_sum(parts)
        expect = NCPoly.zero(3, Q)
        for p in parts:
            expect = expect.add(p.expand())
        assert total.expand() == expect
        # overhead beyond the raw union stays within max-depth + 1 nodes
        slack = total.node_count() - sum(p.node_count() - 2 for p in parts)
        assert slack <= max(p.depth for p in parts) + 1 + (len(total.layer_sizes) - 2)


def test_prune_removes_dead_nodes_and_canonicalizes_zero():
    p = ABP.build(
        2,
        Q,
        (1, 3, 1),
        {
            (0, 0, 0): lf(Q, x0=1),
            (1, 0, 0): lf(Q, x1=1),
            (0, 0, 2): lf(Q, x1=1),  # node 2 has no way out
        },
    )
    q = prune(p)
    assert q.layer_sizes == (1, 1, 1)
    assert q.expand() == p.expand()
    # no source-to-sink path at all collapses to the canonical zero program
    r = ABP.build(2, Q, (1, 2, 1), {(0, 0, 0): lf(Q, x0=1)})
    assert prune(r) == zero_abp(2, Q)


def test_coefficient_matrices_word_products():
    rng = random.Random(4242)
    for _ in range(20):
        p = random_abp(rng, Q, n_vars=2, depth=3, width=2, affine=False)
        if not is_homogeneous_program(p):
            continue
        f = p.expand()
        mats = coefficient_matrices(p)
        # every degree-3 word coefficient equals the iterated matrix product
        for w1 in range(2):
            for w2 in range(2):
                for w3 in range(2):
                    word = (w1, w2, w3)
                    vec = Matrix.identity(Q, 1)
                    ok = True
                    for pos, v in enumerate(word):
                        m = mats[pos].get(v)
                        if m is None:
                            ok = False
                            break
                        vec = vec.matmul(m)
                    got = vec.entry(0, 0) if ok else Fraction(0)
                    assert got == f.coeff(word)


def test_coefficient_of_handles_affine_programs():
    p = mixed_example()
    assert coefficient_of(p, ()) == 1
    assert coefficient_of(p, (1,)) == 1
    assert coefficient_of(p, (1, 2)) == 1
    assert coefficient_of(p, (2, 1)) == 0
    assert coefficient_of(p, (0, 0, 0)) == 0
    rng = random.Random(11)
    programs = [random_abp(rng, Q, n_vars=2, depth=3, width=2) for _ in range(15)]
    for field in (F5, F4):
        programs += [random_abp(rng, field, n_vars=2, depth=3, width=2) for _ in range(10)]
    for field in (Q, F5, F4):
        programs += [cancelling_abp(rng, field, n_vars=2, depth=3, width=2) for _ in range(5)]
    for p in programs:
        f = p.expand()
        for word in [(), (0,), (1, 0), (0, 1, 1), (1, 1, 0, 1)]:
            assert coefficient_of(p, word) == f.coeff(word)


def test_subprograms():
    p = mixed_example()
    pre = prefix_subprogram(p, 1, 1)
    assert pre.expand() == NCPoly.from_terms(3, Q, {(1,): 1})
    mid = subprogram(p, 1, 1, 2, 0)
    assert mid.expand() == NCPoly.from_terms(3, Q, {(): 1, (2,): 1})


def test_nisan_matrix_examples():
    # x1*x2 + x2*x1 over two variables named 0 and 1
    f = NCPoly.from_terms(2, Q, {(0, 1): 1, (1, 0): 1})
    m1 = nisan_matrix(f, 1).matrix
    assert (m1.rows, m1.cols) == (2, 2)
    assert m1.rank() == 2
    assert nisan_complexity(f) == 4
    # (x0 + x1)^2 has all four words; middle matrix is all-ones, rank 1
    g = NCPoly.from_terms(2, Q, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    assert nisan_matrix(g, 1).matrix.rank() == 1
    assert nisan_complexity(g) == 3
    assert nisan_complexity(NCPoly.zero(2, Q)) == 0


def test_nisan_rejects_inhomogeneous():
    f = NCPoly.from_terms(2, Q, {(): 1, (0, 1): 1})
    with pytest.raises(ValidationError):
        nisan_matrix(f, 1)


def test_json_round_trip():
    p = mixed_example()
    q = ABP.from_json(p.to_json())
    assert q == p
    r = random_abp(random.Random(3), F5, n_vars=2, depth=2, width=2)
    assert ABP.from_json(r.to_json()) == r
