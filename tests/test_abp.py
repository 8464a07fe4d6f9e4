"""Branching-program mechanics: evaluation, expansion, homogenization,
normalization, sums, coefficient extraction, and rank-sum complexity."""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hadamard.abp import (
    ABP,
    Layer,
    LinearForm,
    abp_sum,
    coefficient_matrices,
    coefficient_of,
    constant_abp,
    constant_walks,
    homogeneous_parts,
    is_homogeneous_program,
    linear_representation,
    nisan_ranks,
    normalize_edges,
    prune,
    validate,
    word_bases,
    zero_abp,
)
from hadamard.errors import ResourceCapError, ValidationError
from hadamard.fields import ExtField, PrimeField, RationalField, raw_ops
from hadamard.matrices import Echelon, Matrix
from hadamard.pit import Digraph, det_to_abp, pit_span_basis, reach_to_abp
from hadamard.polynomials import NCPoly
from hadamard.products import hadamard_abp_detailed, hadamard_homogeneous

import helpers
from helpers import cancelling_abp, random_digraph

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
                if form.const or form.coeffs:
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
    # programs read from JSON are validated where they enter the library
    def program(layers, *edges):
        return {
            "nvars": 1,
            "field": {"kind": "Q"},
            "layers": layers,
            "edges": [{"from": [0, 0], "to": [1, c], "label": helpers.label_json(form, Q)} for c, form in edges],
        }

    def edge(source, target):
        return {"from": source, "to": target, "label": helpers.label_json(lf(Q, const=1), Q)}

    negative = program([1, 1])
    negative["nvars"] = -1
    unlabelled = program([1, 1])
    del unlabelled["field"]
    for obj, message in (
        (program([2, 1]), "source and sink"),
        (program([1, 0, 1]), "empty layer"),
        (program([1, 1], (5, lf(Q, const=1))), "target node 5 out of range"),
        (program([1, 1], (0, lf(Q, x3=1))), "variable out of range"),
        ({**program([1, 1]), "edges": [edge([0, 3], [1, 0])]}, "source node 3 out of range"),
        (negative, "negative variable count"),
        ({**program([1, 1, 1]), "edges": [edge([0, 0], [2, 0])]}, "skips layers"),
        ({**program([1, 1]), "edges": [edge([1, 0], [2, 0])]}, "edge layer 1 out of range"),
        (program([]), "no layers"),
        (unlabelled, "lacks a field descriptor"),
    ):
        with pytest.raises(ValidationError, match=message):
            ABP.from_json(obj)
    assert validate(zero_abp(2, Q)) is None


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
    parts = homogeneous_parts(p, p.depth)
    product = hadamard_abp_detailed(p, q)
    stages = parts + [normalize_edges(part) for part in parts[1:]]
    stages += [product.abp, product.unpruned, abp_sum(parts), prune(p)]
    # the reductions check their outside input before any program exists
    for det_field in (Q, F5):
        n = rng.randint(1, 4)
        stages.append(det_to_abp([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)], det_field))
    n = rng.randint(2, 5)
    g = random_digraph(rng, n, rng.randint(0, n * n))
    stages += [reach_to_abp(g, field), reach_to_abp(Digraph(n, g.edges, g.s, g.s), field)]
    for x in stages:
        assert validate(x) is None
        assert ABP.from_json(x.to_json()) == x


def test_build_merges_parallel_edge_labels():
    # ingesting the same node pair twice adds the labels
    p = ABP.build(2, Q, (1, 1), {(0, 0, 0): lf(Q, x0=1)})
    obj = p.to_json()
    obj["edges"].append({"from": [0, 0], "to": [1, 0], "label": helpers.label_json(lf(Q, x1=2), Q)})
    merged = ABP.from_json(obj)
    assert merged.expand() == NCPoly.from_terms(2, Q, {(0,): 1, (1,): 2})


def test_zero_and_constant_programs():
    assert zero_abp(2, Q).expand().is_zero()
    assert constant_abp(2, Q, Fraction(7, 2)).expand() == NCPoly.const(2, Q, Fraction(7, 2))


def test_homogeneous_parts_mixed_example():
    p = mixed_example()
    parts = homogeneous_parts(p, p.depth)
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
        parts = homogeneous_parts(p, p.depth)
        total = NCPoly.zero(p.n_vars, Q)
        for k, part in enumerate(parts):
            g = part.expand()
            assert g.is_zero() or (g.is_homogeneous() and g.degree() == k)
            total = total.add(g)
        assert total == f
    for _ in range(20):
        p = random_abp(rng, F5, n_vars=2, depth=3, width=2)
        parts = homogeneous_parts(p, p.depth)
        total = NCPoly.zero(p.n_vars, F5)
        for part in parts:
            total = total.add(part.expand())
        assert total == p.expand()


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 8), st.integers(0, 9))
def test_homogeneous_parts_predict_their_node_count_exactly(rng, depth, top):
    """The cap is checked against the node count the parts up to ``top``
    then have, so a cap of exactly that count builds them and one less
    refuses."""
    import hadamard.abp as abp_module

    if depth:
        p = helpers.random_abp(rng, F5, n_vars=2, depth=depth, width=4)
    else:
        p = ABP(2, F5, (1,), [])
    count = sum(part.node_count() for part in homogeneous_parts(p, top))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(abp_module, "DEFAULT_MAX_TERMS", count)
        assert sum(part.node_count() for part in homogeneous_parts(p, top)) == count
        mp.setattr(abp_module, "DEFAULT_MAX_TERMS", count - 1)
        with pytest.raises(ResourceCapError, match=f"homogeneous parts take {count} nodes"):
            homogeneous_parts(p, top)


@settings(max_examples=240, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from([Q, F2, F5, F4]),
    st.sampled_from(["random", "affine_chain", "cancel_join"]),
    st.data(),
)
def test_homogeneous_parts_match_the_node_list_layout(rng, field, shape, data):
    # the parts up to top are the first min(top, depth) + 1 of the full list
    if shape == "random":
        depth, top = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 7))
        density = data.draw(st.sampled_from([0.2, 0.5, 0.9]))
        p = helpers.random_abp(rng, field, n_vars=2, depth=depth, width=3, density=density)
        # declare nodes that no edge touches
        sizes = [1] + [s + rng.randint(0, 2) for s in p.layer_sizes[1:-1]] + [1]
        p = ABP.build(p.n_vars, field, sizes, p.edges)
    else:
        # deeper programs with a constant on every layer, or joins whose
        # constants die out, read at low degrees and in full
        depth = data.draw(st.integers(8, 12))
        top = data.draw(st.sampled_from([1, 2, 3, depth]))
        if shape == "affine_chain":
            p = helpers.affine_chain(rng, field, depth)
        else:
            p = helpers.cancel_join(rng, field, depth, zero=data.draw(st.booleans()))
    got, want = homogeneous_parts(p, top), helpers.node_list_homogeneous_parts(p)
    assert len(got) == min(top, depth) + 1 and len(want) == depth + 1
    for g, w in zip(got, want):
        assert g.to_json() == w.to_json()
        assert list(g.edges) == list(w.edges)


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
            assert not form.const and len(form.coeffs) == 1


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
                    vec = Matrix.from_rows(Q, [[1]])
                    ok = True
                    for pos, v in enumerate(word):
                        m = mats[pos].get(v)
                        if m is None:
                            ok = False
                            break
                        vec = vec.matmul(m)
                    got = vec.entries[0] if ok else Fraction(0)
                    assert got == f.coeff(word)


def test_coefficient_of_walks_only_the_nodes_entries_reach():
    # two edges through node 5 of a declared million-node layer: the
    # witness check of ``pit span`` holds no vector over the whole layer
    edges = {(0, 0, 5): LinearForm.of_var(Q, 0), (1, 5, 0): LinearForm.of_var(Q, 1, 3)}
    p = ABP.build(2, Q, (1, 1_000_000, 1), edges)
    p.layers  # built before the measured calls
    tracemalloc.start()
    try:
        coeffs = [coefficient_of(p, w) for w in ((0, 1), (1, 0), (0,), ())]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coeffs == [3, 0, 0, 0]
    assert peak < 100_000
    verdict = pit_span_basis(p)
    assert not verdict.is_zero and verdict.witness == {"word": [0, 1], "coeff": "3"}


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


def test_nisan_matrix_examples():
    # x1*x2 + x2*x1 over two variables named 0 and 1: M_1 is 2x2 of rank 2
    f = NCPoly.from_terms(2, Q, {(0, 1): 1, (1, 0): 1})
    assert f.nisan_ranks() == [1, 2, 1]
    assert sum(f.nisan_ranks()) == 4
    # (x0 + x1)^2 has all four words; middle matrix is all-ones, rank 1
    g = NCPoly.from_terms(2, Q, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    assert g.nisan_ranks()[1] == 1
    assert sum(g.nisan_ranks()) == 3
    assert NCPoly.zero(2, Q).nisan_ranks() == []
    # the same ranks from programs computing f and g, never expanded
    x0, x1 = (LinearForm.of_var(Q, v) for v in (0, 1))
    pf = ABP.build(2, Q, (1, 2, 1), {(0, 0, 0): x0, (0, 0, 1): x1, (1, 0, 0): x1, (1, 1, 0): x0})
    pg = ABP.build(2, Q, (1, 1, 1), {(0, 0, 0): lf(Q, x0=1, x1=1), (1, 0, 0): lf(Q, x0=1, x1=1)})
    assert nisan_ranks(pf) == f.nisan_ranks()
    assert nisan_ranks(pg) == g.nisan_ranks()
    assert nisan_ranks(zero_abp(2, Q)) == []


def _forward_representation(p: ABP) -> tuple[dict, list]:
    """(S cells {(variable, p, q): raw coefficient}, f) as the forward steps
    of ``constant_walks`` give them.  A node is live when its constant-only
    walks to the sink sum to nonzero or one of its steps enters a live node;
    the positions are the source and every live node that a step of a
    position enters, in (layer, node) order."""
    into = raw_ops(p.field)[0]
    to_sink, steps = constant_walks(p)
    nodes = [(i, a) for i, size in enumerate(p.layer_sizes) for a in range(size)]
    live: set = set()
    for i, a in reversed(nodes):
        if -1 in to_sink[i].get(a, {}) or any((j, b) in live for j, es in steps(i, a).items() for b, _, _ in es):
            live.add((i, a))
    entered = {(0, 0)}
    for i, a in nodes:
        if (i, a) in entered:
            entered.update((j, b) for j, es in steps(i, a).items() for b, _, _ in es if (j, b) in live)
    index = {node: q for q, node in enumerate(sorted(entered))}
    cells = {
        (v, index[(i, a)], index[(j, b)]): into(x)
        for i, a in index
        for j, es in steps(i, a).items()
        for b, v, x in es
        if (j, b) in live
    }
    return cells, [into(to_sink[i].get(a, {}).get(-1, 0)) for i, a in index]


@settings(max_examples=120, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from([Q, F2, F5, F4]),
    st.sampled_from(["random", "affine_chain", "cancel_join", "dead_end"]),
    st.data(),
)
def test_linear_representation_gives_every_coefficient(rng, field, shape, data):
    if shape == "random":
        # affine programs, each inner layer with declared nodes that no entry touches
        depth = data.draw(st.integers(0, 6))
        if depth:
            p = helpers.random_abp(rng, field, n_vars=2, depth=depth, width=2)
            sizes = (1, *(s + rng.randint(0, 2) for s in p.layer_sizes[1:-1]), 1)
            p = ABP(p.n_vars, field, sizes, p.layers)
        else:
            p = ABP(2, field, (1,), [])
    elif shape == "affine_chain":
        p = helpers.affine_chain(rng, field, data.draw(st.integers(1, 6)))
    elif shape == "cancel_join":
        depth, zero = data.draw(st.integers(3, 5)), data.draw(st.booleans())
        p = helpers.cancel_join(rng, field, depth, width=2, n_vars=2, zero=zero)
    else:
        p = helpers.dead_end(field)
    into, reduce, _, out = raw_ops(field)
    zero = into(0)
    matrices, final = linear_representation(p)
    cells = {(v, a, c): x for v, es in matrices.by_var.items() for a, c, x in es}
    assert len(cells) == sum(map(len, matrices.by_var.values())) and all(cells.values())
    # the positions in (layer, node) order, each but the source with a
    # nonzero weight or a step, as the forward steps find them
    assert (cells, final) == _forward_representation(p)
    assert all(final[q] or any(a == q for _, a, _ in cells) for q in range(1, len(final)))
    if isinstance(field, PrimeField):
        assert all(type(x) is int and 0 <= x < field.p for x in [*cells.values(), *final])
    for length in range(p.depth + 1):
        for word in itertools.product(range(p.n_vars), repeat=length):
            vec = {0: into(1)}
            for v in word:
                nxt: dict = {}
                for a, c, x in matrices.by_var.get(v, ()):
                    if a in vec:
                        nxt[c] = nxt.get(c, zero) + vec[a] * x
                vec = reduce(nxt)
            got = into(sum((y * final[a] for a, y in vec.items()), zero))
            assert out(got) == coefficient_of(p, word)


def test_linear_representation_trims_a_dead_end():
    # node 1 of layer 1 is entered on x1 but no walk goes on from it: it
    # takes no position, and the witness and the ranks are those of x0 * (x0 + 3 x1)
    p = helpers.dead_end(F5)
    matrices, final = linear_representation(p)
    assert final == [0, 0, 1]
    assert matrices.cells() == {(0, 1, 0): 1, (1, 2, 0): 1, (1, 2, 1): 3}
    assert pit_span_basis(p).witness == {"word": [0, 0], "coeff": "1"}
    assert nisan_ranks(p) == [1, 1, 1]


def test_word_bases_index_only_the_positions_steps_enter():
    # x0*x1 + x1*x0 through two of a thousand declared middle nodes
    x0, x1 = (LinearForm.of_var(Q, v) for v in (0, 1))
    p = ABP.build(2, Q, (1, 1000, 1), {(0, 0, 5): x0, (0, 0, 999): x1, (1, 5, 0): x1, (1, 999, 0): x0})
    matrices, final = linear_representation(p)
    assert len(final) == 4
    transposed = Layer([], {v: [(c, a, x) for a, c, x in es] for v, es in matrices.by_var.items()})
    for start, lays in (({0: Q.one()}, matrices), (dict(enumerate(final)), transposed)):
        bases = list(word_bases(Q, lays, start, map(Echelon, itertools.repeat(Q))))
        # sparse vectors over the 4 positions, not the 1000 declared nodes
        assert [[set(vec) <= set(range(4)) for _, vec in basis] for basis in bases] == [[True], [True, True], [True]]
        assert [word for word, _ in bases[1]] == [(0,), (1,)]
    assert nisan_ranks(p) == [1, 2, 1]


def test_nisan_decides_a_deep_zero_join_first():
    # the forward walk over one echelon for every length finds no word with
    # a nonzero coefficient, so no per-length walk runs
    p = helpers.cancel_join(random.Random(7), F5, 100, width=2, n_vars=3)
    start = time.perf_counter()
    assert nisan_ranks(p) == []
    assert time.perf_counter() - start < 0.5


def test_nisan_rejects_inhomogeneous():
    f = NCPoly.from_terms(2, Q, {(): 1, (0, 1): 1})
    with pytest.raises(ValidationError):
        f.nisan_ranks()
    p = ABP.build(2, Q, (1, 1, 1), {(0, 0, 0): lf(Q, 1, x0=1), (1, 0, 0): lf(Q, x1=1)})
    with pytest.raises(ValidationError):
        nisan_ranks(p)


def test_json_round_trip():
    p = mixed_example()
    q = ABP.from_json(p.to_json())
    assert q == p
    r = random_abp(random.Random(3), F5, n_vars=2, depth=2, width=2)
    assert ABP.from_json(r.to_json()) == r


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, F2, F5, F4]))
def test_entries_and_labels_round_trip(rng, field):
    # every builder writes entries; regrouped into labels and built again,
    # each stage is the same program and writes the same bytes
    p = helpers.random_abp(rng, field, n_vars=2, depth=rng.randint(1, 4), width=2)
    q = helpers.random_abp(rng, field, n_vars=2, depth=rng.randint(1, 4), width=2)
    parts, q_parts = homogeneous_parts(p, p.depth), homogeneous_parts(q, q.depth)
    normal = [normalize_edges(part) for part in parts[1:]]
    products = [hadamard_homogeneous(a, normalize_edges(b)) for a, b in zip(normal, q_parts[1:])]
    detail = hadamard_abp_detailed(p, q)
    for x in parts + normal + products + [prune(p), abp_sum(parts), detail.abp, detail.unpruned]:
        rebuilt = ABP.build(x.n_vars, x.field, x.layer_sizes, x.edges)
        assert rebuilt == x
        assert rebuilt.json_text() == x.json_text()
    # one label set, with a parallel pair that cancels, built in two orders
    labels = list(p.edges.items())
    key = labels[0][0] if labels else (0, 0, 0)
    labels += [(key, LinearForm.of_var(field, 1)), (key, LinearForm.of_var(field, 1, -1))]
    rng.shuffle(labels)
    first = ABP.build(p.n_vars, field, p.layer_sizes, labels)
    rng.shuffle(labels)
    second = ABP.build(p.n_vars, field, p.layer_sizes, labels)
    assert first == second == p
    assert first.json_text() == second.json_text() == p.json_text()


def _field_values(field):
    if field is Q:
        return st.sampled_from([Fraction(0)] * 3 + [Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2)])
    return st.sampled_from(list(field.elements()))


@st.composite
def program_files(draw):
    """A program's JSON object whose edge list may name a node pair again,
    with a label that cancels an earlier one in whole or in part, and may
    carry all-zero labels; the constant is sometimes left out when zero."""
    field = draw(st.sampled_from([Q, F2, F5, F4]))
    n_vars = draw(st.integers(1, 4))
    depth = draw(st.integers(1, 3))
    sizes = [1] + [draw(st.integers(1, 2)) for _ in range(depth - 1)] + [1]
    pairs = [(w, a, c) for w in range(depth) for a in range(sizes[w]) for c in range(sizes[w + 1])]
    values = _field_values(field)
    labels = []
    for _ in range(draw(st.integers(0, 10))):
        if labels and draw(st.booleans()):
            key, const, coeffs = draw(st.sampled_from(labels))
            # the negated label, some coefficients kept apart
            keep = draw(st.sets(st.sampled_from(sorted(coeffs)))) if coeffs else set()
            const, coeffs = -const, {v: x if v in keep else -x for v, x in coeffs.items()}
        else:
            key = draw(st.sampled_from(pairs))
            const = draw(values)
            coeffs = draw(st.dictionaries(st.integers(0, n_vars - 1), values, max_size=3))
        labels.append((key, const, coeffs))
    edges = []
    for (w, a, c), const, coeffs in labels:
        label = {"coeffs": {str(v): field.coeff_to_json(x) for v, x in coeffs.items()}}
        if const or draw(st.booleans()):
            label["const"] = field.coeff_to_json(const)
        edges.append({"from": [w, a], "to": [w + 1, c], "label": label})
    return {"nvars": n_vars, "field": field.descriptor(), "layers": sizes, "edges": edges}


@settings(max_examples=300, deadline=None)
@given(program_files())
def test_decode_matches_the_label_decode(obj):
    # labels decoded straight into entries give the program, and the order
    # of every matrix's entries, that one LinearForm per label and
    # ABP.build give
    got, want = ABP.from_json(obj), helpers.form_decoded_abp(obj)
    assert got == want
    for lay, ref in zip(got.layers, want.layers):
        assert lay.const == ref.const
        assert list(lay.by_var.items()) == list(ref.by_var.items())


@pytest.mark.parametrize(
    "label",
    [
        "x",
        {"const": "1", "coeffs": 5},
        {"const": "1/0"},
        {"const": "x", "coeffs": {"00": "1"}},
        {"const": "1", "coeffs": {"00": "x"}},
        {"const": "1", "coeffs": {"0": "x", "00": "1"}},
        {"const": "1", "coeffs": {"0": 1}},
        {"const": "1", "coeffs": {"3": "1"}},
    ],
)
def test_decode_errors_match_the_label_decode(label):
    obj = {"nvars": 2, "field": {"kind": "Q"}, "layers": [1, 1], "edges": [
        {"from": [0, 0], "to": [1, 0], "label": {"const": "2"}},
        {"from": [0, 0], "to": [1, 0], "label": label},
    ]}
    errors = []
    for decode in (ABP.from_json, helpers.form_decoded_abp):
        with pytest.raises(Exception) as info:
            decode(obj)
        errors.append((info.type, str(info.value)))
    assert errors[0] == errors[1]
