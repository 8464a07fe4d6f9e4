"""Identity-testing contracts: the four testers agree with each other and
with independent oracles, and the two reductions feed them correctly."""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from hadamard import fields, pit
from hadamard.abp import ABP, abp_sum, coefficient_of, homogeneous_parts, nisan_ranks, zero_abp
from hadamard.errors import ResourceCapError, ValidationError
from hadamard.fields import ExtField, PrimeField, RationalField
from hadamard.pit import (
    Digraph,
    det_to_abp,
    pit_bruteforce,
    pit_randomized,
    pit_rational,
    pit_span_basis,
    reach_to_abp,
)

from helpers import (
    affine_chain,
    bfs_reachable,
    cancel_join,
    cancelling_abp,
    cofactor_det,
    element_span_basis,
    homogeneous_abp,
    lf,
    random_abp,
    random_digraph,
    scale_form,
)

Q = RationalField()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F101 = PrimeField(101)
F4 = ExtField.make(2, 2)


def test_rational_square_sum_basics():
    p = ABP.build(2, Q, (1, 1, 1), {(0, 0, 0): lf(Q, x0=1), (1, 0, 0): lf(Q, x1=1)})
    v = pit_rational(p)
    assert not v.is_zero and v.method == "square_sum" and v.value_json == "1"
    z = pit_rational(zero_abp(2, Q))
    assert z.is_zero and z.value_json == "0"
    with pytest.raises(ValidationError):
        pit_rational(zero_abp(1, F5))


@settings(max_examples=120, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from(["affine", "homogeneous", "cancelling"]),
    st.booleans(),
)
def test_square_sum_is_the_expanded_square_sum(rng, kind, fractional):
    kw = dict(n_vars=rng.randint(1, 3), depth=rng.randint(1, 5), width=rng.randint(1, 3))
    if kind == "cancelling":
        p = cancelling_abp(rng, Q, **kw)
    else:
        p = random_abp(rng, Q, affine=kind == "affine", **kw)
    if fractional:  # labels with mixed denominators
        p = ABP.build(p.n_vars, Q, p.layer_sizes, {
            key: scale_form(form, Fraction(rng.randint(1, 4), rng.randint(1, 6)), Q)
            for key, form in p.edges.items()
        })
    f = p.expand()
    v = pit_rational(p)
    assert v.value_json == str(sum((c * c for c in f.terms.values()), Fraction(0)))
    assert v.is_zero == f.is_zero()


@pytest.mark.parametrize(
    "shape, depth, zero",
    [("join", 14, True), ("join", 16, False), ("affine_chain", 100, False)],
    ids=["14-True", "16-False", "affine_chain-100"],
)
def test_square_sum_agrees_with_span_past_expansion(shape, depth, zero):
    # 3^depth words: far more than expansion can list.  The affine chain has
    # a constant on every layer, so its words of every length up to the depth
    # have coefficients, and the square sum runs on integers of thousands of
    # digits
    if shape == "join":
        p = cancel_join(random.Random(f"deep:{depth}:{zero}"), Q, depth, zero=zero)
    else:
        p = affine_chain(random.Random(depth), Q, depth)
    start = time.perf_counter()
    det, span = pit_rational(p), pit_span_basis(p)
    assert time.perf_counter() - start < 2.5
    assert det.is_zero == span.is_zero == zero
    if not zero:
        word, coeff = tuple(span.witness["word"]), Fraction(span.witness["coeff"])
        assert coefficient_of(p, word) == coeff
        assert Fraction(det.value_json) >= coeff * coeff > 0


def test_span_basis_witness_is_real():
    rng = random.Random(808)
    found_nonzero = 0
    for _ in range(40):
        p = random_abp(rng, Q, depth=rng.randint(1, 4), width=2)
        v = pit_span_basis(p)
        assert v.is_zero == p.expand().is_zero()
        if not v.is_zero:
            found_nonzero += 1
            word = tuple(v.witness["word"])
            assert coefficient_of(p, word) == Fraction(v.witness["coeff"])
            assert coefficient_of(p, word) != 0
    assert found_nonzero >= 10


def test_span_basis_witness_mismatch_is_an_internal_error(monkeypatch):
    import hadamard.pit as pit

    p = ABP.build(2, Q, (1, 1, 1), {(0, 0, 0): lf(Q, x0=1), (1, 0, 0): lf(Q, x1=3)})
    monkeypatch.setattr(pit, "coefficient_of", lambda abp, word: abp.field.zero())
    with pytest.raises(RuntimeError, match=r"witness \[0, 1\]"):
        pit.pit_span_basis(p)


@settings(max_examples=120, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from([Q, F2, F5, F4]),
    st.booleans(),
)
def test_span_basis_witness_is_the_bruteforce_witness(rng, field, cancelling):
    # both name the shortest, then lexicographically least, nonzero word
    make = cancelling_abp if cancelling else random_abp
    p = make(rng, field, n_vars=rng.randint(1, 3), depth=rng.randint(1, 4), width=rng.randint(1, 3))
    span, brute = pit_span_basis(p).to_json(), pit_bruteforce(p).to_json()
    assert (span.pop("method"), brute.pop("method")) == ("span_basis", "bruteforce")
    assert span == brute


@settings(max_examples=150, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from([Q, F2, F3, F5, F101, F4]),
    st.sampled_from(["random", "cancelling", "perturbed"]),
    st.integers(0, 7),
)
def test_span_basis_matches_the_element_span_walk(rng, field, kind, depth):
    n_vars, width = rng.randint(1, 3), rng.randint(1, 3)
    if depth == 0:  # one node, the constant 1
        p = ABP.build(n_vars, field, (1,), {})
    elif kind == "random":
        p = random_abp(rng, field, n_vars=n_vars, depth=depth, width=width)
    else:  # a perturbed join needs an internal layer to perturb
        depth = depth if kind == "cancelling" else max(depth, 3)
        p = cancel_join(rng, field, depth, width=width, n_vars=n_vars, zero=kind == "cancelling")
    assert pit_span_basis(p).to_json() == element_span_basis(p).to_json()


@settings(max_examples=80, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from([Q, F2, F5, F4]),
    st.booleans(),
    st.integers(1, 12),
)
def test_span_basis_matches_the_element_span_walk_on_deep_joins(rng, field, zero, depth):
    # on affine joins a word of every length reaches every later layer, so
    # one basis over all lengths and one per length keep the most different words
    depth = depth if zero else max(depth, 3)
    p = cancel_join(rng, field, depth, width=rng.randint(1, 2), n_vars=rng.randint(1, 3), zero=zero)
    assert pit_span_basis(p).to_json() == element_span_basis(p).to_json()


def test_span_basis_is_fast_on_a_deep_affine_join():
    # a basis per word length takes about 85 s on this zero join, one shared
    # basis a fraction of a second
    for zero in (True, False):
        p = cancel_join(random.Random(7), F5, 200, width=2, n_vars=3, zero=zero)
        start = time.perf_counter()
        verdict = pit_span_basis(p)
        assert time.perf_counter() - start < 2.0
        assert verdict.is_zero is zero
        if not zero:
            word, coeff = verdict.witness["word"], verdict.witness["coeff"]
            assert coefficient_of(p, word) == F5.coeff_from_json(coeff) != F5.zero()


def test_span_basis_reads_the_empty_word_of_a_deep_affine_chain_at_once():
    # the constants of every layer give the empty word a coefficient: the
    # closure of e₀ walks the chain once, with no step summed for any node
    p = affine_chain(random.Random(1000), F5, 1000)
    start = time.perf_counter()
    verdict = pit_span_basis(p)
    assert time.perf_counter() - start < 0.2
    assert verdict.witness["word"] == [] and F5.coeff_from_json(verdict.witness["coeff"]) == coefficient_of(p, ())


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
def test_deep_programs_are_tested_without_homogeneous_parts(field, monkeypatch):
    """Depth 300 would make millions of part nodes; the span test, the Nisan
    ranks and over the rationals the square sum agree on a nonzero program
    and on a zero one, with every binding of ``homogeneous_parts`` raising."""

    def built(*args, **kwargs):
        raise AssertionError("homogeneous parts were built")

    for module in [m for key, m in sys.modules.items() if key.startswith("hadamard")]:
        for key, value in list(vars(module).items()):
            if value is homogeneous_parts:
                monkeypatch.setattr(module, key, built)
    rng = random.Random(300)
    p = homogeneous_abp(rng, field, 300)
    minus_one = field.zero() - field.one()
    flipped = [lay if w < 299 else lay.map(lambda k: minus_one * k) for w, lay in enumerate(p.layers)]
    zero = abp_sum([p, ABP(p.n_vars, field, p.layer_sizes, flipped)])
    for program, is_zero in ((p, False), (zero, True)):
        span = pit_span_basis(program)
        ranks = nisan_ranks(program)
        assert span.is_zero is is_zero and (ranks == []) is is_zero
        if field == Q:
            assert pit_rational(program).is_zero is is_zero
        if not is_zero:
            assert len(span.witness["word"]) == 300 and len(ranks) == 301
            assert ranks[0] == ranks[-1] == 1 and max(ranks) <= 2


def test_testers_unanimous_on_engineered_cancellations():
    rng = random.Random(41)
    for _ in range(15):
        # depth >= 2 keeps the two cancelling halves structurally separate
        p = cancelling_abp(rng, Q, depth=rng.randint(2, 3), width=2)
        assert p.edge_count() > 0  # the zero polynomial hides in a real program
        assert pit_rational(p).is_zero
        assert pit_span_basis(p).is_zero
        assert pit_bruteforce(p).is_zero


def test_span_basis_sees_characteristic():
    # two parallel paths each computing x0*x1: the sum is 2*x0*x1
    def twin(field):
        return ABP.build(
            2,
            field,
            (1, 2, 1),
            {
                (0, 0, 0): lf(field, x0=1),
                (0, 0, 1): lf(field, x0=1),
                (1, 0, 0): lf(field, x1=1),
                (1, 1, 0): lf(field, x1=1),
            },
        )

    assert not pit_span_basis(twin(Q)).is_zero
    assert not pit_span_basis(twin(F5)).is_zero
    assert pit_span_basis(twin(F2)).is_zero  # 2 = 0 there
    assert pit_bruteforce(twin(F2)).is_zero


def test_span_matches_bruteforce_over_finite_fields():
    rng = random.Random(929)
    for field in (F2, F5):
        for _ in range(20):
            p = random_abp(rng, field, n_vars=2, depth=rng.randint(1, 3), width=2)
            assert pit_span_basis(p).is_zero == pit_bruteforce(p).is_zero


def test_randomized_never_flags_zero_programs():
    rng = random.Random(3)
    for _ in range(10):
        p = cancelling_abp(rng, F5, n_vars=2, depth=2, width=2)
        v = pit_randomized(p, trials=30, seed=rng.randrange(2**30))
        assert v.is_zero  # a zero program evaluates to zero everywhere, always


def test_randomized_finds_nonzero_and_is_deterministic():
    rng = random.Random(17)
    hits = 0
    for _ in range(20):
        p = random_abp(rng, F5, n_vars=2, depth=3, width=2)
        truth = not p.expand().is_zero()
        v1 = pit_randomized(p, trials=25, seed=99)
        v2 = pit_randomized(p, trials=25, seed=99)
        assert v1.to_json() == v2.to_json()
        if truth:
            assert not v1.is_zero
            hits += 1
        else:
            assert v1.is_zero
    assert hits >= 5
    with pytest.raises(ValidationError):
        pit_randomized(zero_abp(1, Q))


def test_randomized_extension_bound():
    # depth 4 over F2 needs a field with at least 8 elements
    p = random_abp(random.Random(5), F2, n_vars=2, depth=4, width=2, affine=False)
    v = pit_randomized(p, trials=10, seed=1)
    assert v.per_trial_bound is not None and v.per_trial_bound <= Fraction(1, 2)
    # works from an extension base field too
    f4 = ExtField.make(2, 2)
    q = random_abp(random.Random(6), f4, n_vars=2, depth=4, width=2)
    w = pit_randomized(q, trials=10, seed=2)
    assert w.per_trial_bound <= Fraction(1, 2)
    assert w.is_zero == q.expand().is_zero()


def test_verdict_json_shape():
    v = pit_randomized(zero_abp(2, F5), trials=4, seed=0)
    obj = v.to_json()
    assert set(obj) == {
        "is_zero",
        "method",
        "witness",
        "trials",
        "per_trial_bound",
        "failure_bound",
        "value",
    }
    assert obj["is_zero"] is True and obj["trials"] == 4


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_reductions_predict_their_edge_count_exactly(n, monkeypatch):
    """Each reduction's cap is checked against the number of edges it then
    hands to the layout, so a cap of exactly that number builds and one
    less refuses."""
    rng = random.Random(n)
    matrix = [[rng.randint(1, 5) for _ in range(n)] for _ in range(n)]
    graph = Digraph(n + 1, random_digraph(rng, n_vertices=n + 1, n_edges=2 * n).edges, 0, n)
    made = []

    def counting(layout):
        def count(depth, items):
            items = list(items)
            made.append(len(items))
            return layout(depth, items)

        return count

    for name in ("layers_of", "merged_layers"):
        monkeypatch.setattr(pit, name, counting(getattr(pit, name)))
    # a 1 x 1 determinant is a constant program, made without the prediction
    for reduce, arg in ([(det_to_abp, matrix)] if n > 1 else []) + [(reach_to_abp, graph)]:
        monkeypatch.setattr("hadamard.pit.DEFAULT_MAX_TERMS", 1 << 30)
        reduce(arg)
        count = made[-1]
        monkeypatch.setattr("hadamard.pit.DEFAULT_MAX_TERMS", count)
        reduce(arg)
        monkeypatch.setattr("hadamard.pit.DEFAULT_MAX_TERMS", count - 1)
        with pytest.raises(ResourceCapError, match=f"needs {count} edges"):
            reduce(arg)


def test_determinant_program_small_cases():
    assert det_to_abp([[7]]).expand().coeff(()) == 7
    assert det_to_abp([[1, 2], [3, 4]]).expand().coeff(()) == -2
    ident3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert det_to_abp(ident3).expand().coeff(()) == 1
    cyc = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert det_to_abp(cyc).expand().coeff(()) == 1


def test_determinant_program_matches_cofactor_oracle():
    rng = random.Random(5050)
    for _ in range(40):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        expect = cofactor_det(rows)
        p = det_to_abp(rows)
        assert p.expand().coeff(()) == expect
        assert pit_rational(p).is_zero == (expect == 0)


def test_determinant_program_flags_singular_matrices():
    rng = random.Random(61)
    for _ in range(10):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        rows[-1] = rows[0][:]  # duplicate row forces det = 0
        assert pit_rational(det_to_abp(rows)).is_zero


def test_reachability_program_matches_bfs():
    rng = random.Random(123)
    for _ in range(40):
        g = random_digraph(rng, n_vertices=rng.randint(2, 8), n_edges=rng.randint(1, 12))
        p = reach_to_abp(g)
        assert (not pit_bruteforce(p).is_zero) == bfs_reachable(g)


def test_reachability_endpoints_coincide():
    g = Digraph(3, ((0, 1),), 2, 2)
    assert not pit_bruteforce(reach_to_abp(g)).is_zero


def test_digraph_json_round_trip():
    g = random_digraph(random.Random(9), 5, 6)
    assert Digraph.from_json(g.to_json()) == g


F13 = PrimeField(13)


def nonzero_abp(rng, field, depth):
    while True:
        p = random_abp(rng, field, n_vars=3, depth=depth, width=3, density=1.0)
        if not p.expand().is_zero():
            return p


@pytest.mark.parametrize(
    "field, depth",
    [
        (F2, 6),  # lifts to F_16, evaluated on log-table exponents
        (F5, 7),  # lifts to F_25
        (ExtField.make(2, 2), 6),  # F_4 lifts to F_16 through a root of its modulus
        (F13, 5),  # 13 >= 2 * depth: elements of the input field
    ],
)
def test_randomized_matches_the_element_loop(field, depth):
    rng = random.Random(f"rand:{field}:{depth}")
    programs = [cancel_join(rng, field, depth, width=3, n_vars=3)]
    programs += [nonzero_abp(rng, field, depth) for _ in range(3)]
    if isinstance(field, ExtField):  # coefficients off the prime subfield too
        g = field.gen()
        programs = [ABP(p.n_vars, field, p.layer_sizes, [lay.map(lambda k: k * g) for lay in p.layers]) for p in programs]
    seen = set()
    for p in programs:
        truth = p.expand().is_zero()
        for seed in (0, 5, 123):
            got = pit_randomized(p, trials=12, seed=seed).to_json()
            assert got == helpers.element_pit_randomized(p, trials=12, seed=seed).to_json()
            assert got["is_zero"] == truth
            seen.add(truth)
    assert seen == {True, False}


def test_randomized_above_the_table_bound_steps_elements(monkeypatch):
    # with the bound below 16, F_16 has no log tables, so F_2 inputs of
    # depth 6 go through Layer.times and draw the same values
    monkeypatch.setattr(fields, "TABLE_MAX_ORDER", 8)
    assert ExtField.make(2, 4)._log_tables is None
    rng = random.Random(41)
    seen = set()
    for p in [cancel_join(rng, F2, 6, width=3, n_vars=3), nonzero_abp(rng, F2, 6)]:
        for seed in (1, 2):
            got = pit_randomized(p, trials=8, seed=seed).to_json()
            assert got == helpers.element_pit_randomized(p, trials=8, seed=seed).to_json()
            seen.add(got["is_zero"])
    assert seen == {True, False}
