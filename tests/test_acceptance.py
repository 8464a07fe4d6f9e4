"""Acceptance suite: one test per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per criterion.  Each test is self-contained, seeds its own generator,
and checks exact values; the timed ones also enforce their runtime budget.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from helpers import (
    bfs_reachable,
    cancelling_abp,
    cofactor_det,
    permanent,
    random_abp,
    random_circuit,
    random_digraph,
    random_grammar,
)

from hadamard.abp import ABP, LinearForm, nisan_ranks
from hadamard.errors import DEFAULT_MAX_TERMS
from hadamard.fields import PrimeField, RationalField
from hadamard.grammars import (
    build_mirror_prefix_grammar,
    build_mirror_suffix_grammar,
    cfg_to_circuit,
    count_derivations,
    language,
)
from hadamard.lab import (
    ExplicitParams,
    build_f,
    build_f_prime,
    permanent_polynomials,
    permanent_via_hadamard,
    sum_coeffs,
)
from hadamard.pit import (
    det_to_abp,
    pit_bruteforce,
    pit_randomized,
    pit_rational,
    pit_span_basis,
    reach_to_abp,
)
from hadamard.polynomials import CPoly, NCPoly, corr, norm_sq
from hadamard.products import hadamard_abp_detailed, hadamard_circuit_abp_detailed

Q = RationalField()
F2 = PrimeField(2)
F5 = PrimeField(5)


def _random_pairs(seed, field, count):
    rng = random.Random(seed)
    for _ in range(count):
        nv = rng.randint(1, 3)
        p = random_abp(rng, field, n_vars=nv, depth=rng.randint(1, 4), width=rng.randint(1, 3))
        q = random_abp(rng, field, n_vars=nv, depth=rng.randint(1, 4), width=rng.randint(1, 3))
        yield p, q


def test_criterion_01_hadamard_abp_oracle_equivalence():
    """expand(product program) == coefficient-wise product of expansions,
    100 pairs over Q and 100 over F5, under 10 seconds."""
    start = time.monotonic()
    details = []
    for field, seed in ((Q, 101), (F5, 102)):
        for p, q in _random_pairs(seed, field, 100):
            det = hadamard_abp_detailed(p, q)
            assert det.abp.expand() == p.expand().hadamard(q.expand())
            details.append(det)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    # stash for criterion 2 so both criteria cover the same 200 instances
    test_criterion_01_hadamard_abp_oracle_equivalence.details = details
    print(f"criterion 1 PASS: 200 product programs match the oracle ({elapsed:.2f}s)")


def test_criterion_02_exact_per_layer_size_product():
    """Every homogeneous degree slice of the product has exactly s1*s2 nodes
    per layer, on every instance of criterion 1."""
    details = getattr(test_criterion_01_hadamard_abp_oracle_equivalence, "details", None)
    if details is None:
        details = []
        for field, seed in ((Q, 101), (F5, 102)):
            for p, q in _random_pairs(seed, field, 100):
                details.append(hadamard_abp_detailed(p, q))
    checked = 0
    for det in details:
        for rec in det.per_degree:
            assert len(rec.product_sizes) == len(rec.left_sizes) == len(rec.right_sizes)
            for lw, rw, pw in zip(rec.left_sizes, rec.right_sizes, rec.product_sizes):
                assert pw == lw * rw
                checked += 1
    assert checked > 0
    print(f"criterion 2 PASS: {checked} layer sizes are exact products")


def test_criterion_03_circuit_abp_oracle_equivalence():
    """Circuit x program product equals the oracle on 100 pairs, under 30s."""
    start = time.monotonic()
    rng = random.Random(103)
    for i in range(100):
        field = Q if i % 2 == 0 else F5
        nv = rng.randint(1, 3)
        c = random_circuit(rng, field, n_vars=nv, n_gates=8, max_degree=3)
        p = random_abp(rng, field, n_vars=nv, depth=rng.randint(1, 4), width=rng.randint(1, 2))
        r = hadamard_circuit_abp_detailed(c, p).circuit
        assert r.expand() == c.expand().hadamard(p.expand())
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s"
    print(f"criterion 3 PASS: 100 circuit-program products match the oracle ({elapsed:.2f}s)")


def test_criterion_04_pit_unanimity():
    """square-sum, span-basis and brute force agree on 200 rational programs
    (25 engineered to cancel to zero); span vs brute agree over F2 and F5."""
    rng = random.Random(104)
    disagreements = 0
    for i in range(200):
        if i < 25:
            p = cancelling_abp(rng, Q, n_vars=rng.randint(1, 3), depth=rng.randint(2, 4))
        else:
            p = random_abp(rng, Q, n_vars=rng.randint(1, 3), depth=rng.randint(1, 4))
        votes = {pit_rational(p).is_zero, pit_span_basis(p).is_zero, pit_bruteforce(p).is_zero}
        if len(votes) != 1:
            disagreements += 1
    for field in (F2, F5):
        for i in range(120):
            if i < 20:
                p = cancelling_abp(rng, field, n_vars=rng.randint(1, 3), depth=rng.randint(2, 4))
            else:
                p = random_abp(rng, field, n_vars=rng.randint(1, 3), depth=rng.randint(1, 4))
            if pit_span_basis(p).is_zero != pit_bruteforce(p).is_zero:
                disagreements += 1
    assert disagreements == 0
    print("criterion 4 PASS: 440 identity tests, zero disagreements")


def test_criterion_05_hardness_pipelines():
    """Determinant and reachability encodings decide exactly the right
    instances: 100 random integer matrices and 100 random digraphs."""
    rng = random.Random(105)
    for i in range(100):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if i % 7 == 0:
            rows[-1] = list(rows[0])  # force a singular instance
        verdict = pit_rational(det_to_abp(rows))
        assert verdict.is_zero == (cofactor_det(rows) == 0)
    reachable = 0
    for _ in range(100):
        g = random_digraph(rng, n_vertices=10, n_edges=14)
        verdict = pit_bruteforce(reach_to_abp(g))
        want = bfs_reachable(g)
        assert verdict.is_zero == (not want)
        reachable += want
    assert 0 < reachable < 100  # both outcomes exercised
    print("criterion 5 PASS: 100 determinants and 100 reachability queries decided exactly")


def test_criterion_06_randomized_soundness_and_rate():
    """The randomized test never flags a zero program as nonzero across
    10^4 seeded trials, and its measured false-zero rate on a worst-case
    nonzero chain stays within twice the per-trial bound."""
    # zero program: x1 * (1) + x1 * (-1)
    edges = {
        (0, 0, 0): LinearForm.of_var(F5, 1),
        (0, 0, 1): LinearForm.of_var(F5, 1),
        (1, 0, 0): LinearForm.constant(F5, 1),
        (1, 1, 0): LinearForm.constant(F5, -1),
    }
    zero_p = ABP.build(3, F5, (1, 2, 1), edges)
    assert zero_p.expand().is_zero()
    for seed in range(100):
        verdict = pit_randomized(zero_p, trials=100, seed=seed)
        assert verdict.is_zero is True
    # worst case: a depth-4 chain of (x - c) factors over F_101, so each
    # trial dies exactly when some layer draw hits its root
    F101 = PrimeField(101)
    chain = {
        (layer, 0, 0): LinearForm.make(F101, const=-(layer + 1), coeffs={layer % 2: 1})
        for layer in range(4)
    }
    worst = ABP.build(2, F101, (1, 1, 1, 1, 1), chain)
    assert not worst.expand().is_zero()
    false_zero = 0
    for seed in range(10_000):
        v = pit_randomized(worst, trials=1, seed=seed)
        if v.is_zero:
            false_zero += 1
        else:
            assert v.per_trial_bound == Fraction(4, 101)
    rate = Fraction(false_zero, 10_000)
    assert rate <= 2 * Fraction(4, 101), f"measured rate {float(rate):.4f}"
    print(
        "criterion 6 PASS: zero never flagged nonzero (10^4 trials); "
        f"worst-case false-zero rate {float(rate):.4f} <= {float(2 * Fraction(4, 101)):.4f}"
    )


def _random_homogeneous(rng, field, n_vars, degree):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        w = tuple(rng.randrange(n_vars) for _ in range(degree))
        c = field.coerce(rng.randint(-3, 3))
        if c:
            terms[w] = c
    return NCPoly.from_terms(n_vars, field, terms)


def _deep_homogeneous(field, depth):
    """The first nonzero homogeneous program in 3 variables of the given
    depth under seeds c7:depth:0, c7:depth:1, ..."""
    for salt in range(100):
        p = random_abp(random.Random(f"c7:{depth}:{salt}"), field, n_vars=3, depth=depth, width=4, affine=False)
        if not pit_span_basis(p).is_zero:
            return p
    raise AssertionError(f"no nonzero program of depth {depth}")


def test_criterion_07_nisan_rank_submultiplicativity():
    """rank M_k(f.g) <= rank M_k(f) * rank M_k(g) for every split, and the
    rank sums multiply too, on 100 random homogeneous pairs, and on the
    self-products of homogeneous programs with more words than the
    expansion cap, where each rank is also at most the width of its layer
    (Nisan's bound)."""
    rng = random.Random(107)
    checked_pairs = 0
    for i in range(100):
        field = Q if i % 2 == 0 else F5
        nv, d = rng.randint(2, 3), rng.randint(1, 3)
        f = _random_homogeneous(rng, field, nv, d)
        g = _random_homogeneous(rng, field, nv, d)
        if f.is_zero() or g.is_zero():
            continue
        prod = f.hadamard(g)
        ranks_f, ranks_g, ranks_prod = f.nisan_ranks(), g.nisan_ranks(), prod.nisan_ranks()
        for k in range(d + 1):
            rf = ranks_f[k]
            rg = ranks_g[k]
            rp = ranks_prod[k] if not prod.is_zero() else 0
            assert rp <= rf * rg
        assert sum(ranks_prod) <= sum(ranks_f) * sum(ranks_g)
        checked_pairs += 1
    assert checked_pairs >= 90
    checked_programs = 0
    for field in (Q, F5):
        for depth in (13, 14):
            assert 3**depth > DEFAULT_MAX_TERMS
            p = _deep_homogeneous(field, depth)
            prod = hadamard_abp_detailed(p, p).abp
            ranks_p, ranks_prod = nisan_ranks(p), nisan_ranks(prod)
            assert len(ranks_p) == len(ranks_prod) == depth + 1
            for k in range(depth + 1):
                assert ranks_prod[k] <= ranks_p[k] * ranks_p[k]
                assert ranks_p[k] <= p.layer_sizes[k]
                assert ranks_prod[k] <= prod.layer_sizes[k]
            assert sum(ranks_prod) <= sum(ranks_p) ** 2
            checked_programs += 1
    print(
        f"criterion 7 PASS: rank inequalities hold on {checked_pairs} homogeneous pairs "
        f"and {checked_programs} self-products of depth 13 and 14"
    )


def test_criterion_08_cfg_round_trip_and_mirror_intersection():
    """Grammar -> circuit keeps derivation counts as coefficients for all
    words up to length 6; the two mirror grammars intersect in exactly the
    w . reverse(w) . w words."""
    rng = random.Random(108)
    grammars = [random_grammar(rng) for _ in range(50)]
    grammars += [build_mirror_suffix_grammar(1), build_mirror_prefix_grammar(1)]
    grammars += [build_mirror_suffix_grammar(2), build_mirror_prefix_grammar(2)]
    words = [
        tuple(w)
        for length in range(7)
        for w in itertools.product(range(2), repeat=length)
    ]
    for g in grammars:
        poly = cfg_to_circuit(g).expand()
        for w in words:
            assert poly.coeff(w) == Fraction(count_derivations(g, w))
    for n in (1, 2, 3):
        got = language(build_mirror_suffix_grammar(n)) & language(
            build_mirror_prefix_grammar(n)
        )
        want = {
            w + tuple(reversed(w)) + w
            for w in itertools.product(range(2), repeat=n)
        }
        assert got == want
        assert len(got) == 2 ** n
    print("criterion 8 PASS: 54 grammars round-trip counts; mirror intersections exact at n=1,2,3")


def test_criterion_09_permanent_via_hadamard():
    """The row-product and column-product polynomials multiply coefficient-
    wise into exactly the permutation-sum permanent, n <= 4."""
    rng = random.Random(109)
    for n in range(1, 5):
        rows, cols = permanent_polynomials(n)
        expected = {
            tuple(sorted(i * n + perm[i] for i in range(n))): Fraction(1)
            for perm in itertools.permutations(range(n))
        }
        assert rows.hadamard(cols) == CPoly.from_terms(n * n, Q, expected)
        for _ in range(5):
            mat = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            assert permanent_via_hadamard(mat) == permanent(mat)
    print("criterion 9 PASS: permanent polynomials and 20 numeric permanents exact for n<=4")


def test_criterion_10_lab_exact_identities():
    """Sign-polynomial lab: coefficient sum nonnegative, correlation with the
    indicator at least 2^(n-1), squared norm exactly 2^n, coefficient ranges
    exact; the whole sweep under 60 seconds."""
    start = time.monotonic()
    for t, p in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        params = ExplicitParams(t, p)
        n = params.n
        f = build_f(params)
        fp = build_f_prime(params)
        assert set(f.terms.values()) <= {Fraction(1), Fraction(-1)}
        assert len(f.terms) == 2 ** n
        assert set(fp.terms.values()) <= {Fraction(1)}  # zeros are not stored
        assert norm_sq(f) == Fraction(2) ** n
        assert sum_coeffs(f) >= 0
        assert corr(f, fp) >= Fraction(2) ** (n - 1)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 10 took {elapsed:.1f}s"
    print(f"criterion 10 PASS: exact lab identities at all five (t,p) points ({elapsed:.2f}s)")


def _cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "hadamard", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout


def test_criterion_11_cli_determinism(tmp_path):
    """Fixed-seed CLI invocations are byte-identical across repeated runs
    and across thread counts."""
    edges = {
        (0, 0, 0): LinearForm.of_var(F5, 0),
        (0, 0, 1): LinearForm.of_var(F5, 1),
        (1, 0, 0): LinearForm.of_var(F5, 1),
        (1, 1, 0): LinearForm.of_var(F5, 0),
    }
    abp_path = tmp_path / "p.json"
    abp_path.write_text(json.dumps(ABP.build(2, F5, (1, 2, 1), edges).to_json()))
    invocations = [
        ("pit", "rand", str(abp_path), "--seed", "9", "--trials", "6"),
        ("hadamard", "abp", str(abp_path), str(abp_path)),
        ("cfg", "gen-mirror-suffix", "--n", "2"),
        ("lab", "corr", "--t", "2", "--p", "2"),
    ]
    for argv in invocations:
        first = _cli(*argv)
        second = _cli(*argv)
        assert first == second and first[0] == 0
    serial = _cli("lab", "build-f", "--t", "2", "--p", "2", "--threads", "1")
    threaded = _cli("lab", "build-f", "--t", "2", "--p", "2", "--threads", "4")
    assert serial[0] == threaded[0] == 0
    assert serial[1] == threaded[1]
    print("criterion 11 PASS: CLI output byte-identical across runs and thread counts")
