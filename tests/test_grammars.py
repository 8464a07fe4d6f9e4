"""Grammar mechanics and the grammar/monotone-circuit correspondence."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from hadamard.circuits import Circuit, ConstGate, InputGate, MulGate, AddGate
from hadamard.errors import ValidationError
from hadamard.fields import RationalField
from hadamard.grammars import (
    AcyclicCFG,
    build_mirror_prefix_grammar,
    build_mirror_suffix_grammar,
    cfg_to_circuit,
    circuit_to_cfg,
    count_derivations,
    intersect_bruteforce,
    language,
    strip_useless,
    topo_order,
    validate_grammar,
)

from helpers import random_grammar, random_monotone_circuit

Q = RationalField()


def tiny_grammar():
    # S -> A B | 1;  A -> 0;  B -> 0 | epsilon
    return AcyclicCFG.build(
        ("A", "B", "S"),
        2,
        "S",
        {
            "A": ((0,),),
            "B": ((0,), ()),
            "S": (("A", "B"), (1,)),
        },
    )


def test_language_and_counts_tiny():
    g = tiny_grammar()
    assert language(g) == {(0, 0), (0,), (1,)}
    assert count_derivations(g, (0, 0)) == 1
    assert count_derivations(g, (0,)) == 1  # only via A . epsilon-B
    assert count_derivations(g, (1,)) == 1
    assert count_derivations(g, (1, 1)) == 0


def test_ambiguity_is_counted():
    # S -> A | A where A -> 0: two trees for the word (0,)
    g = AcyclicCFG.build(("A", "S"), 1, "S", {"A": ((0,),), "S": (("A",), ("A",))})
    assert count_derivations(g, (0,)) == 2


def test_validation_rejects_bad_grammars():
    # grammars read from JSON are validated where they enter the library
    def grammar(*rhs):
        return {"nonterminals": ["A"], "terminals": 1, "start": "A", "productions": [{"lhs": "A", "rhs": list(rhs)}]}

    for obj, message in (
        (grammar("A"), "cycle"),
        (grammar({"t": 0}, {"t": 0}, {"t": 0}), "longer than two"),
        (grammar("B"), "undeclared nonterminal"),
        (grammar({"t": 3}), "terminal 3 outside"),
        (dict(grammar({"t": 0}), productions=[{"lhs": "A", "rhs": [{"t": 0}]}, {"lhs": "X", "rhs": [{"t": 0}]}]),
         "productions for undeclared nonterminals"),
    ):
        with pytest.raises(ValidationError, match=message):
            AcyclicCFG.from_json(obj)
    assert validate_grammar(tiny_grammar()) is None


def test_library_grammars_are_well_formed():
    # the grammars the library makes itself are not validated when built
    for seed in range(40):
        rng = random.Random(seed)
        assert validate_grammar(strip_useless(random_grammar(rng))) is None
        circuit = random_monotone_circuit(rng, n_vars=rng.randint(1, 3), n_gates=rng.randint(1, 10))
        assert validate_grammar(circuit_to_cfg(circuit)) is None
    assert validate_grammar(circuit_to_cfg(Circuit.build(1, Q, [ConstGate(Fraction(0))], 0))) is None
    for n, alphabet in itertools.product(range(1, 4), range(1, 4)):
        assert validate_grammar(build_mirror_suffix_grammar(n, alphabet)) is None
        assert validate_grammar(build_mirror_prefix_grammar(n, alphabet)) is None


def test_topo_order_is_dependency_first():
    g = tiny_grammar()
    order = topo_order(g)
    assert order.index("A") < order.index("S")
    assert order.index("B") < order.index("S")


def test_deep_chain_needs_no_recursion():
    # N0 -> 0 N1, ..., N2998 -> 0 N2999, N2999 -> 0: the one word 0^3000,
    # declared so that a depth-first search from N0 goes 3,000 levels deep
    n = 3000
    names = [f"N{i}" for i in range(n)]
    prods = {names[i]: ((0, names[i + 1]),) for i in range(n - 1)}
    prods[names[-1]] = ((0,),)
    g = AcyclicCFG.build(names, 1, "N0", prods)
    assert topo_order(g) == names[::-1]
    c = cfg_to_circuit(g)
    assert c.formal_degree() == n
    assert c.evaluate([Fraction(2)]) == 2**n
    assert count_derivations(g, (0,) * n) == 1


def test_strip_useless_preserves_language():
    g = AcyclicCFG.build(
        ("DEAD", "LOOPY", "A", "S"),
        1,
        "S",
        {
            "DEAD": (),  # derives nothing
            "LOOPY": ((0,),),  # derives but unreachable
            "A": ((0,),),
            "S": (("A",), ("A", "DEAD")),
        },
    )
    s = strip_useless(g)
    assert set(s.nonterminals) == {"A", "S"}
    assert language(s) == language(g) == {(0,)}
    assert s.size() < g.size()


def test_round_trip_counts_random():
    rng = random.Random(4040)
    for _ in range(25):
        g = random_grammar(rng)
        c = cfg_to_circuit(g)
        f = c.expand()
        lang = language(g, max_len=6)
        for word in lang:
            if len(word) <= 6:
                assert f.coeff(word) == count_derivations(g, word)
        # and words outside the language have coefficient zero
        for length in range(3):
            for word in itertools.product(range(g.terminals), repeat=length):
                if word not in lang:
                    assert f.coeff(word) == 0
                    assert count_derivations(g, word) == 0


def test_circuit_to_cfg_support_matches():
    rng = random.Random(505)
    for _ in range(20):
        c = random_monotone_circuit(rng, n_vars=2, n_gates=7)
        g = circuit_to_cfg(c)
        assert language(g) == c.expand().mon_set()


def test_circuit_to_cfg_counts_when_constants_are_one():
    # (x0 + x1)*(x0 + x0) = 2*x0x0 + 2*x1x0; each tree picks one branch per add
    gates = [
        InputGate(0),
        InputGate(1),
        AddGate(0, 1),
        AddGate(0, 0),
        MulGate(2, 3),
    ]
    c = Circuit.build(2, Q, gates, 4)
    g = circuit_to_cfg(c)
    assert count_derivations(g, (0, 0)) == c.expand().coeff((0, 0)) == 2
    assert count_derivations(g, (1, 0)) == c.expand().coeff((1, 0)) == 2
    assert count_derivations(g, (0, 1)) == 0


def test_circuit_to_cfg_rejects_nonmonotone():
    c = Circuit.build(1, Q, [InputGate(0), ConstGate(Fraction(-1)), MulGate(0, 1)], 2)
    with pytest.raises(ValidationError):
        circuit_to_cfg(c)


def test_circuit_to_cfg_zero_circuit():
    c = Circuit.build(1, Q, [InputGate(0), ConstGate(Fraction(0)), MulGate(0, 1)], 2)
    g = circuit_to_cfg(c)
    assert language(g) == set()


def test_mirror_grammars_small():
    for n, alphabet in [(1, 2), (2, 2), (1, 3)]:
        suf = build_mirror_suffix_grammar(n, alphabet)
        pre = build_mirror_prefix_grammar(n, alphabet)
        words = list(itertools.product(range(alphabet), repeat=n))
        expect_suf = {
            z + w + tuple(reversed(w))
            for z in words
            for w in words
        }
        expect_pre = {
            w + tuple(reversed(w)) + z
            for z in words
            for w in words
        }
        assert language(suf) == expect_suf
        assert language(pre) == expect_pre
        # both grammars are unambiguous: every word has exactly one tree
        for word in expect_suf:
            assert count_derivations(suf, word) == 1
        for word in expect_pre:
            assert count_derivations(pre, word) == 1


def test_mirror_intersection_is_triple_mirror():
    for n in (1, 2, 3):
        suf = build_mirror_suffix_grammar(n, 2)
        pre = build_mirror_prefix_grammar(n, 2)
        got = intersect_bruteforce(suf, pre)
        words = list(itertools.product(range(2), repeat=n))
        expect = {w + tuple(reversed(w)) + w for w in words}
        assert got == expect
        assert len(got) == 2**n


def test_json_round_trip():
    g = tiny_grammar()
    assert AcyclicCFG.from_json(g.to_json()) == g
    m = build_mirror_suffix_grammar(2, 2)
    assert AcyclicCFG.from_json(m.to_json()) == m
