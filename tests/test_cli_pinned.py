"""CLI output pinned byte for byte.

Each case runs one command in-process on seeded random or fixed inputs and compares
the exit code and the sha256 of stdout with recorded values.  The digests
see what expansion-based checks cannot: node numbering, pruning, and the
``unpruned_nodes`` and ``per_degree`` sizes of a product.  Re-record them
(``PYTHONPATH=src python tests/test_cli_pinned.py`` prints the table) only
for an intended change of output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys

import pytest

from hadamard import lab
from hadamard.abp import ABP, LinearForm, abp_sum, constant_abp
from hadamard.circuits import AddGate, Circuit, ConstGate, InputGate, MulGate
from hadamard.cli import main
from hadamard.fields import ExtField, PrimeField, RationalField
from hadamard.grammars import build_mirror_suffix_grammar, cfg_to_circuit
from hadamard.pit import Digraph
from helpers import affine_chain, cancel_join, cancelling_abp, dead_end, random_abp, random_circuit, scale_form

FIELDS = {"q": RationalField(), "f5": PrimeField(5)}


def _first(tag: str, field, keep, **kw):
    """The first program under seeds tag:0, tag:1, ... for which keep holds."""
    for salt in range(1000):
        abp = random_abp(random.Random(f"{tag}:{salt}"), field, **kw)
        if keep(abp):
            return abp
    raise AssertionError(f"no program for {tag}")


def _nonzero(tag: str, field, **kw):
    """The first program under seeds tag:0, tag:1, ... that is not zero."""
    return _first(tag, field, lambda abp: not abp.expand().is_zero(), **kw)


def _circuit(tag: str, abp):
    """The first circuit under seeds tag:0, tag:1, ... sharing a word of
    degree at least 2 with the program, so their product is not constant."""
    words = {w for w in abp.expand().terms if len(w) >= 2}
    for salt in range(100):
        c = random_circuit(random.Random(f"{tag}:{salt}"), abp.field, n_gates=10, max_degree=4)
        if words & set(c.expand().terms):
            return c
    raise AssertionError(f"no matching circuit for {tag}")


def _zero_const_circuit(zero_output: bool) -> Circuit:
    """A monotone circuit over Q with zero constants in sums and products;
    with zero_output its output gate is a product with zero."""
    gates = [
        InputGate(0), ConstGate(0), AddGate(0, 1), InputGate(1), MulGate(3, 1),
        AddGate(4, 2), ConstGate(2), MulGate(5, 6), MulGate(3, 7), AddGate(8, 5),
    ]
    if zero_output:
        gates.append(MulGate(9, 4))
    return Circuit.build(2, RationalField(), gates, len(gates) - 1)


def _only_var(tag: str, field, v: int):
    """The first program under seeds tag:0, tag:1, ... over x0, x1 that is
    not zero once every label keeps only its x_v coefficient."""

    def restrict(abp):
        edges = {
            key: LinearForm(field.zero(), {v: form.coeffs[v]})
            for key, form in abp.edges.items()
            if v in form.coeffs
        }
        return ABP.build(abp.n_vars, field, abp.layer_sizes, edges)

    base = _first(tag, field, lambda abp: not restrict(abp).expand().is_zero(), n_vars=2, depth=3)
    return restrict(base)


def _twisted(tag: str, field, **kw):
    """The first program under seeds tag:0, tag:1, ... that is not zero once
    each edge label is scaled by g^((layer + from + 2 to) mod 3), g the
    field's generator, so that its coefficients leave the prime field."""
    g = field.gen()

    def twist(abp):
        edges = {
            (l, a, c): scale_form(form, g ** ((l + a + 2 * c) % 3), field)
            for (l, a, c), form in abp.edges.items()
        }
        return ABP.build(abp.n_vars, field, abp.layer_sizes, edges)

    return twist(_first(tag, field, lambda abp: not twist(abp).expand().is_zero(), **kw))


def _joined(tag: str, field, depth: int, zero: bool):
    """The first ``cancel_join`` program under seeds tag:0, tag:1, ... that
    is zero exactly when zero is true (a perturbation can vanish mod p)."""
    for salt in range(100):
        abp = cancel_join(random.Random(f"{tag}:{salt}"), field, depth, width=3, zero=zero)
        if abp.expand().is_zero() == zero:
            return abp
    raise AssertionError(f"no program for {tag}")


def _add_chain(n_gates: int) -> Circuit:
    """x0, x1, 2, then n_gates - 3 additions, each of the previous gate and
    one of the first three."""
    gates = [InputGate(0), InputGate(1), ConstGate(2)]
    gates += [AddGate(i - 1, i % 3) for i in range(3, n_gates)]
    return Circuit.build(2, RationalField(), gates, n_gates - 1)


def _inputs() -> dict:
    """Name -> JSON object, all drawn from fixed seeds."""
    out = {}
    for fname, field in FIELDS.items():
        for depth in (3, 4, 5):
            out[f"{fname}{depth}"] = _nonzero(f"{fname}:{depth}", field, depth=depth)
        rng = random.Random(f"{fname}:zero")
        out[f"{fname}zero"] = cancelling_abp(rng, field, depth=3, width=2)
        out[f"{fname}hom"] = _nonzero(f"{fname}:hom", field, n_vars=2, depth=3, affine=False)
        out[f"{fname}circ"] = _circuit(f"{fname}:circuit", out[f"{fname}3"])
    out["qpoly"] = out["qhom"].expand()
    q = FIELDS["q"]
    # depth 8, affine, with a nonzero constant term
    out["qconst8"] = _first("q:const8", q, lambda abp: abp.evaluate([0] * abp.n_vars), depth=8)
    out["qzero6"] = cancelling_abp(random.Random("q:zero6"), q, depth=6)
    # every homogeneous part of degree >= 1 is zero, the constant is not
    cancel = cancelling_abp(random.Random("q:deg0"), q, depth=4, width=2)
    out["qdeg0"] = abp_sum([cancel, constant_abp(cancel.n_vars, q, 7)])
    out["mirror"] = build_mirror_suffix_grammar(2)
    out["mirrorcirc"] = cfg_to_circuit(out["mirror"])
    mirror_words = set(out["mirrorcirc"].expand().terms)
    out["qmirror6"] = _first(
        "q:mirror6", q, lambda abp: mirror_words & set(abp.expand().terms), n_vars=2, depth=6
    )
    # depth 1: the constant and the degree-1 part of a product share the lone edge
    out["qaff1"] = ABP.build(2, q, (1, 1), {(0, 0, 0): LinearForm.make(q, const=3, coeffs={0: 2, 1: -1})})
    out["qonly0"] = _only_var("q:only0", q, 0)
    out["qonly1"] = _only_var("q:only1", q, 1)
    out["chain400"] = _add_chain(400)
    f2, f101 = PrimeField(2), PrimeField(101)
    out["f2zero6"] = _joined("f2:zero6", f2, 6, zero=True)
    out["f2join7"] = _joined("f2:join7", f2, 7, zero=False)
    out["f101join6"] = _joined("f101:join6", f101, 6, zero=False)
    out["f2hom"] = _nonzero("f2:hom", f2, depth=4, width=4, affine=False, density=0.9)
    out["f4hom"] = _twisted("f4:hom", ExtField.make(2, 2), depth=5, width=4, affine=False, density=0.9)
    out["qhom8"] = _nonzero("q:hom8", q, n_vars=2, depth=8, width=6, affine=False, density=0.9)
    f5 = FIELDS["f5"]
    # (x0 + x1 + 1)^2 against a depth-200 program whose parts of every degree
    # would pass the node cap; the product lays out only parts 0-2
    square = [InputGate(0), InputGate(1), ConstGate(1), AddGate(0, 1), AddGate(3, 2), MulGate(4, 4)]
    out["f5sq"] = Circuit.build(2, f5, square, 5)
    out["f5aff200"] = affine_chain(random.Random("f5:aff200"), f5, 200)
    out["qaff60"] = affine_chain(random.Random("q:aff60"), q, 60)
    # x1 enters node 1 of layer 1, which no entry leaves: a step into a node
    # with no nonzero walk on to the sink
    out["f5dead"] = dead_end(f5)
    out["zcirc"] = _zero_const_circuit(False)
    out["zcirc0"] = _zero_const_circuit(True)
    # t is reached over 0 -> 2 -> 4 -> 3 -> 5; with the arc into 5 gone, not at all
    arcs = ((0, 1), (0, 2), (1, 1), (2, 4), (4, 3), (3, 1), (1, 4), (3, 5))
    out["reach6"] = Digraph(6, arcs, 0, 5)
    out["unreach6"] = Digraph(6, arcs[:-1], 0, 5)
    objs = {name: obj.to_json() for name, obj in out.items()}
    # for n >= 3 the determinant programs merge repeated node pairs
    objs["det3"] = [["1/2", 3, -2], [4, "-5/3", 1], [0, 7, "2/5"]]
    objs["sing4"] = [[2, -1, 3, "1/3"], [1, 4, 0, -2], [3, 3, 3, "-5/3"], ["1/7", 0, 5, 6]]
    return objs


# case name -> (argv with input names in braces, exit code, sha256 of stdout)
CASES = {
    "hadamard-abp-q3-q4": (["hadamard", "abp", "{q3}", "{q4}"], 0,
        "2cdfd4aa3842496f0af6464a3945f6d3709a09b5a28eb889f93b931634d06b81"),
    "hadamard-abp-q5-q5": (["hadamard", "abp", "{q5}", "{q5}"], 0,
        "9ee6c4a51a402b47244f3a842be266cabe0e12059efa396bc8aa05cf2b2c8ef4"),
    "hadamard-abp-f4-f5": (["hadamard", "abp", "{f54}", "{f55}"], 0,
        "03b86c2b678a44acf92d4c9ebc73a1ccedbeb190ea1a8e0eb4f3de41425a7275"),
    "hadamard-abp-f3-f3": (["hadamard", "abp", "{f53}", "{f53}"], 0,
        "691a822dfce1d3c6068331f68da97b77834943e77c6a4f12a25bdcfc9586ac27"),
    "hadamard-abp-qzero": (["hadamard", "abp", "{qzero}", "{q3}"], 0,
        "9a4f964c9c058772f104a4aef8a2d9cd25488fee1cc2a918dab695db8ba6414c"),
    "circuit-abp-q3": (["hadamard", "circuit-abp", "{qcirc}", "{q3}"], 0,
        "3b86c72fabd7e6343797a90e5445271282ba760fbb62ef18ed96e63036c85fe8"),
    "circuit-abp-f3": (["hadamard", "circuit-abp", "{f5circ}", "{f53}"], 0,
        "5669d43565f695ac430bc978f0c5895114109d4760cde66807a940c41af9a6e4"),
    "hadamard-abp-qaff1-qaff1": (["hadamard", "abp", "{qaff1}", "{qaff1}"], 0,
        "0429c71327bd901a7313488f9772ae1f961f1067e71bb56eeb15f03949a54899"),
    "hadamard-abp-qdeg0-q3": (["hadamard", "abp", "{qdeg0}", "{q3}"], 0,
        "48c6f53f33455509726f343dcec1cf06f1f2caa6a1fef908e016c76a8096c8b6"),
    "hadamard-abp-qonly0-qonly1": (["hadamard", "abp", "{qonly0}", "{qonly1}"], 0,
        "19157b8bd656d2170e36e3e079f6177eaeb0849aa51693b6bd93eacb9c04e8bf"),
    "circuit-abp-chain400-qaff1": (["hadamard", "circuit-abp", "{chain400}", "{qaff1}"], 0,
        "be6548fc9635e73d57ebda74df055d6f7672da4a9329f8b0f6f3202d9320da99"),
    "circuit-abp-f5sq-f5aff200": (["hadamard", "circuit-abp", "{f5sq}", "{f5aff200}"], 0,
        "43dd465f39db9bdfb17241111d46e8c58d435c069225d6da963bfefeb93dca1a"),
    "circuit-abp-mirror-qmirror6": (["hadamard", "circuit-abp", "{mirrorcirc}", "{qmirror6}"], 0,
        "337d257a9d63bcc7ae992be5952886bf7fb58101d6a2e21911657ec4f059e4a5"),
    "pit-det-q3": (["pit", "det", "{q3}"], 0,
        "1a86129202a53ea23bb4c95162d5b444ec2805b82360a81e5b3851e0613057d6"),
    "pit-det-q5": (["pit", "det", "{q5}"], 0,
        "f653a90a13179326dfe8521259bd52387d767d3fc6598cf343c6c0ff8a786769"),
    "pit-det-qzero": (["pit", "det", "{qzero}"], 0,
        "d14f421ffb83d3f50f00f95825a7d97275895fe7228fd0056950e48a6989a1c2"),
    "pit-det-qconst8": (["pit", "det", "{qconst8}"], 0,
        "0c2681afb1872b69fdf22813f6bc6ef0fd394e9ec8434b75e155471e8f08a9d6"),
    "pit-det-qzero6": (["pit", "det", "{qzero6}"], 0,
        "d14f421ffb83d3f50f00f95825a7d97275895fe7228fd0056950e48a6989a1c2"),
    "pit-det-qdeg0": (["pit", "det", "{qdeg0}"], 0,
        "2be06621ff2bebaf4f265fded3ba34701e93055d5101228b994c44f2d963b00e"),
    "pit-span-q4": (["pit", "span", "{q4}"], 0,
        "78d6f805e3b65781b64f404dd103492184d4e62b3711cd1bfc89b385915b3db6"),
    "pit-span-q5": (["pit", "span", "{q5}"], 0,
        "efb21b06ad929b9863c9d783e06930dcaa81d155c40156b2d1f4bd0be186cdd0"),
    "pit-span-f5": (["pit", "span", "{f55}"], 0,
        "02c87999f1cd850f7d61ebdd49566c088f4936ccbc026212ea53715bf79c5517"),
    "pit-span-qzero": (["pit", "span", "{qzero}"], 0,
        "cee950a1362d8c4ce484b8394557428259512e403385b24bb081e8094a0a6cbf"),
    "pit-span-f5zero": (["pit", "span", "{f5zero}"], 0,
        "cee950a1362d8c4ce484b8394557428259512e403385b24bb081e8094a0a6cbf"),
    "pit-span-f2zero6": (["pit", "span", "{f2zero6}"], 0,
        "cee950a1362d8c4ce484b8394557428259512e403385b24bb081e8094a0a6cbf"),
    "pit-span-f2join7": (["pit", "span", "{f2join7}"], 0,
        "8381fb3817bdc3ff5166816938e908408bb90fc7ceb17e429d35abb5b4b2344e"),
    "pit-span-f101join6": (["pit", "span", "{f101join6}"], 0,
        "d6d3fe11058c5cda93a5ece1b5cb16560eb072c707073ba557166fc65318d4ee"),
    "pit-span-f4hom": (["pit", "span", "{f4hom}"], 0,
        "b1f719423aba114f7a2ef08947e685f1104991cb3e1145f7275616fe7e79ec7a"),
    "pit-span-f5aff200": (["pit", "span", "{f5aff200}"], 0,
        "43a2b93f8f173967f8657014ed22aa1ce3bcd948ed51cdb2e3f09d4c3ed2eece"),
    "pit-det-qaff60": (["pit", "det", "{qaff60}"], 0,
        "a6450b0bdbe280bc06fa10e95700ddffb9761ed1e0d0d31a82a3c5cd8d7da75a"),
    "pit-span-qaff60": (["pit", "span", "{qaff60}"], 0,
        "6affeebc13dce5070592cd041f97fd75cfe5c68ecfe91de00e13c032b930619b"),
    "pit-span-f5dead": (["pit", "span", "{f5dead}"], 0,
        "308688f7c16db288eb6ba66baaa1a1c554e91203a9ef7c781f5a84b67e176c27"),
    "nisan-f5dead": (["nisan", "{f5dead}"], 0,
        "5885aaeb2f0d09d0c1989dea8f7a77be40199129cb3659a4efc119bb1ef32346"),
    "pit-span-qhom8": (["pit", "span", "{qhom8}"], 0,
        "948b92e1a58a4f0248f2f19450dfa8fffe5ca43b02dd30fc3b7c452a4a56103f"),
    "pit-det-qhom8": (["pit", "det", "{qhom8}"], 0,
        "a988b148d80f3f5fe6a8203d4c36b44cec600e816f48aece372f161a52285fbf"),
    # F_4 is too small for depth 5, so the points come from an extension of it
    "pit-rand-f4hom": (["pit", "rand", "{f4hom}", "--trials", "5", "--seed", "7"], 0,
        "3251c596c8610d7a43c36a555022a68b5503ea31c53458d01ac36fddd582d81d"),
    "pit-rand-f2join7": (["pit", "rand", "{f2join7}", "--trials", "5", "--seed", "3"], 0,
        "c0adb19927737223fec9ece9396a3d29c92de9c02942dd2bac61fa3f56c081d6"),
    "pit-rand-f2zero6": (["pit", "rand", "{f2zero6}", "--trials", "3"], 0,
        "8fc5c9a34d3c22e984eb0221b2f8dc030fa0491f6654455c4d072d2ed938916a"),
    "nisan-f2hom": (["nisan", "{f2hom}"], 0,
        "77962886d36d81abba96f6573b2636aa6c9354ee8feaf64ee2a7adba4d5ed8cd"),
    "pit-rand-f4": (["pit", "rand", "{f54}", "--trials", "5", "--seed", "7"], 0,
        "1706fc542e2d09fa7b76f3f88632e21a04c61bd3762aa839316592ada0aa5a91"),
    "pit-rand-f5zero": (["pit", "rand", "{f5zero}", "--trials", "5"], 0,
        "2c53f694da9b512e76cecc2106eb499a583b96dc891a72cbc31d46ccc94778fa"),
    "expand-q4": (["expand", "{q4}"], 0,
        "6c1e7f106f01b7418e69729b77e2ebf2db8e4c4ed2c175129ccd109db23e8bd2"),
    "expand-f5": (["expand", "{f55}"], 0,
        "2165b851030bce99b15be027074481a915f898a609a91afe4a88062aef29743b"),
    "nisan-qhom": (["nisan", "{qhom}"], 0,
        "7b7dbaef65bb2b361c14504cf192183d68daf2c0322ff4a5e9ba02b09e31fbaa"),
    "nisan-f5hom": (["nisan", "{f5hom}"], 0,
        "b77620673186a80968dab574d9121de30d89028baa7d3647e8af3027d6869a34"),
    "nisan-q3": (["nisan", "{q3}"], 2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "nisan-qzero": (["nisan", "{qzero}"], 0,
        "79986d080ebf75bc10962a849d8d0ddeb4c9868eafb746ffe84993957706da3d"),
    "nisan-qdeg0": (["nisan", "{qdeg0}"], 0,
        "bd94431fbcf0a55515211f660c604a9c0c2f67935880a8a9b4c1756f3f8ec05f"),
    "nisan-qaff1": (["nisan", "{qaff1}"], 2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "nisan-f2zero6": (["nisan", "{f2zero6}"], 0,
        "79986d080ebf75bc10962a849d8d0ddeb4c9868eafb746ffe84993957706da3d"),
    "nisan-f4hom": (["nisan", "{f4hom}"], 0,
        "5f7c6c029a6411fd6d8b5cb95992d04bae72d30a6ade1bdd14183a9a87148c55"),
    "nisan-qhom8": (["nisan", "{qhom8}"], 0,
        "44ff8d7ea1c80164191f9abcae7a055cada3797ebb76a335b8574fa694cddf9d"),
    "nisan-qpoly": (["nisan", "{qpoly}"], 0,
        "7b7dbaef65bb2b361c14504cf192183d68daf2c0322ff4a5e9ba02b09e31fbaa"),
    "expand-qcirc": (["expand", "{qcirc}"], 0,
        "a17ddf2c2d68fafdf10ec661b116c1b3975df3debcdc07c54090963976bd81e5"),
    "expand-f5circ": (["expand", "{f5circ}"], 0,
        "79232dd582f9985aa1beecbe333ba8513c70ff6b117820e13464738e8c749068"),
    "lab-perm-n3": (["lab", "perm", "--n", "3"], 0,
        "2484af084ef427ed7f0763578b7baad2a053e539b234c90794411bb32a2cbc76"),
    "lab-corr-t2-p2": (["lab", "corr", "--t", "2", "--p", "2"], 0,
        "398e5f58d9933f0f034c4dc7b195cc2f99108695d1f9bf237a6b541357d7ff66"),
    "lab-corr-t2-p5": (["lab", "corr", "--t", "2", "--p", "5"], 0,
        "fd37a7b604673ffa85a88744783d6a4728a744e5c2285b7dc433c0754bb6df54"),
    "lab-build-f-t1-p7": (["lab", "build-f", "--t", "1", "--p", "7"], 0,
        "808a6ddf6537dbbf6215e9484690fc2238329b69c2844429db72f819d9e6edb4"),
    "lab-expsum-t2-p3-z1": (["lab", "expsum", "--t", "2", "--p", "3", "--z", "1"], 0,
        "fc915102fb3dc0150c0fc15f83b14b12aaac7eb20743819cc630efd4e9214bf4"),
    # F_{2^13} has no log tables, so F and the sums go through field elements
    "lab-corr-t1-p13": (["lab", "corr", "--t", "1", "--p", "13", "--battery", "2"], 0,
        "a38b65b0c96778761cd9b7f9f3d8543b8dc13b9631fcc118c033fdcf8f8308c4"),
    "lab-expsum-t2-p3-zero-sets": (
        ["lab", "expsum", "--t", "2", "--p", "3", "--sets", "0,1,5;2,3,0", "--z", "3"], 0,
        "b75dd3875da963677722b52284b9e4e3dbe810f52af3a915250ee5a303fb4b8a"),
    "lab-expsum-t3-p3-z0": (["lab", "expsum", "--t", "3", "--p", "3", "--z", "0"], 0,
        "cddc6f21397c1be63639f5192190b0b1d90265b62c3cb2c0b60cf8f9de00f814"),
    "lab-corr-t4-p3": (["lab", "corr", "--t", "4", "--p", "3"], 0,
        "dc1143eafcaec82055eadbe7d5bf3c7235f74d5b9b01b8270b0f0fc75a008809"),
    "reduce-det2abp-det3": (["reduce", "det2abp", "{det3}"], 0,
        "b0abef52a5fded9dc371262945453d2dadc78a9f703444202a70cef75e5538cc"),
    "reduce-det2abp-sing4": (["reduce", "det2abp", "{sing4}"], 0,
        "e54d748872a7877d903e52f91a69d189676f5a2688a531e51a8d3d688a696e18"),
    "reduce-reach2abp-reach6": (["reduce", "reach2abp", "{reach6}"], 0,
        "331949f4084f698bceee10a6be18974989164e8e7f82c7f171ce4b05ba6ca608"),
    "reduce-reach2abp-unreach6": (["reduce", "reach2abp", "{unreach6}"], 0,
        "79addbe3f936ceb89dabead3fa6697e1ae2fa7e4f5ee7b9a5bf57bdbdfb0a656"),
    "cfg-to-circuit-mirror": (["cfg", "to-circuit", "{mirror}"], 0,
        "b943853d7f83ad4bfc81cb858c5d8d289382b9c7a5be5d065c80e52ffca7dab0"),
    "cfg-from-circuit-zcirc": (["cfg", "from-circuit", "{zcirc}"], 0,
        "01601e2786965fa3e04b13417d0bfc4c86b0950591c7429dcf45a7174ffad025"),
    "cfg-from-circuit-zcirc0": (["cfg", "from-circuit", "{zcirc0}"], 0,
        "318af5f3c089dc190be2aac744661eaae79d97366e011421761cd6a8dc1e746c"),
}


def _run(argv: list[str], paths: dict) -> tuple[int, str]:
    argv = [paths[a[1:-1]] if a.startswith("{") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _write_inputs(directory) -> dict:
    paths = {}
    for name, obj in _inputs().items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    return paths


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("pinned"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_pinned(case, input_paths):
    argv, code, digest = CASES[case]
    assert _run(argv, input_paths) == (code, digest)


def test_lab_corr_builds_neither_f_nor_its_shift(monkeypatch, input_paths):
    """``lab corr`` reads F through its sign list alone: with every binding
    of the builders of F and F' made to raise, the pinned bytes still come
    out."""

    def built(*args, **kwargs):
        raise AssertionError("a 2^n-term polynomial was built")

    for name in ("build_f", "zero_one_shift"):
        original = getattr(lab, name)
        for module in [m for key, m in sys.modules.items() if key.startswith("hadamard")]:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, built)
    argv, code, digest = CASES["lab-corr-t4-p3"]
    assert _run(argv, input_paths) == (code, digest)


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_inputs(pathlib.Path(tmp))
        for name in sorted(CASES):
            print(name, *_run(CASES[name][0], paths))
