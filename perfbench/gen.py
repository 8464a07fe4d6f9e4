"""Seeded inputs for the benchmark workloads.

Programs have NVARS variables, a fixed width, a full first and last layer
and affine labels.  The sparsity pattern of each program (which edges exist,
which labels carry a constant, which carry which variable) and the edge a
nonzero identity input perturbs come from a fixed catalogue drawn from
SHAPE_SEED: the cost of a job depends mostly on them, so keeping them fixed
keeps a run's cost independent of the workload seed.  The workload seed
draws every coefficient, the size of each perturbation, the battery seeds
of the lab and the order of the jobs.

Zero identity inputs are built by cancellation: a program joined, behind a
shared source and sink, with a copy of itself whose last layer is negated.
Nonzero ones perturb one label of the copy as well.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Optional

NVARS = 3
WIDTH = 3
SHAPE_SEED = 4006  # fixed: the catalogue of sparsity patterns never changes with --seed
KEEP_FRAC = 7 / 9  # share of the edges between two internal layers that exist
CONST_FRAC = 0.4  # share of edges whose label has a constant term
VAR_FRAC = 0.45  # share of (edge, variable) slots with a nonzero coefficient


def field_json(p: Optional[int]) -> dict:
    return {"kind": "Q"} if p is None else {"kind": "Fp", "p": p}


@dataclass(frozen=True)
class Shape:
    """Layer sizes plus (layer, src, dst, has_const, variables) per edge."""

    nvars: int
    sizes: tuple
    edges: tuple


def make_shape(rng: random.Random, depth: int, nvars: int = NVARS, width: int = WIDTH) -> Shape:
    sizes = (1,) + (width,) * (depth - 1) + (1,)
    edges = []
    for layer in range(depth):
        pairs = [(a, c) for a in range(sizes[layer]) for c in range(sizes[layer + 1])]
        if 0 < layer < depth - 1:
            pairs = sorted(rng.sample(pairs, round(KEEP_FRAC * len(pairs))))
        slots = [(i, v) for i in range(len(pairs)) for v in range(nvars)]
        with_var = set(rng.sample(slots, round(VAR_FRAC * len(slots))))
        with_const = set(rng.sample(range(len(pairs)), round(CONST_FRAC * len(pairs))))
        for i, (a, c) in enumerate(pairs):
            variables = tuple(v for v in range(nvars) if (i, v) in with_var)
            if i not in with_const and not variables:
                variables = (rng.randrange(nvars),)
            edges.append((layer, a, c, i in with_const, variables))
    return Shape(nvars, sizes, tuple(edges))


def _coeff(rng: random.Random, p: Optional[int]) -> int:
    if p is None:
        return rng.choice((-1, 1)) * rng.randint(1, 7)
    return rng.randint(1, p - 1)


def fill(shape: Shape, rng: random.Random, p: Optional[int]) -> dict:
    """A program JSON with the shape's pattern and fresh nonzero coefficients."""
    edges = []
    for layer, a, c, has_const, variables in shape.edges:
        label = {
            "const": str(_coeff(rng, p)) if has_const else "0",
            "coeffs": {str(v): str(_coeff(rng, p)) for v in variables},
        }
        edges.append({"from": [layer, a], "to": [layer + 1, c], "label": label})
    return {"nvars": shape.nvars, "field": field_json(p), "layers": list(shape.sizes), "edges": edges}


def _negate(text: str, p: Optional[int]) -> str:
    value = -int(text)
    return str(value % p if p is not None else value)


def cancel_join(
    prog: dict, site_rng: random.Random, rng: random.Random, zero: bool
) -> tuple[dict, Optional[tuple]]:
    """prog joined with a copy of itself whose last layer is negated.

    With ``zero`` false, one internal label of the copy also gains delta * x_v,
    so the join computes -(prefix into that edge) * delta x_v * (suffix out
    of it).  The edge and v come from ``site_rng`` (they set how far a tester
    must go before it finds a witness), delta from ``rng``.  Returns the
    joined program and the perturbed (layer, src, dst, v, delta), or None."""
    p = None if prog["field"]["kind"] == "Q" else int(prog["field"]["p"])
    depth = len(prog["layers"]) - 1
    width = max(prog["layers"])
    perturb = None
    if not zero:
        inner = [e for e in prog["edges"] if 0 < e["from"][0] < depth - 1]
        e = site_rng.choice(inner)
        absent = [v for v in range(prog["nvars"]) if str(v) not in e["label"]["coeffs"]]
        v = site_rng.choice(absent) if absent else site_rng.randrange(prog["nvars"])
        perturb = (e["from"][0], e["from"][1], e["to"][1], v, _coeff(rng, p))
    edges = []
    for copy in (0, 1):
        shift = copy * width
        for e in prog["edges"]:
            layer, a, c = e["from"][0], e["from"][1], e["to"][1]
            label = {"const": e["label"]["const"], "coeffs": dict(e["label"]["coeffs"])}
            if copy and perturb and perturb[:3] == (layer, a, c):
                key = str(perturb[3])
                old = int(label["coeffs"].get(key, "0"))
                new = old + perturb[4]
                new = new % p if p is not None else new
                if new:
                    label["coeffs"][key] = str(new)
                else:
                    label["coeffs"].pop(key, None)
            if copy and layer == depth - 1:
                label = {
                    "const": _negate(label["const"], p),
                    "coeffs": {v: _negate(x, p) for v, x in label["coeffs"].items()},
                }
            src = a if layer == 0 else a + shift
            dst = c if layer == depth - 1 else c + shift
            edges.append({"from": [layer, src], "to": [layer + 1, dst], "label": label})
    sizes = [1] + [2 * width] * (depth - 1) + [1]
    return {"nvars": prog["nvars"], "field": prog["field"], "layers": sizes, "edges": edges}, perturb


def program_circuit(prog: dict) -> dict:
    """A circuit that follows the program layer by layer: each node's value is
    the sum over incoming edges of (source value) * (label), so its formal
    degree is the program's depth and it computes the same polynomial."""
    gates: list[dict] = []

    def emit(g: dict) -> int:
        gates.append(g)
        return len(gates) - 1

    def add(x: Optional[int], y: Optional[int]) -> Optional[int]:
        if x is None or y is None:
            return y if x is None else x
        return emit({"op": "add", "l": x, "r": y})

    inputs = [emit({"op": "in", "var": v}) for v in range(prog["nvars"])]
    depth = len(prog["layers"]) - 1
    values: list[Optional[int]] = [emit({"op": "const", "value": "1"})]
    for layer in range(depth):
        nxt: list[Optional[int]] = [None] * prog["layers"][layer + 1]
        for e in prog["edges"]:
            if e["from"][0] != layer or values[e["from"][1]] is None:
                continue
            label = None
            if int(e["label"]["const"]):
                label = emit({"op": "const", "value": e["label"]["const"]})
            for v, x in sorted(e["label"]["coeffs"].items()):
                term = emit({"op": "mul", "l": emit({"op": "const", "value": x}), "r": inputs[int(v)]})
                label = add(label, term)
            term = emit({"op": "mul", "l": values[e["from"][1]], "r": label})
            nxt[e["to"][1]] = add(nxt[e["to"][1]], term)
        values = nxt
    output = values[0] if values[0] is not None else emit({"op": "const", "value": "0"})
    return {"nvars": prog["nvars"], "field": prog["field"], "gates": gates, "output": output}


def mirror_suffix_grammar(n: int, alphabet: int) -> dict:
    """Grammar JSON for { z w reverse(w) : |z| = |w| = n }, one derivation per word."""
    prods = []
    nts = []
    for k in range(1, n + 1):
        nts += [f"Z{k}", f"M{k}"]
        for t in range(alphabet):
            sym = {"t": t}
            prods.append({"lhs": f"Z{k}", "rhs": [sym] if k == 1 else [sym, f"Z{k - 1}"]})
            if k == 1:
                prods.append({"lhs": "M1", "rhs": [sym, sym]})
            else:
                nts.append(f"A{k}_{t}")
                prods.append({"lhs": f"M{k}", "rhs": [sym, f"A{k}_{t}"]})
                prods.append({"lhs": f"A{k}_{t}", "rhs": [f"M{k - 1}", sym]})
    nts.append("S")
    prods.append({"lhs": "S", "rhs": [f"Z{n}", f"M{n}"]})
    return {"nonterminals": nts, "terminals": alphabet, "start": "S", "productions": prods}


def mirror_suffix_words(n: int, alphabet: int) -> list[tuple]:
    """The grammar's language, listed directly."""
    blocks = list(itertools.product(range(alphabet), repeat=n))
    return [z + w + w[::-1] for z in blocks for w in blocks]


# ---------------------------------------------------------------------------
# jobs


@dataclass
class Job:
    """One cli.main call: its kind, its argv, and what its check needs."""

    kind: str
    argv: list
    info: dict = field(default_factory=dict)


class Writer:
    """Writes input files under one directory and returns their paths."""

    def __init__(self, root: str):
        self.root = root
        self.count = 0
        os.makedirs(root, exist_ok=True)

    def write(self, obj, stem: str) -> str:
        self.count += 1
        path = os.path.join(self.root, f"{self.count:03d}-{stem}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        return path


def _catalogue(depths: list, tag: str, widths: Optional[list] = None) -> list[Shape]:
    rng = random.Random(f"{SHAPE_SEED}:{tag}")
    widths = widths or [WIDTH] * len(depths)
    return [make_shape(rng, d, width=w) for d, w in zip(depths, widths)]


# abp jobs per pass: (depth, field, self-product); skewed toward small depths
ABP_MIX = (
    [(4, None, True), (4, 5, True), (4, None, False), (4, 5, False)] * 2
    + [(5, None, True), (5, 5, False), (5, None, False), (5, 5, True)]
    + [(6, None, True), (6, 5, False)]
    + [(7, 5, True)]
)
CIRCUIT_DEPTHS = [5, 5, 6, 6, 7]  # program-shaped circuits over Q and F_5, alternating
GRAMMARS = [(2, 2), (2, 3), (3, 2), (3, 3)]  # (n, alphabet) of mirror-suffix grammars
# identity jobs per pass: (tester, field, depth, zero); a third of each tester's inputs are zero
IDENTITY_MIX = [
    ("det", None, 4, False), ("det", None, 4, True), ("det", None, 5, False),
    ("det", None, 5, False), ("det", None, 6, True), ("det", None, 6, False),
] + [
    (tester, p, depth, zero)
    for tester in ("span", "rand")
    for p, depth, zero in ((5, 6, False), (5, 7, False), (5, 8, True), (2, 6, True), (2, 7, False), (2, 8, False))
]
DET_WIDTH = 2  # the square-sum test multiplies the joined program by itself
LAB_PARAMS = [(3, 3), (2, 5), (4, 3)]
RAND_TRIALS = 20


def products_jobs(seed: int, out: Writer) -> tuple[list[Job], list[Job]]:
    """(prep jobs, timed jobs).  Prep jobs turn grammars into circuits."""
    rng = random.Random(f"products:{seed}")
    shapes = _catalogue([d for d, _, _ in ABP_MIX] * 2, "abp")
    jobs, prep = [], []
    for i, (depth, p, self_product) in enumerate(ABP_MIX):
        left = out.write(fill(shapes[2 * i], rng, p), f"abp-d{depth}-l")
        right = left if self_product else out.write(fill(shapes[2 * i + 1], rng, p), f"abp-d{depth}-r")
        jobs.append(Job("abp", ["hadamard", "abp", left, right], {"depth": depth, "p": p}))
    shapes = _catalogue(CIRCUIT_DEPTHS * 2, "circuit")
    for i, depth in enumerate(CIRCUIT_DEPTHS):
        p = None if i % 2 == 0 else 5
        circuit = out.write(program_circuit(fill(shapes[2 * i], rng, p)), f"circuit-d{depth}")
        prog = out.write(fill(shapes[2 * i + 1], rng, p), f"circuit-prog-d{depth}")
        jobs.append(Job("circuit", ["hadamard", "circuit-abp", circuit, prog], {"depth": depth, "p": p}))
    grammar_rng = random.Random(f"{SHAPE_SEED}:grammar")
    for n, alphabet in GRAMMARS:
        shape = make_shape(grammar_rng, 3 * n, nvars=alphabet)
        grammar = out.write(mirror_suffix_grammar(n, alphabet), f"grammar-n{n}a{alphabet}")
        circuit = os.path.join(out.root, f"grammar-n{n}a{alphabet}-circuit.json")
        prep.append(Job("cfg", ["cfg", "to-circuit", grammar, "--out", circuit], {"n": n, "alphabet": alphabet}))
        prog = out.write(fill(shape, rng, None), f"grammar-prog-n{n}a{alphabet}")
        jobs.append(
            Job("circuit", ["hadamard", "circuit-abp", circuit, prog], {"n": n, "alphabet": alphabet})
        )
    return prep, jobs


def identity_jobs(seed: int, out: Writer) -> tuple[list[Job], list[Job]]:
    rng = random.Random(f"identity:{seed}")
    site_rng = random.Random(f"{SHAPE_SEED}:perturb")
    shapes = _catalogue(
        [depth for _, _, depth, _ in IDENTITY_MIX],
        "identity",
        [DET_WIDTH if tester == "det" else WIDTH for tester, _, _, _ in IDENTITY_MIX],
    )
    jobs = []
    for i, (tester, p, depth, zero) in enumerate(IDENTITY_MIX):
        base = fill(shapes[i], rng, p)
        joined, perturb = cancel_join(base, site_rng, rng, zero)
        path = out.write(joined, f"{tester}-d{depth}-{'zero' if zero else 'nonzero'}")
        argv = ["pit", tester, path]
        if tester == "rand":
            argv += ["--trials", str(RAND_TRIALS), "--seed", str(rng.randrange(1 << 30))]
        jobs.append(Job(tester, argv, {"zero": zero, "perturb": perturb, "depth": depth, "p": p}))
    return [], jobs


def lab_jobs(seed: int, out: Writer) -> tuple[list[Job], list[Job]]:
    rng = random.Random(f"lab:{seed}")
    jobs = []
    for t, p in LAB_PARAMS:
        argv = ["lab", "corr", "--t", str(t), "--p", str(p), "--battery", "5", "--seed", str(rng.randrange(1 << 30))]
        jobs.append(Job("corr", argv, {"t": t, "p": p}))
    return [], jobs


WORKLOADS = {"products": products_jobs, "identity": identity_jobs, "lab": lab_jobs}
