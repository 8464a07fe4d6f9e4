"""Independent reference arithmetic for checking benchmark outputs.

Nothing here imports the ``hadamard`` package: programs, circuits and
verdicts are read from their JSON form and recomputed with plain integers
(reduced mod p for F_p) and ``fractions.Fraction`` for the rationals.

* ``expand`` is a path expansion of a branching program into a
  word -> coefficient dict, optionally restricted to prefixes of a word set.
* ``circuit_expand`` expands a circuit gate by gate.
* Points are tuples of 2x2 matrices, one per variable, so evaluation keeps
  the order of the variables in a word (noncommutative evaluation).
* ``sign_sum`` counts the signs of the lab's sign polynomial with its own
  F_{2^p} arithmetic; the count does not depend on the modulus chosen.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

# ---------------------------------------------------------------------------
# coefficients


def field_of(obj: dict) -> Optional[int]:
    """The characteristic p of an F_p descriptor, or None for Q."""
    field = obj["field"]
    if field["kind"] == "Q":
        return None
    if field["kind"] == "Fp":
        return int(field["p"])
    raise ValueError(f"unsupported field {field!r}")


def parse_coeff(text: str, p: Optional[int]):
    if p is not None:
        return int(text) % p
    value = Fraction(text)
    return value.numerator if value.denominator == 1 else value


def reducer(p: Optional[int]):
    if p is None:
        return lambda x: x
    return lambda x: x % p


# ---------------------------------------------------------------------------
# branching programs


class Program:
    """A branching program as layer sizes plus (layer, src, dst, const, coeffs) edges."""

    def __init__(self, p, nvars, sizes, edges):
        self.p = p
        self.nvars = nvars
        self.sizes = sizes
        self.edges = edges

    @classmethod
    def from_json(cls, obj: dict) -> "Program":
        p = field_of(obj)
        red = reducer(p)
        merged: dict = {}
        for e in obj["edges"]:
            layer, a = int(e["from"][0]), int(e["from"][1])
            if int(e["to"][0]) != layer + 1:
                raise ValueError("edge skips a layer")
            key = (layer, a, int(e["to"][1]))
            label = e["label"]
            const = parse_coeff(label.get("const", "0"), p)
            coeffs = {int(v): parse_coeff(c, p) for v, c in label.get("coeffs", {}).items()}
            if key in merged:
                old_const, old = merged[key]
                const = red(old_const + const)
                for v, c in old.items():
                    coeffs[v] = red(coeffs.get(v, 0) + c)
            merged[key] = (const, {v: c for v, c in coeffs.items() if c})
        edges = [(l, a, c, const, coeffs) for (l, a, c), (const, coeffs) in sorted(merged.items())]
        return cls(p, int(obj["nvars"]), [int(s) for s in obj["layers"]], edges)

    @property
    def depth(self) -> int:
        return len(self.sizes) - 1


def expand(prog: Program, prefixes: Optional[set] = None) -> dict:
    """Word -> nonzero coefficient, summed over source-to-sink paths.

    With ``prefixes``, words that are not a prefix in the set are dropped as
    soon as they appear, so only coefficients of words in the set survive
    (the set must be closed under taking prefixes)."""
    red = reducer(prog.p)
    by_layer: list[list] = [[] for _ in range(prog.depth)]
    for e in prog.edges:
        by_layer[e[0]].append(e)
    current = [{(): 1}]
    for layer in range(prog.depth):
        nxt = [dict() for _ in range(prog.sizes[layer + 1])]
        for _, a, c, const, coeffs in by_layer[layer]:
            src = current[a]
            if not src:
                continue
            dst = nxt[c]
            for word, x in src.items():
                if const:
                    dst[word] = dst.get(word, 0) + x * const
                for v, y in coeffs.items():
                    w = word + (v,)
                    if prefixes is not None and w not in prefixes:
                        continue
                    dst[w] = dst.get(w, 0) + x * y
        current = [{w: red(x) for w, x in d.items() if red(x)} for d in nxt]
    return current[0]


# ---------------------------------------------------------------------------
# circuits


def circuit_expand(obj: dict) -> dict:
    """Word -> coefficient of a circuit's output, expanding every gate."""
    p = field_of(obj)
    red = reducer(p)
    values: list[dict] = []
    for g in obj["gates"]:
        op = g["op"]
        if op == "in":
            values.append({(int(g["var"]),): 1})
        elif op == "const":
            c = parse_coeff(g["value"], p)
            values.append({(): c} if c else {})
        elif op == "add":
            out = dict(values[g["l"]])
            for w, x in values[g["r"]].items():
                out[w] = out.get(w, 0) + x
            values.append({w: red(x) for w, x in out.items() if red(x)})
        elif op == "mul":
            out = {}
            for w1, x1 in values[g["l"]].items():
                for w2, x2 in values[g["r"]].items():
                    out[w1 + w2] = out.get(w1 + w2, 0) + x1 * x2
            values.append({w: red(x) for w, x in out.items() if red(x)})
        else:
            raise ValueError(f"unknown gate {op!r}")
    return values[int(obj["output"])]


# ---------------------------------------------------------------------------
# evaluation at 2x2 matrix points


def random_point(rng, p: Optional[int], nvars: int) -> list[tuple]:
    """One random 2x2 matrix per variable (entries in F_p, or integers in [-40, 40])."""
    if p is None:
        draw = lambda: rng.randint(-40, 40)  # noqa: E731
    else:
        draw = lambda: rng.randrange(p)  # noqa: E731
    return [tuple(draw() for _ in range(4)) for _ in range(nvars)]


def _mat_mul(x: tuple, y: tuple, red) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return (red(a * e + b * g), red(a * f + b * h), red(c * e + d * g), red(c * f + d * h))


def _mat_add(x: tuple, y: tuple, red) -> tuple:
    return tuple(red(u + v) for u, v in zip(x, y))


_ZERO = (0, 0, 0, 0)
_ONE = (1, 0, 0, 1)


def eval_program(prog: Program, point: list[tuple]) -> tuple:
    red = reducer(prog.p)
    values = [[_ZERO] * size for size in prog.sizes]
    values[0][0] = _ONE
    for l, a, c, const, coeffs in prog.edges:  # sorted by layer
        x = values[l][a]
        if x == _ZERO:
            continue
        label = (const, 0, 0, const)
        for v, y in coeffs.items():
            label = tuple(u + y * w for u, w in zip(label, point[v]))
        step = _mat_mul(x, tuple(red(u) for u in label), red)
        values[l + 1][c] = _mat_add(values[l + 1][c], step, red)
    return values[-1][0]


def eval_circuit(obj: dict, point: list[tuple]) -> tuple:
    p = field_of(obj)
    red = reducer(p)
    values: list[tuple] = []
    for g in obj["gates"]:
        op = g["op"]
        if op == "in":
            values.append(point[int(g["var"])])
        elif op == "const":
            c = red(parse_coeff(g["value"], p))
            values.append((c, 0, 0, c))
        elif op == "add":
            values.append(_mat_add(values[g["l"]], values[g["r"]], red))
        else:
            values.append(_mat_mul(values[g["l"]], values[g["r"]], red))
    return values[int(obj["output"])]


def eval_poly(poly: dict, p: Optional[int], point: list[tuple]) -> tuple:
    """Sum of coeff * X_w1 ... X_wk, sharing the products of common prefixes."""
    red = reducer(p)
    prefix = {(): _ONE}

    def matrix(word: tuple) -> tuple:
        m = prefix.get(word)
        if m is None:
            m = prefix[word] = _mat_mul(matrix(word[:-1]), point[word[-1]], red)
        return m

    total = _ZERO
    for word, c in poly.items():
        total = _mat_add(total, tuple(red(c * u) for u in matrix(word)), red)
    return total


def hadamard(f: dict, g: dict, p: Optional[int]) -> dict:
    red = reducer(p)
    small, big = (f, g) if len(f) <= len(g) else (g, f)
    out = {}
    for w, x in small.items():
        y = big.get(w)
        if y is not None and red(x * y):
            out[w] = red(x * y)
    return out


def prefix_closure(words) -> set:
    out = set()
    for w in words:
        for i in range(len(w) + 1):
            out.add(tuple(w[:i]))
    return out


# ---------------------------------------------------------------------------
# the lab's sign polynomial over F_{2^p}


def _irreducible(k: int) -> int:
    """Smallest degree-k irreducible over F_2, as a bit mask with bit k set."""
    for m in range((1 << k) | 1, 1 << (k + 1), 2):
        if all(_gf2_mod(m, d) for d in range(2, 1 << (k // 2 + 1))):
            return m
    raise ValueError(f"no irreducible of degree {k}")


def _gf2_mod(a: int, m: int) -> int:
    mb = m.bit_length()
    while a.bit_length() >= mb:
        a ^= m << (a.bit_length() - mb)
    return a


def _gf2_mul(a: int, b: int, m: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
    return _gf2_mod(out, m)


def sign_sum(t: int, p: int) -> int:
    """Sum over all (y_1..y_t) in F_{2^p}^t of (-1)^trace(y_1 ... y_t).

    Every monomial of the lab's sign polynomial encodes one such tuple, so
    this is the polynomial's coefficient sum (and its character sum at any
    nonzero twist)."""
    m = _irreducible(p)
    size = 1 << p
    trace = []
    for a in range(size):
        acc, power = 0, a
        for _ in range(p):
            acc ^= power
            power = _gf2_mul(power, power, m)
        if acc not in (0, 1):
            raise ValueError("trace left the prime field")
        trace.append(acc)
    dist = {1: 1}
    for _ in range(t):
        nxt: dict = {}
        for x, count in dist.items():
            for y in range(size):
                z = _gf2_mul(x, y, m)
                nxt[z] = nxt.get(z, 0) + count
        dist = nxt
    return sum(count * (1 - 2 * trace[z]) for z, count in dist.items())
