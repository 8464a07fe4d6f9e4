"""Acyclic context-free grammars and their monotone-circuit correspondence.

Nonterminals are strings, terminals are integers 0..terminals-1, and every
right-hand side has at most two symbols (the empty tuple is epsilon).  The
nonterminal dependency graph must be acyclic, so languages are finite and
derivation-tree counts are well defined.

A monotone circuit maps to a grammar gate by gate — inputs become terminal
productions, positive constants become epsilon, addition becomes
alternation, multiplication becomes concatenation — and back.  Under that
round trip the coefficient of a word equals its number of derivation trees
(constants re-enter as 1).

``build_mirror_suffix_grammar`` and ``build_mirror_prefix_grammar`` generate
the classic pair of finite languages {z . w . reverse(w)} and
{w . reverse(w) . z} whose intersection is {w . reverse(w) . w}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .circuits import Circuit, CircuitBuilder, ConstGate, propagate_zeros
from .errors import ResourceCapError, ValidationError
from .fields import RationalField, json_int

Symbol = Union[str, int]  # str: nonterminal, int: terminal
DEFAULT_MAX_WORDS = 1 << 16


@dataclass
class AcyclicCFG:
    nonterminals: tuple[str, ...]
    terminals: int
    start: str
    productions: dict  # nonterminal -> tuple of right-hand sides (tuples of Symbol)

    @classmethod
    def build(
        cls,
        nonterminals: Sequence[str],
        terminals: int,
        start: str,
        productions: dict,
    ) -> "AcyclicCFG":
        """A grammar with its productions as tuples, one entry per declared
        nonterminal, then one per other left-hand side given.  Nothing is
        checked: the library's own grammars are acyclic by construction and
        declare every left-hand side, and ``from_json`` validates outside
        data, which rejects an undeclared one."""
        prods = {nt: () for nt in nonterminals}
        prods.update((nt, tuple(tuple(rhs) for rhs in rhss)) for nt, rhss in productions.items())
        return cls(tuple(nonterminals), terminals, start, prods)

    def size(self) -> int:
        return (
            len(self.nonterminals)
            + self.terminals
            + sum(1 + len(rhs) for rhss in self.productions.values() for rhs in rhss)
        )

    def to_json(self) -> dict:
        # productions as a flat list in declaration order; terminals as
        # {"t": index}, nonterminals as their names, empty rhs = epsilon
        def sym(s: Symbol):
            return {"t": s} if isinstance(s, int) else s

        return {
            "nonterminals": list(self.nonterminals),
            "terminals": self.terminals,
            "start": self.start,
            "productions": [
                {"lhs": nt, "rhs": [sym(s) for s in rhs]}
                for nt in self.nonterminals
                for rhs in self.productions[nt]
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AcyclicCFG":
        def sym(s) -> Symbol:
            if isinstance(s, dict):
                return json_int(s["t"])
            if isinstance(s, str):
                return s
            raise ValidationError(f"bad grammar symbol {s!r}")

        prods: dict = {}
        for prod in obj["productions"]:
            lhs = str(prod["lhs"])
            prods.setdefault(lhs, []).append(tuple(sym(s) for s in prod["rhs"]))
        g = cls.build(
            [str(nt) for nt in obj["nonterminals"]],
            json_int(obj["terminals"]),
            str(obj["start"]),
            prods,
        )
        err = validate_grammar(g)
        if err:
            raise ValidationError(err)
        return g


def validate_grammar(g: AcyclicCFG) -> Optional[str]:
    declared = set(g.nonterminals)
    if len(declared) != len(g.nonterminals):
        return "duplicate nonterminal names"
    if g.start not in declared:
        return f"start symbol {g.start!r} not declared"
    if g.terminals < 0:
        return "negative terminal count"
    if set(g.productions) - declared:
        return "productions for undeclared nonterminals"
    for nt, rhss in g.productions.items():
        for rhs in rhss:
            if len(rhs) > 2:
                return f"{nt}: right-hand side longer than two symbols"
            for s in rhs:
                if isinstance(s, str):
                    if s not in declared:
                        return f"{nt}: undeclared nonterminal {s!r}"
                elif isinstance(s, int):
                    if not 0 <= s < g.terminals:
                        return f"{nt}: terminal {s} outside 0..{g.terminals - 1}"
                else:
                    return f"{nt}: bad symbol {s!r}"
    if topo_order(g) is None:
        return "nonterminal dependencies contain a cycle"
    return None


def topo_order(g: AcyclicCFG) -> Optional[list[str]]:
    """Dependencies-first order of the nonterminals, or None on a cycle.

    A depth-first search from each nonterminal in declaration order, visiting
    dependencies in sorted order, with an explicit stack so that deep
    grammars need no recursion."""
    deps = {
        nt: sorted({s for rhs in g.productions.get(nt, ()) for s in rhs if isinstance(s, str)})
        for nt in g.nonterminals
    }
    order: list[str] = []
    state: dict[str, int] = {}  # 1 = visiting, 2 = done
    for root in g.nonterminals:
        if root in state:
            continue
        state[root] = 1
        stack = [(root, iter(deps[root]))]
        while stack:
            nt, pending = stack[-1]
            for dep in pending:
                if state.get(dep) == 1:
                    return None
                if dep not in state:
                    state[dep] = 1
                    stack.append((dep, iter(deps[dep])))
                    break
            else:
                stack.pop()
                state[nt] = 2
                order.append(nt)
    return order


def strip_useless(g: AcyclicCFG) -> AcyclicCFG:
    """Keep only nonterminals that derive some word and are reachable."""
    productive: set[str] = set()
    for nt in topo_order(g):
        if any(
            all(not isinstance(s, str) or s in productive for s in rhs)
            for rhs in g.productions.get(nt, ())
        ):
            productive.add(nt)
    reachable = {g.start}
    frontier = [g.start]
    while frontier:
        nt = frontier.pop()
        for rhs in g.productions.get(nt, ()):
            if any(isinstance(s, str) and s not in productive for s in rhs):
                continue
            for s in rhs:
                if isinstance(s, str) and s not in reachable:
                    reachable.add(s)
                    frontier.append(s)
    useful = productive & reachable
    keep = [nt for nt in g.nonterminals if nt in useful or nt == g.start]
    prods = {
        nt: tuple(
            rhs
            for rhs in g.productions.get(nt, ())
            if all(not isinstance(s, str) or s in useful for s in rhs)
        )
        for nt in keep
    }
    return AcyclicCFG.build(keep, g.terminals, g.start, prods)


def language(g: AcyclicCFG, max_len: Optional[int] = None) -> set[tuple[int, ...]]:
    """All derivable words, bottom-up over the dependency order; more than
    ``DEFAULT_MAX_WORDS`` at any step raises ``ResourceCapError``."""
    order = topo_order(g)
    assert order is not None  # checked by from_json, or acyclic by construction
    lang: dict[str, set] = {}
    for nt in order:
        words: set = set()
        for rhs in g.productions.get(nt, ()):
            pieces = [
                lang[s] if isinstance(s, str) else {(s,)} for s in rhs
            ]
            if not pieces:
                words.add(())
                continue
            combos = pieces[0]
            for nxt in pieces[1:]:
                # grown one prefix at a time, so an oversized product is
                # refused after at most the cap plus one prefix's words
                grown: set = set()
                for a in combos:
                    grown.update(a + b for b in nxt)
                    if len(grown) > DEFAULT_MAX_WORDS:
                        raise ResourceCapError(f"language exceeds {DEFAULT_MAX_WORDS} words")
                combos = grown
            for w in combos:
                if max_len is None or len(w) <= max_len:
                    words.add(w)
            if len(words) > DEFAULT_MAX_WORDS:
                raise ResourceCapError(f"language exceeds {DEFAULT_MAX_WORDS} words")
        lang[nt] = words
    return lang[g.start]


def count_derivations(g: AcyclicCFG, word: Sequence[int]) -> int:
    """Number of derivation trees of the word from the start symbol.

    Counts are memoised per (nonterminal, lo, hi) and computed top-down with
    an explicit stack, so deep grammars need no recursion: a pending count is
    a generator that yields each sub-count it needs and is sent its value."""
    word = tuple(int(t) for t in word)
    if any(not 0 <= t < g.terminals for t in word):
        return 0

    def count(nt: str, lo: int, hi: int):
        total = 0
        for rhs in g.productions.get(nt, ()):
            if len(rhs) == 0:
                total += 1 if lo == hi else 0
            elif len(rhs) == 1:
                total += yield (rhs[0], lo, hi)
            else:
                for mid in range(lo, hi + 1):
                    left = yield (rhs[0], lo, mid)
                    if left:
                        total += left * (yield (rhs[1], mid, hi))
        return total

    memo: dict = {}
    root = (g.start, 0, len(word))
    stack = [(root, count(*root))]
    value = None
    while stack:
        key, pending = stack[-1]
        try:
            need = s, lo, hi = pending.send(value)
        except StopIteration as done:
            stack.pop()
            value = memo[key] = done.value
            continue
        if isinstance(s, int):
            value = 1 if hi - lo == 1 and word[lo] == s else 0
        elif need in memo:
            value = memo[need]
        else:
            stack.append((need, count(*need)))
            value = None
    return value


def intersect_bruteforce(
    g1: AcyclicCFG, g2: AcyclicCFG, max_len: Optional[int] = None
) -> set[tuple[int, ...]]:
    return language(g1, max_len) & language(g2, max_len)


# ---------------------------------------------------------------------------
# circuit <-> grammar


def circuit_to_cfg(c: Circuit) -> AcyclicCFG:
    """Gate-for-nonterminal translation of a monotone circuit.

    Zero constants are eliminated first; the remaining constants must be
    positive.  The language of the result is exactly the circuit's monomial
    support, and when every constant is 1 the derivation-tree count of a
    word is its coefficient."""
    c = propagate_zeros(c)
    if len(c.gates) == 1 and isinstance(c.gates[0], ConstGate) and not c.gates[0].value:
        return AcyclicCFG.build(("G0",), c.n_vars, "G0", {"G0": ()})
    if not c.is_monotone():
        raise ValidationError("grammar translation requires a monotone circuit")
    prods: dict = {}

    def gate(*rhss) -> str:
        # the fold visits gates in order, so gate i is named G{i}
        name = f"G{len(prods)}"
        prods[name] = rhss
        return name

    names = c.fold(
        lambda var: gate((var,)),
        lambda value: gate(()),
        lambda l, r: gate((l,), (r,)),
        lambda l, r: gate((l, r)),
    )
    return AcyclicCFG.build(names, c.n_vars, names[c.output], prods)


def cfg_to_circuit(g: AcyclicCFG) -> Circuit:
    """Monotone circuit whose coefficient of each word is the number of
    derivation trees of that word (useless symbols contribute nothing)."""
    g = strip_useless(g)
    field = RationalField()
    builder = CircuitBuilder(g.terminals, field)
    inputs: dict[int, int] = {}
    one: Optional[int] = None

    def terminal_gate(t: int) -> int:
        if t not in inputs:
            inputs[t] = builder.input(t)
        return inputs[t]

    def epsilon_gate() -> int:
        nonlocal one
        if one is None:
            one = builder.const(1)
        return one

    gate_of: dict[str, Optional[int]] = {}
    order = topo_order(g)
    assert order is not None
    for nt in order:
        alternatives = []
        for rhs in g.productions.get(nt, ()):
            if len(rhs) == 0:
                alternatives.append(epsilon_gate())
            elif len(rhs) == 1:
                s = rhs[0]
                alternatives.append(
                    terminal_gate(s) if isinstance(s, int) else gate_of[s]
                )
            else:
                ids = [
                    terminal_gate(s) if isinstance(s, int) else gate_of[s]
                    for s in rhs
                ]
                alternatives.append(builder.mul(ids[0], ids[1]))
        gate_of[nt] = builder.add_many(alternatives)
    return builder.finish(gate_of.get(g.start))


# ---------------------------------------------------------------------------
# the mirror pair


def _mirror_core(n: int, alphabet: int) -> tuple[list[str], dict]:
    """Shared nonterminals: ANY (one letter), LEN{k} (any k letters),
    MIR{k} (w . reverse(w) with |w| = k)."""
    nts = ["ANY"]
    prods: dict = {"ANY": tuple((t,) for t in range(alphabet))}
    for k in range(1, n + 1):
        name = f"LEN{k}"
        nts.append(name)
        prods[name] = (("ANY",),) if k == 1 else (("ANY", f"LEN{k-1}"),)
    for k in range(1, n + 1):
        mir = f"MIR{k}"
        if k == 1:
            pair_names = []
            for t in range(alphabet):
                pn = f"PAIR{t}"
                nts.append(pn)
                prods[pn] = ((t, t),)
                pair_names.append(pn)
            nts.append(mir)
            prods[mir] = tuple((pn,) for pn in pair_names)
        else:
            wrap_names = []
            for t in range(alphabet):
                inner = f"IN{t}_{k}"
                outer = f"WRAP{t}_{k}"
                nts.extend([inner, outer])
                prods[inner] = ((f"MIR{k-1}", t),)
                prods[outer] = ((t, inner),)
                wrap_names.append(outer)
            nts.append(mir)
            prods[mir] = tuple((wn,) for wn in wrap_names)
    return nts, prods


def build_mirror_suffix_grammar(n: int, alphabet: int = 2) -> AcyclicCFG:
    """{ z . w . reverse(w) : |z| = |w| = n } over the given alphabet."""
    if n < 1 or alphabet < 1:
        raise ValidationError("need n >= 1 and a nonempty alphabet")
    nts, prods = _mirror_core(n, alphabet)
    nts.append("S")
    prods["S"] = ((f"LEN{n}", f"MIR{n}"),)
    return AcyclicCFG.build(nts, alphabet, "S", prods)


def build_mirror_prefix_grammar(n: int, alphabet: int = 2) -> AcyclicCFG:
    """{ w . reverse(w) . z : |z| = |w| = n } over the given alphabet."""
    if n < 1 or alphabet < 1:
        raise ValidationError("need n >= 1 and a nonempty alphabet")
    nts, prods = _mirror_core(n, alphabet)
    nts.append("S")
    prods["S"] = ((f"MIR{n}", f"LEN{n}"),)
    return AcyclicCFG.build(nts, alphabet, "S", prods)
