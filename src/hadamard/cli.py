"""Command-line front end.

Every command reads JSON files, writes one JSON object to stdout (or
``--out``), and keeps diagnostics on stderr.  Output is serialized with
sorted keys and no whitespace, so identical inputs give identical bytes.
A value with its own ``json_text`` method (a program or circuit) is written
by that method, in those same bytes, with no dict built per edge or gate.

Each command loads only the modules its handler needs: a handler imports
inside its body, so importing this module and building the parser load
only ``errors`` from the package.

Exit codes: 0 success, 2 bad input or validation failure, 3 a resource cap
(term, degree, or word limits) was hit or the interpreter ran out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING, Optional

from .errors import (
    DEFAULT_MAX_DEGREE,
    DEFAULT_MAX_TERMS,
    HadamardError,
    ResourceCapError,
    ValidationError,
)

if TYPE_CHECKING:
    from .abp import ABP
    from .circuits import Circuit
    from .fields import Field
    from .grammars import AcyclicCFG


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"no such file: {path}")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read ({exc.strerror})")
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ValidationError(f"{path}: invalid JSON ({exc})")


def _value_text(value) -> str:
    """A value with a ``json_text`` method (a program or circuit) through
    that method; any other value through ``fields.json_text``."""
    from .fields import json_text

    writer = getattr(value, "json_text", None)
    return writer() if writer else json_text(value)


def _emit(obj, out: Optional[str]) -> None:
    """Write obj's JSON text and a newline to ``out`` or stdout.  A dict is
    written key by key in sorted order, which for string keys gives the bytes
    of ``fields.json_text``; a program or circuit, the result itself or a
    value of the dict, is written by its own writer.  The whole text is formed
    first, so a failure while forming it leaves stdout empty and no file."""
    if isinstance(obj, dict):
        text = "{" + ",".join(f"{_value_text(k)}:{_value_text(obj[k])}" for k in sorted(obj)) + "}\n"
    else:
        text = _value_text(obj) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"{out}: cannot write ({exc.strerror})")
    else:
        sys.stdout.write(text)


_DECODE_ERRORS = (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError)


def _parse(source: str, decode, *args):
    """decode(*args), with a malformed value reported as a ValidationError
    that names the file or flag it came from."""
    try:
        return decode(*args)
    except _DECODE_ERRORS as exc:
        raise ValidationError(f"{source}: malformed input ({type(exc).__name__}: {exc})") from None


def _default_field(args) -> Optional[Field]:
    from .fields import parse_field_spec

    return _parse("--field", parse_field_spec, args.field) if args.field else None


def _load(path: str, obj, args, cls, what: str, key: str):
    """A ``cls`` decoded from ``obj``, the JSON read from ``path``, which must
    be an object with ``key``; over the field it names or else --field."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"{path}: not a {what} (no {key!r})")
    field = None
    if "field" not in obj:
        field = _default_field(args)
        if field is None:
            raise ValidationError(f"{path}: no field in file; pass --field")
    return _parse(path, cls.from_json, obj, field)


def _load_abp(path: str, obj, args) -> ABP:
    from .abp import ABP

    return _load(path, obj, args, ABP, "branching program", "layers")


def _load_circuit(path: str, obj, args) -> Circuit:
    from .circuits import Circuit

    return _load(path, obj, args, Circuit, "circuit", "gates")


def _load_grammar(path: str) -> AcyclicCFG:
    from .grammars import AcyclicCFG

    return _parse(path, AcyclicCFG.from_json, _read_json(path))


def _load_rows(path: str, what: str) -> list:
    """A rational matrix given as a JSON array of rows, each entry read as a
    rational coefficient is."""
    from .fields import RationalField

    obj = _read_json(path)
    if not isinstance(obj, list):
        raise ValidationError(f"{what} input must be a JSON array of rows")
    return _parse(path, lambda: [[RationalField().coeff_from_json(str(x)) for x in row] for row in obj])


# ---------------------------------------------------------------------------
# subcommand handlers


def _load_program(args) -> ABP:
    return _load_abp(args.program, _read_json(args.program), args)


def cmd_pit_det(args) -> dict:
    from .pit import pit_rational

    return pit_rational(_load_program(args)).to_json()


def cmd_pit_span(args) -> dict:
    from .pit import pit_span_basis

    return pit_span_basis(_load_program(args)).to_json()


def cmd_pit_rand(args) -> dict:
    from .pit import pit_randomized

    return pit_randomized(_load_program(args), trials=args.trials, seed=args.seed).to_json()


def cmd_pit_brute(args) -> dict:
    from .pit import pit_bruteforce

    return pit_bruteforce(_load_program(args), max_terms=args.max_terms).to_json()


def cmd_hadamard(args) -> dict:
    from .products import hadamard_abp_detailed, hadamard_circuit_abp_detailed

    if args.shape == "circuit-abp":
        c = _load_circuit(args.left, _read_json(args.left), args)
        p = _load_abp(args.right, _read_json(args.right), args)
        detail = hadamard_circuit_abp_detailed(c, p)
        gates, wires = detail.circuit.size()
        return {
            "circuit": detail.circuit,
            "gates": gates,
            "wires": wires,
            "per_degree": [
                {"degree": k, "present": gate is not None} for k, gate in detail.per_degree
            ],
        }
    p = _load_abp(args.left, _read_json(args.left), args)
    # a self-product parses its file once, and the product reuses p's parts
    q = p if args.right == args.left else _load_abp(args.right, _read_json(args.right), args)
    detail = hadamard_abp_detailed(p, q)
    return {
        "abp": detail.abp,
        "nodes": detail.abp.node_count(),
        "edges": detail.abp.edge_count(),
        "unpruned_nodes": detail.unpruned_nodes,
        "per_degree": [
            {
                "degree": rec.degree,
                "left_sizes": list(rec.left_sizes),
                "right_sizes": list(rec.right_sizes),
                "product_sizes": list(rec.product_sizes),
            }
            for rec in detail.per_degree
        ],
    }


def cmd_nisan(args) -> dict:
    from .abp import nisan_ranks
    from .polynomials import NCPoly

    obj = _read_json(args.input)
    if isinstance(obj, dict) and "layers" in obj:
        ranks = nisan_ranks(_load_abp(args.input, obj, args))
    else:
        ranks = _load(args.input, obj, args, NCPoly, "polynomial", "terms").nisan_ranks(args.max_terms)
    if not ranks:
        return {"degree": None, "ranks": [], "total": 0}
    return {"degree": len(ranks) - 1, "ranks": ranks, "total": sum(ranks)}


def cmd_expand(args) -> dict:
    obj = _read_json(args.input)
    if isinstance(obj, dict) and "layers" in obj:
        f = _load_abp(args.input, obj, args).expand(max_terms=args.max_terms)
    elif isinstance(obj, dict) and "gates" in obj:
        f = _load_circuit(args.input, obj, args).expand(
            max_degree=args.max_degree, max_terms=args.max_terms
        )
    else:
        raise ValidationError(f"{args.input}: neither a program nor a circuit")
    return f.to_json()


def cmd_cfg_to_circuit(args) -> Circuit:
    from .grammars import cfg_to_circuit

    return cfg_to_circuit(_load_grammar(args.input))


def cmd_cfg_from_circuit(args) -> dict:
    from .grammars import circuit_to_cfg

    return circuit_to_cfg(_load_circuit(args.input, _read_json(args.input), args)).to_json()


def cmd_cfg_count(args) -> dict:
    from .grammars import count_derivations

    g = _load_grammar(args.input)
    word = _parse("--word", lambda: [int(x) for x in args.word.split(",")]) if args.word else []
    return {"word": word, "count": count_derivations(g, word)}


def cmd_cfg_intersect(args) -> dict:
    from .grammars import intersect_bruteforce

    g1 = _load_grammar(args.input)
    g2 = _load_grammar(args.other)
    words = sorted(intersect_bruteforce(g1, g2, max_len=args.max_len))
    return {"words": [list(w) for w in words], "count": len(words)}


def cmd_cfg_mirror_suffix(args) -> dict:
    from .grammars import build_mirror_suffix_grammar

    return build_mirror_suffix_grammar(args.n, args.alphabet).to_json()


def cmd_cfg_mirror_prefix(args) -> dict:
    from .grammars import build_mirror_prefix_grammar

    return build_mirror_prefix_grammar(args.n, args.alphabet).to_json()


def cmd_reduce(args) -> ABP:
    from .pit import Digraph, det_to_abp, reach_to_abp

    if args.kind == "det2abp":
        return det_to_abp(_load_rows(args.input, "determinant"))
    g = _parse(args.input, Digraph.from_json, _read_json(args.input))
    return reach_to_abp(g)


def cmd_lab_build_f(args) -> dict:
    from .lab import ExplicitParams, build_f

    return build_f(ExplicitParams(args.t, args.p), max_terms=args.max_terms).to_json()


def cmd_lab_corr(args) -> dict:
    import random
    from fractions import Fraction

    from .lab import (
        ExplicitParams,
        exp_sum,
        random_product_poly,
        shift_report,
        sign_correlation,
        sign_list,
    )

    params = ExplicitParams(args.t, args.p)
    signs = sign_list(params, max_terms=args.max_terms)
    rep = shift_report(signs)
    out = rep.to_json()
    out["t"], out["p"] = args.t, args.p
    out["sum_coeffs"] = str(2 * rep.corr - rep.norm_f_sq)  # P signs +1, N - P signs -1
    out["lower_bound"] = str(Fraction(2) ** (params.n - 1))
    out["meets_lower_bound"] = rep.corr >= Fraction(2) ** (params.n - 1)
    rng = random.Random(args.seed)
    battery = []
    for _ in range(args.battery):
        split = random_product_poly(params, rng)
        r = sign_correlation(signs, split.poly())
        battery.append({"corr": str(r.corr), "ratio_sq": str(r.ratio_sq)})
    out["product_battery"] = battery
    field = params.field
    out["exp_sum_samples"] = [
        {"z": code, "value": exp_sum(params, z=z, max_terms=args.max_terms)}
        for z, code in (
            (field.zero(), 0),
            (field.one(), 1),
            (field.gen(), field.p),
        )
    ]
    return out


def cmd_lab_expsum(args) -> dict:
    from .lab import ExplicitParams, exp_sum, full_sum_count

    params = ExplicitParams(args.t, args.p)
    sets = None
    if args.sets is None:
        full_sum_count(params, args.max_terms)  # refused before the field is built
    else:
        sets = _parse("--sets", lambda: [_decode_set(params.field, g) for g in args.sets.split(";")])
    z = _decode_set(params.field, str(args.z))[0]  # --z is one element code
    value = exp_sum(params, z=z, sets=sets, max_terms=args.max_terms)
    return {"t": args.t, "p": args.p, "z": args.z, "value": value}


def cmd_lab_perm(args) -> dict:
    from .fields import RationalField
    from .lab import permanent_polynomials, permanent_via_hadamard

    if args.input is not None:  # argparse takes a matrix file or --n, not both
        rows = _load_rows(args.input, "permanent")
        return {"n": len(rows), "permanent": RationalField().coeff_to_json(permanent_via_hadamard(rows))}
    # no matrix: emit the symbolic product, one monomial per permutation
    r, c = permanent_polynomials(args.n)
    prod = r.hadamard(c)
    return {"n": args.n, "monomials": len(prod.terms), "poly": prod.to_json()}


def _decode_set(field, group: str) -> list:
    """Comma-separated element codes -> field elements (code digits base p)."""
    out = []
    for tok in group.split(","):
        tok = tok.strip()
        if not tok:
            continue
        code = int(tok)
        if not 0 <= code < field.order:
            raise ValidationError(f"element code {code} outside 0..{field.order - 1}")
        digits = []
        for _ in range(field.k):
            code, digit = divmod(code, field.p)
            digits.append(digit)
        out.append(field.from_coeffs(digits))
    return out


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing does not
    change it."""
    top = argparse.ArgumentParser(
        prog="hadamard",
        description="Hadamard products of noncommutative polynomials: "
        "branching programs, circuits, identity tests, grammar bridges, "
        "and an exact correlation lab.",
    )
    commands = top.add_subparsers(dest="command", required=True)

    def nonnegative(text: str) -> int:
        """A count or cap: an integer, 0 or more, else exit 2 with the usage."""
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"invalid nonnegative value: {text!r}")
        return value

    def leaf(sub, name, handler, help, field=False, max_terms=False, max_degree=False):
        """The parser of one command or action, with --out and the shared
        options its handler reads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="write the JSON result to this file")
        if field:
            p.add_argument("--field", help="fallback field for files without one: q, fp:P, or fpk:P:K")
        if max_terms:
            p.add_argument(
                "--max-terms",
                type=nonnegative,
                default=DEFAULT_MAX_TERMS,
                help="cap on expanded terms / matrix entries",
            )
        if max_degree:
            p.add_argument(
                "--max-degree", type=nonnegative, default=DEFAULT_MAX_DEGREE, help="cap on circuit expansion degree"
            )
        return p

    def actions(name, help):
        """A command whose actions each have their own parser."""
        return commands.add_parser(name, help=help).add_subparsers(dest="action", required=True)

    pit = actions("pit", "identity-test a branching program")
    det = leaf(pit, "det", cmd_pit_det, "square-sum test (rational programs)", field=True)
    span = leaf(pit, "span", cmd_pit_span, "forward span test, with a witness word", field=True)
    rand = leaf(pit, "rand", cmd_pit_rand, "seeded random evaluations", field=True)
    rand.add_argument("--trials", type=int, default=20)
    rand.add_argument("--seed", type=int, default=0)
    brute = leaf(pit, "brute", cmd_pit_brute, "expand and read the terms", field=True, max_terms=True)
    for p in (det, span, rand, brute):
        p.add_argument("program", help="branching-program JSON file")

    p_had = leaf(commands, "hadamard", cmd_hadamard, "build a coefficient-wise product", field=True)
    p_had.add_argument("shape", choices=["abp", "circuit-abp"])
    p_had.add_argument("left", help="program (abp) or circuit (circuit-abp) JSON file")
    p_had.add_argument("right", help="program JSON file")

    p_nis = leaf(
        commands, "nisan", cmd_nisan, "communication-matrix ranks of a polynomial", field=True, max_terms=True
    )
    p_nis.add_argument("input", help="polynomial or branching-program JSON")

    p_exp = leaf(
        commands,
        "expand",
        cmd_expand,
        "expand a program or circuit into terms",
        field=True,
        max_terms=True,
        max_degree=True,
    )
    p_exp.add_argument("input")

    cfg = actions("cfg", "grammar/circuit translations and counting")
    to_circuit = leaf(cfg, "to-circuit", cmd_cfg_to_circuit, "grammar to monotone circuit")
    to_circuit.add_argument("input", help="grammar JSON file")
    from_circuit = leaf(cfg, "from-circuit", cmd_cfg_from_circuit, "monotone circuit to grammar", field=True)
    from_circuit.add_argument("input", help="circuit JSON file")
    count = leaf(cfg, "count", cmd_cfg_count, "derivations of a word")
    count.add_argument("input", help="grammar JSON file")
    count.add_argument("--word", help="comma-separated terminals")
    intersect = leaf(cfg, "intersect", cmd_cfg_intersect, "the words two grammars share")
    intersect.add_argument("input", help="grammar JSON file")
    intersect.add_argument("other", help="second grammar JSON file")
    intersect.add_argument("--max-len", type=nonnegative, default=None)
    for name, handler in (
        ("gen-mirror-suffix", cmd_cfg_mirror_suffix),
        ("gen-mirror-prefix", cmd_cfg_mirror_prefix),
    ):
        mirror = leaf(cfg, name, handler, "a mirror grammar")
        mirror.add_argument("--n", type=int, default=1, help="mirror block length")
        mirror.add_argument("--alphabet", type=int, default=2)

    p_red = leaf(commands, "reduce", cmd_reduce, "encode a determinant or reachability query")
    p_red.add_argument("kind", choices=["det2abp", "reach2abp"])
    p_red.add_argument("input")

    lab = actions("lab", "sign-polynomial lab and the permanent")
    build = leaf(lab, "build-f", cmd_lab_build_f, "the sign polynomial F", max_terms=True)
    build.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    corr = leaf(lab, "corr", cmd_lab_corr, "correlation report", max_terms=True)
    corr.add_argument("--battery", type=nonnegative, default=5, help="battery size")
    corr.add_argument("--seed", type=int, default=0, help="battery seed")
    expsum = leaf(lab, "expsum", cmd_lab_expsum, "a character sum", max_terms=True)
    expsum.add_argument("--z", type=int, default=1, help="character twist, an element code")
    expsum.add_argument("--sets", help="summation sets: groups split on ';', element codes on ','")
    for p in (build, corr, expsum):
        p.add_argument("--t", type=int, default=1, help="number of blocks")
        p.add_argument("--p", type=int, default=2, help="block width (prime)")
    perm = leaf(lab, "perm", cmd_lab_perm, "the permanent as a Hadamard product")
    matrix_or_n = perm.add_mutually_exclusive_group(required=True)
    matrix_or_n.add_argument("input", nargs="?", help="matrix JSON file: its permanent")
    matrix_or_n.add_argument("--n", type=int, help="grid size: the symbolic product")

    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.handler(args), args.out)
        return 0
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, HadamardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass  # reported below, once the frames holding the memory are gone
    command = " ".join(getattr(args, dest) for dest in ("command", "action", "shape") if hasattr(args, dest))
    print(f"resource cap: out of memory in '{command}'", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
