"""Command-line front end.

Every command reads JSON files, writes one JSON object to stdout (or
``--out``), and keeps diagnostics on stderr.  Output is serialized with
sorted keys and no whitespace, so identical inputs give identical bytes.

Exit codes: 0 success, 2 bad input or validation failure, 3 a resource cap
(term, degree, or word limits) was hit or the interpreter ran out of memory.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import Optional

from .abp import ABP, nisan_ranks
from .circuits import Circuit
from .errors import (
    DEFAULT_MAX_DEGREE,
    DEFAULT_MAX_TERMS,
    HadamardError,
    ResourceCapError,
    ValidationError,
)
from .fields import Field, parse_field_spec
from .grammars import (
    AcyclicCFG,
    build_mirror_prefix_grammar,
    build_mirror_suffix_grammar,
    cfg_to_circuit,
    circuit_to_cfg,
    count_derivations,
    intersect_bruteforce,
)
from .lab import (
    ExplicitParams,
    build_f,
    exp_sum,
    full_sum_count,
    permanent_polynomials,
    permanent_via_hadamard,
    random_product_poly,
    shift_report,
    sign_correlation,
    sign_list,
)
from .pit import (
    Digraph,
    det_to_abp,
    pit_bruteforce,
    pit_randomized,
    pit_rational,
    pit_span_basis,
    reach_to_abp,
)
from .polynomials import NCPoly
from .products import hadamard_abp_detailed, hadamard_circuit_abp_detailed


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


def _emit(obj, out: Optional[str]) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
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
    return _load(path, obj, args, ABP, "branching program", "layers")


def _load_circuit(path: str, obj, args) -> Circuit:
    return _load(path, obj, args, Circuit, "circuit", "gates")


def _load_grammar(path: str) -> AcyclicCFG:
    return _parse(path, AcyclicCFG.from_json, _read_json(path))


def _load_rows(path: str, what: str) -> list:
    """A rational matrix given as a JSON array of rows."""
    obj = _read_json(path)
    if not isinstance(obj, list):
        raise ValidationError(f"{what} input must be a JSON array of rows")
    return _parse(path, lambda: [[Fraction(str(x)) for x in row] for row in obj])


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_pit(args) -> dict:
    p = _load_abp(args.program, _read_json(args.program), args)
    if args.tester == "det":
        verdict = pit_rational(p)
    elif args.tester == "span":
        verdict = pit_span_basis(p)
    elif args.tester == "rand":
        verdict = pit_randomized(p, trials=args.trials, seed=args.seed)
    else:
        verdict = pit_bruteforce(p, max_terms=args.max_terms)
    return verdict.to_json()


def cmd_hadamard(args) -> dict:
    if args.shape == "circuit-abp":
        c = _load_circuit(args.left, _read_json(args.left), args)
        p = _load_abp(args.right, _read_json(args.right), args)
        detail = hadamard_circuit_abp_detailed(c, p)
        gates, wires = detail.circuit.size()
        return {
            "circuit": detail.circuit.to_json(),
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
        "abp": detail.abp.to_json(),
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


def cmd_cfg(args) -> dict:
    needs_input = {"to-circuit", "from-circuit", "count", "intersect"}
    if args.action in needs_input and not args.input:
        raise ValidationError(f"cfg {args.action} needs an input file")
    if args.action == "to-circuit":
        return cfg_to_circuit(_load_grammar(args.input)).to_json()
    if args.action == "from-circuit":
        c = _load_circuit(args.input, _read_json(args.input), args)
        return circuit_to_cfg(c).to_json()
    if args.action == "count":
        g = _load_grammar(args.input)
        word = _parse("--word", lambda: [int(x) for x in args.word.split(",")]) if args.word else []
        return {"word": word, "count": count_derivations(g, word)}
    if args.action == "intersect":
        if not args.other:
            raise ValidationError("cfg intersect needs two grammar files")
        g1 = _load_grammar(args.input)
        g2 = _load_grammar(args.other)
        words = sorted(intersect_bruteforce(g1, g2, max_len=args.max_len))
        return {"words": [list(w) for w in words], "count": len(words)}
    if args.action == "gen-mirror-suffix":
        return build_mirror_suffix_grammar(args.n, args.alphabet).to_json()
    return build_mirror_prefix_grammar(args.n, args.alphabet).to_json()


def cmd_reduce(args) -> dict:
    if args.kind == "det2abp":
        return det_to_abp(_load_rows(args.input, "determinant")).to_json()
    g = _parse(args.input, Digraph.from_json, _read_json(args.input))
    return reach_to_abp(g).to_json()


def cmd_lab(args) -> dict:
    if args.action == "perm":
        if args.input:
            rows = _load_rows(args.input, "permanent")
            return {"n": len(rows), "permanent": str(permanent_via_hadamard(rows))}
        # no matrix: emit the symbolic product, one monomial per permutation
        if args.n is None:
            raise ValidationError("lab perm needs a matrix file or --n")
        r, c = permanent_polynomials(args.n)
        prod = r.hadamard(c)
        return {"n": args.n, "monomials": len(prod.terms), "poly": prod.to_json()}
    params = ExplicitParams(args.t, args.p)
    if args.action == "build-f":
        f = build_f(params, max_terms=args.max_terms)
        return f.to_json()
    if args.action == "corr":
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
    # expsum
    sets = None
    if args.sets is None:
        full_sum_count(params, args.max_terms)  # refused before the field is built
    else:
        sets = _parse("--sets", lambda: [_decode_set(params.field, g) for g in args.sets.split(";")])
    z = _decode_set(params.field, str(args.z))[0]  # --z is one element code
    value = exp_sum(params, z=z, sets=sets, max_terms=args.max_terms)
    return {"t": args.t, "p": args.p, "z": args.z, "value": value}


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


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hadamard",
        description="Hadamard products of noncommutative polynomials: "
        "branching programs, circuits, identity tests, grammar bridges, "
        "and an exact correlation lab.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, handler, help, field=False, max_terms=False, max_degree=False):
        """A subcommand parser with --out and the shared options its handler reads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="write the JSON result to this file")
        if field:
            p.add_argument("--field", help="fallback field for files without one: q, fp:P, or fpk:P:K")
        if max_terms:
            p.add_argument(
                "--max-terms", type=int, default=DEFAULT_MAX_TERMS, help="cap on expanded terms / matrix entries"
            )
        if max_degree:
            p.add_argument(
                "--max-degree", type=int, default=DEFAULT_MAX_DEGREE, help="cap on circuit expansion degree"
            )
        return p

    p_pit = command("pit", cmd_pit, "identity-test a branching program", field=True, max_terms=True)
    p_pit.add_argument("tester", choices=["det", "span", "rand", "brute"])
    p_pit.add_argument("program", help="branching-program JSON file")
    p_pit.add_argument("--trials", type=int, default=20)
    p_pit.add_argument("--seed", type=int, default=0)

    p_had = command("hadamard", cmd_hadamard, "build a coefficient-wise product", field=True)
    p_had.add_argument("shape", choices=["abp", "circuit-abp"])
    p_had.add_argument("left", help="program (abp) or circuit (circuit-abp) JSON file")
    p_had.add_argument("right", help="program JSON file")

    p_nis = command(
        "nisan", cmd_nisan, "communication-matrix ranks of a polynomial", field=True, max_terms=True
    )
    p_nis.add_argument("input", help="polynomial or branching-program JSON")

    p_exp = command(
        "expand",
        cmd_expand,
        "expand a program or circuit into terms",
        field=True,
        max_terms=True,
        max_degree=True,
    )
    p_exp.add_argument("input")

    p_cfg = command("cfg", cmd_cfg, "grammar/circuit translations and counting", field=True)
    p_cfg.add_argument(
        "action",
        choices=[
            "to-circuit",
            "from-circuit",
            "count",
            "intersect",
            "gen-mirror-suffix",
            "gen-mirror-prefix",
        ],
    )
    p_cfg.add_argument("input", nargs="?", help="grammar or circuit JSON file")
    p_cfg.add_argument("other", nargs="?", help="second grammar (intersect)")
    p_cfg.add_argument("--word", help="comma-separated terminals (count)")
    p_cfg.add_argument("--max-len", type=int, default=None)
    p_cfg.add_argument("--n", type=int, default=1, help="mirror block length")
    p_cfg.add_argument("--alphabet", type=int, default=2)

    p_red = command("reduce", cmd_reduce, "encode a determinant or reachability query")
    p_red.add_argument("kind", choices=["det2abp", "reach2abp"])
    p_red.add_argument("input")

    p_lab = command("lab", cmd_lab, "sign-polynomial lab and the permanent", max_terms=True)
    p_lab.add_argument("action", choices=["build-f", "corr", "expsum", "perm"])
    p_lab.add_argument("input", nargs="?", help="matrix JSON (perm)")
    p_lab.add_argument("--n", type=int, default=None, help="grid size (perm)")
    p_lab.add_argument("--t", type=int, default=1, help="number of blocks")
    p_lab.add_argument("--p", type=int, default=2, help="block width (prime)")
    p_lab.add_argument("--z", type=int, default=1, help="character twist (expsum), an element code")
    p_lab.add_argument(
        "--sets",
        help="expsum summation sets: groups split on ';', element codes on ','",
    )
    p_lab.add_argument("--battery", type=int, default=5, help="corr battery size")
    p_lab.add_argument("--seed", type=int, default=0, help="corr battery seed")
    p_lab.add_argument("--threads", type=int, default=1, help="accepted; has no effect")

    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    command = " ".join(str(part) for part in (args.command, getattr(args, "shape", None)) if part)
    print(f"resource cap: out of memory in '{command}'", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
