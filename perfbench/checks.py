"""Output checks for every job kind, run outside the timed jobs.

Each check recomputes the expected answer from the job's input files with
``oracle`` (never with the ``hadamard`` package) and returns None when the
output agrees, or a one-line reason when it does not.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import gen
import oracle

POINTS = 2  # seeded 2x2 matrix points per product check


class Inputs:
    """Parsed input files and their expansions, read once per path."""

    def __init__(self):
        self._json: dict = {}
        self._expansions: dict = {}

    def json(self, path: str) -> dict:
        if path not in self._json:
            with open(path) as fh:
                self._json[path] = json.load(fh)
        return self._json[path]

    def expansion(self, path: str) -> dict:
        if path not in self._expansions:
            obj = self.json(path)
            if "gates" in obj:
                self._expansions[path] = oracle.circuit_expand(obj)
            else:
                self._expansions[path] = oracle.expand(oracle.Program.from_json(obj))
        return self._expansions[path]


def input_status(job: gen.Job, inputs: Inputs) -> tuple[str, list]:
    """('zero' | 'nonzero', problems) for a job's program input, by expansion."""
    problems = []
    if job.kind in ("det", "span", "rand"):
        zero = not inputs.expansion(job.argv[2])
        if zero != job.info["zero"]:
            problems.append(f"{job.argv[2]}: built {'zero' if job.info['zero'] else 'nonzero'}, expands otherwise")
        return ("zero" if zero else "nonzero"), problems
    statuses = []
    for path in job.argv[2:4]:
        if path.endswith("-circuit.json"):
            continue  # produced by a prep job and checked there
        statuses.append(bool(inputs.expansion(path)))
    if not all(statuses):
        problems.append(f"{' '.join(job.argv)}: an operand expands to zero")
    return ("nonzero" if all(statuses) else "zero"), problems


def check_prep(job: gen.Job, inputs: Inputs) -> str | None:
    """A grammar circuit must count one derivation for each word of its language."""
    with open(job.argv[4]) as fh:
        got = oracle.circuit_expand(json.load(fh))
    want = {w: 1 for w in gen.mirror_suffix_words(job.info["n"], job.info["alphabet"])}
    if got != want:
        return f"{job.argv[4]}: circuit does not count the mirror language"
    return None


def check_job(job: gen.Job, text: str, inputs: Inputs, seed: str) -> str | None:
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"unreadable output ({exc})"
    try:
        return _CHECKS[job.kind](job, out, inputs, random.Random(seed))
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc})"


def _agree(evaluate, expected: dict, p, nvars: int, rng: random.Random) -> bool:
    for _ in range(POINTS):
        point = oracle.random_point(rng, p, nvars)
        if evaluate(point) != oracle.eval_poly(expected, p, point):
            return False
    return True


def _check_abp(job, out, inputs, rng):
    left, right = job.argv[2], job.argv[3]
    p = oracle.field_of(inputs.json(left))
    expected = oracle.hadamard(inputs.expansion(left), inputs.expansion(right), p)
    prog = oracle.Program.from_json(out["abp"])
    if out["nodes"] != sum(prog.sizes) or out["edges"] != len(out["abp"]["edges"]):
        return "reported sizes disagree with the program"
    if not _agree(lambda x: oracle.eval_program(prog, x), expected, p, prog.nvars, rng):
        return "product program disagrees with the oracle"
    return None


def _check_circuit(job, out, inputs, rng):
    circuit_path, prog_path = job.argv[2], job.argv[3]
    f = inputs.expansion(circuit_path)
    p = oracle.field_of(inputs.json(prog_path))
    g = oracle.expand(oracle.Program.from_json(inputs.json(prog_path)), oracle.prefix_closure(f))
    expected = oracle.hadamard(f, g, p)
    circuit = out["circuit"]
    if out["gates"] != len(circuit["gates"]):
        return "reported gate count disagrees with the circuit"
    if not _agree(lambda x: oracle.eval_circuit(circuit, x), expected, p, circuit["nvars"], rng):
        return "product circuit disagrees with the oracle"
    return None


def _check_verdict(job, out, inputs, rng):
    if out["is_zero"] != job.info["zero"]:
        return f"verdict is_zero={out['is_zero']}, built {'zero' if job.info['zero'] else 'nonzero'}"
    poly = inputs.expansion(job.argv[2])
    p = oracle.field_of(inputs.json(job.argv[2]))
    if job.kind == "det":
        if Fraction(out["value"]) != sum(Fraction(c) ** 2 for c in poly.values()):
            return "square sum differs from the oracle's"
    elif job.kind == "span" and not out["is_zero"]:
        word = tuple(out["witness"]["word"])
        if oracle.parse_coeff(out["witness"]["coeff"], p) != poly.get(word, 0):
            return f"witness {word} has another coefficient in the oracle"
    elif job.kind == "rand":
        if out["method"] != "randomized" or (out["is_zero"] and out["trials"] != gen.RAND_TRIALS):
            return "randomized verdict reports the wrong trial count"
    return None


def _check_corr(job, out, inputs, rng):
    t, p = job.info["t"], job.info["p"]
    n = t * p
    total = oracle.sign_sum(t, p)
    plus = (2**n + total) // 2  # monomials with coefficient +1 when every coefficient is +-1
    corr = Fraction(out["corr"])
    if Fraction(out["norm_f_sq"]) != 2**n:
        return "squared norm is not 2^n"
    if Fraction(out["sum_coeffs"]) != total:
        return "coefficient sum differs from the oracle's sign count"
    if corr != plus or Fraction(out["norm_g_sq"]) != plus:
        return "correlation with the 0/1 companion differs from the +1 count"
    if corr < 2 ** (n - 1) or out["meets_lower_bound"] is not True:
        return "correlation below 2^(n-1)"
    samples = {s["z"]: s["value"] for s in out["exp_sum_samples"]}
    if samples != {0: 2**n, 1: total, 2: total}:
        return "character sums differ from the oracle's"
    for entry in out["product_battery"]:
        if not 0 <= Fraction(entry["ratio_sq"]) <= 1:  # Cauchy-Schwarz
            return "battery ratio outside [0, 1]"
    return None


_CHECKS = {
    "abp": _check_abp,
    "circuit": _check_circuit,
    "det": _check_verdict,
    "span": _check_verdict,
    "rand": _check_verdict,
    "corr": _check_corr,
}
