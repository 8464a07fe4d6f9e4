"""End-to-end checks of the command-line surface via subprocess."""

import argparse
import ast
import contextlib
import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hadamard import cli, fields
from hadamard.abp import ABP, LinearForm
from hadamard.circuits import AddGate, Circuit, CircuitBuilder, InputGate, MulGate
from hadamard.cli import main
from hadamard.errors import DEFAULT_MAX_TERMS
from hadamard.grammars import DEFAULT_MAX_WORDS, build_mirror_suffix_grammar
from hadamard.fields import PRIME_TEST_BOUND, ExtField, PrimeField, RationalField, _poly_mul, find_irreducible
from hadamard.polynomials import NCPoly
from helpers import cancel_join, cancelling_abp, dead_end, homogeneous_abp, random_abp, random_circuit

Q = RationalField()
F2 = PrimeField(2)
F5 = PrimeField(5)
F4 = ExtField.make(2, 2)


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "hadamard", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def two_path_abp(scale):
    # x1*(1) + x1*(scale): zero program when scale == -1
    edges = {
        (0, 0, 0): LinearForm.of_var(Q, 1),
        (0, 0, 1): LinearForm.of_var(Q, 1),
        (1, 0, 0): LinearForm.constant(Q, 1),
        (1, 1, 0): LinearForm.constant(Q, scale),
    }
    return ABP.build(3, Q, (1, 2, 1), edges)


def swap_abp():
    # x0x1 + x1x0 over F5
    edges = {
        (0, 0, 0): LinearForm.of_var(F5, 0),
        (0, 0, 1): LinearForm.of_var(F5, 1),
        (1, 0, 0): LinearForm.of_var(F5, 1),
        (1, 1, 0): LinearForm.of_var(F5, 0),
    }
    return ABP.build(2, F5, (1, 2, 1), edges)


def test_pit_det_verdicts(tmp_path):
    zp = write_json(tmp_path / "z.json", two_path_abp(-1).to_json())
    np_ = write_json(tmp_path / "n.json", two_path_abp(2).to_json())
    code, out, _ = run_cli("pit", "det", zp)
    assert code == 0
    assert json.loads(out) == json.loads(out)  # valid JSON
    assert json.loads(out)["is_zero"] is True
    code, out, _ = run_cli("pit", "span", np_)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["is_zero"] is False
    assert verdict["witness"]["word"] == [1]


def test_pit_rand_seed_reproducible(tmp_path):
    path = write_json(tmp_path / "p.json", swap_abp().to_json())
    runs = [run_cli("pit", "rand", path, "--seed", "3", "--trials", "8") for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    assert json.loads(runs[0][1])["is_zero"] is False


def test_hadamard_abp_output_reingests(tmp_path):
    p = two_path_abp(2)
    path = write_json(tmp_path / "p.json", p.to_json())
    code, out, _ = run_cli("hadamard", "abp", path, path)
    assert code == 0
    report = json.loads(out)
    product = ABP.from_json(report["abp"])
    assert product.expand() == p.expand().hadamard(p.expand())
    for rec in report["per_degree"]:
        for lw, rw, pw in zip(
            rec["left_sizes"], rec["right_sizes"], rec["product_sizes"]
        ):
            assert pw == lw * rw


def test_hadamard_circuit_abp(tmp_path):
    b = CircuitBuilder(2, F5)
    s = b.add(b.input(0), b.input(1))
    circ = b.finish(b.mul(s, s))
    cpath = write_json(tmp_path / "c.json", circ.to_json())
    ppath = write_json(tmp_path / "p.json", swap_abp().to_json())
    code, out, _ = run_cli("hadamard", "circuit-abp", cpath, ppath)
    assert code == 0
    report = json.loads(out)
    from hadamard.circuits import Circuit

    result = Circuit.from_json(report["circuit"])
    want = circ.expand().hadamard(swap_abp().expand())
    assert result.expand() == want


def test_hadamard_options_before_the_shape(tmp_path):
    path = write_json(tmp_path / "p.json", two_path_abp(2).to_json())
    bare_obj = two_path_abp(2).to_json()
    del bare_obj["field"]
    bare = write_json(tmp_path / "bare.json", bare_obj)
    out_path = tmp_path / "o.json"
    code, out, _ = run_cli("hadamard", "--out", str(out_path), "abp", path, path)
    assert code == 0 and out == ""
    assert out_path.read_text() == run_cli("hadamard", "abp", path, path)[1]
    code, out, _ = run_cli("hadamard", "--field", "fp:5", "abp", bare, bare)
    assert code == 0 and json.loads(out)["abp"]["field"] == {"kind": "Fp", "p": 5}


def test_options_a_command_does_not_read_are_refused(tmp_path):
    program = write_json(tmp_path / "p.json", two_path_abp(2).to_json())
    matrix = write_json(tmp_path / "m.json", [[1, 2], [3, 4]])
    for argv, option in (
        (("reduce", "det2abp", matrix, "--field", "fp:5"), "--field"),
        (("hadamard", "abp", program, program, "--max-terms", "3"), "--max-terms"),
        (("lab", "corr", "--max-degree", "1"), "--max-degree"),
        # options that another action of the same command reads
        (("lab", "corr", "--z", "5", "--sets", "1", "--n", "3"), "--z"),
        (("pit", "det", program, "--trials", "5", "--seed", "3"), "--trials"),
        (("pit", "span", program, "--max-terms", "1"), "--max-terms"),
        (("cfg", "gen-mirror-suffix", "--n", "1", "--word", "0,1", "--field", "q"), "--word"),
        # a matrix file or --n, not both
        (("lab", "perm", matrix, "--n", "4"), "--n"),
    ):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == "" and err.startswith("usage: ") and option in err, (argv, err)


def test_an_option_before_the_action_is_refused(tmp_path):
    program = write_json(tmp_path / "p.json", two_path_abp(2).to_json())
    code, out, err = run_cli("pit", "--out", str(tmp_path / "o.json"), "det", program)
    assert code == 2 and out == "" and err.startswith("usage: hadamard pit ")
    assert not (tmp_path / "o.json").exists()


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    zero = write_json(tmp_path / "z.json", cancelling_abp(random.Random(0), F5, depth=2).to_json())
    code, out, _ = run_main("pit", "rand", zero, "--trials", "3")
    assert code == 0 and json.loads(out)["trials"] == 3
    code, out, _ = run_main("pit", "rand", zero)
    assert code == 0 and json.loads(out)["trials"] == 20


_PRINT_LOADED = "import sys; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'hadamard'))"


def _loaded_after(code: str) -> list[str]:
    """The ``hadamard`` modules a fresh interpreter holds after running code."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{_PRINT_LOADED}"], capture_output=True, text=True, check=True
    )
    return proc.stdout.split()


def test_importing_the_command_line_and_building_its_parser_loads_only_errors():
    code = "import hadamard.cli\nhadamard.cli.build_parser()"
    assert _loaded_after(code) == ["hadamard", "hadamard.cli", "hadamard.errors"]


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (("lab", "corr", "--t", "1", "--p", "3"), {"abp", "circuits", "grammars", "pit", "products"}),
        (("pit", "det", "{}"), {"grammars", "lab", "products"}),
        (("hadamard", "abp", "{}", "{}"), {"grammars", "lab", "pit"}),
    ],
    ids=["lab corr", "pit det", "hadamard abp"],
)
def test_a_command_loads_only_the_modules_its_handler_needs(argv, unloaded, tmp_path):
    program = write_json(tmp_path / "p.json", two_path_abp(2).to_json())
    argv = [program if a == "{}" else a for a in argv]
    code = (
        "import contextlib, io\n"
        "from hadamard.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0"
    )
    loaded = {name.removeprefix("hadamard.") for name in _loaded_after(code)}
    assert not loaded & unloaded


@pytest.mark.parametrize(
    "option, argv, zero_exits",
    [
        ("--battery", ("lab", "corr", "--t", "1", "--p", "3"), 0),
        ("--max-len", ("cfg", "intersect", "{grammar}", "{grammar}"), 0),
        ("--max-terms", ("expand", "{program}"), 3),
        ("--max-degree", ("expand", "{circuit}"), 3),
    ],
    ids=["--battery", "--max-len", "--max-terms", "--max-degree"],
)
def test_a_negative_count_exits_2_with_the_usage_and_zero_is_accepted(option, argv, zero_exits, tmp_path):
    b = CircuitBuilder(2, F5)
    s = b.add(b.input(0), b.input(1))
    files = {
        "{grammar}": write_json(tmp_path / "g.json", build_mirror_suffix_grammar(1, 2).to_json()),
        "{program}": write_json(tmp_path / "p.json", swap_abp().to_json()),
        "{circuit}": write_json(tmp_path / "c.json", b.finish(b.mul(s, s)).to_json()),
    }
    argv = [files.get(a, a) for a in argv]
    code, out, err = run_cli(*argv, option, "-1")
    assert code == 2 and out == "" and err.startswith("usage: ")
    assert f"argument {option}: invalid nonnegative value: '-1'" in err
    code, _, err = run_cli(*argv, option, "0")
    assert code == zero_exits, err


def _is_args(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "args"


def _taken(test, choice: dict):
    """Whether ``if test`` runs its body on a command line that chose
    ``choice`` (dest -> value), when test is ``args.D == "v"`` for a D in
    choice; else None."""
    if (
        isinstance(test, ast.Compare)
        and [type(op) for op in test.ops] == [ast.Eq]
        and isinstance(test.left, ast.Attribute)
        and _is_args(test.left.value)
        and test.left.attr in choice
        and isinstance(test.comparators[0], ast.Constant)
    ):
        return choice[test.left.attr] == test.comparators[0].value
    return None


def _on_path(stmts, choice: dict):
    """The nodes of stmts a command line that chose ``choice`` can reach: an
    ``if args.D == "v"`` on a chosen D runs one branch, and a taken branch
    that ends in return or raise ends the block."""
    for stmt in stmts:
        taken = _taken(stmt.test, choice) if isinstance(stmt, ast.If) else None
        if taken is None:
            yield from ast.walk(stmt)
            continue
        yield from ast.walk(stmt.test)
        branch = stmt.body if taken else stmt.orelse
        yield from _on_path(branch, choice)
        if branch and isinstance(branch[-1], (ast.Return, ast.Raise)):
            return


def _args_reads(choice: dict) -> dict:
    """For each module-level function of cli.py: the attribute names it reads
    off ``args`` (``args.X`` or ``getattr(args, "X")``) and the module-level
    functions it calls, on the path a command line that chose ``choice`` takes."""
    tree = ast.parse(Path(cli.__file__).read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    out = {}
    for name, fn in funcs.items():
        reads, calls = set(), set()
        for node in _on_path(fn.body, choice):
            if isinstance(node, ast.Attribute) and _is_args(node.value):
                reads.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "getattr" and _is_args(node.args[0]) and isinstance(node.args[1], ast.Constant):
                    reads.add(node.args[1].value)
                elif node.func.id in funcs:
                    calls.add(node.func.id)
        out[name] = (reads, calls)
    return out


def _action_parsers():
    """(name, parser, choice) for every command and action a command line can
    name: a parser of each subparser group, and a leaf parser once per value
    of its positional choice, with choice mapping that positional to the value."""
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in commands.choices.items():
        actions = next((a for a in parser._actions if not a.option_strings and a.choices), None)
        if actions is None:
            yield command, parser, {}
        elif isinstance(actions, argparse._SubParsersAction):
            for action, sub in actions.choices.items():
                yield f"{command} {action}", sub, {}
        else:
            for value in actions.choices:
                yield f"{command} {value}", parser, {actions.dest: value}


# accepted and without effect, so that runs compare equal across settings
_UNREAD_BY_DESIGN = {("lab build-f", "threads")}


def test_every_declared_option_is_read():
    unread = []
    for name, parser, choice in _action_parsers():
        funcs = _args_reads(choice)
        handler = parser.get_default("handler")
        todo, seen = ["main"] + ([handler.__name__] if handler else []), set()
        while todo:
            fn = todo.pop()
            if fn not in seen:
                seen.add(fn)
                todo.extend(funcs[fn][1])
        read = set().union(*(funcs[fn][0] for fn in seen))
        for action in parser._actions:
            if action.dest != "help" and action.dest not in read and (name, action.dest) not in _UNREAD_BY_DESIGN:
                unread.append(f"{name} {'/'.join(action.option_strings) or action.dest}")
    assert unread == []


def test_expand_then_nisan_agree(tmp_path):
    ppath = write_json(tmp_path / "p.json", swap_abp().to_json())
    code, out, _ = run_cli("expand", ppath, "--out", str(tmp_path / "poly.json"))
    assert code == 0 and out == ""
    poly = NCPoly.from_json(json.loads((tmp_path / "poly.json").read_text()))
    assert poly == swap_abp().expand()
    code_a, out_a, _ = run_cli("nisan", ppath)
    code_b, out_b, _ = run_cli("nisan", str(tmp_path / "poly.json"))
    assert code_a == code_b == 0
    assert json.loads(out_a) == json.loads(out_b) == {
        "degree": 2,
        "ranks": [1, 2, 1],
        "total": 4,
    }


def run_main(*argv):
    """(exit code, stdout, stderr) of the command line run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def nisan_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("nisan")


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    field=st.sampled_from([Q, F2, F5, F4]),
    depth=st.integers(1, 5),
    n_vars=st.integers(1, 3),
    shape=st.sampled_from(["affine", "homogeneous", "cancelling"]),
)
def test_nisan_on_a_program_prints_what_it_prints_on_the_expansion(seed, field, depth, n_vars, shape, nisan_dir):
    """The program is walked, never expanded; its ranks, zero verdict and
    exit 2 on two degrees match those of the polynomial it expands to."""
    rng = random.Random(seed)
    if shape == "cancelling":
        p = cancelling_abp(rng, field, n_vars=n_vars, depth=depth, width=2)
    else:
        p = random_abp(rng, field, n_vars=n_vars, depth=depth, affine=shape == "affine")
    program = write_json(nisan_dir / "program.json", p.to_json())
    poly = str(nisan_dir / "poly.json")
    assert run_main("expand", program, "--out", poly)[0] == 0
    code, out, _ = run_main("nisan", program)
    assert code in (0, 2)
    assert run_main("nisan", poly)[:2] == (code, out)


def _sparse_deep_program(field, depth: int) -> ABP:
    """Width 2 and one of 3 variables per edge: at most 2^depth words, where
    a matrix over all words of the middle lengths has 3^depth entries."""
    rng = random.Random(f"sparse:{depth}")
    sizes = [1] + [2] * (depth - 1) + [1]
    edges = {
        (layer, a, c): LinearForm.of_var(field, rng.randrange(3), rng.randint(1, 4))
        for layer in range(depth)
        for a in range(sizes[layer])
        for c in range(sizes[layer + 1])
    }
    return ABP.build(3, field, sizes, edges)


def test_nisan_answers_past_the_all_words_matrix_cap(tmp_path):
    """A depth-13 program in 3 variables: a Nisan matrix over all words
    would hold 3^13 entries, more than the default cap, so building one
    exits 3.  The walk answers, and so does the polynomial file, whose
    present prefixes and suffixes are few; its cap counts those."""
    assert 3**13 > DEFAULT_MAX_TERMS
    program = write_json(tmp_path / "deep.json", _sparse_deep_program(F5, 13).to_json())
    code, out, err = run_main("nisan", program)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["degree"] == 13 and max(report["ranks"]) <= 2
    poly = str(tmp_path / "poly.json")
    assert run_main("expand", program, "--out", poly)[0] == 0
    assert run_main("nisan", poly) == (0, out, "")
    code, out, err = run_main("nisan", poly, "--max-terms", "100")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("resource cap:")


def test_reduce_det_chain(tmp_path):
    ident = write_json(tmp_path / "i.json", [[1, 0], [0, 1]])
    singular = write_json(tmp_path / "s.json", [[1, 2], [2, 4]])
    out_abp = str(tmp_path / "abp.json")
    code, _, _ = run_cli("reduce", "det2abp", ident, "--out", out_abp)
    assert code == 0
    code, out, _ = run_cli("pit", "det", out_abp)
    assert code == 0 and json.loads(out)["is_zero"] is False
    run_cli("reduce", "det2abp", singular, "--out", out_abp)
    code, out, _ = run_cli("pit", "det", out_abp)
    assert code == 0 and json.loads(out)["is_zero"] is True


def test_reduce_reach_chain(tmp_path):
    graph = {"vertices": 4, "edges": [[0, 1], [1, 2]], "s": 0, "t": 3}
    gpath = write_json(tmp_path / "g.json", graph)
    out_abp = str(tmp_path / "abp.json")
    run_cli("reduce", "reach2abp", gpath, "--out", out_abp)
    code, out, _ = run_cli("pit", "brute", out_abp)
    assert code == 0 and json.loads(out)["is_zero"] is True  # 3 unreachable
    graph["edges"].append([2, 3])
    write_json(tmp_path / "g.json", graph)
    run_cli("reduce", "reach2abp", gpath, "--out", out_abp)
    code, out, _ = run_cli("pit", "brute", out_abp)
    assert code == 0 and json.loads(out)["is_zero"] is False


def test_cfg_pipeline(tmp_path):
    g1 = str(tmp_path / "g1.json")
    g2 = str(tmp_path / "g2.json")
    assert run_cli("cfg", "gen-mirror-suffix", "--n", "1", "--out", g1)[0] == 0
    assert run_cli("cfg", "gen-mirror-prefix", "--n", "1", "--out", g2)[0] == 0
    code, out, _ = run_cli("cfg", "intersect", g1, g2)
    assert code == 0
    got = json.loads(out)
    assert got == {"count": 2, "words": [[0, 0, 0], [1, 1, 1]]}
    code, out, _ = run_cli("cfg", "count", g1, "--word", "0,1,1")
    assert json.loads(out)["count"] == 1
    code, out, _ = run_cli("cfg", "count", g1, "--word", "0,1,0")
    assert json.loads(out)["count"] == 0
    # grammar -> circuit -> grammar keeps the language
    circ = str(tmp_path / "c.json")
    assert run_cli("cfg", "to-circuit", g1, "--out", circ)[0] == 0
    code, out, _ = run_cli("cfg", "from-circuit", circ)
    assert code == 0
    back = str(tmp_path / "back.json")
    (tmp_path / "back.json").write_text(out)
    code, out, _ = run_cli("cfg", "intersect", g1, back)
    assert json.loads(out)["count"] == 4  # all of {any letter, then cc}


def test_lab_commands(tmp_path):
    code, out, _ = run_cli("lab", "corr", "--t", "1", "--p", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["meets_lower_bound"] is True
    assert rep["norm_f_sq"] == "4"
    battery = rep["product_battery"]
    assert len(battery) == 5
    assert all(Fraction(item["ratio_sq"]) <= 1 for item in battery)
    # full-field character sums: |F4| at z=0, zero at any z != 0
    assert rep["exp_sum_samples"] == [
        {"z": 0, "value": 4},
        {"z": 1, "value": 0},
        {"z": 2, "value": 0},
    ]
    code, out, _ = run_cli(
        "lab", "corr", "--t", "1", "--p", "2", "--battery", "2", "--seed", "9"
    )
    assert code == 0 and len(json.loads(out)["product_battery"]) == 2
    code, out, _ = run_cli("lab", "perm", "--n", "2")
    assert code == 0 and json.loads(out)["monomials"] == 2
    mat = write_json(tmp_path / "m.json", [[1, 1], [1, 1]])
    code, out, _ = run_cli("lab", "perm", mat)
    assert code == 0 and json.loads(out)["permanent"] == "2"
    code, out, _ = run_cli("lab", "expsum", "--t", "2", "--p", "2", "--z", "0")
    assert code == 0 and json.loads(out)["value"] == 16
    # element code 2 decodes to the degree-1 generator of F4, whose trace is 1
    code, out, _ = run_cli("lab", "expsum", "--t", "1", "--p", "2", "--sets", "2;1")
    assert code == 0 and json.loads(out)["value"] == -1
    code, _, err = run_cli("lab", "expsum", "--t", "1", "--p", "2", "--sets", "9")
    assert code == 2 and "element code" in err


def test_lab_expsum_z_is_an_element_code():
    # code 2 is the generator x of F_8, as in corr's exp_sum_samples
    code, out, _ = run_cli("lab", "corr", "--t", "2", "--p", "3", "--battery", "1")
    samples = {s["z"]: s["value"] for s in json.loads(out)["exp_sum_samples"]}
    for z in (0, 1, 2):
        code, out, _ = run_cli("lab", "expsum", "--t", "2", "--p", "3", "--z", str(z))
        assert code == 0 and json.loads(out) == {"t": 2, "p": 3, "z": z, "value": samples[z]}
    assert samples[2] == 8
    for z in ("8", "-1"):
        code, _, err = run_cli("lab", "expsum", "--t", "2", "--p", "3", "--z", z)
        assert code == 2 and "element code" in err


def test_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(p, q):
        raise MemoryError

    monkeypatch.setattr("hadamard.products.hadamard_abp_detailed", exhausted)
    path = write_json(tmp_path / "p.json", swap_abp().to_json())
    code = main(["hadamard", "abp", path, path])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "resource cap: out of memory in 'hadamard abp'\n"


@pytest.mark.parametrize(
    "exhausted, argv, command",
    [
        ("sign_list", ("lab", "corr", "--t", "1", "--p", "2"), "lab corr"),
        ("pit_randomized", ("pit", "rand", "{}"), "pit rand"),
    ],
)
def test_out_of_memory_names_the_action(exhausted, argv, command, tmp_path, capsys, monkeypatch):
    def exhaust(*args, **kwargs):
        raise MemoryError

    # the handler imports the function from the module named like the command
    monkeypatch.setattr(f"hadamard.{argv[0]}.{exhausted}", exhaust)
    path = write_json(tmp_path / "p.json", swap_abp().to_json())
    code = main([path if a == "{}" else a for a in argv])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == f"resource cap: out of memory in '{command}'\n"


def product_files(tmp_path, shape: str) -> tuple[str, str]:
    rng = random.Random(3)
    right = tmp_path / "p.json"
    write_json(right, random_abp(rng, Q, n_vars=2, depth=4, width=3).to_json())
    if shape == "abp":
        return str(right), str(right)
    left = tmp_path / "c.json"
    write_json(left, random_circuit(rng, Q, n_vars=2, n_gates=12).to_json())
    return str(left), str(right)


@pytest.mark.parametrize("shape", ["abp", "circuit-abp"])
def test_out_file_bytes_equal_stdout_bytes(shape, tmp_path):
    left, right = product_files(tmp_path, shape)
    code, out, err = run_main("hadamard", shape, left, right)
    assert code == 0 and err == ""
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
    target = tmp_path / "out.json"
    assert run_main("hadamard", shape, left, right, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("shape", ["abp", "circuit-abp"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_a_failing_writer_leaves_no_partial_output(shape, to_file, tmp_path, monkeypatch):
    cls = ABP if shape == "abp" else Circuit
    writer = cls.json_text

    def exhausted(self):
        # the program's or circuit's text is formed, then memory runs out
        writer(self)
        raise MemoryError

    left, right = product_files(tmp_path, shape)
    monkeypatch.setattr(cls, "json_text", exhausted)
    target = tmp_path / "out.json"
    argv = ["hadamard", shape, left, right] + (["--out", str(target)] if to_file else [])
    assert run_main(*argv) == (3, "", f"resource cap: out of memory in 'hadamard {shape}'\n")
    assert not target.exists()


def _refused_at_once(*argv) -> str:
    """Run the command line in this process; it must exit 3 within a second
    with nothing on stdout and one line on stderr, which is returned."""
    start = time.perf_counter()
    code, out, err = run_main(*argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "", err
    assert err.startswith("resource cap: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("command", [("pit", "det"), ("pit", "span"), ("nisan",), ("expand",), ("hadamard", "abp")])
def test_a_huge_declared_layer_is_refused_before_anything_is_built(command, tmp_path):
    obj = {
        "nvars": 2,
        "field": {"kind": "Q"},
        "layers": [1, 3_000_000, 1],
        "edges": [
            {"from": [0, 0], "to": [1, 5], "label": {"const": "0", "coeffs": {"0": "1"}}},
            {"from": [1, 5], "to": [2, 0], "label": {"const": "0", "coeffs": {"1": "1"}}},
        ],
    }
    path = write_json(tmp_path / "wide.json", obj)
    assert len((tmp_path / "wide.json").read_bytes()) < 300
    operands = (path, path) if command == ("hadamard", "abp") else (path,)
    err = _refused_at_once(*command, *operands)
    assert "3000002 nodes" in err and str(DEFAULT_MAX_TERMS) in err


def _one_edge_q_program(coefficient: str) -> dict:
    return {
        "nvars": 1,
        "field": {"kind": "Q"},
        "layers": [1, 1],
        "edges": [{"from": [0, 0], "to": [1, 0], "label": {"const": "0", "coeffs": {"0": coefficient}}}],
    }


def _exits_at_once(code: int, *argv) -> str:
    """Run the command line in this process: it must return ``code``, with
    no exception, within a second, with nothing on stdout and one line on
    stderr, which is returned."""
    start = time.perf_counter()
    got, out, err = run_main(*argv)
    assert time.perf_counter() - start < 1.0
    assert got == code and out == "", err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    return err


# Python writes an int of at most sys.get_int_max_str_digits() (4,300) digits
PAST_THE_DIGIT_LIMIT = [
    pytest.param("1e5000", "exponent 5000", id="1e5000"),  # Fraction builds 10^5000 from 6 bytes
    pytest.param("1e10000000", "exponent 10000000", id="1e10000000"),  # and 10^(10^7) only after seconds
    pytest.param("1" * 3000 + "." + "1" * 3000, "6000 digits", id="3000.3000"),  # two parts under the limit
]


@pytest.mark.parametrize("text, named", PAST_THE_DIGIT_LIMIT)
@pytest.mark.parametrize("command", [("pit", "det"), ("pit", "span"), ("nisan",), ("expand",), ("hadamard", "abp")])
def test_a_rational_coefficient_past_the_digit_limit_is_refused_on_input(command, text, named, tmp_path):
    path = write_json(tmp_path / "p.json", _one_edge_q_program(text))
    operands = (path, path) if command == ("hadamard", "abp") else (path,)
    err = _exits_at_once(2, *command, *operands)
    assert named in err and "limit of 4300" in err


@pytest.mark.parametrize("text, named", PAST_THE_DIGIT_LIMIT)
@pytest.mark.parametrize("command", [("reduce", "det2abp"), ("lab", "perm")])
def test_a_matrix_entry_past_the_digit_limit_is_refused_on_input(command, text, named, tmp_path):
    path = write_json(tmp_path / "m.json", [[text, "1"], ["1", "1"]])
    err = _exits_at_once(2, *command, path)
    assert named in err and "limit of 4300" in err


@pytest.mark.parametrize(
    "argv, name",
    [(("pit", "det"), "p.json"), (("hadamard", "abp"), "p.json"), (("lab", "perm"), "m.json")],
)
def test_a_rational_value_past_the_digit_limit_is_refused_on_output(argv, name, tmp_path):
    # 2,201-digit values are read and written, but their squares, of 4,402
    # digits, are past the limit
    big = "7" * 2201
    write_json(tmp_path / "p.json", _one_edge_q_program(big))
    write_json(tmp_path / "m.json", [[big, "0"], ["0", big]])
    path = str(tmp_path / name)
    operands = (path, path) if argv == ("hadamard", "abp") else (path,)
    err = _exits_at_once(3, *argv, *operands)
    assert err.startswith("resource cap: ") and "4402 digits" in err and "limit of 4300" in err
    code, out, _ = run_main("expand", str(tmp_path / "p.json"))
    assert code == 0 and json.loads(out)["terms"] == [{"coeff": big, "word": [0]}]


def test_a_failure_bound_past_the_digit_limit_is_refused_on_output(tmp_path):
    # a zero program over F_p for a 10-digit p: 500 trials bound the failure
    # by p^-500, whose denominator has 4,501 digits
    p = 1_000_000_007
    obj = {"nvars": 1, "field": {"kind": "Fp", "p": p}, "layers": [1, 1], "edges": []}
    path = write_json(tmp_path / "zero.json", obj)
    err = _exits_at_once(3, "pit", "rand", path, "--trials", "500")
    assert err.startswith("resource cap: ") and "4501 digits" in err and "limit of 4300" in err
    code, out, _ = run_main("pit", "rand", path, "--trials", "450")
    assert code == 0 and json.loads(out)["failure_bound"] == str(Fraction(1, p**450))


def test_rational_values_at_the_digit_limit_are_read_and_written():
    for text in ("9" * 4300, "-" + "9" * 4300, "123456e-4301", "1e4299"):
        x = Q.coeff_from_json(text)
        assert Q.coeff_from_json(Q.coeff_to_json(x)) == x == Fraction(text)


def test_the_reductions_are_refused_before_building(tmp_path, monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("a program was built")

    monkeypatch.setattr(ABP, "build", built)
    rng = random.Random(40)
    matrix = write_json(tmp_path / "m.json", [[rng.randint(-3, 3) for _ in range(40)] for _ in range(40)])
    err = _refused_at_once("reduce", "det2abp", matrix)
    assert "40 x 40" in err and "1622700 edges" in err
    graph = write_json(tmp_path / "g.json", {"vertices": 1100, "edges": [], "s": 0, "t": 1})
    err = _refused_at_once("reduce", "reach2abp", graph)
    assert "1100-vertex" in err and "1206702 edges" in err


def test_pit_rand_refuses_a_trial_past_the_cap_before_drawing(tmp_path):
    # two edges over a hundred million declared variables: each trial would
    # draw one value per layer and variable, 2 * 10^8 in all
    obj = {
        "nvars": 100_000_000,
        "field": {"kind": "Fp", "p": 5},
        "layers": [1, 1, 1],
        "edges": [
            {"from": [0, 0], "to": [1, 0], "label": {"const": "0", "coeffs": {"0": "1"}}},
            {"from": [1, 0], "to": [2, 0], "label": {"const": "0", "coeffs": {"1": "2"}}},
        ],
    }
    err = _refused_at_once("pit", "rand", write_json(tmp_path / "many.json", obj))
    assert "200000000 values" in err and str(DEFAULT_MAX_TERMS) in err


@pytest.mark.parametrize("shape", ["abp", "circuit-abp"])
def test_products_refuse_homogeneous_parts_past_the_cap_before_building(shape, tmp_path, monkeypatch):
    """At depth 200 and width 2 the parts of a program would have 2,667,002
    nodes; the count is worked out before any part is walked.  The circuit
    product reads parts only up to its circuit's formal degree, so its
    circuit, (x0 + x1) squared 8 times, has degree 256."""
    import hadamard.abp as abp_module

    def built(*args, **kwargs):
        raise AssertionError("a homogeneous part was walked")

    monkeypatch.setattr(abp_module, "Walks", built)
    program = write_json(tmp_path / "deep.json", homogeneous_abp(random.Random(7), Q, 200).to_json())
    left = program
    if shape == "circuit-abp":
        gates = [InputGate(0), InputGate(1), AddGate(0, 1)] + [MulGate(g, g) for g in range(2, 10)]
        left = write_json(tmp_path / "c.json", Circuit.build(2, Q, gates, len(gates) - 1).to_json())
    err = _refused_at_once("hadamard", shape, left, program)
    assert "homogeneous parts take 2667002 nodes" in err and str(DEFAULT_MAX_TERMS) in err


@pytest.mark.parametrize(
    "argv, program",
    [
        (["pit", "det"], cancel_join(random.Random(3), Q, 6, zero=False)),
        (["pit", "det"], cancel_join(random.Random(3), Q, 6)),
        (["pit", "span"], cancel_join(random.Random(4), F5, 7, width=3, zero=False)),
        (["pit", "span"], dead_end(F5)),
        (["nisan"], dead_end(F5)),
        (["nisan"], homogeneous_abp(random.Random(5), F5, 5, width=3)),
    ],
)
def test_identity_tests_and_nisan_never_walk_constant_walks(argv, program, tmp_path, monkeypatch):
    """``pit det``, ``pit span`` and ``nisan`` walk the constant closure on
    vectors: with ``homogeneous_parts``, which lays out a program's parts,
    made to raise, they still answer as the expansion does."""
    import hadamard.abp as abp_module

    def walked(*args, **kwargs):
        raise AssertionError("homogeneous_parts was called")

    monkeypatch.setattr(abp_module, "homogeneous_parts", walked)
    poly = program.expand()
    code, out, err = run_main(*argv, write_json(tmp_path / "p.json", program.to_json()))
    assert code == 0, err
    if argv[0] == "nisan":
        assert json.loads(out)["ranks"] == poly.nisan_ranks()
    else:
        assert json.loads(out)["is_zero"] is poly.is_zero()


def test_cfg_intersect_past_the_word_cap_exits_3(tmp_path):
    # A derives the 2^8 binary words of length 8, E those and the word 0, so
    # S -> A E derives 256 * 257 distinct words, past the cap of 2^16
    bits = [{"lhs": "D", "rhs": [{"t": 0}]}, {"lhs": "D", "rhs": [{"t": 1}]}]
    doubles = [{"lhs": lhs, "rhs": [rhs, rhs]} for lhs, rhs in (("C", "D"), ("B", "C"), ("A", "B"))]
    grammar = {
        "nonterminals": ["S", "A", "B", "C", "D", "E"],
        "terminals": 2,
        "start": "S",
        "productions": bits + doubles + [
            {"lhs": "E", "rhs": ["A"]},
            {"lhs": "E", "rhs": [{"t": 0}]},
            {"lhs": "S", "rhs": ["A", "E"]},
        ],
    }
    assert 256 * 257 > DEFAULT_MAX_WORDS
    big = write_json(tmp_path / "big.json", grammar)
    small = str(tmp_path / "small.json")
    assert run_main("cfg", "gen-mirror-suffix", "--n", "1", "--out", small)[0] == 0
    err = _refused_at_once("cfg", "intersect", big, small)
    assert f"exceeds {DEFAULT_MAX_WORDS} words" in err


def test_cfg_intersect_refuses_a_large_product_before_building_it(tmp_path):
    # L10 derives all 1,024 binary words of length 10, so S -> L10 L10 would
    # derive 2^20 words; the cap stops the product as it grows past 2^16
    prods = [{"lhs": "L1", "rhs": [{"t": 0}]}, {"lhs": "L1", "rhs": [{"t": 1}]}]
    for lhs, rhs in (("L2", ["L1", "L1"]), ("L4", ["L2", "L2"]), ("L8", ["L4", "L4"]), ("L10", ["L8", "L2"])):
        prods.append({"lhs": lhs, "rhs": rhs})
    prods.append({"lhs": "S", "rhs": ["L10", "L10"]})
    grammar = {
        "nonterminals": ["S", "L10", "L8", "L4", "L2", "L1"],
        "terminals": 2,
        "start": "S",
        "productions": prods,
    }
    big = write_json(tmp_path / "big.json", grammar)
    err = _refused_at_once("cfg", "intersect", big, big)
    assert err == f"resource cap: language exceeds {DEFAULT_MAX_WORDS} words\n"


def test_exit_codes(tmp_path):
    code, out, err = run_cli("pit", "det", str(tmp_path / "missing.json"))
    assert code == 2 and out == "" and "no such file" in err
    code, _, err = run_cli("lab", "expsum", "--t", "2", "--p", "2", "--max-terms", "2")
    assert code == 3 and "cap" in err
    code, _, _ = run_cli("pit", "det", "--bogus-flag", "x.json")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli("expand", str(bad))
    assert code == 2 and "invalid JSON" in err
    # unreadable inputs and unwritable outputs: one error line, exit 2, no stdout
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    good = write_json(tmp_path / "good.json", two_path_abp(1).to_json())
    for argv, words in [
        (("pit", "det", str(tmp_path)), str(tmp_path)),
        (("pit", "det", str(utf16)), "invalid JSON"),
        (("pit", "det", good, "--out", str(tmp_path / "no" / "dir" / "x.json")), "x.json"),
        (("pit", "det", good, "--out", str(tmp_path)), str(tmp_path)),
    ]:
        code, out, err = run_cli(*argv)
        assert code == 2 and out == "" and words in err, argv
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_field_fallback_for_bare_files(tmp_path):
    obj = swap_abp().to_json()
    del obj["field"]
    path = write_json(tmp_path / "bare.json", obj)
    code, _, err = run_cli("expand", path)
    assert code == 2 and "--field" in err
    code, out, _ = run_cli("expand", path, "--field", "fp:5")
    assert code == 0
    assert NCPoly.from_json(json.loads(out)) == swap_abp().expand()


def test_byte_identical_across_runs_and_threads():
    base = ["lab", "build-f", "--t", "2", "--p", "2"]
    one = run_cli(*base, "--threads", "1")
    again = run_cli(*base, "--threads", "1")
    four = run_cli(*base, "--threads", "4")
    assert one[0] == 0
    assert one == again
    assert one[1] == four[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("cfg", "count"),
        ("cfg", "intersect", "only-one.json"),
        ("lab", "perm"),
    ],
)
def test_missing_positional_inputs(argv, tmp_path):
    if "only-one.json" in argv:
        argv = tuple(
            write_json(tmp_path / "g.json", {"x": 1}) if a == "only-one.json" else a
            for a in argv
        )
    code, _, _ = run_cli(*argv)
    assert code == 2


def _one_edge_abp(edge):
    return {"nvars": 1, "field": {"kind": "Q"}, "layers": [1, 1], "edges": [edge]}


GRAMMAR = {
    "nonterminals": ["S"], "terminals": 2, "start": "S",
    "productions": [{"lhs": "S", "rhs": [{"t": 0}]}],
}


# argv with "{}" standing for a file holding the given JSON
@pytest.mark.parametrize(
    "argv, content",
    [
        (("pit", "det", "{}"), _one_edge_abp({"from": [0, 0], "label": {"const": "1", "coeffs": {}}})),
        (("pit", "det", "{}"), _one_edge_abp({"from": [0, 0], "to": [1, 0], "label": {"const": "x", "coeffs": {}}})),
        (("expand", "{}", "--field", "fp:x"), {"nvars": 1, "layers": [1, 1], "edges": []}),
        (("nisan", "{}"), {"nvars": 1, "field": {"kind": "Q"}, "terms": [{"word": [0], "coeff": "1/0"}]}),
        (("reduce", "det2abp", "{}"), [["a"]]),
        (("reduce", "det2abp", "{}"), [1, 2]),
        (("lab", "perm", "{}"), [["a"]]),
        (("expand", "{}"), {"nvars": 1, "field": {"kind": "Q"}, "gates": [{"op": "in"}], "output": 0}),
        (("cfg", "to-circuit", "{}"), dict(GRAMMAR, productions=[{"lhs": "S"}])),
        (("reduce", "reach2abp", "{}"), {"edges": [], "s": 0, "t": 0}),
        (("cfg", "count", "{}", "--word", "a"), GRAMMAR),
        (("cfg", "count", "{}", "--word", "0,,1"), GRAMMAR),
        (("lab", "expsum", "--t", "1", "--p", "2", "--sets", "a"), None),
        (("expand", "{}"), 5),
        (("nisan", "{}"), 5),
        (("pit", "det", "{}"), _one_edge_abp({"from": [0, 0], "to": [1, 0], "label": {"const": "1", "coeffs": 5}})),
        (("pit", "det", "{}"), _one_edge_abp({"from": [0, 0], "to": [1, 0], "label": "x"})),
        # well-typed JSON with a malformed structure
        (("pit", "det", "{}"), {"nvars": 1, "field": {"kind": "Q"}, "layers": [2, 1], "edges": []}),
        (("pit", "det", "{}"), {"nvars": 1, "field": {"kind": "Q"}, "layers": [1, 0, 1], "edges": []}),
        (("pit", "det", "{}"), _one_edge_abp({"from": [0, 0], "to": [1, 5], "label": {"const": "1", "coeffs": {}}})),
        (("pit", "det", "{}"), _one_edge_abp({"from": [0, 0], "to": [1, 0], "label": {"const": "0", "coeffs": {"3": "1"}}})),
        (("cfg", "to-circuit", "{}"), dict(GRAMMAR, productions=[{"lhs": "S", "rhs": ["S"]}])),
        (("cfg", "to-circuit", "{}"), dict(GRAMMAR, productions=[{"lhs": "S", "rhs": ["T"]}])),
        (("cfg", "count", "{}", "--word", "1"), dict(GRAMMAR, productions=GRAMMAR["productions"] + [{"lhs": "X", "rhs": [{"t": 1}]}])),
        (("cfg", "to-circuit", "{}"), dict(GRAMMAR, productions=GRAMMAR["productions"] + [{"lhs": "X", "rhs": [{"t": 1}]}])),
        # JSON integers that are floats or booleans
        (("expand", "{}"), {"nvars": 1, "field": {"kind": "Q"}, "layers": [1, 1.7, 1], "edges": []}),
        (("expand", "{}"), _one_edge_abp({"from": [0, 0.6], "to": [1, 0], "label": {"const": "1", "coeffs": {}}})),
        (("expand", "{}"), {"nvars": 2, "field": {"kind": "Q"}, "gates": [{"op": "in", "var": True}], "output": 0}),
        (("expand", "{}"), {"nvars": 1, "field": {"kind": "Q"},
                            "gates": [{"op": "in", "var": 0}, {"op": "add", "l": 0.5, "r": 0}], "output": 1}),
        (("expand", "{}"), {"nvars": 1, "field": {"kind": "Q"}, "gates": [{"op": "in", "var": 0}], "output": 0.0}),
        (("expand", "{}"), dict(_one_edge_abp({"from": [0, 0], "to": [1, 0], "label": {"const": [1, 0], "coeffs": {}}}),
                                field={"kind": "Fpk", "p": 2, "k": 2.0, "modulus": [1, 1, 1]})),
        (("expand", "{}"), dict(_one_edge_abp({"from": [0, 0], "to": [1, 0], "label": {"const": [1, 0.5], "coeffs": {}}}),
                                field={"kind": "Fpk", "p": 2, "k": 2, "modulus": [1, 1, 1]})),
        (("cfg", "to-circuit", "{}"), dict(GRAMMAR, productions=[{"lhs": "S", "rhs": [{"t": 0.5}]}])),
        (("reduce", "reach2abp", "{}"), {"vertices": 2, "edges": [[0, 1]], "s": 0.0, "t": 1}),
    ],
)
def test_malformed_input_is_a_validation_error(argv, content, tmp_path, capsys):
    path = write_json(tmp_path / "in.json", content)
    code = main([path if a == "{}" else a for a in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("key", ["00", " 0", "0 ", "+0", "-1", "1_0", "x"])
def test_label_variable_keys_must_be_canonical(key, tmp_path, capsys):
    # beside "0", a key such as "00" or " 0" would name x0 a second time
    label = {"const": "0", "coeffs": {"0": "1", key: "2"}}
    path = write_json(tmp_path / "in.json", _one_edge_abp({"from": [0, 0], "to": [1, 0], "label": label}))
    code = main(["expand", path])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and repr(key) in err


def _prime_field_program(p: int) -> dict:
    return dict(
        _one_edge_abp({"from": [0, 0], "to": [1, 0], "label": {"const": "0", "coeffs": {"0": "3"}}}),
        field={"kind": "Fp", "p": p},
    )


def test_large_prime_field_loads_at_once(tmp_path, capsys):
    path = write_json(tmp_path / "m61.json", _prime_field_program(2**61 - 1))
    start = time.perf_counter()
    code = main(["expand", path])
    elapsed = time.perf_counter() - start
    out, _ = capsys.readouterr()
    assert code == 0 and json.loads(out)["terms"] == [{"coeff": "3", "word": [0]}]
    assert elapsed < 0.1


def test_degree_64_extension_modulus_is_decided_at_once(tmp_path):
    irreducible = [1, 1, 0, 1, 1] + [0] * 59 + [1]  # x^64 + x^4 + x^3 + x + 1
    square = _poly_mul(find_irreducible(2, 32), find_irreducible(2, 32), 2)  # no root, reducible
    for modulus, code in ((irreducible, 0), (square, 2)):
        program = dict(
            _one_edge_abp({"from": [0, 0], "to": [1, 0], "label": {"coeffs": {"0": [0, 1] + [0] * 62}}}),
            field={"kind": "Fpk", "p": 2, "k": 64, "modulus": modulus},
        )
        path = write_json(tmp_path / "f64.json", program)
        start = time.perf_counter()
        got, out, err = run_main("expand", path)
        assert time.perf_counter() - start < 1.0
        assert got == code
        if code:
            assert err.count("\n") == 1 and "is reducible" in err


def test_extension_degree_past_the_bound_exits_3(tmp_path, monkeypatch):
    def tested(coeffs, p):
        raise AssertionError("a modulus was tested")

    monkeypatch.setattr(fields, "_poly_is_irreducible", tested)
    modulus = [1, 1] + [0] * 63 + [1]  # degree 65 over F_2, one past the bound
    program = dict(
        _one_edge_abp({"from": [0, 0], "to": [1, 0], "label": {"coeffs": {"0": [0, 1] + [0] * 63}}}),
        field={"kind": "Fpk", "p": 2, "k": 65, "modulus": modulus},
    )
    path = write_json(tmp_path / "f65.json", program)
    for argv in (["expand", path], ["pit", "rand", path, "--field", "fpk:2:65"], ["lab", "expsum", "--t", "1", "--p", "67", "--sets", "1"]):
        code, out, err = run_main(*argv)
        assert code == 3 and out == "", argv
        assert err.count("\n") == 1 and "exceeds the bound of 64" in err, argv


def test_prime_beyond_the_primality_bound_exits_3(tmp_path, capsys):
    path = write_json(tmp_path / "p30.json", _prime_field_program(10**29 + 7))
    start = time.perf_counter()
    code = main(["expand", path])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("resource cap:") and str(PRIME_TEST_BOUND) in err
    assert elapsed < 0.1


# keys that the program, circuit and field decoders read
_FUZZ_KEYS = ["nvars", "field", "kind", "p", "k", "modulus", "layers", "edges", "from", "to",
              "label", "const", "coeffs", "0", "1", "gates", "op", "var", "value", "l", "r", "output",
              "terms", "word", "coeff"]
_FUZZ_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9)
    | st.sampled_from(["", "x", "1", "-1/2", "1/0", "Q", "Fp", "in", "mul"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_FUZZ_KEYS), inner, max_size=3),
    max_leaves=5,
)


def _json_paths(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _json_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _json_paths(value, path + (i,))


def _fuzz_inputs() -> dict:
    b = CircuitBuilder(3, Q)
    x0, x1, two = b.input(0), b.input(1), b.const(2)
    circuit = b.finish(b.add(b.mul(x0, b.add(x1, two)), b.mul(two, x1)))
    poly = NCPoly.from_terms(3, Q, {(0, 1): 2, (1, 0): Fraction(-1, 2), (1, 1): 1})
    return {"program": two_path_abp(2).to_json(), "circuit": circuit.to_json(), "poly": poly.to_json()}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_product_inputs_exit_cleanly(data, fuzz_dir):
    """A product or nisan command on a program, circuit or polynomial file
    with one value replaced or one key dropped exits 0, 2 or 3, with at
    most one line on stderr and never a traceback."""
    inputs = _fuzz_inputs()
    target = data.draw(st.sampled_from(sorted(inputs)))
    obj = inputs[target]
    path = data.draw(st.sampled_from(list(_json_paths(obj))[1:]))
    node = obj
    for step in path[:-1]:
        node = node[step]
    if isinstance(node, dict) and data.draw(st.booleans()):
        del node[path[-1]]
    else:
        node[path[-1]] = data.draw(_FUZZ_VALUES)
    paths = {name: write_json(fuzz_dir / f"{name}.json", value) for name, value in inputs.items()}
    argvs = [
        ["hadamard", "abp", paths["program"], str(fuzz_dir / "plain.json")],
        ["hadamard", "circuit-abp", paths["circuit"], paths["program"]],
        ["nisan", paths["program"]],
        ["nisan", paths["poly"]],
    ]
    write_json(fuzz_dir / "plain.json", two_path_abp(-1).to_json())
    for argv in argvs:
        code, _, err = run_main(*argv)
        assert code in (0, 2, 3)
        assert len(err.splitlines()) <= 1
