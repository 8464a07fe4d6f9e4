"""End-to-end checks of the command-line surface via subprocess."""

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hadamard.abp import ABP, LinearForm
from hadamard.circuits import CircuitBuilder
from hadamard.cli import main
from hadamard.fields import PrimeField, RationalField
from hadamard.polynomials import NCPoly

Q = RationalField()
F5 = PrimeField(5)


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

    monkeypatch.setattr("hadamard.cli.hadamard_abp_detailed", exhausted)
    path = write_json(tmp_path / "p.json", swap_abp().to_json())
    code = main(["hadamard", "abp", path, path])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "resource cap: out of memory in 'hadamard abp'\n"


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


# keys that the program, circuit and field decoders read
_FUZZ_KEYS = ["nvars", "field", "kind", "p", "k", "modulus", "layers", "edges", "from", "to",
              "label", "const", "coeffs", "0", "1", "gates", "op", "var", "value", "l", "r", "output"]
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
    return {"program": two_path_abp(2).to_json(), "circuit": circuit.to_json()}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_product_inputs_exit_cleanly(data, fuzz_dir):
    """A product command on a program or circuit file with one value
    replaced or one key dropped exits 0, 2 or 3, with at most one line on
    stderr and never a traceback."""
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
    ]
    write_json(fuzz_dir / "plain.json", two_path_abp(-1).to_json())
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3)
        assert len(err.getvalue().splitlines()) <= 1
