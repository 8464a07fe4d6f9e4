"""Every name a ``hadamard`` module imports is used in that module, and
every function, method, property and class it defines has a caller.

No linter ships with the project, so these are standard-library ``ast``
scans: an imported name counts as used when it appears as a name anywhere in
the module, inside a quoted annotation, or in ``__all__``.  A definition
counts as called when the library, the benchmark or the acceptance suite
names it outside its own body, as a bare name, an attribute or an import.  A
string counts only in the benchmark's tracer, which names the attributes it
hooks by string; elsewhere a string such as the JSON key "label" is data.
A method counts only as an attribute or a tracer string: a bare name in
code is a local or a module-level name, never a method.  The other tests do
not count: library code that only they reach is dead.
"""

from __future__ import annotations

import ast
import collections
import functools
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hadamard"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, ``__future__`` aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations ("ABP") and __all__ entries name things too
            used.update(n.id for n in _string_nodes(node.value) if isinstance(n, ast.Name))
    return used


def _string_nodes(value: str) -> list:
    """The nodes of a string that parses as an expression, else none."""
    try:
        return list(ast.walk(ast.parse(value, mode="eval")))
    except SyntaxError:
        return []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used
    )
    assert not unused, f"{path.name}: unused imports: {', '.join(unused)}"


def _references(tree: ast.AST, bare_names: bool = True, strings: bool = False) -> collections.Counter:
    """How often each name appears in tree as an attribute or an import,
    with bare_names as a bare name in code, and with strings inside a
    string."""
    out = collections.Counter()
    for node in ast.walk(tree):
        nodes = [node]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            nodes = _string_nodes(node.value) if strings else []
        elif isinstance(node, ast.Name) and not bare_names:
            continue
        for n in nodes:
            if isinstance(n, ast.Name):
                out[n.id] += 1
            elif isinstance(n, ast.Attribute):
                out[n.attr] += 1
            elif isinstance(n, ast.alias):
                out.update(n.name.split("."))
                if n.asname:
                    out[n.asname] += 1
    return out


# the acceptance suite is the contract, so its references count as callers
CALLERS = (
    *sorted(SRC.glob("*.py")),
    *sorted((ROOT / "perfbench").rglob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
)
# the one caller whose strings name what it calls
TRACER = ROOT / "perfbench" / "tracer.py"


@functools.lru_cache(maxsize=None)
def _all_references(bare_names: bool) -> collections.Counter:
    out = collections.Counter()
    for path in CALLERS:
        out += _references(ast.parse(path.read_text(), filename=str(path)), bare_names, path == TRACER)
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_orphaned_definitions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = {
        node
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    orphans = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        bare_names = node not in methods
        if _all_references(bare_names)[name] <= _references(node, bare_names)[name]:
            orphans.append(f"{name} (line {node.lineno})")
    assert not orphans, f"{path.name}: defined but never named: {', '.join(orphans)}"


def _python_floor() -> tuple[int, int]:
    """The minimum Python version that pyproject.toml declares."""
    found = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_parses_at_the_declared_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=_python_floor())


# programs, circuits and grammars are checked where they are made from
# outside data, and nowhere else
VALIDATORS = {"validate", "validate_circuit", "validate_grammar"}
TRUST_BOUNDARY = {"abp.py: ABP.from_json", "circuits.py: Circuit.build", "grammars.py: AcyclicCFG.from_json"}


def _validator_callers(node: ast.AST, scope: str, out: set, filename: str) -> None:
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in VALIDATORS:
                out.add(f"{filename}: {scope or '<module>'}")
        _validator_callers(child, inner, out, filename)


def test_validators_run_only_at_the_trust_boundary():
    callers: set = set()
    for path in sorted(SRC.glob("*.py")):
        _validator_callers(ast.parse(path.read_text(), filename=str(path)), "", callers, path.name)
    assert callers == TRUST_BOUNDARY


def test_only_abp_names_linear_form():
    """Labels exist only at the JSON boundary: every module but abp.py
    writes programs as layer entries and never names ``LinearForm``."""
    naming = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "abp.py" and _references(ast.parse(path.read_text()), strings=True)["LinearForm"]
    ]
    assert naming == []


def _takes_inverse(tree: ast.Module) -> bool:
    """Whether the module takes the ``inverse`` of ``fields.raw_ops``: a
    call unpacked with a name other than ``_`` third, indexed at 2, or kept
    whole."""
    calls = {
        id(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "raw_ops"
    }
    left = set(calls)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and id(node.value) in calls and isinstance(node.targets[0], ast.Tuple):
            left.discard(id(node.value))
            third = node.targets[0].elts[2]
            if not (isinstance(third, ast.Name) and third.id == "_"):
                return True
        elif isinstance(node, ast.Subscript) and id(node.value) in calls:
            left.discard(id(node.value))
            if not (isinstance(node.slice, ast.Constant) and node.slice.value != 2):
                return True
    return bool(left)


def test_only_matrices_takes_the_raw_inverse():
    """Gaussian elimination is written once, in ``matrices.Echelon``: no
    other module takes the inverse that ``fields.raw_ops`` hands out."""
    taking = [path.name for path in sorted(SRC.glob("*.py")) if _takes_inverse(ast.parse(path.read_text()))]
    assert taking == ["matrices.py"]


def _raw_ops_callers(tree: ast.Module) -> list[str]:
    """The top-level class or function around each call of
    ``fields.raw_ops`` in the module, by a bare name or an attribute; a call
    outside both counts as ``<module>``."""
    return [
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "raw_ops"
    ]


def test_only_walks_and_the_echelon_hold_raw_values():
    """How a walk or an elimination holds a field's values is decided once,
    in ``fields.raw_ops``, and only ``abp.Walks`` and ``matrices.Echelon``
    ask it: no other code picks its own form for a value."""
    callers = [
        (path.name, name) for path in sorted(SRC.glob("*.py")) for name in _raw_ops_callers(ast.parse(path.read_text()))
    ]
    assert callers == [("abp.py", "Walks"), ("matrices.py", "Echelon")]


def test_no_module_raises_the_recursion_limit():
    """Circuits of any depth work within Python's default recursion limit:
    no module names ``sys.setrecursionlimit``, as an attribute, an import, a
    bare name or a string."""
    raising = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if _references(ast.parse(path.read_text()), strings=True)["setrecursionlimit"]
    ]
    assert raising == []


def test_no_module_raises_the_digit_limit():
    """Rational values are read and written within Python's limit on the
    digits of an int written as text: no module names
    ``sys.set_int_max_str_digits``, as an attribute, an import, a bare name
    or a string."""
    raising = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if _references(ast.parse(path.read_text()), strings=True)["set_int_max_str_digits"]
    ]
    assert raising == []


def test_no_module_pauses_the_cycle_collector():
    """The package allocates less rather than switching Python's cycle
    collector off or down, which would change interpreter-wide state for
    every caller: no module names ``gc.disable``, ``gc.freeze`` or
    ``gc.set_threshold``, as an attribute, an import, a bare name or a
    string."""
    pausing = [
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in ("disable", "freeze", "set_threshold")
        if _references(ast.parse(path.read_text()), strings=True)[name]
    ]
    assert pausing == []
