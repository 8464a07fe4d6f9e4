"""The benchmark's tracer still finds every name it hooks, unhooks them, and
records the sizes its hooks read off a traced product run.

``perfbench/tracer.py`` rebinds named functions and methods of the
``hadamard`` modules (``cli._load_abp`` and ``CPoly.mul`` among them) to
timing and counting wrappers.  Renaming or moving one of those names breaks
the benchmark; this test sees that in well under a second, where
``perfbench/selftest.py`` takes about half a minute.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random
import sys

import helpers
from hadamard import abp, circuits, cli, fields, grammars, lab, matrices, pit, polynomials, products
from hadamard.fields import RationalField

MODULES = {
    "abp": abp, "circuits": circuits, "cli": cli, "fields": fields, "grammars": grammars,
    "lab": lab, "matrices": matrices, "pit": pit, "polynomials": polynomials, "products": products,
}
TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooked(owner, attr: str):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _snapshot(classes) -> dict:
    """owner -> {attribute: value} for every hadamard module and the given classes."""
    owners = [m for name, m in sys.modules.items() if name.startswith("hadamard")]
    return {owner: dict(vars(owner)) for owner in owners + list(classes)}


def test_tracer_hooks_every_target_and_restores_all():
    tracer_module = _load_tracer()
    targets = [(owner, attr) for _, owner, attr, _ in tracer_module.span_targets(MODULES)]
    targets += [(owner, attr) for _, owner, attr in tracer_module.counter_targets(MODULES)]
    before = _snapshot({owner for owner, _ in targets if isinstance(owner, type)})
    originals = [_hooked(owner, attr) for owner, attr in targets]

    tracer = tracer_module.Tracer()
    try:
        tracer.install(MODULES)
        for (owner, attr), original in zip(targets, originals):
            assert _hooked(owner, attr) is not original, f"{owner.__name__}.{attr} was not hooked"
    finally:
        tracer.uninstall()

    after = _snapshot(owner for owner in before if isinstance(owner, type))
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner.__name__
        changed = [key for key, value in attrs.items() if after[owner][key] is not value]
        assert not changed, f"{owner.__name__}: not restored: {changed}"


def test_the_tracer_records_the_product_sizes(tmp_path):
    # a traced products run reads p.edges, unpruned.node_count() and the
    # circuit product's memo size; any of them breaking would fail the run
    rng = random.Random(3)
    program, circuit, out = tmp_path / "p.json", tmp_path / "c.json", str(tmp_path / "out.json")
    program.write_text(helpers.random_abp(rng, RationalField(), n_vars=2, depth=3, width=2).json_text())
    circuit.write_text(helpers.random_circuit(rng, RationalField(), n_vars=2, n_gates=8).json_text())
    tracer = _load_tracer().Tracer()
    tracer.install(MODULES)
    try:
        for argv in (["abp", program, program], ["circuit-abp", circuit, program]):
            assert tracer.run_job("job", cli.main, ["hadamard", *map(str, argv), "--out", out]) == 0
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    assert totals["products.hadamard_abp_detailed"]["unpruned_nodes"] > 0
    assert totals["products.hadamard_homogeneous"]["pairs_tried"] > 0
    assert totals["products.hadamard_circuit_abp_detailed"]["memo_size"] > 0
