"""The benchmark's tracer still finds every name it hooks, and unhooks them.

``perfbench/tracer.py`` rebinds named functions and methods of the
``hadamard`` modules (``cli._load_abp`` and ``CPoly.mul`` among them) to
timing and counting wrappers.  Renaming or moving one of those names breaks
the benchmark; this test sees that in well under a second, where
``perfbench/selftest.py`` takes about half a minute.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

from hadamard import abp, circuits, cli, fields, grammars, lab, matrices, pit, polynomials, products

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
