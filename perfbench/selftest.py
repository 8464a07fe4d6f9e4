"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the generator is byte-stable for a seed, that the output checks
reject corrupted outputs, that the printed metric and workload names match
BENCHMARK.json, and that tracing changes no output.  Exits 1 on a failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import checks
import gen
import run
from tracer import Tracer

SEED = 424242


class Failure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Failure(message)


def _generate(workload: str, seed: int, tag: str) -> dict:
    root = os.path.join(run.WORK, "selftest", tag)
    _, jobs = gen.WORKLOADS[workload](seed, gen.Writer(root))
    files = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            files[name] = fh.read()
    return {"files": files, "argv": [[a.replace(root, "") for a in j.argv] for j in jobs]}


def test_generator_is_byte_stable() -> None:
    for workload in gen.WORKLOADS:
        first = _generate(workload, SEED, f"{workload}-a")
        second = _generate(workload, SEED, f"{workload}-b")
        expect(first == second, f"{workload}: two generations from one seed differ")
        other = _generate(workload, SEED + 1, f"{workload}-c")
        expect(first != other, f"{workload}: another seed gives the same inputs")


def _first_output(bench: run.Run, kind: str) -> tuple[int, dict]:
    i = next(i for i, job in enumerate(bench.jobs) if job.kind == kind)
    bench.run_job(i)
    return i, json.loads(bench.outputs[i])


def _rejects(bench: run.Run, i: int, out: dict) -> bool:
    return checks.check_job(bench.jobs[i], json.dumps(out), bench.inputs, "selftest") is not None


def test_checks_reject_corrupted_outputs(modules: dict) -> None:
    bench = run.Run(modules, "products", SEED)
    bench.run_prep()
    i, out = _first_output(bench, "abp")
    expect(not _rejects(bench, i, out), "a correct product is rejected")
    p = 5 if out["abp"]["field"]["kind"] == "Fp" else None
    edge = next(e for e in out["abp"]["edges"] if e["label"]["coeffs"])
    var, value = next(iter(edge["label"]["coeffs"].items()))
    flipped = (int(value) + 1) % p if p else int(value) + 1
    edge["label"]["coeffs"][var] = str(flipped or 2)
    expect(_rejects(bench, i, out), "a product with one coefficient flipped passes")

    bench = run.Run(modules, "identity", SEED)
    for kind in ("det", "span", "rand"):
        i, out = _first_output(bench, kind)
        expect(not _rejects(bench, i, out), f"a correct {kind} verdict is rejected")
        expect(_rejects(bench, i, dict(out, is_zero=not out["is_zero"])), f"a flipped {kind} verdict passes")

    bench = run.Run(modules, "lab", SEED)
    i, out = _first_output(bench, "corr")
    expect(not _rejects(bench, i, out), "a correct lab report is rejected")
    expect(_rejects(bench, i, dict(out, sum_coeffs=str(int(out["sum_coeffs"]) + 2))), "a wrong sign count passes")


def test_names_match_benchmark_json() -> None:
    spec = run.load_spec()
    expect([w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS), "workload names differ")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "lab", "--seed", str(SEED),
             "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=300,
        )
        expect(proc.returncode == 0, f"run.py --trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys differ")
        expect(result["correct"] and result["failed"] == 0, f"run.py --trace {trace} reports failures")
        printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
        expect(printed == [(m["name"], m["unit"]) for m in spec[key]], f"--trace {trace} metrics differ from {key}")


def test_tracing_changes_no_digest(modules: dict) -> None:
    for workload in gen.WORKLOADS:
        bench = run.Run(modules, workload, SEED)
        bench.run_prep()
        for i in range(len(bench.jobs)):
            bench.run_job(i)
        plain = dict(bench.digests)
        originals = {name: getattr(modules["products"], name) for name in ("homogeneous_parts", "prune")}
        tracer = Tracer()
        tracer.install(modules)
        try:
            bench.run_prep(tracer)
            for i in range(len(bench.jobs)):
                bench.run_job(i, tracer, "job")
        finally:
            tracer.uninstall()
        expect(not bench.failures, f"{workload}: {bench.failures[:3]}")
        expect(bench.digests == plain, f"{workload}: traced outputs differ")
        expect(tracer.spans and tracer.layer_totals()["cli.main"]["calls"] == len(bench.jobs) + len(bench.prep),
               f"{workload}: one root span per job expected")
        for name, fn in originals.items():
            expect(getattr(modules["products"], name) is fn, f"uninstall left products.{name} wrapped")


def main() -> int:
    modules = run.load_program()
    tests = [
        ("generator is byte-stable", test_generator_is_byte_stable, ()),
        ("checks reject corrupted outputs", test_checks_reject_corrupted_outputs, (modules,)),
        ("names match BENCHMARK.json", test_names_match_benchmark_json, ()),
        ("tracing changes no digest", test_tracing_changes_no_digest, (modules,)),
    ]
    failed = 0
    for name, fn, args in tests:
        try:
            fn(*args)
            print(f"ok    {name}")
        except Failure as exc:
            failed += 1
            print(f"FAIL  {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
