"""Benchmark of the ``hadamard`` command line, run in-process.

    python3 perfbench/run.py --workload products --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --table --seed 1 --seconds 15

A run generates its inputs from the seed, then calls ``hadamard.cli.main``
on them back to back (one client, closed loop, one thread) in whole passes
over the workload's job list until ``--seconds`` have passed.  Outputs are
checked against ``oracle`` after the timed passes.  The last line of stdout
is one JSON object: with ``--trace 0`` the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics, which come from
one untraced and one traced pass.  A fuller record of every run, with all
per-kind latencies, goes to ``.bench_work/results/``.  ``--table`` runs every
workload untraced and prints one row per workload.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_RUNS = 7  # fresh interpreters timed for setup_s; the median is reported

import checks  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
from speed import reference_loop  # noqa: E402
from tracer import Tracer  # noqa: E402

# job kind -> name of its latency metric in the report
KIND_METRICS = {
    "abp": "abp_product_s",
    "circuit": "circuit_product_s",
    "det": "pit_det_s",
    "span": "pit_span_s",
    "rand": "pit_rand_s",
    "corr": "lab_corr_s",
}
TAILED_KINDS = ("abp", "circuit", "det", "span")


def load_program():
    """Import the package from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hadamard", "cli.py")):
        raise SystemExit(f"error: no hadamard sources under {SRC}")
    sys.path.insert(0, SRC)
    import hadamard.cli

    if not os.path.abspath(hadamard.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported hadamard from {hadamard.cli.__file__}, not {SRC}")
    from hadamard import abp, circuits, cli, fields, grammars, lab, matrices, pit, polynomials, products

    return {
        "abp": abp, "circuits": circuits, "cli": cli, "fields": fields, "grammars": grammars,
        "lab": lab, "matrices": matrices, "pit": pit, "polynomials": polynomials, "products": products,
    }


# ---------------------------------------------------------------------------
# measuring


def measure_setup() -> list[float]:
    """Scaled seconds a fresh interpreter needs to import hadamard.cli and build its parser."""
    code = (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "t = time.perf_counter()\n"
        "import hadamard.cli as c\n"
        "c.build_parser()\n"
        "t = time.perf_counter() - t\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "from speed import reference_loop\n"  # after the timed import, which loads fractions itself
        "print(t, reference_loop())\n"
    )
    times = []
    for i in range(SETUP_RUNS + 1):  # the first run may compile bytecode; it is not timed
        proc = subprocess.run(
            [sys.executable, "-c", code, SRC, HERE], capture_output=True, text=True, timeout=60, check=True
        )
        seconds, ref = map(float, proc.stdout.split())
        if i:
            times.append(speed.scaled(seconds, ref))
    return times


def execute(cli, argv: list, tracer: Tracer | None = None, job_id: str = "") -> tuple:
    """(exit code or None on a crash, seconds, stdout text) of one cli.main call."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = tracer.run_job(job_id, cli.main, argv) if tracer else cli.main(argv)
    except (Exception, SystemExit):  # a crash is a failed job, not a failed benchmark
        traceback.print_exc(file=sys.stderr)
        rc = None
    return rc, time.perf_counter() - start, buf.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Run:
    """One workload run: inputs, executions, failures and output digests."""

    def __init__(self, modules: dict, workload: str, seed: int):
        self.cli = modules["cli"]
        self.workload = workload
        self.seed = seed
        workdir = os.path.join(WORK, f"{workload}-seed{seed}")
        shutil.rmtree(workdir, ignore_errors=True)
        self.prep, self.jobs = gen.WORKLOADS[workload](seed, gen.Writer(workdir))
        self.inputs = checks.Inputs()
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.runs: dict[int, int] = {}
        self.bad_runs: dict[int, int] = {}
        self.digests: dict[int, str] = {}
        self.outputs: dict[int, str] = {}
        self.prep_digests: dict[int, str] = {}
        self.mix = {"zero": 0, "nonzero": 0}

    def check_inputs(self) -> None:
        for job in self.jobs:
            if job.kind == "corr":
                continue
            status, problems = checks.input_status(job, self.inputs)
            self.mix[status] += 1
            self.failures += problems

    def run_prep(self, tracer: Tracer | None = None) -> None:
        for i, job in enumerate(self.prep):
            rc, _, _ = execute(self.cli, job.argv, tracer, f"prep{i}")
            self.attempted += 1
            problem = None if rc == 0 else f"prep {' '.join(job.argv)} exited {rc}"
            if problem is None:
                d = file_digest(job.argv[4])
                if self.prep_digests.setdefault(i, d) != d:
                    problem = f"prep {job.argv[4]} changed between runs"
                elif tracer is None:
                    problem = checks.check_prep(job, self.inputs)
            if problem:
                self.failed += 1
                self.failures.append(problem)

    def run_job(self, i: int, tracer: Tracer | None = None, tag: str = "") -> float:
        rc, seconds, text = execute(self.cli, self.jobs[i].argv, tracer, f"{tag}{i}")
        self.attempted += 1
        self.runs[i] = self.runs.get(i, 0) + 1
        d = digest(text)
        if i not in self.digests:
            self.digests[i], self.outputs[i] = d, text
        problem = None
        if rc != 0:
            problem = f"job {i} ({' '.join(self.jobs[i].argv)}) exited {rc}"
        elif self.digests[i] != d:
            problem = f"job {i} output changed between runs{' (traced)' if tracer else ''}"
        if problem:
            self.failed += 1
            self.bad_runs[i] = self.bad_runs.get(i, 0) + 1
            self.failures.append(problem)
        return seconds

    def check_outputs(self) -> None:
        """Check each job's first output; a wrong output fails every run of that job."""
        for i, text in sorted(self.outputs.items()):
            problem = checks.check_job(self.jobs[i], text, self.inputs, f"check:{self.seed}:{i}")
            if problem:
                self.failed += self.runs[i] - self.bad_runs.get(i, 0)
                self.bad_runs[i] = self.runs[i]
                self.failures.append(f"job {i} ({' '.join(self.jobs[i].argv)}): {problem}")

    def output_digest(self) -> str:
        return digest("".join(self.digests[i] for i in sorted(self.digests)))


def latency_summary(samples: list) -> dict:
    """Median, and the tail: the highest percentile with ten samples beyond it,
    reported once that percentile is at least the median (from 21 samples)."""
    values = sorted(samples)
    out = {"count": len(values), "p50": statistics.median(values)}
    if len(values) > 20:
        out["tail"] = values[len(values) - 11]
        out["tail_percentile"] = 100 * (len(values) - 10) / len(values)
    return out


def timed_passes(run: Run, seconds: float) -> tuple[dict, dict, list, float, int]:
    """Whole shuffled passes over the jobs until `seconds` have passed.

    Returns (scaled latencies per job, wall latencies per job, reference-loop
    times, elapsed seconds, passes).  The reference loop runs between jobs; a
    job's latency is scaled by the median of the six loops nearest to it,
    three before and three after."""
    order_rng = random.Random(f"order:{run.workload}:{run.seed}")
    executions = []  # (job, wall seconds, index of the loop timed just before it)
    refs = [reference_loop()]
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        order = list(range(len(run.jobs)))
        order_rng.shuffle(order)
        for i in order:
            executions.append((i, run.run_job(i), len(refs) - 1))
            refs.append(reference_loop())
        passes += 1
    elapsed = time.perf_counter() - start
    scaled: dict[int, list] = {i: [] for i in range(len(run.jobs))}
    wall: dict[int, list] = {i: [] for i in range(len(run.jobs))}
    for i, seconds_i, k in executions:
        wall[i].append(seconds_i)
        scaled[i].append(speed.scaled(seconds_i, statistics.median(refs[max(0, k - 2) : k + 4])))
    return scaled, wall, refs, elapsed, passes


def by_kind(run: Run, per_job: dict) -> dict[str, list]:
    out: dict[str, list] = {}
    for i, values in per_job.items():
        out.setdefault(run.jobs[i].kind, []).extend(values)
    return out


def machine_record(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def run_untraced(modules: dict, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(end-to-end metrics, record)."""
    setup = measure_setup()
    run = Run(modules, workload, seed)
    run.check_inputs()
    run.run_prep()
    scaled, wall, refs, elapsed, passes = timed_passes(run, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    executions = sum(len(v) for v in scaled.values())
    run.check_outputs()

    kinds = {kind: latency_summary(values) for kind, values in by_kind(run, scaled).items()}
    job_medians = [statistics.median(values) for values in scaled.values()]
    report = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(job_medians) / sum(job_medians),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": run.failed / run.attempted,
        "product_nodes": None,
        "circuit_gates": None,
    }
    for kind, metric in KIND_METRICS.items():
        summary = kinds.get(kind)
        report[f"{metric}.p50"] = summary["p50"] if summary else None
        if kind in TAILED_KINDS:
            report[f"{metric}.tail"] = summary.get("tail") if summary else None
    for i, text in run.outputs.items():
        kind = run.jobs[i].kind
        if kind == "abp":
            report["product_nodes"] = (report["product_nodes"] or 0) + json.loads(text)["nodes"]
        elif kind == "circuit":
            report["circuit_gates"] = (report["circuit_gates"] or 0) + json.loads(text)["gates"]

    metrics = {
        "setup_s": report["setup_s"],
        "jobs_per_s": report["jobs_per_s"],
        "job_gmean_s": statistics.geometric_mean(job_medians),
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "workload": workload,
        "trace": 0,
        "machine": machine_record(seed),
        "seconds": seconds,
        "elapsed_s": elapsed,
        "passes": passes,
        "setup_samples_s": setup,
        "kinds": kinds,
        "wall_kinds": {kind: latency_summary(values) for kind, values in by_kind(run, wall).items()},
        "wall_jobs_per_s": executions / elapsed,
        "speed_factor": speed.REF_SECONDS / statistics.median(refs),
        "report": report,
        "input_mix": run.mix,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "outputs_sha256": run.output_digest(),
        "job_sha256": [run.digests[i] for i in sorted(run.digests)],
    }
    return metrics, record


def run_traced(modules: dict, workload: str, seed: int) -> tuple[dict, dict]:
    """(per-layer metrics, record): one untraced pass, then one traced pass."""
    run = Run(modules, workload, seed)
    run.check_inputs()
    run.run_prep()
    untraced = sum(run.run_job(i) for i in range(len(run.jobs)))
    tracer = Tracer()
    tracer.install(modules)
    try:
        run.run_prep(tracer)
        traced = sum(run.run_job(i, tracer, "job") for i in range(len(run.jobs)))
    finally:
        tracer.uninstall()
    run.check_outputs()

    layers = tracer.layer_totals()
    metrics = per_layer_metrics(layers, tracer.counts, run)
    metrics["trace.overhead_frac"] = traced / untraced - 1
    record = {
        "workload": workload,
        "trace": 1,
        "machine": machine_record(seed),
        "untraced_s": untraced,
        "traced_s": traced,
        "tracing_overhead_frac": traced / untraced - 1,
        "spans": len(tracer.spans),
        "layers": layers,
        "counts": tracer.counts,
        "input_mix": run.mix,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "outputs_sha256": run.output_digest(),
        "job_sha256": [run.digests[i] for i in sorted(run.digests)],
    }
    return metrics, record


def per_layer_metrics(layers: dict, counts: dict, run: Run) -> dict:
    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for name in (
        "abp.homogeneous_parts", "abp.normalize_edges", "abp.abp_sum", "abp.prune", "abp.ABP.build",
        "abp.ABP.evaluate", "abp.coefficient_matrices", "products.hadamard_homogeneous",
        "products.hadamard_abp_detailed", "products.hadamard_circuit_abp_detailed", "pit.pit_rational",
        "pit.pit_span_basis", "pit.pit_randomized", "matrices.independent_subset",
        "matrices.Matrix.matmul", "grammars.cfg_to_circuit", "lab.build_f", "lab.exp_sum",
        "lab.correlation_report", "polynomials.corr", "polynomials.CPoly.mul", "cli.main",
    ):
        out[f"{name}.self_s"] = get(name, "self_s")
    for name in ("abp.homogeneous_parts", "abp.ABP.build", "products.hadamard_homogeneous",
                 "matrices.independent_subset", "matrices.Matrix.matmul"):
        out[f"{name}.calls"] = get(name, "calls")
    for name in ("abp.homogeneous_parts", "abp.normalize_edges", "abp.abp_sum", "products.hadamard_abp_detailed"):
        out[f"{name}.nodes_out"] = get(name, "nodes_out")
    out["abp.prune.keep_frac"] = ratio(get("abp.prune", "nodes_out"), get("abp.prune", "nodes_in"))
    out["products.hadamard_homogeneous.pairs_tried"] = get("products.hadamard_homogeneous", "pairs_tried")
    out["products.hadamard_homogeneous.hit_frac"] = ratio(
        get("products.hadamard_homogeneous", "edges_out"), get("products.hadamard_homogeneous", "pairs_tried")
    )
    out["products.hadamard_abp_detailed.unpruned_nodes"] = get("products.hadamard_abp_detailed", "unpruned_nodes")
    out["products.hadamard_circuit_abp_detailed.memo_size"] = get("products.hadamard_circuit_abp_detailed", "memo_size")
    out["products.hadamard_circuit_abp_detailed.gates_out"] = get("products.hadamard_circuit_abp_detailed", "gates_out")
    out["pit.pit_randomized.trials"] = get("pit.pit_randomized", "trials")
    out["matrices.independent_subset.keep_frac"] = ratio(
        get("matrices.independent_subset", "kept"), get("matrices.independent_subset", "vectors_in")
    )
    out["grammars.cfg_to_circuit.gates_out"] = get("grammars.cfg_to_circuit", "gates_out")
    for name in ("fields.q_mul", "fields.q_add", "fields.fp_mul", "fields.fp_add", "fields.ext_mul",
                 "fields.ext_add", "fields.psi.calls", "lab.f_coefficient.calls", "circuits.builder_ops"):
        out[name] = counts.get(name, 0)
    out["cli.load_s"] = get("cli.load", "incl_s")
    out["cli.emit_s"] = get("cli.emit", "incl_s")
    out["cli.out_bytes"] = sum(len(run.outputs[i].encode()) for i in run.outputs)
    return out


# ---------------------------------------------------------------------------
# entry points


def write_record(record: dict) -> str:
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(
        WORK, "results", f"{record['workload']}-seed{record['machine']['seed']}-trace{record['trace']}.json"
    )
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_one(args) -> int:
    spec = load_spec()
    modules = load_program()
    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, record = run_traced(modules, args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        metrics, record = run_untraced(modules, args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    path = write_record(record)
    for failure in record["failures"]:
        print(f"failure: {failure}", file=sys.stderr)
    print(f"record: {os.path.relpath(path, ROOT)}", file=sys.stderr)
    result = {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


REPORT_UNITS = [
    ("setup_s", "s"), ("jobs_per_s", "1/s"),
    ("abp_product_s.p50", "s"), ("abp_product_s.tail", "s"),
    ("circuit_product_s.p50", "s"), ("circuit_product_s.tail", "s"),
    ("pit_det_s.p50", "s"), ("pit_det_s.tail", "s"),
    ("pit_span_s.p50", "s"), ("pit_span_s.tail", "s"),
    ("pit_rand_s.p50", "s"), ("lab_corr_s.p50", "s"),
    ("peak_rss_mb", "MB"), ("failed_frac", "ratio"),
    ("product_nodes", "count"), ("circuit_gates", "count"),
]


def run_table(args) -> int:
    """Every workload untraced, each in its own process; one row per workload."""
    rows = []
    for workload in gen.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        with open(os.path.join(WORK, "results", f"{workload}-seed{args.seed}-trace0.json")) as fh:
            rows.append((workload, json.load(fh)))
    width = max(len(f"{name} [{unit}]") for name, unit in REPORT_UNITS)
    print(f"{'metric [unit]':<{width}}  " + "  ".join(f"{w:>12}" for w, _ in rows))
    for name, unit in REPORT_UNITS:
        cells = []
        for _, record in rows:
            value = record["report"][name]
            cells.append(f"{'-':>12}" if value is None else f"{value:>12.6g}")
        print(f"{f'{name} [{unit}]':<{width}}  " + "  ".join(cells))
    for workload, record in rows:
        tails = {k: f"p{v['tail_percentile']:.0f} of {v['count']}" for k, v in record["kinds"].items() if "tail" in v}
        counts = {k: v["count"] for k, v in record["kinds"].items()}
        print(f"{workload}: samples {counts}; tails {tails}; inputs {record['input_mix']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", action="store_true", help="run every workload and print one row each")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.table:
        return run_table(args)
    if not args.workload:
        parser.error("--workload or --table is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
