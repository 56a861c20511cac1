"""Benchmark of qincompat: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload contexts --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones, taken
from spans around the public functions of each layer (see ``tracing.py``).
The line before it holds the run's details: per-case medians, failures and the
machine and library settings. Traces and run records go to ``.bench_out/``.

Load comes from this single process, one operation at a time; the ``cli``
workload runs its subprocesses one at a time too. BLAS and OpenMP pools are
pinned to one thread here and in every subprocess.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy is imported anywhere in this process
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("contexts", "mub-search", "cli")
SETUP_REPEATS = 3
# Rounds stop starting after this long, so a slowed program still exits in time.
RUN_LIMIT_S = 120.0

PER_LAYER_SPANS = {
    "core.DensityMatrix": ("calls", "ms"),
    "core.ObservableBasis": ("calls", "ms"),
    "core.dephase": ("calls", "ms"),
    "core.von_neumann_entropy": ("calls", "ms"),
    "measures.incompatibility_report": ("ms", "self_ms"),
    "measures.measurement_incompatibility": ("calls", "ms"),
    "measures.leakage_ratio": ("calls", "ms"),
    "measures.classify_context": ("ms",),
    "protocol.stinespring_ledger": ("ms", "self_ms"),
    "protocol.noise_sweep": ("ms", "self_ms"),
    "bloch.build_generators": ("calls", "ms"),
    "bloch.state_to_bloch": ("ms",),
    "bloch.basis_to_bloch_frame": ("ms",),
    "bloch.geometric_maps": ("ms",),
    "mubsearch.maximize_incompatibility": ("ms", "self_ms"),
    "mubsearch.parameterize_basis": ("calls", "ms"),
    "cli.load_context_document": ("ms",),
}
LAYER_ENTRIES = ("core", "measures", "protocol", "bloch", "mubsearch", "cli")
CLI_COMMANDS = ("measure", "sweep", "protocol", "bloch", "mub")
# Taken by the cli workload alone; they read 0 on the workloads that never start it.
CLI_PASS_METRICS = ("cli.interpreter_ms", "cli.import_ms", *(f"cli.{c}.ms" for c in CLI_COMMANDS))
# Layers a workload must never enter: the bypass each workload stands for.
BYPASSED = {"contexts": ("bloch", "mubsearch"), "mub-search": ("protocol",)}
UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_rounds(workload, seconds: float, tracer):
    """Whole rounds until ``seconds`` have passed.

    A run makes at least ``workload.min_rounds`` rounds, and with a tracer at
    least two: rounds then alternate untraced and traced, and each input set
    runs once each way, so the two kinds of round time the same work.
    Returns the outcomes and, per kind of round, the operation time of each.
    """
    min_rounds = max(workload.min_rounds, 1 if tracer is None else 2)
    outcomes = []
    round_seconds = {False: [], True: []}
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            batch = workload.run_round(index // 2 if tracer is not None else index)
        finally:
            if traced:
                tracer.uninstall()
        outcomes.extend(batch)
        round_seconds[traced].append(sum(o.seconds for o in batch))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= RUN_LIMIT_S or (elapsed >= seconds and index >= min_rounds):
            return outcomes, round_seconds


def end_to_end(outcomes, round_seconds: list[float], setup_s: float, peak_rss_mib: float, cases: dict) -> dict:
    """Throughput is taken from the median round, so that a round slowed by
    interference from outside does not move it; rounds hold the same
    operations, and the same number of them pass."""
    good = sum(o.error is None for o in outcomes)
    medians = [c["median_ms"] for c in cases.values() if c["median_ms"] is not None]
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(good / len(round_seconds) / statistics.median(round_seconds), "1/s"),
        "fastest_case_ms": metric(min(medians), "ms"),
        "slowest_case_ms": metric(max(medians), "ms"),
        "peak_rss_mib": metric(peak_rss_mib, "MiB"),
    }


def per_layer(summary: dict, passes: int, tracer, extra: dict) -> dict:
    """Per-layer metrics per traced round (or per in-process CLI pass)."""
    from reference import search_stats

    out = {}
    for span, kinds in PER_LAYER_SPANS.items():
        stats = summary.get(span, {})
        for kind in kinds:
            out[f"{span}.{kind}"] = metric(stats.get(kind, 0) / passes, UNITS[kind])
    out["bloch.build_generators.peak_mib"] = metric(
        tracer.peak_mib.get("bloch.build_generators", 0.0), "MiB"
    )
    for layer in LAYER_ENTRIES:
        out[f"{layer}.calls"] = metric(summary.get(layer, {}).get("calls", 0) / passes, "count")
    entries = iterations = improving = 0
    for result in tracer.search_results:
        n, steps, up = search_stats(result.trajectory)
        entries, iterations, improving = entries + n, iterations + steps, improving + up
    out["mubsearch.iterations"] = metric(entries / passes, "count")
    out["mubsearch.improving_ratio"] = metric(improving / iterations if iterations else 0.0, "ratio")
    out.update(extra)
    return out


def cli_pass_metrics(workload, tracer) -> tuple[dict, dict, list[str]]:
    """In-process passes of ``cli.main``: untraced ones on either side of the
    traced one, so that the first pass's cold start does not count as tracing
    overhead. Returns the pass times by kind, the cli metrics and errors."""
    pass_seconds: dict = {False: [], True: []}
    errors: list[str] = []
    for traced in (False, True, False):
        if traced:
            tracer.install()
        try:
            seconds, per_command, pass_errors = workload.layer_pass()
        finally:
            tracer.uninstall()
        pass_seconds[traced].append(seconds)
        errors += pass_errors
        if not traced:
            plain_per_command = per_command
    interpreter_ms, import_ms = workload.startup_probes()
    extra = {"cli.interpreter_ms": metric(interpreter_ms, "ms"), "cli.import_ms": metric(import_ms, "ms")}
    for command in CLI_COMMANDS:
        extra[f"cli.{command}.ms"] = metric(plain_per_command.get(command, 0.0), "ms")
    return pass_seconds, extra, errors


def tally(outcomes, known_faults) -> tuple[dict, list[str]]:
    """Per case: attempted, failed, first error and median latency of the
    operations that passed; plus every failure outside the known faults."""
    cases: dict[str, dict] = {}
    errors = []
    for o in outcomes:
        case = cases.setdefault(o.case, {"attempted": 0, "failed": 0, "latencies": [], "error": None})
        case["attempted"] += 1
        if o.error is None:
            case["latencies"].append(o.seconds * 1e3)
            continue
        case["failed"] += 1
        case["error"] = case["error"] or o.error
        if o.case not in known_faults:
            errors.append(f"{o.case}: {o.error}")
    for case in cases.values():
        latencies = case.pop("latencies")
        case["median_ms"] = statistics.median(latencies) if latencies else None
    return cases, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qincompat" / "__init__.py").is_file():
        print(f"error: no qincompat package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    started = time.perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import qincompat
    import workloads
    from tracing import Tracer

    import_s = time.perf_counter() - started
    if not Path(qincompat.__file__).resolve().is_relative_to(SRC):
        print(f"error: qincompat was imported from {qincompat.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT / f"{args.workload}-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    extra = {name: metric(0.0, "ms") for name in CLI_PASS_METRICS}
    errors: list[str] = []
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)
        outcomes, round_seconds = run_rounds(workload, args.seconds, tracer if workload.in_process else None)
        rounds = len(round_seconds[False]) + len(round_seconds[True])
        if tracer is not None and not workload.in_process:
            round_seconds, cli_metrics, errors = cli_pass_metrics(workload, tracer)
            extra.update(cli_metrics)
    finally:
        workload.close()

    cases, failures = tally(outcomes, workload.known_faults)
    errors += failures
    if tracer is None:
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        peak_mib = resource.getrusage(usage).ru_maxrss / 1024.0
        metrics = end_to_end(outcomes, round_seconds[False], setup_s, peak_mib, cases)
    else:
        summary = tracer.summary()
        for layer in BYPASSED.get(args.workload, ()):
            if summary.get(layer, {}).get("calls", 0):
                errors.append(f"the {args.workload} workload called into {layer}")
        overhead = statistics.mean(round_seconds[True]) / statistics.mean(round_seconds[False]) - 1.0
        extra["trace.overhead_pct"] = metric(100.0 * overhead, "%")
        metrics = per_layer(summary, len(round_seconds[True]), tracer, extra)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "wall_s": time.perf_counter() - started,
        "environment": environment(),
        "cases": cases,
        "errors": errors[:20],
    }
    failed = sum(o.error is not None for o in outcomes)
    result = {"correct": not errors, "attempted": len(outcomes), "failed": failed, "metrics": metrics}
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"details": details, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
