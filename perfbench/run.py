"""Benchmark of the ltp package: certified tempered-norm brackets and the
batch verification suite.

    python3 perfbench/run.py --workload suite-finite --seed 1 --seconds 20 --trace 0

Workloads: ``suite-finite``, ``suite-lattice``, ``norm-stream`` (see
``workloads.py``); ``BENCHMARK.json`` lists the two suite workloads only,
because norm-stream's timings spread across seeds by more than any bound
the benchmark may set.  With ``--trace 0`` the run measures the end-to-end
metrics with no instrumentation; with ``--trace 1`` it runs a fixed amount
of work once untraced and once with every layer boundary wrapped by the span
tracer, and reports per-layer metrics plus the tracing overhead.  Lines
before the last describe the run and its environment; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and the full result are also written
under ``.perfbench_out/`` at the root of the checkout.

BLAS/OpenMP threads and ``LTP_THREADS`` are pinned to 1 before numpy is
imported: with two OpenBLAS threads on a two-core machine the suite ran
about 1.5 times slower (z:64 4.1 s -> 6.1 s, dihedral:64 2.9 s -> 4.8 s).
"""

from __future__ import annotations

import os

PINNED_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "LTP_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = str(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def _import_ltp():
    """Import the ltp package of this checkout, or exit with code 2."""
    sys.path.insert(0, str(SRC))
    try:
        import ltp
    except ImportError as exc:
        sys.stderr.write(f"cannot import ltp from {SRC}: {exc}\n")
        sys.exit(2)
    if not Path(ltp.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write(f"ltp was imported from {ltp.__file__}, not from {SRC}\n")
        sys.exit(2)
    return ltp


def environment() -> dict:
    import scipy
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
        "thread_pin_reason": "two OpenBLAS threads made the suite about 1.5x slower "
                             "on a two-core machine",
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def percentile(values, q: float) -> float:
    return float(numpy.percentile(numpy.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload: str, seed: int, seconds: float, lines: list) -> tuple[dict, object]:
    import workloads as wl
    specs = wl.specs_of(workload)
    models, setup_s, setup_rounds = wl.median_setup(specs)
    if workload == "norm-stream":
        result, gaps = wl.run_stream(models, seed, seconds=seconds)
    else:
        table = wl.load_status_table()
        result = wl.run_suite_loop(models, seed, seconds, table)
        gaps = wl.bracket_probes(models, seed, result)
        lines.append("seed failures (kept, counted in fail_share): "
                     + "; ".join(wl.seed_failures(table, specs)))
    tail_q = wl.TAIL_PERCENTILE[workload]
    lat = result.latencies_ms
    tail = percentile(lat, tail_q)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (result.ops_per_s, "1/s"),
        "pass_share": (1.0 - result.fail_share, "share"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "bracket_gap": (statistics.fmean(gaps), "share"),
    }
    op = "request" if workload == "norm-stream" else "executed check"
    lines += [
        f"setup_s: median of {setup_rounds} set-ups",
        f"ops: {result.ops} {op}s in {result.busy_s:.3f} s of timed calls",
        # Printed, not bounded: across seeds they spread wider than any bound
        # the benchmark may set (see BENCHMARK.json and CHANGES.md).
        f"op_p50_ms = {percentile(lat, 50.0):.6g} ms (median {op} latency)",
        f"op_tail_ms = {tail:.6g} ms (p{tail_q:g} of {len(lat)} {op} latencies, "
        f"{sum(x > tail for x in lat)} samples beyond it)",
        f"fail_share = {result.failing}/{result.attempted} = {result.fail_share:.6g} "
        f"(pass_share = 1 - fail_share)",
        f"bracket_gap: mean (upper - lower) / upper over {len(gaps)} estimates",
    ]
    return metrics, result


def run_traced(workload: str, seed: int, lines: list) -> tuple[dict, object]:
    import workloads as wl
    from tracer import Tracer

    specs = wl.specs_of(workload)
    stream = workload == "norm-stream"
    table = None if stream else wl.load_status_table()

    def timed_loop(models, check):
        if stream:
            return wl.run_stream(models, seed, requests=wl.TRACE_STREAM_REQUESTS, check=check)[0]
        return wl.run_suite_loop(models, seed, 0.0, table)

    reference = timed_loop(wl.setup(specs)[0], check=True)
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_loop(wl.setup(specs)[0], check=False)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    span_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(span_path)

    metrics = {name: (value, _unit_of(name)) for name, value in tracer.layer_metrics().items()}
    for check in wl.HEAVY_CHECKS:
        metrics[f"suite.check_s.{check}"] = (reference.check_s.get(check, 0.0), "s")
    skip_share = reference.skipped / reference.tasks if reference.tasks else 0.0
    metrics["suite.skip_share"] = (skip_share, "share")
    overhead = reference.ops_per_s - traced.ops_per_s
    metrics["trace.ops_per_s_untraced"] = (reference.ops_per_s, "1/s")
    metrics["trace.ops_per_s_traced"] = (traced.ops_per_s, "1/s")
    metrics["trace.overhead_share"] = (overhead / reference.ops_per_s, "share")
    lines += [
        f"traced work: {traced.ops} ops, the same work run untraced first",
        f"tracing overhead: {overhead:.6g} ops/s of {reference.ops_per_s:.6g}",
        "convolve.operator_bytes is computed as n^2 * itemsize per dense materialization",
        "suite.check_s.* come from run_suite(timings=True) in the untraced pass",
        f"spans: {len(tracer.spans)} written to {span_path.relative_to(ROOT)}",
    ]
    return metrics, reference


def _unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_bytes"):
        return "computed_bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite-finite", "suite-lattice", "norm-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_ltp()
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
             f"trace {args.trace}", "environment: " + json.dumps(environment(), sort_keys=True)]
    if args.trace:
        metrics, result = run_traced(args.workload, args.seed, lines)
    else:
        metrics, result = run_untraced(args.workload, args.seed, args.seconds, lines)
    lines += [f"note: {note}" for note in result.notes]
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]

    output = {
        "correct": result.unexpected == 0,
        "attempted": int(result.attempted),
        "failed": int(result.unexpected),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(output, environment=environment(), log=lines,
                  latencies_ms=result.latencies_ms)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
