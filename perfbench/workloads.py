"""The three benchmark workloads: inputs, set-up, timed loops and checks.

* ``suite-finite`` and ``suite-lattice`` run ``run_suite`` over a fixed list
  of models at p = 2 and 1.5, the batch verification the CLI offers.  The
  suite's own seed is fixed at the CLI default (0) so that every run can be
  compared check by check with the status table recorded at the seed commit
  (``seed_status.json``); ``--seed`` orders the models within a pass and
  draws the probes behind ``bracket_gap``.
* ``norm-stream`` is a closed loop with one client.  Request i goes to model
  i mod 6; every second visit to a model resends the function of its
  previous visit.  A request is ``tempered_norm(f, 2)`` then
  ``tempered_norm(f, 1)``, the shape of ``ltp norm --p 2,1``.  It is left
  out of ``BENCHMARK.json``: the symbol polish on lattice models costs either
  about 2 or 50-300 ms depending on f, so its throughput and latencies move
  with the seed by more than any bound the benchmark may set.

Everything here calls the public ``ltp`` API, through the package namespace
so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ltp
from ltp import GFunction, random_function
from ltp.groups import KIND_FINITE, KIND_LATTICE

SUITE_SPECS = {
    "suite-finite": ("cyclic:256@counting", "circle:64", "dihedral:64", "symmetric:5",
                     "product:cyclic:8+cyclic:16"),
    "suite-lattice": ("z:64", "z2:8", "r:0.05:4", "affine:0.125:1:0.125:1"),
}
SUITE_P = (2.0, 1.5)
SUITE_SEED = 0
STREAM_SPECS = ("cyclic:512@counting", "dihedral:128", "z:128", "z2:8", "r:0.05:4",
                "affine:0.125:1:0.125:1")
STREAM_P = (2.0, 1.0)

SETUP_REPEATS = 3
SETUP_BUDGET_S = 2.0
SETUP_MAX_REPEATS = 50
# One cycle visits every model twice: once with a new f, once repeating it.
STREAM_CYCLE = 2 * len(STREAM_SPECS)
STREAM_MIN_REQUESTS = 24 * STREAM_CYCLE
TRACE_STREAM_REQUESTS = 10 * STREAM_CYCLE
BRACKET_PROBES = 3
# Fixed per workload so that at least ten samples lie beyond it in one run.
TAIL_PERCENTILE = {"suite-finite": 90.0, "suite-lattice": 85.0, "norm-stream": 95.0}
GATE_RTOL = 1e-9
# Checks whose run time the traced run reports one by one.
HEAVY_CHECKS = ("re-im-closure", "weighted-l1-upper", "l1-inclusion-discrete",
                "discrete-lower-bound", "submultiplicative-action", "finite-norm-equivalence",
                "restricted-isometry", "dirac-scaling", "group-axioms")
STATUS_TABLE = Path(__file__).resolve().parent / "seed_status.json"
_LATTICE_FAMILIES = ("z", "z2", "r")


def specs_of(workload: str) -> tuple[str, ...]:
    return SUITE_SPECS.get(workload, STREAM_SPECS)


def setup(specs) -> tuple[dict, float]:
    """Build every model and fill its division table; returns (models, seconds)."""
    start = time.perf_counter()
    models = {}
    for spec in specs:
        model = ltp.build_group(spec)
        model.division_table()
        models[spec] = model
    return models, time.perf_counter() - start


def draw_function(model, rng) -> GFunction:
    """Seeded complex f: full support, except a box of a quarter of the
    window on lattices, where the symbol route is exact for window-supported
    data."""
    radius = None
    if model.spec.family in _LATTICE_FAMILIES:
        radius = float(np.max(np.abs(model.coords()))) / 4.0
    return random_function(model, rng, support_radius=radius)


# ---------------------------------------------------------------------------
# Correctness gate for single estimates
# ---------------------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= GATE_RTOL * max(abs(a), abs(b), 1e-300)


def gate(f: GFunction, p: float, est) -> list[str]:
    """Problems with one estimate of ||f||_p^T (empty when it passes)."""
    model = f.group
    problems = []
    if not est.lower <= est.upper:
        problems.append(f"lower {est.lower!r} > upper {est.upper!r}")
    omega = 1.0 if p == 1.0 else model.modular ** (-(1.0 - 1.0 / p))
    wl1 = float(np.sum(model.weights * np.abs(f.values) * omega))
    if est.lower > wl1 * (1.0 + GATE_RTOL):
        problems.append(f"lower {est.lower!r} above the weighted-L1 bound {wl1!r}")
    if model.kind in (KIND_FINITE, KIND_LATTICE) and est.witness is not None:
        g = est.witness
        ratio = ltp.lp_norm(ltp.convolve(g, f), p) / ltp.lp_norm(g, p)
        if not _close(ratio, est.lower):
            problems.append(f"witness attains {ratio!r}, lower is {est.lower!r}")
    factors = model.cyclic_factors
    if model.kind == KIND_FINITE and factors is not None and p == 2.0:
        expected = float(model.weights[0] * np.max(np.abs(np.fft.fftn(f.values.reshape(factors)))))
        if not (_close(est.lower, expected) and _close(est.upper, expected)):
            problems.append(f"[{est.lower!r}, {est.upper!r}] != w0 max|fft| {expected!r}")
    return problems


# ---------------------------------------------------------------------------
# Results of one timed loop
# ---------------------------------------------------------------------------


@dataclass
class LoopResult:
    ops: int = 0                 # executed checks, or requests
    busy_s: float = 0.0          # time spent inside the timed calls
    latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    failing: int = 0             # counted in fail_share
    unexpected: int = 0          # failing operations the seed commit did not show
    notes: list = field(default_factory=list)
    check_s: dict = field(default_factory=dict)
    tasks: int = 0
    skipped: int = 0

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.busy_s

    @property
    def fail_share(self) -> float:
        return self.failing / self.attempted

    def fail(self, note: str) -> None:
        """Count an operation whose failure the seed commit did not show."""
        self.failing += 1
        self.unexpected += 1
        self.notes.append(note)


def bracket_width(est) -> float:
    """(upper - lower) / upper of a norm estimate (0 for the zero function)."""
    return (est.upper - est.lower) / est.upper if est.upper > 0 else 0.0


# ---------------------------------------------------------------------------
# Suite workloads
# ---------------------------------------------------------------------------


def load_status_table() -> dict:
    with open(STATUS_TABLE, encoding="utf-8") as handle:
        table = json.load(handle)
    if table["suite_seed"] != SUITE_SEED or tuple(table["p"]) != SUITE_P:
        raise ValueError("status table was recorded for other suite settings")
    return table["specs"]


def seed_failures(table: dict, specs) -> list[str]:
    return [f"{spec} {name}" for spec in specs
            for name, status in table[spec].items() if status == "fail"]


def _compare_with_seed(spec: str, report, seed_status: dict, result: LoopResult) -> None:
    now = {check.name: check for check in report.checks}
    for name in sorted(set(seed_status) | set(now)):
        before = seed_status.get(name, "skipped")
        check = now.get(name)
        after = check.status if check is not None else "missing"
        if before == "skipped" and after == "skipped":
            continue
        result.attempted += 1
        if after == "pass":
            continue
        if before == "fail" and after == "fail":
            result.failing += 1
        else:
            result.fail(f"{spec} {name}: {before} at the seed commit, now {after}")


def suite_pass(models: dict, order, table: dict, result: LoopResult) -> None:
    """One run_suite call per model, in the given order."""
    for spec in order:
        model = models[spec]
        started = time.perf_counter()
        report = ltp.run_suite(model.spec, SUITE_P, seed=SUITE_SEED, model=model, timings=True)
        result.busy_s += time.perf_counter() - started
        for check in report.checks:
            result.tasks += 1
            if check.status == "skipped":
                result.skipped += 1
                continue
            result.ops += 1
            result.latencies_ms.append(check.runtime_ms)
            base = check.name.split("@", 1)[0]
            result.check_s[base] = result.check_s.get(base, 0.0) + check.runtime_ms / 1000.0
        _compare_with_seed(spec, report, table[spec], result)


def run_suite_loop(models: dict, seed: int, seconds: float, table: dict) -> LoopResult:
    """Whole passes: one, then more while the mean pass still fits in ``seconds``."""
    order = list(models)
    np.random.default_rng([seed, 1]).shuffle(order)
    result = LoopResult()
    started = time.perf_counter()
    passes = 0
    while True:
        suite_pass(models, order, table, result)
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / passes > seconds:
            return result


def bracket_probes(models: dict, seed: int, result: LoopResult) -> list[float]:
    """Relative bracket widths of seeded estimates on the suite's models,
    taken after the timed loop; each estimate also passes the gate."""
    rng = np.random.default_rng([seed, 2])
    gaps = []
    for spec in models:
        for p in SUITE_P:
            for _ in range(BRACKET_PROBES):
                f = draw_function(models[spec], rng)
                gaps.append(_estimate_and_gate(spec, f, p, result))
    return [g for g in gaps if g is not None]


def _estimate_and_gate(spec: str, f: GFunction, p: float, result: LoopResult):
    result.attempted += 1
    try:
        est = ltp.tempered_norm(f, p)
    except Exception as exc:  # a failed query is counted, not fatal
        problems = [f"raised {type(exc).__name__}: {exc}"]
        est = None
    else:
        problems = gate(f, p, est)
    if problems:
        result.fail(f"{spec} p={p:g}: " + "; ".join(problems))
        return None
    return bracket_width(est)


# ---------------------------------------------------------------------------
# norm-stream
# ---------------------------------------------------------------------------


def run_stream(models: dict, seed: int, seconds: float | None = None,
               requests: int | None = None, check: bool = True) -> tuple[LoopResult, list[float]]:
    """Closed loop over whole cycles until ``seconds`` have elapsed and at
    least STREAM_MIN_REQUESTS were sent, or for exactly ``requests`` requests.

    Returns the loop result and the bracket widths of the checked estimates.
    Gate checks run between requests, outside the timed region.
    """
    specs = list(models)
    rng = np.random.default_rng([seed, 0])
    last = {}
    result = LoopResult()
    gaps = []
    started = time.perf_counter()
    i = 0
    while True:
        if i % STREAM_CYCLE == 0:
            if requests is not None and i >= requests:
                break
            if requests is None and i >= STREAM_MIN_REQUESTS \
                    and time.perf_counter() - started >= seconds:
                break
        spec = specs[i % len(specs)]
        model = models[spec]
        if (i // len(specs)) % 2:
            f = GFunction(model, last[spec].copy())
        else:
            f = draw_function(model, rng)
            last[spec] = f.values
        i += 1
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            estimates = [ltp.tempered_norm(f, p) for p in STREAM_P]
        except Exception as exc:  # a failed request is counted, not fatal
            result.busy_s += time.perf_counter() - t0
            result.fail(f"{spec}: raised {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - t0
        result.busy_s += elapsed
        result.ops += 1
        result.latencies_ms.append(elapsed * 1000.0)
        if not check:
            continue
        problems = []
        for p, est in zip(STREAM_P, estimates):
            problems += [f"p={p:g}: {msg}" for msg in gate(f, p, est)]
            gaps.append(bracket_width(est))
        if problems:
            result.fail(f"{spec}: " + "; ".join(problems))
    return result, gaps


def median_setup(specs) -> tuple[dict, float, int]:
    """Set up at least SETUP_REPEATS times, and more while the rounds so far
    took under SETUP_BUDGET_S (cheap set-ups need many rounds to be steady).

    Returns the models of the last round, the median time and the rounds."""
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_BUDGET_S
                                         and len(times) < SETUP_MAX_REPEATS):
        models, elapsed = setup(specs)
        times.append(elapsed)
    return models, statistics.median(times), len(times)
