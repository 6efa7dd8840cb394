"""Self-checks of the benchmark: determinism of its inputs and counters, the
correctness gate, the status table, and the refusal to run without sources."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import ltp  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def _suite_json(spec: str, threads: str) -> str:
    """run_suite's JSON report from a fresh interpreter with BLAS pinned to one
    thread, as in the benchmark, and LTP_THREADS set to ``threads``."""
    env = dict(os.environ, LTP_THREADS=threads, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, ltp; sys.stdout.write(ltp.run_suite("
            f"{spec!r}, {wl.SUITE_P!r}, seed={wl.SUITE_SEED}).to_json())")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=300)
    return done.stdout


def test_suite_report_identical_for_one_and_two_threads():
    assert _suite_json("dihedral:64", "1") == _suite_json("dihedral:64", "2")


def _traced_stream(seed: int, requests: int) -> dict:
    models, _ = wl.setup(wl.STREAM_SPECS)
    tracer = Tracer()
    tracer.install()
    try:
        result, _ = wl.run_stream(models, seed, requests=requests, check=False)
    finally:
        tracer.uninstall()
    assert result.ops == requests
    return tracer.layer_metrics()


def test_traced_counters_repeat_exactly_for_the_same_seed():
    original = ltp.tempered_norm
    first = _traced_stream(seed=3, requests=2 * wl.STREAM_CYCLE)
    second = _traced_stream(seed=3, requests=2 * wl.STREAM_CYCLE)
    assert ltp.tempered_norm is original
    for name in ("tempered.repeat_f_share", "tempered.repeat_fp_share",
                 "convolve.operator_bytes"):
        assert first[name] == second[name], name
    # every second visit to a model repeats f; p = 1 always follows p = 2 on the same f
    assert first["tempered.repeat_f_share"] == 0.75
    assert first["tempered.repeat_fp_share"] == 0.5
    assert first["convolve.operator_bytes"] > 0
    assert first["tempered.boyd.calls"] == 0


def test_gate_accepts_exact_estimates_and_rejects_wrong_ones():
    model = ltp.build_group("cyclic:8@counting")
    f = wl.draw_function(model, np.random.default_rng(0))
    for p in wl.STREAM_P:
        assert wl.gate(f, p, ltp.tempered_norm(f, p)) == []
    est = ltp.tempered_norm(f, 2)
    inflated = ltp.NormEstimate(est.lower * 1.001, est.upper * 1.001, est.method,
                                witness=est.witness)
    problems = wl.gate(f, 2.0, inflated)
    assert any("witness" in msg for msg in problems)
    assert any("fft" in msg for msg in problems)
    wl1 = ltp.upper_bound_weighted_l1(f, 2)
    above = ltp.NormEstimate(2.0 * wl1, 2.0 * wl1, est.method)
    assert any("weighted-L1" in msg for msg in wl.gate(f, 2.0, above))


def test_status_table_covers_the_suite_workloads():
    table = wl.load_status_table()
    task_names = set()
    for check in ltp.REGISTRY:
        exponents = wl.SUITE_P if check.per_p else (None,)
        task_names |= {check.name if p is None else f"{check.name}@p={p:g}" for p in exponents}
    for specs in wl.SUITE_SPECS.values():
        for spec in specs:
            assert set(table[spec]) == task_names, spec
    assert sorted(wl.seed_failures(table, wl.SUITE_SPECS["suite-lattice"])) == [
        "z2:8 dirac-scaling@p=1.5", "z:64 dirac-scaling@p=1.5"]


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command + ["--workload", "norm-stream", "--seed", "0",
                                     "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
