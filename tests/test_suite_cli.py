"""The theorem suite, report emission, determinism, and the CLI."""

import ast
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import ltp
from ltp import suite
from ltp.cli import main, parse_function_source
from ltp.report import CheckResult, SuiteReport, emit_report, render_report
from ltp.suite import (REGISTRY, CheckDef, _execute_check, coverage_gaps,
                       registry_self_test, run_suite)
from ltp.spectral import fourier
from ltp.tempered import IterConfig, tempered_norm


def test_registry_covers_every_anchor():
    registry_self_test()
    assert coverage_gaps() == []


def test_registry_names_unique():
    names = [c.name for c in REGISTRY]
    assert len(names) == len(set(names))


_DISCRETE_LOWER = next(check for check in REGISTRY if check.name == "discrete-lower-bound")
_FINITE_EQUIVALENCE = next(check for check in REGISTRY
                           if check.name == "finite-norm-equivalence")


def test_registry_refuses_two_sizes_of_one_probe_batch(monkeypatch):
    # the checks that read one batch state its size once
    twin = dataclasses.replace(_DISCRETE_LOWER, name="planted-lower-bound")
    monkeypatch.setattr(suite, "REGISTRY", REGISTRY + [twin])
    registry_self_test()
    for change in ({"draws": 5}, {"per_p": False}):
        monkeypatch.setattr(suite, "REGISTRY", REGISTRY + [dataclasses.replace(twin, **change)])
        with pytest.raises(ltp.LtpError, match="one probe batch differ"):
            registry_self_test()


def test_suite_cyclic16_all_pass():
    report = run_suite("cyclic:16@counting", [2.0], seed=7)
    assert report.summary["fail"] == 0
    assert report.summary["pass"] > 20
    names = {c.name for c in report.checks}
    assert "spectral-svd-agreement" in names
    assert "restricted-isometry" in names


class Work(NamedTuple):
    boyd_estimates: int  # _boyd, one per f
    boyd_blocks: int  # _boyd_block, the restarts of one or more f as columns
    boyd_products: int  # the estimates' matvecs
    boyd_steps: int  # their iterations, the most any restart took
    svd_calls: int  # _exact_svd
    lanczos_steps: int  # their iterations
    blocks_calls: int  # _block_norm
    fft_calls: int  # _spectral_finite_abelian
    symbol_calls: int  # _symbol_supremum
    needs: int  # skips: the model lacks a hypothesis
    unbuilt: int  # skips: ltp has not built what the check reads


# One run_suite pass per benchmark model at p = 2 and 1.5, seed 0: the counts
# repeat exactly, so a change that moves the work moves a count here.  Every
# check that reads only the upper end of a bracket takes it without Boyd,
# and without Lanczos where the route's upper end is a stated bound
# (exact_svd on the affine grid), and no p = 2 route runs Boyd.  When a
# count moves, the failure prints the recomputed table; state the old and
# new counts with that change.
WORK_AT_SEED_0 = {
    "cyclic:256@counting": Work(19, 11, 7704, 962, 8, 264, 0, 99, 0, 4, 5),
    "circle:64": Work(18, 10, 6992, 634, 8, 216, 0, 98, 0, 8, 5),
    "dihedral:64": Work(19, 19, 8796, 1163, 8, 272, 83, 0, 0, 12, 6),
    "symmetric:5": Work(19, 19, 6904, 630, 8, 284, 83, 0, 0, 12, 6),
    "product:cyclic:8+cyclic:16": Work(19, 11, 9696, 1176, 8, 280, 0, 99, 0, 4, 5),
    "z:64": Work(9, 4, 14518, 1322, 0, 0, 0, 0, 31, 7, 21),
    "z2:8": Work(9, 4, 27416, 2624, 0, 0, 0, 0, 31, 7, 24),
    "r:0.05:4": Work(2, 2, 1124, 98, 0, 0, 0, 0, 18, 11, 19),
    "affine:0.125:1:0.125:1": Work(0, 0, 0, 0, 8, 444, 0, 0, 0, 23, 14),
}


def _benchmark_specs(monkeypatch):
    # the benchmark's suite models, imported as tools/suite_digest.py imports them
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import SUITE_SPECS
    return {spec for specs in SUITE_SPECS.values() for spec in specs}


@pytest.fixture(scope="module")
def suite_work():
    """The work of one pass per model of WORK_AT_SEED_0, and the pass's skip notes."""
    # the routes look these up at call time, so a wrapper sees every call
    from ltp import tempered

    calls = {name: [] for name in ("_boyd", "_boyd_block", "_exact_svd", "_block_norm",
                                   "_spectral_finite_abelian", "_symbol_supremum")}
    work, skips = {}, {}
    with pytest.MonkeyPatch.context() as patch:
        for name, results in calls.items():
            def recording(*args, _results=results, _original=getattr(tempered, name), **kwargs):
                _results.append(_original(*args, **kwargs))
                return _results[-1]
            patch.setattr(tempered, name, recording)
        for spec in WORK_AT_SEED_0:
            for results in calls.values():
                del results[:]
            skips[spec] = [check.notes for check in run_suite(spec, (2.0, 1.5), seed=0).checks
                           if check.status == "skipped"]
            unbuilt = sum(note.startswith("unbuilt: ") for note in skips[spec])
            boyd, svd = calls["_boyd"], calls["_exact_svd"]
            work[spec] = Work(len(boyd), len(calls["_boyd_block"]),
                              sum(e.matvecs for e in boyd), sum(e.iterations for e in boyd),
                              len(svd), sum(e.iterations for e in svd),
                              len(calls["_block_norm"]), len(calls["_spectral_finite_abelian"]),
                              len(calls["_symbol_supremum"]), len(skips[spec]) - unbuilt, unbuilt)
    return work, skips


def _recorded_columns(suite_work, *fields):
    work, _ = suite_work
    for spec, row in WORK_AT_SEED_0.items():
        assert [getattr(work[spec], f) for f in fields] == [getattr(row, f) for f in fields], spec


def test_suite_work_at_seed_0_is_recorded(suite_work, monkeypatch):
    assert set(WORK_AT_SEED_0) == _benchmark_specs(monkeypatch)
    work, _ = suite_work
    moved = [f"{spec} {field}: {old} -> {new}" for spec, row in WORK_AT_SEED_0.items()
             for field, old, new in zip(Work._fields, row, work[spec]) if old != new]
    table = "\n".join(f'    "{spec}": Work{tuple(row)},' for spec, row in work.items())
    assert not moved, "\n".join(moved) + "\nrecomputed rows of WORK_AT_SEED_0:\n" + table


def test_every_benchmark_model_has_a_boyd_work_pin(monkeypatch):
    assert _benchmark_specs(monkeypatch) <= set(WORK_AT_SEED_0)


def test_every_benchmark_model_has_an_exact_svd_pin(monkeypatch):
    assert _benchmark_specs(monkeypatch) <= set(WORK_AT_SEED_0)


def test_every_benchmark_model_has_a_skip_pin(monkeypatch):
    assert _benchmark_specs(monkeypatch) <= set(WORK_AT_SEED_0)


def test_suite_boyd_call_counts_are_pinned(suite_work):
    _recorded_columns(suite_work, "boyd_estimates", "boyd_blocks")


def test_suite_boyd_work_is_pinned(suite_work):
    _recorded_columns(suite_work, "boyd_products", "boyd_steps")


def test_suite_exact_svd_calls_are_pinned(suite_work):
    _recorded_columns(suite_work, "svd_calls", "lanczos_steps")


def test_suite_skips_are_pinned_and_name_their_kind(suite_work):
    _recorded_columns(suite_work, "needs", "unbuilt")
    for spec, notes in suite_work[1].items():
        model = ltp.build_group(spec)
        for note in notes:
            if note.startswith("unbuilt: "):
                continue
            head, _, tail = note.partition(": ")
            assert head.startswith("needs ") and tail == f"{spec} is not", note
            missing = set(head.removeprefix("needs ").split(" and "))
            assert missing <= ltp.groups.PROPERTIES - model.properties, note
    assert sum(row.needs + row.unbuilt for row in WORK_AT_SEED_0.values()) == 193


def test_suite_builds_the_irreducible_blocks_once_per_model(monkeypatch):
    conv = importlib.import_module("ltp.convolve")  # ltp.convolve is also the function

    builds = []
    original = conv._split_blocks

    def counting(*args):
        blocks = original(*args)
        builds.append(blocks is not None)
        return blocks

    monkeypatch.setattr(conv, "_split_blocks", counting)
    model = ltp.build_group("dihedral:64")
    for _ in range(2):
        run_suite("dihedral:64", (2.0, 1.5), seed=0, model=model)
    assert builds == [True]


def test_exact_models_share_each_check_tolerance():
    models = [ltp.build_group(spec) for spec in ("cyclic:8", "z:8", "z2:2", "r:0.5:2")]
    for check in REGISTRY:
        assert len({check.tolerance_for(model) for model in models}) == 1, check.name


def test_a_nan_draw_fails_the_check():
    draws = iter([float("nan"), 0.0, 0.0])
    check = CheckDef("nan-draw", "a draw that measures NaN", (),
                     lambda ctx: next(draws), draws=3)
    result = _execute_check(check, ltp.build_group("cyclic:4"), None, 0, {}, False)
    assert result.status == "fail"
    assert np.isnan(result.observed)


def test_a_batched_runner_measures_every_draw_in_one_call():
    calls = []

    def runner(ctx):
        calls.append(ctx.draws)
        return [0.5, float("nan"), 0.25][:ctx.draws], "batched note"

    check = CheckDef("batched", "one call for every draw", (), runner, draws=3, batch="batched")
    result = _execute_check(check, ltp.build_group("cyclic:4"), None, 0, {}, False)
    assert calls == [3]
    assert result.status == "fail" and np.isnan(result.observed)
    assert result.notes == "batched note"
    check = CheckDef("batched", "one call for every draw", (), runner, draws=1, batch="batched",
                     tol=1.0)
    result = _execute_check(check, ltp.build_group("cyclic:4"), None, 0, {}, False)
    assert result.status == "pass" and result.observed == 0.5


@pytest.mark.parametrize("spec", ["circle:64", "z2:8"])
def test_batched_lower_bound_draws_the_probes_of_single_draws(spec):
    # the probes come from the check's generator in draw order, and each
    # measurement is the one a lone norm gives
    from ltp.suite import SuiteContext, _random_probe, _run_discrete_lower
    model = ltp.build_group(spec)
    exp = ltp.Exponent.of(1.5)
    measured = _run_discrete_lower(SuiteContext(model, exp, np.random.default_rng(5), 6))
    rng = np.random.default_rng(5)
    probes = [_random_probe(model, rng) for _ in range(6)]
    expected = [ltp.lp_norm(f, exp) - tempered_norm(f, exp).lower for f in probes]
    np.testing.assert_allclose(measured, expected, rtol=1e-12, atol=0)


def test_finite_equivalence_measures_the_probes_of_the_lower_bound_generator(monkeypatch):
    # circle:64 is no counting model: discrete-lower-bound skips there, and
    # finite-norm-equivalence draws the batch from the generator they share
    from ltp.suite import SuiteContext, _random_probe, _run_finite_equivalence
    model = ltp.build_group("circle:64")
    exp = ltp.Exponent.of(1.5)
    measured, _ = _run_finite_equivalence(SuiteContext(model, exp, np.random.default_rng(5), 6))
    rng = np.random.default_rng(5)
    probes = [_random_probe(model, rng) for _ in range(6)]
    growth = model.n ** (1.0 / exp.q)
    expected = []
    for f in probes:
        plain, est = ltp.lp_norm(f, exp), tempered_norm(f, exp)
        expected.append(max(plain - growth * est.lower, est.upper - plain))
    np.testing.assert_allclose(measured, expected, rtol=1e-12, atol=0)

    drawn = []

    def recording(*args, **kwargs):
        drawn.append(_random_probe(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(suite, "_random_probe", recording)
    assert _execute_check(_FINITE_EQUIVALENCE, model, 1.5, 0, {}, False).status == "pass"
    rng = np.random.default_rng([0, zlib.crc32(b"discrete-lower-bound@p=1.5")])
    assert len(drawn) == 6
    for f in drawn:
        np.testing.assert_array_equal(f.values, _random_probe(model, rng).values)


def test_two_suite_runs_compute_the_lower_end_batch_twice(boyd_calls):
    # the batch lives in one run_suite call: a later call on the same model
    # estimates its probes again
    model = ltp.build_group("dihedral:64")
    run_suite("dihedral:64", [1.5], seed=0, model=model)
    once = len(boyd_calls)
    del boyd_calls[:]
    for _ in range(2):
        run_suite("dihedral:64", [1.5], seed=0, model=model)
    assert once > 0 and len(boyd_calls) == 2 * once


def test_one_store_shares_the_lower_end_batch_between_two_lone_checks(boyd_calls):
    # the store run_suite passes down: with one dict the second check reads
    # the first one's estimates, and without one each check draws its own
    model = ltp.build_group("dihedral:64")
    for batches, expected in (({}, 6), (None, 12)):
        del boyd_calls[:]
        for check in (_DISCRETE_LOWER, _FINITE_EQUIVALENCE):
            assert _execute_check(check, model, 1.5, 0, {}, False, batches).status == "pass"
        assert len(boyd_calls) == expected, batches


def test_lower_end_checks_read_one_batch_in_either_order(monkeypatch):
    # whichever of the two runs first computes the batch; the other reads it
    model = ltp.build_group("dihedral:64")

    def recorded(check, log):
        def run(ctx):
            measured = check.runner(ctx)
            log.append((check.name, ctx.p.p, repr(measured)))
            return measured
        return dataclasses.replace(check, runner=run)

    reports, logs = [], []
    for swap in (False, True):
        registry = list(REGISTRY)
        i, j = registry.index(_DISCRETE_LOWER), registry.index(_FINITE_EQUIVALENCE)
        if swap:
            registry[i], registry[j] = registry[j], registry[i]
        log = []
        monkeypatch.setattr(suite, "REGISTRY",
                            [recorded(c, log) if c.batch else c for c in registry])
        reports.append(run_suite("dihedral:64", [2.0, 1.5], seed=0, model=model))
        logs.append(sorted(log))
    forward, swapped = reports
    assert [c.name for c in forward.checks] != [c.name for c in swapped.checks]
    order = {c.name: k for k, c in enumerate(forward.checks)}
    rows = sorted(swapped.checks, key=lambda c: order[c.name])
    assert dataclasses.replace(swapped, checks=rows).to_json() == forward.to_json()
    assert len(logs[0]) == 4 and logs[0] == logs[1]


def test_an_error_in_the_lower_end_batch_fails_both_checks(monkeypatch):
    def refused(fs, p, *args, **kwargs):
        raise ltp.LtpError("planted refusal")

    monkeypatch.setattr(suite, "tempered_norms", refused)
    by_name = {c.name: c for c in run_suite("dihedral:64", [1.5], seed=0).checks}
    for name in ("discrete-lower-bound@p=1.5", "finite-norm-equivalence@p=1.5"):
        assert by_name[name].status == "fail", name
        assert by_name[name].notes == "error: LtpError: planted refusal", name


def test_suite_catches_an_overstated_symbol_bracket_on_the_real_line(monkeypatch):
    # both ends 2% high is a false certificate on r, whose arithmetic is exact
    from ltp import tempered

    exact = tempered._symbol_supremum

    def overstated(f):
        est = exact(f)
        return tempered.NormEstimate(1.02 * est.lower, 1.02 * est.upper, est.method)

    assert run_suite("r:0.05:4", [2.0], seed=0).ok
    monkeypatch.setattr(tempered, "_symbol_supremum", overstated)
    report = run_suite("r:0.05:4", [2.0], seed=0)
    failed = {c.name for c in report.checks if c.status == "fail"}
    assert "positive-cone-equality@p=2" in failed


def test_suite_catches_an_overstated_boyd_ratio(monkeypatch):
    # a ratio 2% above the one attained is no lower bound; no route clamps it
    # to the upper end, so the bracket's own check raises
    from ltp import tempered

    exact = tempered._boyd_block

    def overstated(*args):
        gamma, *rest = exact(*args)
        return (1.02 * gamma, *rest)

    cases = (("dihedral:64", "positive-cone-equality@p=1.5"),
             ("z:64", "dirac-identity-norm@p=1.5"))
    for spec, _ in cases:
        assert run_suite(spec, [1.5], seed=0).ok
    monkeypatch.setattr(tempered, "_boyd_block", overstated)
    for spec, check in cases:
        report = run_suite(spec, [1.5], seed=0)
        assert check in {c.name for c in report.checks if c.status == "fail"}, spec


def test_suite_catches_an_understated_boyd_ratio(monkeypatch):
    # a ratio half the one attained is still a lower end, but too low for
    # the two statements that bound ||f||_p^T from below
    from ltp import tempered

    exact = tempered._boyd_block

    def understated(*args):
        gamma, *rest = exact(*args)
        return (0.5 * gamma, *rest)

    both = {"discrete-lower-bound@p=1.5", "finite-norm-equivalence@p=1.5"}
    cases = {"dihedral:64": both, "cyclic:256@counting": both,
             "circle:64": {"finite-norm-equivalence@p=1.5"}}
    for spec in cases:
        assert run_suite(spec, [1.5], seed=0).ok
    monkeypatch.setattr(tempered, "_boyd_block", understated)
    for spec, checks in cases.items():
        report = run_suite(spec, [1.5], seed=0)
        assert checks <= {c.name for c in report.checks if c.status == "fail"}, spec


def test_suite_catches_an_understated_upper_end(monkeypatch):
    # an upper end 10% low is no upper bound: a part's certified lower end
    # rises above it at factor 1
    exact = suite.tempered_upper
    assert run_suite("dihedral:64", [2.0], seed=0).ok
    monkeypatch.setattr(suite, "tempered_upper", lambda f, p: 0.9 * exact(f, p))
    report = run_suite("dihedral:64", [2.0], seed=0)
    assert "re-im-closure@p=2" in {c.name for c in report.checks if c.status == "fail"}


def test_suite_catches_an_overstated_singular_value(monkeypatch):
    # sigma sqrt(1.5) times the one computed crosses the weighted-L1 value on
    # the affine grid; positive-cone-equality reads the whole bracket, so the
    # bracket's own check raises (the upper-end checks read the bound alone)
    from ltp import tempered

    exact = tempered._top_eigenpair

    def overstated(mat):
        lam, *rest = exact(mat)
        return (1.5 * lam, *rest)

    spec = "affine:0.125:1:0.125:1"
    assert run_suite(spec, (2.0,), seed=0).ok
    monkeypatch.setattr(tempered, "_top_eigenpair", overstated)
    report = run_suite(spec, (2.0,), seed=0)
    assert "positive-cone-equality@p=2" in {c.name for c in report.checks if c.status == "fail"}


_RE_IM = next(check for check in REGISTRY if check.name == "re-im-closure")


@pytest.mark.slow
@pytest.mark.parametrize("spec", ["cyclic:256@counting", "circle:64", "dihedral:64",
                                  "symmetric:5", "product:cyclic:8+cyclic:16"])
def test_re_im_closure_passes_over_suite_seeds(spec):
    # at p = 2 the margin over these seeds is as small as 8.0e-5 of upper(f)
    # (circle:64): a route change that moves either end by that much shows here
    model = ltp.build_group(spec)
    for seed in range(30):
        for p in (2.0, 1.5):
            result = _execute_check(_RE_IM, model, p, seed, {}, False)
            assert result.status == "pass", (seed, p, result.notes)


def test_suite_probability_side_skips_discrete_checks():
    report = run_suite("cyclic:16@probability", [2.0], seed=7)
    assert report.summary["fail"] == 0
    by_name = {c.name: c for c in report.checks}
    assert by_name["discrete-lower-bound@p=2"].status == "skipped"
    assert by_name["discrete-lower-bound@p=2"].notes == \
        "needs counting: cyclic:16@probability is not"
    assert by_name["compact-upper-bound@p=2"].status == "pass"


def test_suite_affine_skips_spectral_with_reason():
    report = run_suite("affine:0.25:2:0.25:4", [2.0], seed=7)
    assert report.summary["fail"] == 0
    by_name = {c.name: c for c in report.checks}
    assert by_name["dirac-scaling@p=2"].status == "pass"
    assert by_name["conv-theorem"].status == "skipped"
    assert by_name["conv-theorem"].notes == "needs abelian: affine:0.25:2:0.25:4 is not"


def test_dual_checks_skip_on_abelian_models_with_no_dual_as_unbuilt():
    # abelian, but with no declared cyclic factors: build_dual refuses them
    for spec in ("dihedral:2", "product:cyclic:2+dihedral:2"):
        by_name = {c.name: c for c in run_suite(spec, [2.0], seed=0).checks}
        assert by_name["conv-theorem"].status == "skipped"
        assert by_name["conv-theorem"].notes == \
            f"unbuilt: dual: {spec} is not a declared product of cyclic groups"
    by_name = {c.name: c for c in run_suite("dihedral:64", [2.0], seed=0).checks}
    assert by_name["conv-theorem"].status == "skipped"
    assert by_name["conv-theorem"].notes == "needs abelian: dihedral:64 is not"


def test_suite_z64_p1_identity():
    report = run_suite("z:64@counting", [1.0], seed=3)
    assert report.summary["fail"] == 0
    by_name = {c.name: c for c in report.checks}
    assert by_name["l1-identity"].status == "pass"
    assert by_name["quasi-identity-blowup@p=1"].status == "skipped"


def test_suite_real_line_quasi_identity():
    report = run_suite("r:0.05:4@counting", [2.0], seed=1)
    by_name = {c.name: c for c in report.checks}
    assert by_name["quasi-identity-blowup@p=2"].status == "pass"
    assert report.summary["fail"] == 0


def test_quasi_identity_skips_on_a_grid_step_of_one_half():
    # U_2 needs a centred run of measure below 1/2, which a step of 1/2 cannot give
    for seed in range(3):
        by_name = {c.name: c for c in run_suite("r:0.5:2", [2.0, 1.5], seed=seed).checks}
        for p in ("2", "1.5"):
            check = by_name[f"quasi-identity-blowup@p={p}"]
            assert check.status == "skipped", (seed, p)
            assert check.notes == "unbuilt: runs U_1 and U_2: grid step 0.5 is not below 1/2"


def test_suite_catches_an_understated_quasi_identity_norm(monkeypatch):
    # the check measures ||1_U / |U| ||_p: read 10% low, it falls below n^(1-1/p)
    exact = suite.lp_norm
    monkeypatch.setattr(suite, "lp_norm", lambda f, p: 0.9 * exact(f, p))
    by_name = {c.name: c for c in run_suite("r:0.05:4", [2.0], seed=0).checks}
    assert by_name["quasi-identity-blowup@p=2"].status == "fail"


_QUASI_IDENTITY = next(check for check in REGISTRY if check.name == "quasi-identity-blowup")
_RESTRICTED_ISOMETRY = next(check for check in REGISTRY if check.name == "restricted-isometry")


@pytest.mark.slow
def test_quasi_identity_and_restricted_isometry_over_suite_seeds():
    cases = [(_QUASI_IDENTITY, "r:0.05:4", (2.0, 1.5), "pass"),
             (_QUASI_IDENTITY, "r:0.25:2", (2.0, 1.5), "pass"),
             (_QUASI_IDENTITY, "r:0.5:2", (2.0, 1.5), "skipped")]
    cases += [(_RESTRICTED_ISOMETRY, spec, (None,), "pass")
              for spec in ("cyclic:256@counting", "circle:64", "product:cyclic:8+cyclic:16")]
    for check, spec, p_values, status in cases:
        model = ltp.build_group(spec)
        for seed in range(30):
            for p in p_values:
                result = _execute_check(check, model, p, seed, {}, False)
                assert result.status == status, (check.name, spec, seed, p, result.notes)


def test_suite_catches_an_overstated_tempered_norm_in_restricted_isometry(monkeypatch):
    # ||f||_2^T and ||fhat||_2^T 2% high break the identity and both cross identities
    from ltp import spectral

    exact = spectral.tempered_norm
    specs = ("cyclic:256@counting", "product:cyclic:8+cyclic:16", "circle:64")
    for spec in specs:
        assert _execute_check(_RESTRICTED_ISOMETRY, ltp.build_group(spec), None, 0, {},
                              False).status == "pass"

    def overstated(f, p):
        estimate = exact(f, p)
        estimate.lower *= 1.02
        return estimate

    monkeypatch.setattr(spectral, "tempered_norm", overstated)
    for spec in specs:
        result = _execute_check(_RESTRICTED_ISOMETRY, ltp.build_group(spec), None, 0, {}, False)
        assert result.status == "fail" and result.observed > 0.05, (spec, result.observed)


def test_tolerance_override_can_fail_a_check():
    report = run_suite("affine:0.25:2:0.25:4", [2.0], seed=7,
                       tol_overrides={"reflect-norm-identity": 1e-12})
    by_name = {c.name: c for c in report.checks}
    assert by_name["reflect-norm-identity@p=2"].status == "fail"


def test_tolerance_overrides_that_cannot_apply_are_refused(monkeypatch):
    def no_check_runs(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(suite, "_execute_check", no_check_runs)
    for overrides, match in (({"typo": 1.0}, "names no check"),
                             ({"holder-pairing@p=2": 1.0}, "names no check"),
                             ({"identity-translation": float("nan")}, "finite value"),
                             ({"identity-translation": -1.0}, "finite value"),
                             ({"identity-translation": float("inf")}, "finite value")):
        with pytest.raises(ltp.DomainError, match=match):
            run_suite("cyclic:4", [2.0], tol_overrides=overrides)


def test_cli_refuses_tolerance_overrides_that_cannot_apply(capsys):
    for item in ("nonexistent-check=1e-3", "identity-translation=nan",
                 "identity-translation=-1"):
        assert main(["suite", "--group", "cyclic:4", "--tol", item]) == 2, item
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: tolerance override")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

SCHEMA_KEYS = ["version", "spec", "seed", "checks", "summary"]
CHECK_KEYS = ["name", "paper_ref", "status", "observed", "expected",
              "tolerance", "runtime_ms", "notes"]


def test_empty_report_schema():
    report = SuiteReport(version="0.1.0", spec="cyclic:2", seed=0, checks=[])
    data = json.loads(report.to_json())
    assert list(data.keys()) == SCHEMA_KEYS
    assert data["summary"] == {"pass": 0, "fail": 0, "skipped": 0}


def test_report_schema_and_roundtrip(tmp_path):
    report = run_suite("cyclic:16@counting", [2.0], seed=7)
    path = tmp_path / "report.json"
    emit_report(report, str(path), "json")
    data = json.loads(path.read_text())
    assert list(data.keys()) == SCHEMA_KEYS
    for check in data["checks"]:
        assert list(check.keys()) == CHECK_KEYS
        assert check["status"] in ("pass", "fail", "skipped")
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for check in data["checks"]:
        counts[check["status"]] += 1
    assert counts == data["summary"]


def test_report_csv_and_markdown(tmp_path):
    report = run_suite("cyclic:8@counting", [2.0], seed=1)
    csv_path = tmp_path / "report.csv"
    emit_report(report, str(csv_path), "csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "name,paper_ref,status,observed,expected,tolerance,runtime_ms,notes"
    assert len(lines) == 1 + len(report.checks)
    md_path = tmp_path / "report.md"
    emit_report(report, str(md_path), "markdown")
    assert "| name | status |" in md_path.read_text()


def test_report_renders_byte_for_byte_in_every_format():
    # a pass, a NaN fail, a skip, an interval, a runtime and notes that each
    # format must escape
    checks = [
        CheckResult.build("dirac-scaling@p=2", "Lemma 2.1", observed=1e-12, expected=0.0,
                          tolerance=1e-9),
        CheckResult.build("re-im-closure@p=1.5", "Prop 3.4", observed=math.nan,
                          expected=0.0, tolerance=1e-9, notes='worst of 3, "re" | "im"'),
        CheckResult.skip("plancherel", "Thm 4.2", "needs abelian: dihedral:3 is not"),
        CheckResult.build("folner-certificate", "Thm 5.1", observed=0.95, expected=[0.9, 1.0],
                          tolerance=0.0, runtime_ms=12.5),
    ]
    report = SuiteReport(version="0.1.0", spec="dihedral:3", seed=3, checks=checks)
    check_json = ('    {{\n      "name": "{}",\n      "paper_ref": "{}",\n'
                  '      "status": "{}",\n      "observed": {},\n      "expected": {},\n'
                  '      "tolerance": {},\n      "runtime_ms": {},\n      "notes": {}\n    }}')
    rows = [("dirac-scaling@p=2", "Lemma 2.1", "pass", "1e-12", "0.0", "1e-09", "0.0", '""'),
            ("re-im-closure@p=1.5", "Prop 3.4", "fail", "NaN", "0.0", "1e-09", "0.0",
             r'"worst of 3, \"re\" | \"im\""'),
            ("plancherel", "Thm 4.2", "skipped", "null", "null", "0.0", "0.0",
             '"needs abelian: dihedral:3 is not"'),
            ("folner-certificate", "Thm 5.1", "pass", "0.95",
             "[\n        0.9,\n        1.0\n      ]", "0.0", "12.5", '""')]
    assert render_report(report, "json") == (
        '{\n  "version": "0.1.0",\n  "spec": "dihedral:3",\n  "seed": 3,\n  "checks": [\n'
        + ",\n".join(check_json.format(*row) for row in rows)
        + '\n  ],\n  "summary": {\n    "pass": 2,\n    "fail": 1,\n    "skipped": 1\n  }\n}\n')
    assert render_report(report, "csv") == (
        "name,paper_ref,status,observed,expected,tolerance,runtime_ms,notes\n"
        "dirac-scaling@p=2,Lemma 2.1,pass,1e-12,0.0,1e-09,0.0,\n"
        're-im-closure@p=1.5,Prop 3.4,fail,nan,0.0,1e-09,0.0,"worst of 3, ""re"" | ""im"""\n'
        "plancherel,Thm 4.2,skipped,,,0.0,0.0,needs abelian: dihedral:3 is not\n"
        "folner-certificate,Thm 5.1,pass,0.95,0.9;1.0,0.0,12.5,\n")
    assert render_report(report, "markdown") == (
        "# Suite report: dihedral:3\n\nversion 0.1.0, seed 3\n\n"
        "| name | status | observed | expected | tolerance | notes |\n"
        "| --- | --- | --- | --- | --- | --- |\n"
        "| dirac-scaling@p=2 | pass | 1e-12 | 0.0 | 1e-09 |  |\n"
        '| re-im-closure@p=1.5 | fail | nan | 0.0 | 1e-09 | worst of 3, "re" / "im" |\n'
        "| plancherel | skipped |  |  | 0.0 | needs abelian: dihedral:3 is not |\n"
        "| folner-certificate | pass | 0.95 | 0.9;1.0 | 0.0 |  |\n"
        "\npass 2, fail 1, skipped 1\n")
    with pytest.raises(ltp.LtpError, match="format must be one of"):
        render_report(report, "xml")


def test_report_determinism_same_inputs():
    a = run_suite("cyclic:16@counting", [2.0, 1.5], seed=7).to_json()
    b = run_suite("cyclic:16@counting", [2.0, 1.5], seed=7).to_json()
    assert a == b
    c = run_suite("cyclic:16@counting", [2.0, 1.5], seed=8).to_json()
    assert a != c


@pytest.mark.parametrize("spec", ["cyclic:16@counting", "z:64", "affine:0.125:1:0.125:1"])
def test_report_independent_of_registry_order(spec, monkeypatch):
    # each probe batch draws from its own generator, seeded by (seed, batch name)
    model = ltp.build_group(spec)
    forward = run_suite(spec, [2.0, 1.5], seed=7, model=model)
    monkeypatch.setattr(suite, "REGISTRY", suite.REGISTRY[::-1])
    backward = run_suite(spec, [2.0, 1.5], seed=7, model=model)
    assert len(backward.checks) == len(forward.checks)
    by_name = {check.name: check.to_dict() for check in backward.checks}
    for check in forward.checks:
        assert by_name[check.name] == check.to_dict(), check.name


def test_timings_flag_populates_runtime():
    timed = run_suite("cyclic:8@counting", [2.0], seed=0, timings=True)
    assert any(c.runtime_ms > 0 for c in timed.checks)
    untimed = run_suite("cyclic:8@counting", [2.0], seed=0)
    assert all(c.runtime_ms == 0 for c in untimed.checks)


def test_check_result_interval_semantics():
    inside = CheckResult.build("x", "ref", observed=0.95, expected=[0.9, 1.0],
                               tolerance=0.0)
    assert inside.passed
    outside = CheckResult.build("x", "ref", observed=0.85, expected=[0.9, 1.0],
                                tolerance=0.0)
    assert not outside.passed


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_the_library_loads_no_scipy():
    # scipy is a test dependency only: its linalg modules cost about 25 MB of
    # a suite run's peak RSS, and the p = 2 dense reference and the blocks
    # build need numpy alone
    code = """
import contextlib, io, sys
import ltp
from ltp.cli import main
from ltp.suite import run_suite
for spec in ("dihedral:8", "cyclic:16", "affine:0.25:1:0.25:1"):
    run_suite(spec, (2.0, 1.5), seed=0)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["norm", "--group", "dihedral:8", "--f", "random:1", "--p", "2",
                 "--method", "exact_svd"]) == 0
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=600).stdout
    assert out == "[]\n"


def test_cli_norm_inline(capsys):
    rc = main(["norm", "--group", "cyclic:4@counting", "--f", "1,1,0,0", "--p", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lower=2.0" in out and "upper=2.0" in out


def test_cli_norm_box_on_lattice(capsys):
    rc = main(["norm", "--group", "z:64@counting", "--f", "box:1", "--p", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    lower = float(out.split("lower=")[1].splitlines()[0])
    assert abs(lower - 3.0) < 1e-6


def test_cli_norm_zero(capsys):
    rc = main(["norm", "--group", "cyclic:4@counting", "--f", "0,0,0,0", "--p", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lower=0.0" in out


def test_cli_parse_errors_exit_2(capsys):
    assert main(["norm", "--group", "bogus:4", "--f", "dirac", "--p", "2"]) == 2
    assert main(["norm", "--group", "cyclic:4", "--f", "1,burp", "--p", "2"]) == 2
    assert main(["norm", "--group", "cyclic:4", "--f", "1,2", "--p", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("p_text", ["", ","])
def test_cli_empty_exponent_list_exits_2(p_text, capsys):
    assert main(["norm", "--group", "cyclic:4", "--f", "dirac", "--p", p_text]) == 2
    assert main(["suite", "--group", "cyclic:4", "--p", p_text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "names no exponent" in captured.err


@pytest.mark.parametrize("p_text", ["2,", "2,,1.5"])
def test_cli_empty_exponent_entry_exits_2(p_text, capsys):
    assert main(["norm", "--group", "cyclic:4", "--f", "dirac", "--p", p_text]) == 2
    assert main(["suite", "--group", "cyclic:4", "--p", p_text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "has an empty entry" in captured.err


def _no_check_runs(*args):
    raise AssertionError("a check ran")


def test_a_negative_seed_is_refused_before_any_check_runs(monkeypatch, capsys):
    monkeypatch.setattr(suite, "_execute_check", _no_check_runs)
    for seed in (-1, 1.5):
        with pytest.raises(ltp.DomainError, match=f"integer seed >= 0, got {seed}"):
            run_suite("cyclic:4", [2.0], seed=seed)
        with pytest.raises(ltp.DomainError, match=f"seed must be an integer at least 0, "
                                                  f"got {seed}"):
            IterConfig(seed=seed)
    assert main(["suite", "--group", "cyclic:4", "--seed", "-1"]) == 2
    assert "seed >= 0, got -1" in capsys.readouterr().err


def test_iter_config_refuses_no_steps_and_a_bad_tolerance():
    for steps in (0, -1):
        with pytest.raises(ltp.DomainError, match=f"max_iters must be at least 1, got {steps}"):
            IterConfig(max_iters=steps)
    for tol in (-1e-8, math.nan, -math.inf):
        with pytest.raises(ltp.DomainError, match="tol must be at least 0"):
            IterConfig(tol=tol)
    for name in ("max_iters", "restarts"):
        with pytest.raises(ltp.DomainError, match=f"{name} must be an integer, got 2.5"):
            IterConfig(**{name: 2.5})
    assert IterConfig(max_iters=1, tol=0.0).max_iters == 1


def test_run_suite_refuses_a_model_of_another_group(monkeypatch):
    monkeypatch.setattr(suite, "_execute_check", _no_check_runs)
    for spec, other in (("z:4", "cyclic:4"), ("cyclic:4", "cyclic:5"),
                        ("cyclic:4@probability", "cyclic:4"),
                        ("product:cyclic:2+cyclic:4", "product:cyclic:4+cyclic:2")):
        with pytest.raises(ltp.ModelMismatchError, match="is not the group of spec"):
            run_suite(spec, [2.0], model=ltp.build_group(other))


def test_run_suite_takes_a_model_its_spec_describes_however_written():
    model = ltp.build_group("cyclic:4")
    report = run_suite("cyclic:4@counting", [2.0], model=model)
    assert report.spec == "cyclic:4" and report.ok
    report = run_suite(ltp.parse_group_spec("r:0.50:2.0"), [2.0], model=ltp.build_group("r:0.5:2"))
    assert report.spec == "r:0.5:2"


def test_run_suite_takes_the_model_of_its_own_spec():
    # the call the benchmark makes
    model = ltp.build_group("dihedral:6")
    assert run_suite(model.spec, [2.0, 1.5], seed=0, model=model).to_json() \
        == run_suite("dihedral:6", [2.0, 1.5], seed=0).to_json()


def test_run_suite_refuses_a_bad_exponent_before_any_check_runs(monkeypatch):
    monkeypatch.setattr(suite, "_execute_check", _no_check_runs)
    with pytest.raises(ltp.DomainError, match=r"lie in \[1, inf\), got 0.5"):
        run_suite("cyclic:8", [2.0, 0.5])


def test_cli_norm_bad_exponent_exits_2_with_no_output(capsys):
    # the second exponent fails after p = 2 succeeds: p = 2 is not printed
    for p_text, method, error in (("2,0.5", "auto", "got 0.5"),
                                  ("2,1.5", "spectral_abelian", "does not apply at p = 1.5")):
        assert main(["norm", "--group", "cyclic:8", "--f", "random:1", "--p", p_text,
                     "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error in captured.err


def test_transform_checks_fail_when_the_transform_reads_one_percent_high(monkeypatch):
    monkeypatch.setattr(suite, "fourier", lambda dual, f: 1.01 * fourier(dual, f))
    report = run_suite("cyclic:16@counting", [2.0], seed=0)
    status = {check.name: check.status for check in report.checks}
    for name in ("plancherel-norm", "fourier-roundtrip", "conv-theorem",
                 "product-theorem", "parseval-pairing"):
        assert status[name] == "fail", name


@pytest.mark.parametrize("route, specs", [
    ("_spectral_finite_abelian", ("cyclic:16@counting", "circle:64")),
    ("_block_norm", ("dihedral:64",)),
])
def test_spectral_svd_agreement_fails_when_the_route_auto_takes_reads_high(
        route, specs, monkeypatch):
    # the check reads the p = 2 route "auto" takes (the FFT on declared
    # cyclic products, the irreducible blocks elsewhere) against exact_svd
    from ltp import tempered

    original = getattr(tempered, route)

    def high(f):
        est = original(f)
        return dataclasses.replace(est, lower=1.02 * est.lower, upper=1.02 * est.upper)

    monkeypatch.setattr(tempered, route, high)
    for spec in specs:
        status = {c.name: c.status for c in run_suite(spec, [2.0], seed=0).checks}
        assert status["spectral-svd-agreement"] == "fail", spec


def test_run_suite_refuses_an_empty_exponent_list():
    with pytest.raises(ltp.DomainError, match="at least one exponent"):
        run_suite("cyclic:4", [])


@pytest.mark.parametrize("p_list", [[2, 2], [2, 2.0], [1.5, 2, 1.5]])
def test_run_suite_refuses_a_repeated_exponent(p_list):
    with pytest.raises(ltp.DomainError, match="repeated exponent"):
        run_suite("cyclic:4", p_list)


@pytest.mark.parametrize("p_text", ["2,2", "2,2.0", "1.5,2,1.5"])
def test_cli_repeated_exponent_exits_2(p_text, capsys):
    assert main(["norm", "--group", "cyclic:4", "--f", "dirac", "--p", p_text]) == 2
    assert main(["suite", "--group", "cyclic:4", "--p", p_text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "names an exponent twice" in captured.err


def test_suite_at_p1_has_no_failed_check():
    # q = inf reaches the holder, norm-equivalence and averaging formulas as written
    passed = set()
    for spec in ("z:64", "cyclic:16@counting"):
        report = run_suite(spec, [1.0], seed=0)
        assert report.summary["fail"] == 0, spec
        passed |= {c.name for c in report.checks if c.status == "pass"}
    assert {"holder-pairing@p=1", "finite-norm-equivalence@p=1",
            "folner-averaging@p=1"} <= passed


def test_cli_norm_honours_small_restart_counts(capsys):
    model = ltp.build_group("dihedral:6")
    f = ltp.random_function(model, 3)
    lowers = []
    for restarts in (1, 2, 3):
        rc = main(["norm", "--group", "dihedral:6", "--f", "random:3", "--p", "1.5",
                   "--restarts", str(restarts)])
        assert rc == 0
        lowers.append(float(capsys.readouterr().out.split("lower=")[1].splitlines()[0]))
        cfg = IterConfig(restarts=restarts)
        assert lowers[-1] == tempered_norm(f, 1.5, cfg=cfg).lower
    assert lowers[0] != lowers[2]  # one restart is not silently run as three
    for restarts in ("0", "-2"):
        assert main(["norm", "--group", "dihedral:6", "--f", "random:3", "--p", "1.5",
                     "--restarts", restarts]) == 2
        assert "restarts must be at least 1" in capsys.readouterr().err


def test_cli_norm_refuses_more_restarts_than_one_block(capsys):
    argv = ["norm", "--group", "dihedral:6", "--f", "random:3", "--p", "1.5", "--restarts"]
    assert main(argv + ["65"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "restarts must be at most 64" in captured.err
    assert main(argv + ["64"]) == 0
    with pytest.raises(ltp.DomainError, match="at most 64"):
        IterConfig(restarts=65)


def _printed(out: str, key: str) -> str:
    return out.split(f"  {key}=")[1].splitlines()[0]


def test_cli_norm_reports_the_work_of_the_iteration(capsys):
    model = ltp.build_group("dihedral:6")
    est = tempered_norm(ltp.random_function(model, 3), 1.5)
    assert main(["norm", "--group", "dihedral:6", "--f", "random:3", "--p", "1.5"]) == 0
    out = capsys.readouterr().out
    assert est.matvecs > 0 and est.restart_spread > 0
    assert int(_printed(out, "matvecs")) == est.matvecs
    assert float(_printed(out, "restart_spread")) == est.restart_spread
    # the p = 2 route "auto" takes there does no iteration
    assert main(["norm", "--group", "dihedral:6", "--f", "random:3", "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert _printed(out, "iterations") == _printed(out, "matvecs") == "0"
    assert _printed(out, "restart_spread") == "0.0"
    # exact_svd's Lanczos steps each multiply by M and by M^H
    assert main(["norm", "--group", "dihedral:64", "--f", "random:1", "--p", "2",
                 "--method", "exact_svd"]) == 0
    out = capsys.readouterr().out
    steps = int(_printed(out, "iterations"))
    assert steps > 0 and int(_printed(out, "matvecs")) == 2 * steps


def test_cli_resource_errors_exit_3(capsys):
    # the last two overflow radius / step to inf: the cap ends the run, not
    # an OverflowError traceback
    for spec in ("z:600000", "r:1e-300:1e300", "affine:1e-300:1e300:1:1"):
        assert main(["norm", "--group", spec, "--f", "dirac", "--p", "2"]) == 3, spec
        assert capsys.readouterr().err.startswith("resource error: "), spec


def test_cli_suite_writes_report(tmp_path, capsys):
    out = tmp_path / "suite.json"
    rc = main(["suite", "--group", "cyclic:8@counting", "--p", "2",
               "--seed", "3", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["spec"] == "cyclic:8@counting"
    assert data["summary"]["fail"] == 0


def test_cli_suite_stdout_json(capsys):
    rc = main(["suite", "--group", "cyclic:4@counting", "--p", "2", "--seed", "0"])
    captured = capsys.readouterr()
    assert rc == 0
    data = json.loads(captured.out)
    assert data["seed"] == 0


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
def test_cli_stdout_holds_the_bytes_of_the_out_file(tmp_path, capsys, fmt):
    out = tmp_path / "r.txt"
    args = ["suite", "--group", "cyclic:4@counting", "--p", "2", "--format", fmt]
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


def test_cli_config_file(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("group=cyclic:4@counting\nf=1,1,0,0\np=2\n")
    rc = main(["norm", "--config", str(config)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lower=2.0" in out


def test_cli_flags_win_over_the_config_file(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    out = tmp_path / "r.json"
    config.write_text(f"group=cyclic:8@counting\np=2\nseed=7\nout={out}\n")
    assert main(["suite", "--config", str(config)]) == 0
    assert json.loads(out.read_text())["seed"] == 7
    assert main(["suite", "--config", str(config), "--seed", "0"]) == 0
    assert json.loads(out.read_text())["seed"] == 0
    config.write_text("group=dihedral:6\nf=random:3\np=1.5\nrestarts=3\n")
    capsys.readouterr()
    f = ltp.random_function(ltp.build_group("dihedral:6"), 3)
    for argv, restarts in ((["--restarts", "8"], 8), ([], 3)):
        assert main(["norm", "--config", str(config)] + argv) == 0
        lower = float(capsys.readouterr().out.split("lower=")[1].splitlines()[0])
        assert lower == tempered_norm(f, 1.5, cfg=IterConfig(restarts=restarts)).lower
    # config values are checked like the flags they stand for
    config.write_text("group=cyclic:4@counting\nformat=xml\n")
    with pytest.raises(SystemExit) as exited:
        main(["suite", "--config", str(config)])
    assert exited.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err


def test_cli_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "missing" / "r.json"
    rc = main(["suite", "--group", "cyclic:4@counting", "--p", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: cannot write report") and err.count("\n") == 1
    assert not out.exists()
    # the path is checked before the suite runs, not after
    def suite_must_not_run(*args, **kwargs):
        raise AssertionError("run_suite called before the output path was checked")

    monkeypatch.setattr("ltp.cli.run_suite", suite_must_not_run)
    for target in (out, tmp_path):
        rc = main(["suite", "--group", "cyclic:4@counting", "--p", "2", "--out", str(target)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: cannot write report") and err.count("\n") == 1


def test_cli_tolerance_override(tmp_path, capsys):
    out = tmp_path / "t.json"
    rc = main(["suite", "--group", "cyclic:8@counting", "--p", "2",
               "--out", str(out), "--tol", "holder-pairing=0.5"])
    capsys.readouterr()
    assert rc == 0
    data = json.loads(out.read_text())
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["holder-pairing@p=2"]["tolerance"] == 0.5


def test_cli_config_rejects_unknown_keys_and_passes_tolerances(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("group=cyclic:4@counting\nsead=7\n")
    assert main(["suite", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: unknown config key 'sead'\n"
    # keys of other commands' flags are ignored, tolerances are passed on
    out = tmp_path / "t.json"
    config.write_text(f"group=cyclic:8@counting\np=2\nf=1,0\nout={out}\n"
                      "tol=holder-pairing=0.5\ntol=left-invariance=0.25\n")
    assert main(["suite", "--config", str(config)]) == 0
    by_name = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert by_name["holder-pairing@p=2"]["tolerance"] == 0.5
    assert by_name["left-invariance@p=2"]["tolerance"] == 0.25
    assert main(["suite", "--config", str(config), "--tol", "holder-pairing=0.75"]) == 0
    by_name = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert by_name["holder-pairing@p=2"]["tolerance"] == 0.75


def test_only_the_harness_imports_report():
    def imports_report(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = {alias.name for alias in node.names}
                if module.endswith("report") or (module in ("", "ltp") and "report" in names):
                    return True
            elif isinstance(node, ast.Import):
                if any(alias.name == "ltp.report" for alias in node.names):
                    return True
        return False

    src = Path(ltp.__file__).resolve().parent
    importers = {path.name for path in src.glob("*.py")
                 if imports_report(ast.parse(path.read_text(encoding="utf-8")))}
    assert importers <= {"suite.py", "cli.py", "__init__.py"}
    assert "suite.py" in importers


def test_no_module_has_an_unused_import():
    # __init__.py imports names to re-export them, and a __future__ import
    # switches a feature on
    unused = []
    for path in sorted(Path(ltp.__file__).resolve().parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name.split(".")[0], node.lineno)
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((alias.asname or alias.name, node.lineno)
                                for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_no_module_reads_the_environment():
    # an environment variable would be an option that no signature shows
    reads = []
    for path in sorted(Path(ltp.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                reads.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno} from os import {alias.name}"
                          for alias in node.names if alias.name in ("environ", "getenv")]
    assert reads == []


def test_cli_spectral(capsys):
    rc = main(["spectral", "--group", "cyclic:4@counting", "--f", "1,1,0,0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fhat" in out
    assert "difference" in out


def test_cli_folner(capsys):
    rc = main(["folner", "--group", "z:64@counting", "--c-radius", "1",
               "--epsilon", "0.1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "box radius L = 5" in out


def test_cli_folner_refuses_a_negative_c_radius(capsys):
    rc = main(["folner", "--group", "z:64@counting", "--c-radius", "-1"])
    assert rc == 2
    assert "C radius must be at least 0, got -1" in capsys.readouterr().err


def test_function_source_csv(tmp_path):
    G = ltp.build_group("cyclic:4@counting")
    path = tmp_path / "f.csv"
    path.write_text("1\n2\n3\n4\n")
    f = parse_function_source(G, str(path))
    assert np.allclose(f.values, [1, 2, 3, 4])
    f2 = parse_function_source(G, "csv:" + str(path))
    assert np.allclose(f2.values, f.values)


def test_function_source_generators():
    G = ltp.build_group("z:8@counting")
    assert parse_function_source(G, "dirac").values[G.identity] == 1.0
    assert parse_function_source(G, "box:2").values.real.sum() == 5.0
    assert parse_function_source(G, "gauss:1.0").values[G.identity] == 1.0
    r1 = parse_function_source(G, "random:5")
    r2 = parse_function_source(G, "random:5")
    assert np.array_equal(r1.values, r2.values)


def test_function_sources_that_cannot_apply_exit_2(capsys):
    for source, message in (("box:-1", "box radius must be at least 0, got -1.0"),
                            ("box:nan", "box radius must be at least 0, got nan"),
                            ("gauss:nan", "gauss width must be positive, got nan"),
                            ("random:-1", "seed >= 0, got -1")):
        assert main(["norm", "--group", "cyclic:4", "--f", source]) == 2, source
        assert message in capsys.readouterr().err, source


def test_suite_digest_hashes_the_report_and_lists_its_checks():
    script = Path(__file__).resolve().parent.parent / "tools" / "suite_digest.py"
    report = run_suite("cyclic:4", (2.0, 1.5), seed=0)
    digest = subprocess.run([sys.executable, str(script), "--spec", "cyclic:4", "0"],
                            capture_output=True, text=True, check=True, timeout=600).stdout
    assert digest == f"0 cyclic:4 {hashlib.sha256(report.to_json().encode()).hexdigest()}\n"
    lines = subprocess.run([sys.executable, str(script), "--checks", "--spec", "cyclic:4", "0"],
                           capture_output=True, text=True, check=True,
                           timeout=600).stdout.splitlines()
    # a skip reads the kind of its note, needs or unbuilt, in place of a value
    values = [c.notes.partition(" ")[0].rstrip(":") if c.observed is None else repr(c.observed)
              for c in report.checks]
    assert {"needs", "unbuilt"} <= set(values)
    assert lines == [f"0 cyclic:4 {c.name} {c.status} {value}"
                     for c, value in zip(report.checks, values)]


def test_suite_digest_prints_one_line_per_registry_check():
    # --spec replaces the benchmark's models; the p values stay (2, 1.5)
    script = Path(__file__).resolve().parent.parent / "tools" / "suite_digest.py"
    out = subprocess.run([sys.executable, str(script), "--checks", "--spec", "cyclic:8", "0"],
                         capture_output=True, text=True, check=True, timeout=600).stdout
    rows = [line.split(" ") for line in out.splitlines()]
    assert {(row[0], row[1], len(row)) for row in rows} == {("0", "cyclic:8", 5)}
    assert [row[2] for row in rows] == [
        name for check in REGISTRY
        for name in ([f"{check.name}@p=2", f"{check.name}@p=1.5"] if check.per_p
                     else [check.name])]
    assert {row[3] for row in rows} <= {"pass", "fail", "skipped"}


def test_bench_pairs_counts_each_metric_in_its_direction_and_flags_bad_runs():
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    found = importlib.util.spec_from_file_location("bench_pairs", path)
    bench_pairs = importlib.util.module_from_spec(found)
    found.loader.exec_module(bench_pairs)

    def run(ops, rss, setup, gap, **fields):
        values = {"ops_per_s": ops, "peak_rss_mb": rss, "setup_s": setup, "bracket_gap": gap}
        return {"correct": True, "attempted": 10, "failed": 0, **fields,
                "metrics": {name: {"value": value} for name, value in values.items()}}

    # one verdict each: ops_per_s spreads wider than its bound, peak_rss_mb
    # moves within it, setup_s wins every pair by more than the parent's
    # spread, bracket_gap loses by more than its bound
    metrics = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
               {"name": "setup_s", "better": "lower", "bound": 0.25},
               {"name": "bracket_gap", "better": "lower", "bound": 0.05}]
    pairs = [(run(100, 50, 0.012, 0.4), run(110, 50, 0.010, 0.45)),
             (run(120, 52, 0.013, 0.4), run(100, 51, 0.010, 0.45)),
             (run(90, 50, 0.012, 0.4), run(90, 49, 0.011, 0.45, correct=False, failed=2)),
             # a run with no result leaves its pair out of every count
             (run(80, 50, 0.012, 0.4), {"correct": False, "error": "exit 1: boom"})]
    assert bench_pairs.summarize(metrics, pairs) == [
        "FLAG pair 2 change: correct False, 2 of 10 operations failed",
        "FLAG pair 3 change: exit 1: boom",
        "ops_per_s (higher is better): parent median 100 (quartiles 90 .. 120), "
        "change median 100; change better in 1, worse in 1 of 3 pairs: unresolved",
        "peak_rss_mb (lower is better): parent median 50 (quartiles 50 .. 52), "
        "change median 50; change better in 2, worse in 0 of 3 pairs: unchanged",
        "setup_s (lower is better): parent median 0.012 (quartiles 0.012 .. 0.013), "
        "change median 0.01; change better in 3, worse in 0 of 3 pairs: gain",
        "bracket_gap (lower is better): parent median 0.4 (quartiles 0.4 .. 0.4), "
        "change median 0.45; change better in 0, worse in 3 of 3 pairs: regression"]
