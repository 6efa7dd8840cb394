"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the worst observed value against the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

import ltp
from ltp.convolve import ConvOperator
from ltp import suite
from ltp.space import point_modular
from ltp.spectral import build_dual, fourier, restricted_isometry_terms
from ltp.tempered import IterConfig, tempered_norm, upper_bound_weighted_l1


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def crit4_probe(model):
    """Smooth bump positioned so every translate by a in {1/2, 2, 4},
    b in {0, 1} keeps its support strictly inside the window."""
    coords = model.coords()
    u, b = coords[:, 0], coords[:, 1]
    mu, ru, rb = -0.3465, 0.96, 2.0
    fu = np.where(np.abs(u - mu) < ru, np.cos(0.5 * np.pi * (u - mu) / ru) ** 2, 0.0)
    fb = np.where(np.abs(b) < rb, np.cos(0.5 * np.pi * b / rb) ** 2, 0.0)
    return ltp.GFunction(model, fu * fb)


# Functions shared between criterion 5 and the criteria they came from.

def criterion1_functions():
    for spec in ("cyclic:16@counting", "cyclic:64@counting",
                 "product:cyclic:2+cyclic:12@counting"):
        model = ltp.build_group(spec)
        rng = np.random.default_rng(101)
        for _ in range(200):
            yield ltp.random_function(model, rng), 2.0


def criterion2_functions():
    for spec in ("product:cyclic:2+cyclic:12@counting",
                 "product:cyclic:2+cyclic:12@probability"):
        model = ltp.build_group(spec)
        rng = np.random.default_rng(202)
        for _ in range(100):
            yield ltp.random_function(model, rng), 2.0


def criterion3_functions():
    finite = ltp.build_group("cyclic:32@counting")
    rng = np.random.default_rng(303)
    for _ in range(100):
        yield ltp.random_function(finite, rng, positive=True), 2.0
    truncated = ltp.build_group("z:64@counting")
    rng = np.random.default_rng(304)
    for _ in range(100):
        yield ltp.random_function(truncated, rng, positive=True,
                                  support_radius=16), 2.0


def criterion4_functions():
    for step in (0.25, 0.125):
        model = ltp.build_group(f"affine:{step}:2:{step}:4")
        f = crit4_probe(model)
        yield f, 2.0
        for a in (0.5, 2.0, 4.0):
            for b in (0.0, 1.0):
                yield ltp.translate(f, (a, b), ltp.RIGHT_DIRAC), 2.0


def test_criterion_1_spectral_svd_agreement():
    started = time.time()
    worst = 0.0
    count = 0
    for f, _p in criterion1_functions():
        via_transform = tempered_norm(f, 2, method="spectral_abelian").lower
        via_svd = tempered_norm(f, 2, method="exact_svd").lower
        worst = max(worst, abs(via_transform - via_svd))
        count += 1
    elapsed = time.time() - started
    report("1 transform-max vs operator SVD",
           worst <= 1e-9 and elapsed < 30.0,
           f"worst |diff| {worst:.3e} over {count} functions, {elapsed:.1f}s")


def test_criterion_2_restricted_isometry_identity():
    worst_identity = 0.0
    worst_roundtrip = 0.0
    for f, _p in criterion2_functions():
        dual = build_dual(f.group)
        norm_f, sup_f, sup_fhat, norm_fhat = restricted_isometry_terms(dual, f)
        worst_identity = max(worst_identity, abs((norm_f + sup_f) - (sup_fhat + norm_fhat)))
        back = ltp.inverse_fourier(dual, fourier(dual, f))
        worst_roundtrip = max(worst_roundtrip, float(np.max(np.abs(back.values - f.values))))
    report("2 restricted isometry + roundtrip",
           worst_identity <= 1e-9 and worst_roundtrip <= 1e-12,
           f"identity {worst_identity:.3e}, roundtrip {worst_roundtrip:.3e}")


def test_criterion_3_positive_cone_norm_equality():
    worst_finite = 0.0
    worst_truncated = 0.0
    for f, _p in criterion3_functions():
        value = tempered_norm(f, 2).lower
        target = ltp.lp_norm(f, 1)
        gap = abs(value - target)
        if f.group.kind == "finite":
            worst_finite = max(worst_finite, gap)
        else:
            worst_truncated = max(worst_truncated, gap)
    report("3 positive-cone equality",
           worst_finite <= 1e-9 and worst_truncated <= 1e-3,
           f"finite {worst_finite:.3e} (tol 1e-9), truncated {worst_truncated:.3e} (tol 1e-3)")


def test_criterion_4_dirac_scaling_grid_convergence(monkeypatch):
    # the dirac-scaling runner itself, with this probe and these points
    worst = {}
    points = [(a, b) for a in (0.5, 2.0, 4.0) for b in (0.0, 1.0)]
    monkeypatch.setattr(suite, "_scaling_points", lambda model: points)
    for step in (0.25, 0.125):
        model = ltp.build_group(f"affine:{step}:2:{step}:4")
        f = crit4_probe(model)
        for a, b in points:
            assert point_modular(model, (a, b)) ** -0.5 == pytest.approx(math.sqrt(a), abs=1e-12)
        monkeypatch.setattr(suite, "_random_probe", lambda model, rng, positive: f)
        ctx = suite.SuiteContext(model, ltp.Exponent.of(2), np.random.default_rng(0))
        worst[step], _ = suite._run_dirac_scaling(ctx)
    report("4 affine dirac scaling",
           worst[0.25] <= 5e-2 and worst[0.125] <= 2.5e-2,
           f"rel err {worst[0.25]:.4f} at step 0.25 (tol 0.05), "
           f"{worst[0.125]:.4f} at step 0.125 (tol 0.025)")


def test_criterion_5_weighted_l1_dominates_everywhere():
    violations = 0
    count = 0
    for source in (criterion1_functions, criterion2_functions,
                   criterion3_functions, criterion4_functions):
        for f, p in source():
            est = tempered_norm(f, p)
            if est.lower > upper_bound_weighted_l1(f, p) + 1e-9:
                violations += 1
            count += 1
    report("5 weighted-L1 upper bound", violations == 0,
           f"{violations} violations over {count} functions")


def brute_force_oracle(f, p, samples=100000, seed=515):
    """Best ratio ||g*f||_p / ||g||_p over random unit vectors, then a local
    polish with a derivative-free optimizer.  Independent of the library's
    iteration."""
    mat = ConvOperator(f).weighted_matrix(p).astype(np.complex128)
    n = mat.shape[0]
    rng = np.random.default_rng(seed)
    candidates = rng.standard_normal((n, samples)) + 1j * rng.standard_normal((n, samples))
    candidates /= (np.abs(candidates) ** p).sum(axis=0) ** (1.0 / p)
    ratios = (np.abs(mat @ candidates) ** p).sum(axis=0) ** (1.0 / p)
    best = int(np.argmax(ratios))
    start = candidates[:, best]

    def negative_ratio(z):
        x = z[:n] + 1j * z[n:]
        norm = (np.abs(x) ** p).sum() ** (1.0 / p)
        if norm == 0:
            return 0.0
        return -((np.abs(mat @ x) ** p).sum() ** (1.0 / p)) / norm

    polished = minimize(negative_ratio, np.concatenate([start.real, start.imag]),
                        method="Powell",
                        options={"maxiter": 20000, "xtol": 1e-10, "ftol": 1e-12})
    return max(float(ratios[best]), -float(polished.fun))


SMALL_GROUPS = ["cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5",
                "cyclic:6", "cyclic:7", "cyclic:8", "dihedral:2", "dihedral:3",
                "dihedral:4", "symmetric:3", "product:cyclic:2+cyclic:2",
                "product:cyclic:2+cyclic:3", "product:cyclic:2+cyclic:4",
                "product:cyclic:2+cyclic:2+cyclic:2"]


def test_criterion_6_iteration_soundness():
    cfg = IterConfig(tol=1e-13, max_iters=3000, restarts=12)
    worst_gap = -math.inf
    bound_violations = 0
    for idx, spec in enumerate(SMALL_GROUPS):
        model = ltp.build_group(spec)
        rng = np.random.default_rng(600 + idx)
        f = ltp.random_function(model, rng)
        for p in (1.5, 3.0):
            est = tempered_norm(f, p, cfg=cfg)
            oracle = brute_force_oracle(f, p)
            worst_gap = max(worst_gap, oracle - est.lower)
            if est.lower > upper_bound_weighted_l1(f, p) + 1e-9:
                bound_violations += 1
    report("6 iteration soundness",
           worst_gap <= 1e-6 and bound_violations == 0,
           f"worst oracle - lower = {worst_gap:.3e} (tol 1e-6), "
           f"{bound_violations} upper-bound violations")


def test_criterion_7_folner_certificate_and_averaging():
    model = ltp.build_group("z:64@counting")
    cert = ltp.find_folner(model, 1, 0.1)
    cert_ok = (cert.box_radius == 5
               and cert.worst_ratio == pytest.approx(10.0 / 11.0, abs=1e-15))
    coords = model.coords()[cert.k_indices]
    recount_ok = all(
        len({tuple(c + s) for c in coords} & {tuple(c) for c in coords})
        == 11 - abs(s) for s in (-1, 0, 1))
    rng = np.random.default_rng(700)
    slack_violations = 0
    for _ in range(50):
        f = ltp.random_function(model, rng, positive=True, support_radius=16)
        lower, pairing, upper = ltp.averaging_inequality_check(f, cert, 2)
        if max(0.0, lower - pairing, pairing - upper) > 0.0:
            slack_violations += 1
    report("7 Folner certificate + averaging",
           cert_ok and recount_ok and slack_violations == 0,
           f"L={cert.box_radius}, ratio {cert.worst_ratio:.6f}, "
           f"{slack_violations} slack violations over 50 functions")


def associativity_residual(f, g, h):
    """||(f*g)*h - f*(g*h)||_2 on the direct path, as the suite measures it."""
    left = ltp.convolve(ltp.convolve(f, g, path="direct"), h, path="direct")
    right = ltp.convolve(f, ltp.convolve(g, h, path="direct"), path="direct")
    return ltp.lp_norm(left - right, 2)


def test_criterion_8_structural_exactness():
    rng = np.random.default_rng(800)
    worst = 0.0

    big = ltp.build_group("cyclic:1024@counting")
    for _ in range(3):
        f = ltp.random_function(big, rng)
        g = ltp.random_function(big, rng)
        h = ltp.random_function(big, rng)
        for func in (f, g, h):
            func.values /= ltp.lp_norm(func, 2)
        worst = max(worst, associativity_residual(f, g, h))
    sym = ltp.build_group("symmetric:4")
    for _ in range(3):
        f = ltp.random_function(sym, rng)
        g = ltp.random_function(sym, rng)
        h = ltp.random_function(sym, rng)
        for func in (f, g, h):
            func.values /= ltp.lp_norm(func, 2)
        worst = max(worst, associativity_residual(f, g, h))

    dual = build_dual(big)
    gram = (dual.characters * big.weights[None, :]) @ np.conj(dual.characters.T)
    worst = max(worst, float(np.max(np.abs(gram - np.sum(big.weights) * np.eye(big.n)))))
    for _ in range(5):
        f = ltp.random_function(big, rng)
        f.values /= ltp.lp_norm(f, 2)
        fhat = fourier(dual, f)
        worst = max(worst, abs(ltp.lp_norm(f, 2) - ltp.lp_norm(fhat, 2)))
        worst = max(worst, abs(ltp.mult_operator_norm(f) - ltp.ess_sup(f)))
    report("8 structural exactness", worst <= 1e-10,
           f"worst residual {worst:.3e} on models up to n=1024 (tol 1e-10)")


def test_criterion_9_normalization_dichotomy():
    rng = np.random.default_rng(900)
    counting = ltp.build_group("cyclic:16@counting")
    probability = ltp.build_group("cyclic:16@probability")
    worst_lower = 0.0
    worst_upper = 0.0
    for _ in range(50):
        for p in (1.5, 2.0, 3.0):
            f = ltp.random_function(counting, rng)
            est = tempered_norm(f, p)
            worst_lower = max(worst_lower, ltp.lp_norm(f, p) - est.lower)
            g = ltp.GFunction(probability, f.values)
            est_p = tempered_norm(g, p)
            worst_upper = max(worst_upper, est_p.upper - ltp.lp_norm(g, p))
    report("9 normalization dichotomy",
           worst_lower <= 1e-9 and worst_upper <= 1e-9,
           f"counting ||f||_p - lower <= {worst_lower:.3e}, "
           f"probability upper - ||f||_p <= {worst_upper:.3e}")


def test_criterion_10_byte_deterministic_reports():
    first = ltp.run_suite("cyclic:16@counting", [2.0], seed=7).to_json()
    second = ltp.run_suite("cyclic:16@counting", [2.0], seed=7).to_json()
    identical = first == second
    parsed = json.loads(first)
    report("10 byte-deterministic reports",
           identical and parsed["summary"]["fail"] == 0,
           f"{len(first)} bytes identical across runs")
