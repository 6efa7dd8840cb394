"""Certified tempered-norm computation: exact routes, iterative bounds,
and the statement-level checks built on them.

The p = 2 oracle used here is an explicit DFT maximum computed with a
double loop, independent of the library's FFT and SVD paths.
"""

import math

import numpy as np
import pytest

import ltp
from ltp.errors import DomainError, GridTooCoarse, ResourceError
from ltp.tempered import (IterConfig, quasi_identity_blowup, tempered_norm,
                          tempered_upper, upper_bound_weighted_l1)


def dft_max_oracle(model, values):
    """max_k |sum_j w_j f(j) exp(-2 pi i j k / n)| on a single cyclic factor."""
    n = model.n
    best = 0.0
    for k in range(n):
        acc = 0.0 + 0.0j
        for j in range(n):
            acc += model.weights[j] * values[j] * np.exp(-2j * np.pi * j * k / n)
        best = max(best, abs(acc))
    return best


def test_p2_phase_example():
    G = ltp.build_group("cyclic:4@counting")
    f = ltp.GFunction(G, [1, np.exp(1j * np.pi / 4), 0, 0])
    expected = 2.0 * math.cos(math.pi / 8)
    assert dft_max_oracle(G, f.values) == pytest.approx(expected, abs=1e-12)
    for method in ("auto", "spectral_abelian", "exact_svd"):
        est = tempered_norm(f, 2, method=method)
        assert est.lower == pytest.approx(expected, abs=1e-9)
        assert est.upper == pytest.approx(expected, abs=1e-9)


def test_dirac_identity_all_p():
    for spec in ("cyclic:6@counting", "z:8"):
        G = ltp.build_group(spec)
        delta = ltp.dirac(G)
        for p in (1.0, 1.5, 2.0, 3.0):
            est = tempered_norm(delta, p)
            assert est.lower == pytest.approx(1.0, abs=1e-9)
            assert est.upper == pytest.approx(1.0, abs=1e-9)


def test_truncated_z_box_symbol():
    G = ltp.build_group("z:64@counting")
    f = ltp.box_function(G, 1)
    est = tempered_norm(f, 2)
    assert abs(est.lower - 3.0) < 1e-6
    assert abs(est.upper - 3.0) < 1e-6
    # the window-section singular value stays a lower bound of the symbol sup
    section = tempered_norm(f, 2, method="exact_svd")
    assert section.lower <= est.lower + 1e-12


def test_symbol_route_z2():
    G = ltp.build_group("z2:8@counting")
    f = ltp.box_function(G, 1)  # positive: sup at the trivial frequency
    est = tempered_norm(f, 2)
    assert est.lower == pytest.approx(9.0, abs=1e-9)


def test_symbol_polish_evaluation_budget(monkeypatch):
    # Accepting zero-gain steps let the polish walk the flat top of the peak:
    # 8,632 symbol evaluations on this f.  Strict gains and the rounding-level
    # stop keep it far below that, and the polished value still tops a fine
    # grid of the symbol.
    from ltp import tempered
    calls = []
    evaluate = tempered._symbol_eval
    monkeypatch.setattr(tempered, "_symbol_eval",
                        lambda *args: calls.append(1) or evaluate(*args))
    G = ltp.build_group("z:64")
    f = ltp.random_function(G, 4, support_radius=16)
    est = tempered_norm(f, 2)
    assert len(calls) <= 400
    padded = np.zeros(1 << 16, dtype=np.complex128)
    padded[G.carrier.to_coords(np.arange(G.n))[:, 0] % padded.size] = f.values
    assert est.lower >= np.max(np.abs(np.fft.fft(padded))) * (1.0 - 1e-12)


def test_spectral_vs_svd_random():
    G = ltp.build_group("cyclic:12@counting")
    rng = np.random.default_rng(17)
    for _ in range(20):
        f = ltp.random_function(G, rng)
        a = tempered_norm(f, 2, method="spectral_abelian").value
        b = tempered_norm(f, 2, method="exact_svd").value
        assert abs(a - b) < 1e-10


def test_p1_equals_l1_on_unimodular():
    rng = np.random.default_rng(3)
    for spec in ("cyclic:9@counting", "cyclic:9@probability", "z:16"):
        G = ltp.build_group(spec)
        for _ in range(10):
            f = ltp.random_function(G, rng)
            est = tempered_norm(f, 1)
            assert est.lower == pytest.approx(ltp.lp_norm(f, 1), rel=1e-12)
            assert est.method == "exact_l1"


def test_zero_function():
    G = ltp.build_group("cyclic:5")
    est = tempered_norm(ltp.GFunction(G, np.zeros(5)), 2.7)
    assert est.lower == 0.0 and est.upper == 0.0 and est.converged


def test_weighted_l1_bound_examples():
    rng = np.random.default_rng(8)
    G = ltp.build_group("cyclic:8@counting")
    f = ltp.random_function(G, rng, positive=True)
    # unimodular: the bound is the plain L1 norm
    assert upper_bound_weighted_l1(f, 2) == pytest.approx(ltp.lp_norm(f, 1), rel=1e-14)
    # positive circulant symbol peaks at the trivial character: equality
    est = tempered_norm(f, 2)
    assert est.value == pytest.approx(upper_bound_weighted_l1(f, 2), abs=1e-9)
    zero = ltp.GFunction(G, np.zeros(8))
    assert upper_bound_weighted_l1(zero, 3) == 0.0


def test_lower_bound_never_exceeds_weighted_l1():
    rng = np.random.default_rng(23)
    for spec in ("cyclic:12@counting", "cyclic:12@probability", "dihedral:4",
                 "symmetric:3", "z:16", "z2:4"):
        G = ltp.build_group(spec)
        for _ in range(8):
            f = ltp.random_function(G, rng)
            for p in (1.0, 1.5, 2.0, 3.0):
                est = tempered_norm(f, p)
                assert est.lower <= upper_bound_weighted_l1(f, p) + 1e-9
                assert est.lower <= est.upper * (1 + 1e-9)


def test_witness_attains_lower_bound():
    rng = np.random.default_rng(31)
    for spec in ("cyclic:10@counting", "dihedral:3", "cyclic:10@probability"):
        G = ltp.build_group(spec)
        f = ltp.random_function(G, rng)
        for p, method in ((2.0, "exact_svd"), (2.0, "auto"), (1.0, "auto"),
                          (1.7, "auto")):
            est = tempered_norm(f, p, method=method)
            if est.witness is None:
                continue
            ratio = ltp.lp_norm(ltp.convolve(est.witness, f), p) / \
                ltp.lp_norm(est.witness, p)
            assert ratio >= est.lower * (1 - 1e-9) - 1e-12


@pytest.mark.parametrize("spec", ["cyclic:256@counting", "circle:64",
                                  "product:cyclic:8+cyclic:16",
                                  "product:cyclic:2+cyclic:3+cyclic:4"])
def test_spectral_witness_is_the_top_character(spec):
    # the p = 2 witness on finite abelian models is the row of the
    # independent character table at the largest transform value, and its
    # Rayleigh ratio under the direct convolution is the norm
    from ltp.spectral import build_dual, fourier
    G = ltp.build_group(spec)
    f = ltp.random_function(G, 5)
    est = tempered_norm(f, 2)
    dual = build_dual(G)
    k = int(np.argmax(np.abs(fourier(dual, f).values)))
    assert np.max(np.abs(est.witness.values - dual.characters[k])) <= 1e-14
    image = ltp.convolve(est.witness, f, path="direct")
    ratio = ltp.lp_norm(image, 2) / ltp.lp_norm(est.witness, 2)
    assert abs(ratio - est.lower) <= 1e-12 * est.lower


def test_boyd_bracket_and_convergence_flag():
    G = ltp.build_group("cyclic:6@counting")
    rng = np.random.default_rng(4)
    f = ltp.random_function(G, rng)
    est = tempered_norm(f, 1.5, cfg=IterConfig(tol=1e-10, max_iters=800, restarts=8))
    assert est.method == "boyd_iteration"
    assert est.converged
    assert 0 < est.iterations <= 800
    exact2 = tempered_norm(f, 2).value
    assert est.lower <= est.upper * (1 + 1e-9)
    # p = 1.5 norm of a fixed operator is at least a positive fraction of p = 2
    assert est.lower > 0.25 * exact2


def _sequential_boyd(mat, exp, x0, cfg):
    """One restart of the power iteration as a plain loop: the reference
    the block engine must reproduce column by column."""
    def pnorm(v):
        return float(np.sum(np.abs(v) ** exp.p) ** (1.0 / exp.p))

    def signed_power(v, e):
        mag = np.abs(v)
        return mag ** e * np.where(mag > 0, v / np.where(mag > 0, mag, 1.0), 0.0)

    x = x0 / pnorm(x0)
    gamma_prev = -math.inf
    for _ in range(cfg.max_iters):
        y = mat @ x
        gamma = pnorm(y)
        if gamma == 0.0 or abs(gamma - gamma_prev) <= cfg.tol * max(1.0, gamma):
            return gamma
        gamma_prev = gamma
        x_new = signed_power(mat.conj().T @ signed_power(y, exp.p - 1.0), exp.q - 1.0)
        if pnorm(x_new) == 0.0:
            break
        x = x_new / pnorm(x_new)
    return pnorm(mat @ x)


@pytest.mark.parametrize("spec", ["cyclic:256", "dihedral:64", "symmetric:5",
                                  "affine:0.125:1:0.125:1"])
def test_block_engine_matches_sequential_restarts(spec):
    from ltp.suite import _random_probe
    from ltp.tempered import _boyd_block, _DenseProduct
    G = ltp.build_group(spec)
    f = _random_probe(G, np.random.default_rng(2))
    exp = ltp.Exponent.of(1.5)
    cfg = IterConfig()
    mat = ltp.conv_operator(f).weighted_matrix(exp.p).astype(np.complex128)
    rng = np.random.default_rng(cfg.seed)
    starts = np.zeros((G.n, cfg.restarts), dtype=np.complex128)
    starts[G.identity, 0] = 1.0
    starts[:, 1] = 1.0
    starts[:, 2] = np.abs(rng.standard_normal(G.n))
    for k in range(3, cfg.restarts):
        starts[:, k] = rng.standard_normal(G.n) + 1j * rng.standard_normal(G.n)
    gamma = _boyd_block(_DenseProduct(mat), exp, starts, cfg)[0]
    expected = [_sequential_boyd(mat, exp, starts[:, k], cfg) for k in range(cfg.restarts)]
    np.testing.assert_allclose(gamma, expected, rtol=1e-14, atol=0)
    assert tempered_norm(f, exp.p).lower == pytest.approx(max(expected), rel=1e-14)


@pytest.mark.parametrize("spec", ["cyclic:256", "cyclic:512",
                                  "product:cyclic:16+cyclic:16"])
@pytest.mark.parametrize("complex_valued", [True, False])
def test_circulant_product_equals_the_dense_matrix(spec, complex_valued):
    from ltp.convolve import _CirculantProduct
    G = ltp.build_group(spec)
    f = ltp.random_function(G, 9, complex_valued=complex_valued)
    mat = ltp.conv_operator(f).weighted_matrix(1.5)
    product = _CirculantProduct(f)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((G.n, 5)) + 1j * rng.standard_normal((G.n, 5))
    for got, want in ((product.apply(x), mat @ x),
                      (product.adjoint(x), mat.conj().T @ x)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("spec", ["cyclic:256", "product:cyclic:16+cyclic:16"])
def test_block_engine_circulant_matches_dense(spec):
    # the FFT product changes the cost of a step, not the steps taken
    from ltp.suite import _random_probe
    from ltp.convolve import _CirculantProduct
    from ltp.tempered import _boyd_block, _boyd_starts, _DenseProduct
    G = ltp.build_group(spec)
    f = _random_probe(G, np.random.default_rng(2))
    exp = ltp.Exponent.of(1.5)
    cfg = IterConfig()
    starts = _boyd_starts(G.n, G.identity, cfg.restarts, cfg.seed)
    mat = ltp.conv_operator(f).weighted_matrix(exp.p).astype(np.complex128)
    dense = _boyd_block(_DenseProduct(mat), exp, starts, cfg)
    fft = _boyd_block(_CirculantProduct(f), exp, starts, cfg)
    np.testing.assert_allclose(fft[0], dense[0], rtol=1e-14, atol=0)
    np.testing.assert_array_equal(fft[2], dense[2])
    assert fft[4] == dense[4]


def test_boyd_runs_past_the_dense_cap_on_cyclic_models():
    G = ltp.build_group("cyclic:8192")
    f = ltp.random_function(G, 1)
    est = tempered_norm(f, 1.5)
    assert est.method == "boyd_iteration" and est.converged
    ratio = ltp.lp_norm(ltp.convolve(est.witness, f), 1.5) / ltp.lp_norm(est.witness, 1.5)
    assert ratio == pytest.approx(est.lower, rel=1e-12)
    # without a circulant structure the dense matrix is still capped
    Z = ltp.build_group("z:2100")
    with pytest.raises(ResourceError):
        tempered_norm(ltp.random_function(Z, 1, support_radius=3), 1.5)


def test_restart_spread_reports_the_ratios_of_all_restarts():
    from ltp.tempered import _boyd_block, _boyd_starts, _DenseProduct
    G = ltp.build_group("dihedral:6")
    f = ltp.random_function(G, 3)
    exp = ltp.Exponent.of(1.5)
    cfg = IterConfig()
    est = tempered_norm(f, exp.p, cfg=cfg)
    mat = ltp.conv_operator(f).weighted_matrix(exp.p).astype(np.complex128)
    gamma = _boyd_block(_DenseProduct(mat), exp,
                        _boyd_starts(G.n, G.identity, cfg.restarts, cfg.seed), cfg)[0]
    assert est.restart_spread == pytest.approx((gamma.max() - gamma.min()) / gamma.max(),
                                               rel=1e-12)
    assert est.restart_spread > 0.5  # the all-ones start settles far below the rest
    assert tempered_norm(f, exp.p, cfg=IterConfig(restarts=1)).restart_spread == 0.0


def test_restarts_below_three_are_honoured():
    G = ltp.build_group("dihedral:6")
    f = ltp.random_function(G, 3)
    runs = [tempered_norm(f, 1.5, cfg=IterConfig(restarts=r)) for r in (1, 2, 3)]
    assert runs[0].matvecs < runs[1].matvecs < runs[2].matvecs
    assert runs[0].lower <= runs[1].lower < runs[2].lower
    for bad in (0, -2):
        with pytest.raises(DomainError):
            IterConfig(restarts=bad)


def test_boyd_work_count_repeats_for_the_same_seed():
    G = ltp.build_group("z2:8")
    f = ltp.random_function(G, 7, support_radius=2)
    first = tempered_norm(f, 1.5, cfg=IterConfig(seed=3))
    again = tempered_norm(f, 1.5, cfg=IterConfig(seed=3))
    assert first.matvecs == again.matvecs
    assert first.iterations == again.iterations
    # every restart makes at least two products per step of the best one
    assert first.matvecs >= 2 * first.iterations > 0


@pytest.mark.parametrize("spec", ["z:64", "z2:8", "r:0.05:4"])
def test_lattice_boyd_witness_is_leak_free(spec):
    G = ltp.build_group(spec)
    radius = float(np.max(np.abs(G.coords()))) / 4.0
    f = ltp.random_function(G, 5, support_radius=radius)
    est = tempered_norm(f, 1.5)
    assert est.method == "boyd_iteration" and est.witness is not None
    image = ltp.convolve(est.witness, f)
    assert image.leak == 0.0
    ratio = ltp.lp_norm(image, 1.5) / ltp.lp_norm(est.witness, 1.5)
    assert ratio == pytest.approx(est.lower, rel=1e-12)


def test_exact_l1_runs_past_the_dense_operator_cap():
    G = ltp.build_group("z:2100")
    assert G.n == 4201
    f = ltp.random_function(G, 1, support_radius=3)
    est = tempered_norm(f, 1)
    assert est.lower == pytest.approx(upper_bound_weighted_l1(f, 1), rel=1e-12)
    ratio = ltp.lp_norm(ltp.convolve(est.witness, f), 1) / ltp.lp_norm(est.witness, 1)
    assert ratio == pytest.approx(est.lower, rel=1e-12)


def test_wl1_bound_method():
    G = ltp.build_group("cyclic:8@counting")
    f = ltp.random_function(G, 11)
    est = tempered_norm(f, 2.5, method="bound_weighted_l1")
    assert est.method == "bound_weighted_l1"
    assert est.lower <= est.upper * (1 + 1e-9)
    assert est.upper == pytest.approx(upper_bound_weighted_l1(f, 2.5), rel=1e-14)


def test_method_validation():
    G = ltp.build_group("cyclic:4")
    f = ltp.random_function(G, 0)
    with pytest.raises(DomainError):
        tempered_norm(f, 3, method="exact_svd")
    with pytest.raises(DomainError):
        tempered_norm(f, 2, method="exact_l1")
    with pytest.raises(DomainError):
        tempered_norm(f, 2, method="nonsense")
    with pytest.raises(DomainError):
        tempered_norm(f, 1, method="boyd_iteration")
    D = ltp.build_group("dihedral:3")
    with pytest.raises(DomainError):
        tempered_norm(ltp.random_function(D, 0), 2, method="spectral_abelian")


# ---------------------------------------------------------------------------
# The upper end alone
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", ["cyclic:256", "dihedral:64", "z:64", "z2:8", "r:0.05:4",
                                  "affine:0.125:1:0.125:1"])
def test_tempered_upper_equals_the_norm_upper(spec, boyd_calls):
    G = ltp.build_group(spec)
    functions = {"complex": ltp.random_function(G, 21),
                 "real": ltp.random_function(G, 22, complex_valued=False),
                 "zero": ltp.GFunction(G, np.zeros(G.n))}
    for p in (1, 1.5, 2, 3):
        for method in ("auto", "boyd_iteration", "bound_weighted_l1"):
            for kind, f in functions.items():
                if p == 1 and method == "boyd_iteration":
                    for fn in (tempered_norm, tempered_upper):
                        with pytest.raises(DomainError):
                            fn(f, p, method=method)
                    continue
                expected = tempered_norm(f, p, method=method).upper
                del boyd_calls[:]
                got = tempered_upper(f, p, method=method)
                assert got == expected, (p, method, kind)
                assert boyd_calls == [], (p, method, kind)


def test_tempered_upper_runs_past_the_dense_cap(boyd_calls):
    G = ltp.build_group("z:2100")
    f = ltp.random_function(G, 4, support_radius=3)
    with pytest.raises(ResourceError):
        tempered_norm(f, 1.5)
    assert tempered_upper(f, 1.5) == upper_bound_weighted_l1(f, 1.5)
    assert boyd_calls == ["z:2100"]


def test_submultiplicative_action():
    rng = np.random.default_rng(29)
    for spec in ("cyclic:9@counting", "dihedral:4"):
        G = ltp.build_group(spec)
        for _ in range(8):
            f = ltp.random_function(G, rng)
            g = ltp.random_function(G, rng)
            for p in (1.5, 2.0, 3.0):
                est = tempered_norm(f, p)
                lhs = ltp.lp_norm(ltp.convolve(g, f), p)
                assert lhs <= ltp.lp_norm(g, p) * est.upper + 1e-9


# ---------------------------------------------------------------------------
# Dirac scaling
# ---------------------------------------------------------------------------

def test_dirac_scaling_unimodular():
    rng = np.random.default_rng(6)
    G = ltp.build_group("cyclic:12@counting")
    f = ltp.random_function(G, rng)
    for x in (1, 5, 11):
        ratio, expected = ltp.dirac_scaling_check(f, x, 2)
        assert expected == 1.0
        assert ratio == pytest.approx(1.0, abs=1e-9)
    ratio, _ = ltp.dirac_scaling_check(f, G.identity, 2)
    assert ratio == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("spec", ["z:64", "z2:8", "r:0.05:4"])
def test_dirac_scaling_lattice_p15_is_translation_invariant(spec):
    # The window section is not translation-equivariant; the eroded box is,
    # so the iterated ratio repeats to rounding under f -> f * delta_x.
    from ltp.suite import _scaling_points, _support_radius
    G = ltp.build_group(spec)
    x = _scaling_points(G)[0]
    for seed in range(10):
        for positive in (True, False):
            f = ltp.random_function(G, seed, positive=positive,
                                    support_radius=_support_radius(G))
            ratio, expected = ltp.dirac_scaling_check(f, x, 1.5)
            assert expected == 1.0
            assert abs(ratio - 1.0) <= 1e-12, (seed, positive, ratio)


@pytest.mark.slow
@pytest.mark.parametrize("spec", ["z:64", "z2:8", "r:0.05:4"])
def test_dirac_scaling_passes_over_suite_seeds(spec):
    G = ltp.build_group(spec)
    for seed in range(30):
        report = ltp.run_suite(G.spec, [1.5], seed=seed, model=G)
        status = {check.name: check.status for check in report.checks}
        assert status["dirac-scaling@p=1.5"] == "pass", seed


def test_dirac_scaling_affine_coarse():
    G = ltp.build_group("affine:0.25:2:0.25:4")
    coords = G.coords()
    u, b = coords[:, 0], coords[:, 1]
    fu = np.where(np.abs(u + 0.3465) < 0.96,
                  np.cos(0.5 * np.pi * (u + 0.3465) / 0.96) ** 2, 0.0)
    fb = np.where(np.abs(b) < 2.0, np.cos(0.25 * np.pi * b) ** 2, 0.0)
    f = ltp.GFunction(G, fu * fb)
    ratio, expected = ltp.dirac_scaling_check(f, (2.0, 0.0), 2)
    assert expected == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert ratio == pytest.approx(expected, rel=0.05)


# ---------------------------------------------------------------------------
# Real and imaginary closure
# ---------------------------------------------------------------------------

def test_re_im_closure_real_function():
    G = ltp.build_group("cyclic:8@counting")
    f = ltp.random_function(G, 5, complex_valued=False)
    whole = tempered_norm(f, 2).value
    re_norm = tempered_norm(ltp.real_part(f), 2).value
    im_norm = tempered_norm(ltp.imag_part(f), 2).value
    assert re_norm == pytest.approx(whole, rel=1e-12)
    assert im_norm == 0.0
    result = ltp.re_im_closure_check(f, 2)
    assert result.passed


def test_re_im_closure_random_batch():
    rng = np.random.default_rng(12)
    G = ltp.build_group("cyclic:12@counting")
    for _ in range(200):
        f = ltp.random_function(G, rng)
        assert ltp.re_im_closure_check(f, 2).passed


# ---------------------------------------------------------------------------
# Quasi-identity blowup
# ---------------------------------------------------------------------------

def test_quasi_identity_sequences():
    G = ltp.build_group("r:0.05:4")
    bounds = quasi_identity_blowup(G, 2, 4)
    assert bounds == pytest.approx([1.0, math.sqrt(2), math.sqrt(3), 2.0], abs=1e-12)
    assert quasi_identity_blowup(G, 4, 16, big_k=2.0)[15] == pytest.approx(4.0, abs=1e-12)
    near_one = quasi_identity_blowup(G, 1.0001, 10)
    assert max(near_one) - min(near_one) < 2e-3
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_quasi_identity_grid_too_coarse():
    G = ltp.build_group("r:0.5:4")
    with pytest.raises(GridTooCoarse):
        quasi_identity_blowup(G, 2, 5)
    with pytest.raises(DomainError):
        quasi_identity_blowup(ltp.build_group("cyclic:4"), 2, 3)
