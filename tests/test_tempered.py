"""Certified tempered-norm computation: exact routes, iterative bounds,
and the statements the suite reads from them.

The p = 2 oracle used here is an explicit DFT maximum computed with a
double loop, independent of the library's FFT and SVD paths.
"""

import math

import numpy as np
import pytest

import ltp
from ltp.convolve import _CirculantProduct
from ltp import suite
from ltp.errors import DomainError, ResourceError
from ltp.groups import _AffineCarrier
from ltp.space import point_modular
from ltp.tempered import (IterConfig, _symbol_rounding, tempered_norm, tempered_norms,
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


def fine_symbol_max(f):
    """max |w0 fhat| on a grid of 2^16 frequencies in 1-D and 2048^2 in 2-D,
    finer than the library's scan, with the values scattered by coordinates.
    Its own FFT rounding is why the comparisons allow 1e-12 relative."""
    G = f.group
    dim = G.carrier.dim
    grid = np.zeros((1 << 16,) if dim == 1 else (2048, 2048), dtype=np.complex128)
    grid[tuple((G.carrier.coords % grid.shape).T)] = f.values
    return float(G.weights[0] * np.max(np.abs(np.fft.fftn(grid))))


def box_probe(G, rng, centre, radius):
    """Complex f on the cells within ``radius`` of ``centre`` on every axis."""
    mask = np.all(np.abs(G.carrier.coords - centre) <= radius, axis=1)
    return ltp.GFunction(G, (rng.standard_normal(G.n) + 1j * rng.standard_normal(G.n)) * mask)


@pytest.mark.parametrize("spec", ["z:64", "z2:8", "r:0.05:4"])
def test_symbol_bracket_is_certified(spec):
    G = ltp.build_group(spec)
    radius = G.carrier.radius
    rng = np.random.default_rng(4)
    probes = {"quarter": (0, radius // 4), "off-centre": (radius // 2, radius // 4),
              "full": (0, radius)}
    for name, (centre, half_width) in probes.items():
        f = box_probe(G, rng, centre, half_width)
        est = tempered_norm(f, 2)
        fine = fine_symbol_max(f)
        assert est.lower <= fine * (1.0 + 1e-12) and fine <= est.upper * (1.0 + 1e-12), (name, est, fine)
        if name != "full":
            assert (est.upper - est.lower) / est.upper <= 1e-3, (name, est)
    if G.weights[0] == 1.0:
        est = tempered_norm(ltp.dirac(G), 2)
        assert (est.lower, est.upper) == (1.0, 1.0)
    positive = ltp.random_function(G, rng, positive=True,
                                   support_radius=G.carrier.step * radius / 4)
    est = tempered_norm(positive, 2)
    wl1 = upper_bound_weighted_l1(positive, 2)
    assert est.lower == pytest.approx(wl1, rel=1e-12)
    assert est.upper == pytest.approx(wl1, rel=1e-12)


def exact_symbol(f, node, pad):
    """w0 sum_k f(k) exp(-i k . theta) at theta = 2 pi node / pad, summed
    term by term in 50-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    G = f.group
    radius = G.carrier.radius
    with mpmath.workdps(50):
        powers = [{k: mpmath.expj(-2 * mpmath.pi * int(m) * k / pad) for k in range(-radius, radius + 1)}
                  for m in node]
        total = mpmath.mpc(0)
        for cell in np.flatnonzero(f.values):
            term = mpmath.mpc(f.values[cell].real, f.values[cell].imag)
            for axis, k in enumerate(G.carrier.coords[cell]):
                term *= powers[axis][int(k)]
            total += term
        return total * float(G.weights[0])


@pytest.mark.parametrize("spec", ["z:64", "r:0.05:4"])
def test_one_dimensional_scan_is_fftn_of_the_embedded_grid(spec):
    G = ltp.build_group(spec)
    pad = 4096
    rng = np.random.default_rng(3)
    for half_width in (G.carrier.radius // 4, G.carrier.radius):
        f = box_probe(G, rng, 0, half_width)
        grid = np.zeros(pad, dtype=np.complex128)
        grid[G.carrier.coords[:, 0] % pad] = f.values
        symbol = _CirculantProduct(f, (pad,)).symbol[..., 0]
        assert np.array_equal(symbol, G.weights[0] * np.fft.fftn(grid)), half_width


@pytest.mark.parametrize("spec, probe, rows", [("z2:8", "full", 17), ("z2:8", "quarter", 5),
                                               ("z2:8", "negative corner", 9), ("z2:50", "full", 101)])
def test_symbol_scan_is_within_its_rounding_margin_of_the_exact_sum(spec, probe, rows):
    # row FFTs and the twiddle matmul: at the scan's argmax and three more
    # nodes the computed symbol is within the margin _symbol_supremum adds.
    # The negative corner's rows wrap round the torus to pad - 8, ..., 0.
    mpmath = pytest.importorskip("mpmath")
    G = ltp.build_group(spec)
    radius = G.carrier.radius
    centre, half_width = {"full": (0, radius), "quarter": (0, radius // 4),
                          "negative corner": (-(radius // 2), radius // 2)}[probe]
    pad = 512
    rng = np.random.default_rng(8)
    f = box_probe(G, rng, centre, half_width)
    assert np.unique(G.carrier.coords[np.flatnonzero(f.values), 0]).size == rows
    symbol = _CirculantProduct(f, (pad, pad)).symbol[..., 0]
    margin = _symbol_rounding(f, pad)
    nodes = [np.unravel_index(int(np.argmax(np.abs(symbol))), symbol.shape)]
    nodes += [tuple(m) for m in rng.integers(0, pad, size=(3, 2))]
    for node in nodes:
        with mpmath.workdps(50):
            error = float(abs(mpmath.mpc(complex(symbol[node])) - exact_symbol(f, node, pad)))
        assert error <= margin, (node, error, margin)
    assert tempered_norm(f, 2).lower == float(np.max(np.abs(symbol)))


@pytest.mark.slow
@pytest.mark.parametrize("spec", ["z:64", "z2:8", "r:0.05:4"])
def test_symbol_bracket_over_suite_seeds(spec, monkeypatch):
    from ltp import tempered
    route = tempered._symbol_supremum
    seen = {}

    def recorded(f):
        est = route(f)
        seen[f.values.tobytes()] = (f, est)
        return est

    monkeypatch.setattr(tempered, "_symbol_supremum", recorded)
    G = ltp.build_group(spec)
    for seed in range(30):
        report = ltp.run_suite(G.spec, [2.0], seed=seed, model=G)
        failed = [check.name for check in report.checks if check.status == "fail"]
        assert not failed, (seed, failed)
    assert seen
    for f, est in seen.values():
        fine = fine_symbol_max(f)
        assert est.lower <= fine * (1.0 + 1e-12) and fine <= est.upper * (1.0 + 1e-12), (est, fine)


def test_spectral_vs_svd_random():
    G = ltp.build_group("cyclic:12@counting")
    rng = np.random.default_rng(17)
    for _ in range(20):
        f = ltp.random_function(G, rng)
        a = tempered_norm(f, 2, method="spectral_abelian").lower
        b = tempered_norm(f, 2, method="exact_svd").lower
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
    assert est.lower == pytest.approx(upper_bound_weighted_l1(f, 2), abs=1e-9)
    zero = ltp.GFunction(G, np.zeros(8))
    assert upper_bound_weighted_l1(zero, 3) == 0.0


def _affine_bump(G):
    coords = G.coords()
    u, b = coords[:, 0], coords[:, 1]
    fu = np.where(np.abs(u) < 0.5, np.cos(np.pi * u) ** 2, 0.0)
    fb = np.where(np.abs(b) < 1.0, np.cos(0.5 * np.pi * b) ** 2, 0.0)
    return ltp.GFunction(G, fu * fb)


def test_weighted_l1_bound_at_p1_is_the_l1_norm_bit_for_bit():
    # q = inf: Delta^(-1/q) = Delta^(-0) is 1 on every cell, also where Delta != 1
    G = ltp.build_group("affine:0.25:1:0.25:2")
    for f in (_affine_bump(G), ltp.random_function(G, np.random.default_rng(0))):
        assert upper_bound_weighted_l1(f, 1) == ltp.lp_norm(f, 1)
        assert upper_bound_weighted_l1(f, 2) != ltp.lp_norm(f, 1)


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
    exact2 = tempered_norm(f, 2).lower
    assert est.lower <= est.upper * (1 + 1e-9)
    # p = 1.5 norm of a fixed operator is at least a positive fraction of p = 2
    assert est.lower > 0.25 * exact2


@pytest.mark.parametrize("spec", ["cyclic:8", "dihedral:8", "z:16", "circle:64", "symmetric:4"])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_boyd_lower_end_does_not_depend_on_the_scale_of_f(spec, p):
    # a column freezes on a move relative to its ratio, so c f takes the
    # steps f takes and its lower end is c times f's
    f = ltp.random_function(ltp.build_group(spec), 3)
    est = tempered_norm(f, p)
    assert est.method == "boyd_iteration"
    for c in (1e-12, 1e-6, 1e3):
        scaled = tempered_norm(f * c, p)
        assert scaled.lower == pytest.approx(c * est.lower, rel=1e-9), c
        assert scaled.matvecs == est.matvecs, c


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
        if gamma == 0.0 or abs(gamma - gamma_prev) <= cfg.tol * gamma:
            return gamma
        gamma_prev = gamma
        x_new = signed_power(mat.conj().T @ signed_power(y, exp.p - 1.0), exp.q - 1.0)
        if pnorm(x_new) == 0.0:
            break
        x = x_new / pnorm(x_new)
    return pnorm(mat @ x)


BLOCK_ENGINE_SPECS = ["cyclic:256", "dihedral:64", "symmetric:5", "affine:0.125:1:0.125:1"]


@pytest.mark.parametrize("spec", BLOCK_ENGINE_SPECS)
def test_block_engine_matches_sequential_restarts(spec):
    from ltp.suite import _random_probe
    G = ltp.build_group(spec)
    f = _random_probe(G, np.random.default_rng(2))
    mat = ltp.ConvOperator(f).weighted_matrix(1.5).astype(np.complex128)
    _assert_block_matches_sequential(G, f, mat)


@pytest.mark.parametrize("spec", BLOCK_ENGINE_SPECS)
@pytest.mark.parametrize("kind", ["real-part", "positive"])
def test_block_engine_matches_sequential_restarts_on_real_operators(spec, kind):
    # the operator of a real f is real and multiplies in real arithmetic
    from ltp.suite import _random_probe
    G = ltp.build_group(spec)
    if kind == "positive":
        f = _random_probe(G, np.random.default_rng(2), positive=True)
    else:
        f = ltp.real_part(_random_probe(G, np.random.default_rng(2)))
    mat = ltp.ConvOperator(f).weighted_matrix(1.5)
    assert mat.dtype == np.float64
    _assert_block_matches_sequential(G, f, mat)


def _assert_block_matches_sequential(G, f, mat):
    from ltp.tempered import _boyd_block, _DenseProduct
    exp = ltp.Exponent.of(1.5)
    cfg = IterConfig()
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


@pytest.mark.parametrize("spec", ["dihedral:64", "symmetric:5", "affine:0.125:1:0.125:1"])
def test_real_products_take_the_steps_of_complex_ones(spec):
    # a real matrix in real arithmetic changes the cost of a step, not the
    # steps taken
    from ltp.suite import _random_probe
    from ltp.tempered import _boyd_block, _boyd_starts, _DenseProduct
    G = ltp.build_group(spec)
    f = _random_probe(G, np.random.default_rng(2), positive=True)
    exp = ltp.Exponent.of(1.5)
    cfg = IterConfig()
    starts = _boyd_starts(G.n, G.identity, cfg.restarts, cfg.seed)
    mat = ltp.ConvOperator(f).weighted_matrix(exp.p)
    real = _boyd_block(_DenseProduct(mat), exp, starts, cfg)
    cast = _boyd_block(_DenseProduct(mat.astype(np.complex128)), exp, starts, cfg)
    np.testing.assert_allclose(real[0], cast[0], rtol=1e-14, atol=0)
    np.testing.assert_array_equal(real[2], cast[2])
    np.testing.assert_array_equal(real[4], cast[4])


@pytest.mark.parametrize("spec", ["cyclic:256", "cyclic:512",
                                  "product:cyclic:16+cyclic:16"])
@pytest.mark.parametrize("complex_valued", [True, False])
def test_circulant_product_equals_the_dense_matrix(spec, complex_valued):
    from ltp.convolve import _CirculantProduct
    G = ltp.build_group(spec)
    f = ltp.random_function(G, 9, complex_valued=complex_valued)
    mat = ltp.ConvOperator(f).weighted_matrix(1.5)
    product = _CirculantProduct(f)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((G.n, 5)) + 1j * rng.standard_normal((G.n, 5))
    for got, want in ((product.apply(x), mat @ x),
                      (product.adjoint(x), mat.conj().T @ x)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the conjugate symbol is formed once and reused bit for bit
    assert np.array_equal(product.adjoint(x), product.adjoint(x))


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
    mat = ltp.ConvOperator(f).weighted_matrix(exp.p).astype(np.complex128)
    dense = _boyd_block(_DenseProduct(mat), exp, starts, cfg)
    fft = _boyd_block(_CirculantProduct(f), exp, starts, cfg)
    np.testing.assert_allclose(fft[0], dense[0], rtol=1e-14, atol=0)
    np.testing.assert_array_equal(fft[2], dense[2])
    np.testing.assert_array_equal(fft[4], dense[4])


def test_boyd_runs_past_the_dense_cap_on_cyclic_models():
    G = ltp.build_group("cyclic:8192")
    f = ltp.random_function(G, 1)
    est = tempered_norm(f, 1.5)
    assert est.method == "boyd_iteration" and est.converged
    ratio = ltp.lp_norm(ltp.convolve(est.witness, f), 1.5) / ltp.lp_norm(est.witness, 1.5)
    assert ratio == pytest.approx(est.lower, rel=1e-12)
    # without a circulant structure the dense matrix is still capped
    D = ltp.build_group("dihedral:2100")
    with pytest.raises(ResourceError):
        tempered_norm(ltp.random_function(D, 1), 1.5)


@pytest.mark.parametrize("spec", ["z:2100", "z2:50"])
def test_boyd_runs_past_the_dense_cap_on_lattices(spec):
    # the window torus builds no n x n matrix, so n may exceed the cap
    from ltp.convolve import DENSE_CAP
    G = ltp.build_group(spec)
    assert G.n > DENSE_CAP
    f = ltp.random_function(G, 5, support_radius=3)
    est = tempered_norm(f, 1.5, cfg=IterConfig(restarts=2, max_iters=50))
    assert est.method == "boyd_iteration" and est.lower > 0
    image = ltp.convolve(est.witness, f, path="direct")
    ratio = ltp.lp_norm(image, 1.5) / ltp.lp_norm(est.witness, 1.5)
    assert ratio == pytest.approx(est.lower, rel=1e-12)


def test_restart_spread_reports_the_ratios_of_all_restarts():
    from ltp.tempered import _boyd_block, _boyd_starts, _DenseProduct
    G = ltp.build_group("dihedral:6")
    f = ltp.random_function(G, 3)
    exp = ltp.Exponent.of(1.5)
    cfg = IterConfig()
    est = tempered_norm(f, exp.p, cfg=cfg)
    mat = ltp.ConvOperator(f).weighted_matrix(exp.p).astype(np.complex128)
    gamma = _boyd_block(_DenseProduct(mat), exp,
                        _boyd_starts(G.n, G.identity, cfg.restarts, cfg.seed), cfg)[0]
    assert est.restart_spread == pytest.approx((gamma.max() - gamma.min()) / gamma.max(),
                                               rel=1e-12)
    assert est.restart_spread > 0.5  # the all-ones start settles far below the rest
    assert tempered_norm(f, exp.p, cfg=IterConfig(restarts=1)).restart_spread == 0.0


def test_column_sums_do_not_depend_on_the_block_width():
    # a restart's ratio must not depend on how many other restarts share its
    # block; a product with a ones vector rounds the last columns differently
    from ltp.tempered import _column_sums
    rng = np.random.default_rng(0)
    for n in (6, 12, 64, 128, 289):
        block = rng.standard_normal((n, 8)) ** 2
        full = _column_sums(block)
        for k in range(1, 8):
            np.testing.assert_array_equal(_column_sums(block[:, :k].copy()), full[:k])


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


BATCH_SPECS = ["cyclic:256", "circle:64", "product:cyclic:8+cyclic:16", "dihedral:64",
               "z:64", "z2:8", "r:0.05:4", "affine:0.125:1:0.125:1"]


@pytest.mark.parametrize("spec", BATCH_SPECS)
def test_tempered_norms_equal_the_lone_estimates(spec):
    # several f share one block where the model allows it; each estimate is
    # still the one its own call gives, and its witness is a certificate
    from ltp.suite import _random_probe, _scaling_points
    G = ltp.build_group(spec)
    rng = np.random.default_rng(3)
    # more f than one block holds, a zero f, and a translate whose eroded
    # box on lattices is another one
    fs = [_random_probe(G, rng) for _ in range(9)]
    fs += [ltp.GFunction(G, np.zeros(G.n)),
           ltp.translate(fs[0], _scaling_points(G)[0], ltp.RIGHT_DIRAC)]
    batch = ltp.tempered_norms(fs, 1.5)
    assert len(batch) == len(fs)
    assert batch[9].lower == batch[9].upper == 0.0
    for f, est in zip(fs, batch):
        lone = tempered_norm(f, 1.5)
        assert est.method == lone.method == "boyd_iteration"
        assert est.lower == pytest.approx(lone.lower, rel=1e-12, abs=0)
        assert est.upper == lone.upper
        if f.is_zero:
            continue
        image = ltp.convolve(est.witness, f, path="direct")
        ratio = ltp.lp_norm(image, 1.5) / ltp.lp_norm(est.witness, 1.5)
        assert ratio == pytest.approx(est.lower, rel=1e-12)


def test_tempered_norms_follows_the_route_of_each_exponent():
    G = ltp.build_group("dihedral:6")
    fs = [ltp.random_function(G, seed) for seed in range(3)]
    for p in (1, 2, 3):
        assert [e.lower for e in ltp.tempered_norms(fs, p)] == \
            [tempered_norm(f, p).lower for f in fs]
    assert ltp.tempered_norms([], 1.5) == []
    with pytest.raises(ltp.ModelMismatchError):
        ltp.tempered_norms([fs[0], ltp.random_function(ltp.build_group("cyclic:12"), 0)], 1.5)
    # a nonabelian model past the dense cap is refused in a batch as it is alone
    D = ltp.build_group("dihedral:2100")
    with pytest.raises(ResourceError):
        ltp.tempered_norms([ltp.random_function(D, s) for s in (1, 2)], 1.5)


@pytest.mark.parametrize("spec", ["z:64", "z2:8", "r:0.05:4"])
def test_window_torus_product_equals_the_dense_window_matrix(spec):
    from ltp.tempered import _boyd_cells, _boyd_product
    G = ltp.build_group(spec)
    radius = float(np.max(np.abs(G.coords()))) / 4.0
    fs = [ltp.random_function(G, seed, support_radius=radius) for seed in (1, 2)]
    cells = _boyd_cells(fs[0])[0]
    columns = np.array([0, 1, 1, 0, 1])
    exp = ltp.Exponent.of(1.5)
    product = _boyd_product(fs, exp, cells, columns)
    assert isinstance(product, _CirculantProduct)
    mats = [ltp.ConvOperator(f).weighted_matrix(exp.p)[:, cells] for f in fs]
    rng = np.random.default_rng(4)
    x = rng.standard_normal((cells.size, 5)) + 1j * rng.standard_normal((cells.size, 5))
    y = rng.standard_normal((G.n, 5)) + 1j * rng.standard_normal((G.n, 5))

    def check(cols):
        apply, adjoint = product.apply(x[:, cols]), product.adjoint(y[:, cols])
        for j, col in enumerate(cols):
            mat = mats[columns[col]]
            for got, want in ((apply[:, j], mat @ x[:, col]),
                              (adjoint[:, j], mat.conj().T @ y[:, col])):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    check(np.arange(5))
    product.keep(np.array([1, 3]))
    check(np.array([1, 3]))


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


_L1, _SPECTRAL, _SVD, _BOYD, _BOUND = ("exact_l1", "spectral_abelian", "exact_svd",
                                       "boyd_iteration", "bound_weighted_l1")
_OFF_P1 = {_SPECTRAL, _SVD, _BOYD}
_OFF_P = {_L1, _SPECTRAL, _SVD}  # at p = 1.5 and p = 3
# per model, at p = 1, 1.5, 2 and 3: the route "auto" takes, and the named
# methods that raise DomainError
_ROUTE_GRID = {
    "cyclic:8": [(_L1, _OFF_P1), (_BOYD, _OFF_P), (_SPECTRAL, {_L1}), (_BOYD, _OFF_P)],
    "dihedral:3": [(_L1, _OFF_P1), (_BOYD, _OFF_P), (_SVD, {_L1, _SPECTRAL}), (_BOYD, _OFF_P)],
    "z:8": [(_L1, _OFF_P1), (_BOYD, _OFF_P), (_SPECTRAL, {_L1}), (_BOYD, _OFF_P)],
    "z2:2": [(_L1, _OFF_P1), (_BOYD, _OFF_P), (_SPECTRAL, {_L1}), (_BOYD, _OFF_P)],
    "r:0.5:2": [(_L1, _OFF_P1), (_BOYD, _OFF_P), (_SPECTRAL, {_L1}), (_BOYD, _OFF_P)],
    "affine:0.25:1:0.25:1": [(_L1, _OFF_P1), (_BOYD, _OFF_P), (_SVD, {_L1, _SPECTRAL}),
                             (_BOYD, _OFF_P)],
}


@pytest.mark.parametrize("spec", list(_ROUTE_GRID))
def test_route_grid(spec):
    G = ltp.build_group(spec)
    zero = ltp.GFunction(G, np.zeros(G.n))
    f = ltp.random_function(G, 0)
    for p, (auto, refused) in zip((1, 1.5, 2, 3), _ROUTE_GRID[spec]):
        assert tempered_norm(zero, p).method == auto, p
        for method in (_L1, _SPECTRAL, _SVD, _BOYD, _BOUND):
            if method in refused:
                with pytest.raises(DomainError):
                    tempered_norm(f, p, method=method)
            else:
                assert tempered_norm(f, p, method=method).method == method, (p, method)


@pytest.mark.parametrize("spec", ["cyclic:8", "z:8", "affine:0.25:1:0.25:1"])
def test_every_route_returns_python_floats(spec):
    # one model per carrier kind; every route that serves it, by name
    G = ltp.build_group(spec)
    f = ltp.random_function(G, 1)
    for p, (_, refused) in zip((1, 1.5, 2, 3), _ROUTE_GRID[spec]):
        for method in {_L1, _SPECTRAL, _SVD, _BOYD, _BOUND} - refused:
            est = tempered_norm(f, p, method=method)
            for end in (est.lower, est.upper, est.restart_spread):
                assert type(end) is float, (p, method, type(end))


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
    G = ltp.build_group("dihedral:2100")
    f = ltp.random_function(G, 4)
    with pytest.raises(ResourceError):
        tempered_norm(f, 1.5)
    assert tempered_upper(f, 1.5) == upper_bound_weighted_l1(f, 1.5)
    assert boyd_calls == ["dihedral:2100"]


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

def _dirac_scaling(f, points, p):
    """(||f * delta_x||_p^T / ||f||_p^T, Delta(x)^(-1/q)) for every x, read
    from the ends the dirac-scaling runner reads: the upper ends on the
    affine grid, the lower ends elsewhere."""
    exp = ltp.Exponent.of(p)
    family = [f] + [ltp.translate(f, x, ltp.RIGHT_DIRAC) for x in points]
    if isinstance(f.group.carrier, _AffineCarrier):
        den, *nums = [tempered_upper(g, exp) for g in family]
    else:
        den, *nums = [est.lower for est in tempered_norms(family, exp)]
    return [(num / den, point_modular(f.group, x) ** (-1.0 / exp.q))
            for x, num in zip(points, nums)]


def test_dirac_scaling_unimodular():
    rng = np.random.default_rng(6)
    G = ltp.build_group("cyclic:12@counting")
    f = ltp.random_function(G, rng)
    for ratio, expected in _dirac_scaling(f, [1, 5, 11], 2):
        assert expected == 1.0
        assert ratio == pytest.approx(1.0, abs=1e-9)
    [(ratio, _)] = _dirac_scaling(f, [G.identity], 2)
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
            [(ratio, expected)] = _dirac_scaling(f, [x], 1.5)
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


def test_dirac_scaling_skips_windows_its_probe_fills():
    for spec in ("z:1", "z2:1", "r:1:1", "r:0.25:0.25"):
        report = ltp.run_suite(spec, [2.0, 1.5], seed=0)
        for check in report.checks:
            if check.name.startswith("dirac-scaling@"):
                assert check.status == "skipped", (spec, check.name, check.notes)
                assert check.notes.startswith("unbuilt: probe room: window radius 1 below 2 cells")
    report = ltp.run_suite("z:2", [2.0, 1.5], seed=0)
    assert [check.status for check in report.checks
            if check.name.startswith("dirac-scaling@")] == ["pass", "pass"]


def test_dirac_scaling_predicts_one_at_p1():
    G = ltp.build_group("affine:0.25:1:0.25:2")
    points = [(1.25, 0.0), (0.8, 0.0), (1.0, 0.5)]
    checks = _dirac_scaling(_affine_bump(G), points, 1)
    assert [expected for _, expected in checks] == [1.0, 1.0, 1.0]


def test_dirac_scaling_affine_coarse():
    G = ltp.build_group("affine:0.25:2:0.25:4")
    coords = G.coords()
    u, b = coords[:, 0], coords[:, 1]
    fu = np.where(np.abs(u + 0.3465) < 0.96,
                  np.cos(0.5 * np.pi * (u + 0.3465) / 0.96) ** 2, 0.0)
    fb = np.where(np.abs(b) < 2.0, np.cos(0.25 * np.pi * b) ** 2, 0.0)
    f = ltp.GFunction(G, fu * fb)
    [(ratio, expected)] = _dirac_scaling(f, [(2.0, 0.0)], 2)
    assert expected == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert ratio == pytest.approx(expected, rel=0.05)


# ---------------------------------------------------------------------------
# Real and imaginary closure
# ---------------------------------------------------------------------------

def _re_im_reading(f, p, monkeypatch):
    """re-im-closure's measurement of one draw whose probe is f."""
    from ltp import suite
    monkeypatch.setattr(suite, "_random_probe", lambda model, rng: f)
    return suite._run_re_im(suite.SuiteContext(f.group, ltp.Exponent.of(p),
                                               np.random.default_rng(0)))


def test_re_im_closure_real_function(monkeypatch):
    G = ltp.build_group("cyclic:8@counting")
    f = ltp.random_function(G, 5, complex_valued=False)
    whole = tempered_norm(f, 2).lower
    re_norm = tempered_norm(ltp.real_part(f), 2).lower
    im_norm = tempered_norm(ltp.imag_part(f), 2).lower
    assert re_norm == pytest.approx(whole, rel=1e-12)
    assert im_norm == 0.0
    for p in (2.0, 1.5):
        assert max(0.0, _re_im_reading(f, p, monkeypatch)) == 0.0, p


def test_re_im_closure_random_batch():
    from ltp.suite import SuiteContext, _run_re_im
    G = ltp.build_group("cyclic:12@counting")
    for p in (2.0, 1.5):
        ctx = SuiteContext(G, ltp.Exponent.of(p), np.random.default_rng(12))
        assert max(_run_re_im(ctx) for _ in range(200)) <= 1e-9, p


# ---------------------------------------------------------------------------
# Quasi-identity blowup
# ---------------------------------------------------------------------------

def test_quasi_identity_sequences(monkeypatch):
    # the suite's runner measures ||1_U_n / |U_n| ||_p for n = 1..16 on r:0.05:4
    terms = []

    def recording(f, p):
        terms.append(ltp.lp_norm(f, p))
        return terms[-1]

    monkeypatch.setattr(suite, "lp_norm", recording)
    G = ltp.build_group("r:0.05:4")
    for p in (2.0, 1.5, 1.0):
        del terms[:]
        ctx = suite.SuiteContext(G, ltp.Exponent.of(p), np.random.default_rng(0))
        measured, note = suite._run_quasi_identity(ctx)
        assert len(terms) == 16 and note.startswith("n=1..16:")
        bounds = [n ** (1.0 - 1.0 / p) for n in range(1, 17)]
        assert all(t >= b - 1e-12 for t, b in zip(terms, bounds)), p
        assert all(t2 >= t1 - 1e-12 for t1, t2 in zip(terms, terms[1:])), p
        assert measured <= 1e-12
        # U_1 is the 19 cells of measure 0.95 < 1, U_16 the centre cell of 1/20
        assert terms[0] == pytest.approx(0.95 ** (1.0 / p - 1.0), rel=1e-12)
        assert terms[-1] == pytest.approx(0.05 ** (1.0 / p - 1.0), rel=1e-12)


def test_quasi_identity_grid_too_coarse():
    check = next(check for check in suite.REGISTRY if check.name == "quasi-identity-blowup")
    results = {spec: suite._execute_check(check, ltp.build_group(spec), 2.0, 0, {}, False)
               for spec in ("r:0.4:2", "r:0.5:4", "cyclic:4")}
    assert results["r:0.4:2"].status == "pass"
    assert results["r:0.5:4"].notes == "unbuilt: runs U_1 and U_2: grid step 0.5 is not below 1/2"
    assert results["cyclic:4"].notes == "needs real line: cyclic:4 is not"


@pytest.mark.parametrize("spec, radius", [("z:64", 64), ("z2:8", 8)])
def test_exact_svd_upper_covers_the_lattice_norm(spec, radius):
    # the window-section singular value is only a lower bound of the norm on
    # the lattice the window stands for, so its upper end must not stop there
    G = ltp.build_group(spec)
    f = ltp.random_function(G, np.random.default_rng(0), support_radius=radius / 4)
    section = tempered_norm(f, 2, method="exact_svd")
    symbol = tempered_norm(f, 2)
    assert section.lower < symbol.lower
    assert section.upper >= symbol.lower


def test_exact_svd_lanczos_branch_matches_dense_eigh():
    # n = 1026 lies between the dense cap and the Lanczos cap
    from ltp.convolve import DENSE_CAP
    from ltp.tempered import _SVD_DENSE_CAP

    G = ltp.build_group("dihedral:513")
    assert _SVD_DENSE_CAP < G.n <= DENSE_CAP
    _assert_exact_svd_matches_dense_eigh(ltp.random_function(G, np.random.default_rng(4)))


@pytest.mark.parametrize("spec", ["z2:7", "dihedral:112"])
@pytest.mark.parametrize("complex_valued", [True, False])
def test_exact_svd_matches_dense_eigh_at_the_dense_cap(spec, complex_valued):
    # z2:7 (225 cells) is the first size past the cap, so it takes Lanczos;
    # dihedral:112 (224 cells) is the last size that takes dense eigh
    from ltp.tempered import _SVD_DENSE_CAP

    G = ltp.build_group(spec)
    assert G.n in (_SVD_DENSE_CAP, _SVD_DENSE_CAP + 1)
    f = ltp.random_function(G, np.random.default_rng(4), complex_valued=complex_valued)
    _assert_exact_svd_matches_dense_eigh(f)


@pytest.mark.parametrize("spec", ["cyclic:256", "product:cyclic:16+cyclic:16"])
def test_exact_svd_lanczos_meets_the_transform_maximum(spec):
    # on abelian models all ones is the character 0, an eigenvector of
    # M^H M; the Lanczos start must not depend on it
    from ltp.tempered import _SVD_DENSE_CAP

    G = ltp.build_group(spec)
    assert G.n > _SVD_DENSE_CAP
    for seed in range(3):
        f = ltp.random_function(G, seed)
        est = tempered_norm(f, 2, method="exact_svd")
        assert est.lower == pytest.approx(tempered_norm(f, 2).lower, rel=1e-12)


def _assert_exact_svd_matches_dense_eigh(f):
    from scipy.linalg import eigh

    from ltp.convolve import ConvOperator

    n = f.group.n
    est = tempered_norm(f, 2, method="exact_svd")
    mat = ConvOperator(f).weighted_matrix(2)
    top = eigh(mat.conj().T @ mat, eigvals_only=True, subset_by_index=[n - 1, n - 1])
    sigma = math.sqrt(top[0])
    assert est.lower == pytest.approx(sigma, rel=1e-12)
    ratio = ltp.lp_norm(ltp.convolve(est.witness, f), 2) / ltp.lp_norm(est.witness, 2)
    assert ratio == pytest.approx(sigma, rel=1e-12)
