"""Character tables, the transform pair, and the L2 identities.

The transform oracle is an explicit double-loop character sum, independent
of the kron/matmul construction in the library.
"""

import math

import numpy as np
import pytest

import ltp
from ltp.errors import NotAbelianError, ResourceError
from ltp.spectral import (build_dual, fourier, inverse_fourier, mult_operator_norm,
                          restricted_isometry_terms, tempered_norm_spectral)


def _isometry_sides(dual, f):
    """Both sides ||f||_2^T + ||f||_inf and ||fhat||_inf + ||fhat||_2^T."""
    norm_f, sup_f, sup_fhat, norm_fhat = restricted_isometry_terms(dual, f)
    return norm_f + sup_f, sup_fhat + norm_fhat


def _conv_theorem_residual(dual, f, g):
    """||(f*g)^ - fhat ghat||_2 on the dual."""
    lhs = fourier(dual, ltp.convolve(f, g))
    fg = fourier(dual, f).values * fourier(dual, g).values
    return ltp.lp_norm(ltp.GFunction(dual.dual_group, lhs.values - fg), 2)


def _product_rule_residual(transform, f, g):
    """||T(fg) - T(f) * T(g)||_2 for the transform T."""
    lhs = transform(ltp.GFunction(f.group, f.values * g.values))
    return ltp.lp_norm(lhs - ltp.convolve(transform(f), transform(g)), 2)


def dft_oracle(model, dual, values):
    """fhat(k) = sum_j w_j f(j) conj(chi_k(j)) by direct summation."""
    n = model.n
    out = np.zeros(n, dtype=np.complex128)
    for k in range(n):
        for j in range(n):
            out[k] += model.weights[j] * values[j] * np.conj(dual.characters[k, j])
    return out


def test_z2_characters():
    G = ltp.build_group("cyclic:2@counting")
    dual = build_dual(G)
    assert np.allclose(dual.characters, [[1, 1], [1, -1]])


def test_z4_characters_and_dual_weights():
    G = ltp.build_group("cyclic:4@counting")
    dual = build_dual(G)
    j, k = np.meshgrid(np.arange(4), np.arange(4), indexing="xy")
    assert np.allclose(dual.characters, (1j) ** (j * k).T, atol=1e-14)
    assert np.allclose(dual.dual_group.weights, 0.25)
    # probability pairing flips to counting dual weights
    P = ltp.build_group("cyclic:4@probability")
    assert np.allclose(build_dual(P).dual_group.weights, 1.0)


def test_product_characters_orthogonal():
    G = ltp.build_group("product:cyclic:2+cyclic:3@counting")
    dual = build_dual(G)
    assert dual.characters.shape == (6, 6)
    assert np.allclose(np.abs(dual.characters), 1.0)
    gram = (dual.characters * G.weights[None, :]) @ np.conj(dual.characters.T)
    assert np.max(np.abs(gram - np.sum(G.weights) * np.eye(6))) < 1e-12
    # multiplicativity on the carrier
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, y = rng.integers(0, 6, 2)
        xy = int(G.op(int(x), int(y)))
        assert np.allclose(dual.characters[:, xy],
                           dual.characters[:, x] * dual.characters[:, y], atol=1e-14)


@pytest.mark.parametrize("spec", ["cyclic:16", "circle:8", "product:cyclic:2+cyclic:12",
                                  "product:circle:4+cyclic:6@probability"])
def test_dual_rebuilds_from_its_spec_text(spec):
    dual_group = build_dual(ltp.build_group(spec)).dual_group
    for source in (dual_group.spec.text, dual_group.spec):
        rebuilt = ltp.build_group(source)
        assert rebuilt.n == dual_group.n
        assert np.array_equal(rebuilt.weights, dual_group.weights)
        assert rebuilt.cyclic_factors == dual_group.cyclic_factors


def test_not_abelian_and_cap():
    with pytest.raises(NotAbelianError):
        build_dual(ltp.build_group("dihedral:3"))
    with pytest.raises(ResourceError):
        build_dual(ltp.build_group("cyclic:4096"))


def test_dirac_transforms_to_constant():
    G = ltp.build_group("cyclic:6@counting")
    dual = build_dual(G)
    fhat = fourier(dual, ltp.dirac(G))
    assert np.allclose(fhat.values, 1.0, atol=1e-14)


def test_hand_computed_dft():
    G = ltp.build_group("cyclic:4@counting")
    dual = build_dual(G)
    f = ltp.GFunction(G, [1, 1, 0, 0])
    fhat = fourier(dual, f)
    assert np.allclose(fhat.values, [2, 1 - 1j, 0, 1 + 1j], atol=1e-14)
    assert np.allclose(dft_oracle(G, dual, f.values), fhat.values, atol=1e-13)


def test_transform_matches_oracle_random():
    G = ltp.build_group("product:cyclic:3+cyclic:4@probability")
    dual = build_dual(G)
    rng = np.random.default_rng(2)
    f = ltp.random_function(G, rng)
    assert np.allclose(dft_oracle(G, dual, f.values), fourier(dual, f).values,
                       atol=1e-13)


def test_roundtrip_and_plancherel_both_normalizations():
    rng = np.random.default_rng(9)
    for spec in ("product:cyclic:2+cyclic:8@counting",
                 "product:cyclic:2+cyclic:8@probability"):
        G = ltp.build_group(spec)
        dual = build_dual(G)
        for _ in range(100):
            f = ltp.random_function(G, rng)
            fhat = fourier(dual, f)
            back = inverse_fourier(dual, fhat)
            assert np.max(np.abs(back.values - f.values)) < 1e-12
            assert abs(ltp.lp_norm(f, 2) - ltp.lp_norm(fhat, 2)) < 1e-12


def test_identity_checks_on_diracs():
    G = ltp.build_group("cyclic:8@counting")
    dual = build_dual(G)
    dx = ltp.dirac_measure(G, 2)
    dy = ltp.dirac_measure(G, 5)
    assert _conv_theorem_residual(dual, dx, dy) < 1e-13


def test_identity_checks_random_z16():
    G = ltp.build_group("cyclic:16@counting")
    dual = build_dual(G)
    rng = np.random.default_rng(16)
    for _ in range(10):
        f = ltp.random_function(G, rng)
        g = ltp.random_function(G, rng)
        f.values /= ltp.lp_norm(f, 2)
        g.values /= ltp.lp_norm(g, 2)
        assert _conv_theorem_residual(dual, f, g) < 1e-11
        assert _product_rule_residual(lambda h: fourier(dual, h), f, g) < 1e-11
        fd = ltp.GFunction(dual.dual_group, rng.standard_normal(16)
                           + 1j * rng.standard_normal(16))
        gd = ltp.GFunction(dual.dual_group, rng.standard_normal(16)
                           + 1j * rng.standard_normal(16))
        assert abs(ltp.inner(f, inverse_fourier(dual, gd))
                   - ltp.inner(fourier(dual, f), gd)) < 1e-11
        assert _product_rule_residual(lambda h: inverse_fourier(dual, h), fd, gd) < 1e-11


def test_product_theorem_constant_functions():
    G = ltp.build_group("cyclic:6@probability")
    dual = build_dual(G)
    ones = ltp.GFunction(G, np.ones(6))
    lhs = fourier(dual, ltp.GFunction(G, ones.values * ones.values))
    rhs = ltp.convolve(fourier(dual, ones), fourier(dual, ones))
    trivial = np.zeros(6)
    trivial[0] = 1.0
    assert np.allclose(lhs.values, trivial, atol=1e-13)
    assert np.allclose(rhs.values, trivial, atol=1e-13)


def test_tempered_norm_spectral_examples():
    G = ltp.build_group("cyclic:4@counting")
    dual = build_dual(G)
    assert tempered_norm_spectral(dual, ltp.dirac(G)) == pytest.approx(1.0)
    f = ltp.GFunction(G, [1, 1, 0, 0])
    assert tempered_norm_spectral(dual, f) == pytest.approx(2.0, abs=1e-13)
    g = ltp.GFunction(G, [1, np.exp(1j * np.pi / 4), 0, 0])
    assert tempered_norm_spectral(dual, g) == \
        pytest.approx(2 * math.cos(math.pi / 8), abs=1e-13)


def test_spectral_agrees_with_svd_up_to_products():
    rng = np.random.default_rng(44)
    for spec in ("cyclic:16@counting", "product:cyclic:2+cyclic:12@probability"):
        G = ltp.build_group(spec)
        dual = build_dual(G)
        for _ in range(10):
            f = ltp.random_function(G, rng)
            assert tempered_norm_spectral(dual, f) == pytest.approx(
                ltp.tempered_norm(f, 2, method="exact_svd").lower, abs=1e-9)


def test_mult_operator_norm():
    G = ltp.build_group("cyclic:3@counting")
    assert mult_operator_norm(ltp.GFunction(G, [1, 3, 2])) == pytest.approx(3.0)
    assert mult_operator_norm(ltp.GFunction(G, np.full(3, 2.5))) == pytest.approx(2.5)
    rng = np.random.default_rng(10)
    H = ltp.build_group("cyclic:30@probability")
    for _ in range(20):
        f = ltp.random_function(H, rng)
        assert mult_operator_norm(f) == pytest.approx(ltp.ess_sup(f), abs=1e-12)


def test_restricted_isometry_dirac_and_constant():
    G = ltp.build_group("cyclic:6@counting")
    dual = build_dual(G)
    lhs, rhs = _isometry_sides(dual, ltp.dirac(G))
    assert lhs == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(2.0, abs=1e-12)

    P = ltp.build_group("cyclic:8@probability")
    dual_p = build_dual(P)
    ones = ltp.GFunction(P, np.ones(8))
    lhs, rhs = _isometry_sides(dual_p, ones)
    assert lhs == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(2.0, abs=1e-12)


def test_restricted_isometry_random():
    G = ltp.build_group("product:cyclic:2+cyclic:12@counting")
    dual = build_dual(G)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(25):
        f = ltp.random_function(G, rng)
        lhs, rhs = _isometry_sides(dual, f)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10
