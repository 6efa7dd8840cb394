"""Norms, pairings, and the elementary function transforms."""

import math

import numpy as np
import pytest

import ltp
from ltp.errors import DomainError
from ltp.space import Exponent


def test_exponent_conjugacy():
    e = Exponent.of(2.0)
    assert e.q == 2.0
    e = Exponent.of(1.5)
    assert abs(1.0 / e.p + 1.0 / e.q - 1.0) < 1e-15
    assert Exponent.of(1.0).q == math.inf
    with pytest.raises(DomainError):
        Exponent.of(0.5)


def test_exponent_constructor_refuses_what_of_refuses():
    # one rule: p finite and at least 1, q its conjugate
    for p, q in ((math.inf, 1.0), (math.inf, math.inf), (math.nan, 2.0), (0.5, -1.0),
                 (1.0, math.nan), (1.0, 2.0), (2.0, math.inf), (2.0, 3.0), (2.0, 0.0),
                 (2.0, math.nan)):
        with pytest.raises(DomainError):
            Exponent(p, q)
    for p in (math.inf, math.nan, 0.5):
        with pytest.raises(DomainError, match=r"\[1, inf\)"):
            Exponent.of(p)
    assert Exponent(1.5, 3.0) == Exponent.of(1.5)


def test_lp_norm_examples():
    G = ltp.build_group("cyclic:4@counting")
    assert ltp.lp_norm(ltp.GFunction(G, [1, 1, 0, 0]), 1) == pytest.approx(2.0)
    assert ltp.lp_norm(ltp.GFunction(G, [3, 4, 0, 0]), 2) == pytest.approx(5.0)
    C = ltp.build_group("circle:8")
    ones = ltp.GFunction(C, np.ones(8))
    for p in (1.0, 2.0, 3.7):
        assert ltp.lp_norm(ones, p) == pytest.approx(1.0, rel=1e-14)
    assert ltp.ess_sup(ltp.GFunction(G, [1, -3, 2j, 0])) == pytest.approx(3.0)


def test_weighted_l1_unimodular_equals_l1():
    rng = np.random.default_rng(0)
    for spec in ("cyclic:9", "z:16", "circle:6"):
        G = ltp.build_group(spec)
        f = ltp.random_function(G, rng)
        for p in (1.5, 2.0, 4.0):
            assert ltp.upper_bound_weighted_l1(f, p) == \
                pytest.approx(ltp.lp_norm(f, 1), rel=1e-14)


def test_weighted_l1_affine_single_cell():
    # indicator of the cell at (a, b) = (e^2, 0), p = q = 2: the weighted mass is
    # w * Delta^(-1/2) = (e^{-2} h_u h_b) * e = e^{-1} h_u h_b
    G = ltp.build_group("affine:0.25:2:0.25:4")
    coords = G.coords()
    cell = int(np.argmin(np.abs(coords[:, 0] - 2.0) + np.abs(coords[:, 1])))
    assert coords[cell][0] == pytest.approx(2.0)
    f = ltp.dirac(G, cell)
    expected = math.exp(-1.0) * 0.25 * 0.25
    assert ltp.upper_bound_weighted_l1(f, 2.0) == pytest.approx(expected, rel=1e-14)
    assert ltp.upper_bound_weighted_l1(f, 2.0) == pytest.approx(
        G.weights[cell] * G.modular[cell] ** -0.5, rel=1e-15)


def test_weighted_l1_zero():
    G = ltp.build_group("cyclic:5")
    assert ltp.upper_bound_weighted_l1(ltp.GFunction(G, np.zeros(5)), 1.5) == 0.0


def test_decompose_examples():
    G = ltp.build_group("cyclic:4@counting")
    f = ltp.GFunction(G, [0.5, 2, 1, 3])
    small, large = ltp.decompose_l1_linf(f)
    assert np.allclose(small.values, [0.5, 0, 1, 0])
    assert np.allclose(large.values, [0, 2, 0, 3])

    bounded = ltp.GFunction(G, [0.1, -0.5, 0.9, 1.0])
    small, large = ltp.decompose_l1_linf(bounded)
    assert np.array_equal(small.values, bounded.values)
    assert np.all(large.values == 0)


def test_decompose_property():
    rng = np.random.default_rng(7)
    G = ltp.build_group("cyclic:17")
    for _ in range(25):
        f = ltp.GFunction(G, 3.0 * (rng.standard_normal(17) + 1j * rng.standard_normal(17)))
        small, large = ltp.decompose_l1_linf(f)
        assert np.array_equal(small.values + large.values, f.values)
        assert ltp.ess_sup(small) <= 1.0
        assert np.all(np.abs(f.values[np.abs(large.values) > 0]) > 1.0)


def test_reflect_and_modular_reflect_finite():
    rng = np.random.default_rng(1)
    for spec in ("cyclic:10", "dihedral:3", "symmetric:3"):
        G = ltp.build_group(spec)
        f = ltp.random_function(G, rng)
        checked = ltp.reflect(f)
        assert np.array_equal(checked.values, f.values[G.inverses])
        for p in (1.0, 2.0, 3.0):
            tilde = ltp.modular_reflect(f, p)
            assert ltp.lp_norm(tilde, p) == pytest.approx(ltp.lp_norm(f, p), rel=1e-14)
            again = ltp.modular_reflect(tilde, p)
            assert np.max(np.abs(again.values - f.values)) < 1e-12


def test_modular_reflect_affine_refinement():
    # ||f~||_p = ||f||_p up to quadrature error, reaching 1e-3 under refinement
    rel = {}
    for step in (0.25, 0.125, 0.0625):
        G = ltp.build_group(f"affine:{step}:2:{step}:4")
        coords = G.coords()
        u, b = coords[:, 0], coords[:, 1]
        fu = np.where(np.abs(u) < 0.9, np.cos(0.5 * np.pi * u / 0.9) ** 2, 0.0)
        fb = np.where(np.abs(b) < 1.4, np.cos(0.5 * np.pi * b / 1.4) ** 2, 0.0)
        f = ltp.GFunction(G, fu * fb)
        tilde = ltp.modular_reflect(f, 2.0)
        rel[step] = abs(ltp.lp_norm(tilde, 2) - ltp.lp_norm(f, 2)) / ltp.lp_norm(f, 2)
    assert rel[0.0625] < 1e-3
    assert rel[0.25] > rel[0.125] > rel[0.0625]


def test_reflect_window_leak_on_affine():
    # support at u < 0 with large |b| inverts to b' = -exp(-u) b outside the
    # window, so the reflection must flag the escaping mass
    from ltp.errors import WindowLeakError
    G = ltp.build_group("affine:0.25:2:0.25:4")
    coords = G.coords()
    cell = int(np.argmin(np.abs(coords[:, 0] + 1.5) + np.abs(coords[:, 1] - 3.0)))
    f = ltp.dirac(G, cell)
    with pytest.raises(WindowLeakError):
        ltp.reflect(f)


def test_positive_negative_parts():
    G = ltp.build_group("cyclic:6")
    f = ltp.GFunction(G, [1.0, -2.0, 0.0, 3.5, -0.25, 0.5])
    pos, neg = ltp.positive_part(f), ltp.negative_part(f)
    assert np.array_equal(pos.values - neg.values, f.values)
    assert np.all((pos.values * neg.values) == 0)
    with pytest.raises(DomainError):
        ltp.positive_part(ltp.GFunction(G, np.full(6, 1j)))


def test_re_im_parts_and_norm_bounds():
    rng = np.random.default_rng(4)
    G = ltp.build_group("cyclic:11")
    for _ in range(20):
        f = ltp.random_function(G, rng)
        for p in (1.0, 2.0, 2.5):
            assert ltp.lp_norm(ltp.real_part(f), p) <= ltp.lp_norm(f, p) + 1e-12
            assert ltp.lp_norm(ltp.imag_part(f), p) <= ltp.lp_norm(f, p) + 1e-12


def test_holder_pairing_property():
    rng = np.random.default_rng(9)
    for spec in ("cyclic:16", "cyclic:16@probability", "z:12"):
        G = ltp.build_group(spec)
        for _ in range(20):
            f = ltp.random_function(G, rng)
            g = ltp.random_function(G, rng)
            for p in (1.0, 1.5, 2.0, 3.0):
                rhs = ltp.lp_norm(f, p) * ltp.lp_norm(g, Exponent.of(p).q)
                assert abs(ltp.inner(f, g)) <= rhs + 1e-12


def test_gfunction_validation():
    G = ltp.build_group("cyclic:4")
    with pytest.raises(DomainError):
        ltp.GFunction(G, [1.0, 2.0])
    with pytest.raises(DomainError):
        ltp.GFunction(G, [np.nan, 0, 0, 0])
    H = ltp.build_group("cyclic:5")
    with pytest.raises(ltp.ModelMismatchError):
        ltp.GFunction(G, np.ones(4)) + ltp.GFunction(H, np.ones(5))


def test_generators():
    G = ltp.build_group("z:8")
    d = ltp.dirac(G)
    assert d.values[G.identity] == 1.0 and d.values.sum() == 1.0
    box = ltp.box_function(G, 2)
    assert box.values.real.sum() == 5.0
    gauss = ltp.gauss_function(G, 1.5)
    assert gauss.values[G.identity] == 1.0
    C = ltp.build_group("cyclic:8")
    wrap = ltp.box_function(C, 1)
    assert wrap.values.real.sum() == 3.0  # indices {7, 0, 1} via wrap distance


def test_generators_refuse_a_radius_or_seed_that_cannot_apply():
    G = ltp.build_group("z:8")
    assert ltp.box_function(G, 0).values.real.sum() == 1.0  # the identity cell
    for radius in (-1.0, float("nan")):
        with pytest.raises(DomainError, match="box radius must be at least 0"):
            ltp.box_function(G, radius)
        with pytest.raises(DomainError, match="box radius must be at least 0"):
            ltp.random_function(G, 0, support_radius=radius)
    with pytest.raises(DomainError, match="seed >= 0, got -1"):
        ltp.random_function(G, -1)
