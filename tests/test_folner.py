"""Folner boxes, the averaging chain, and the positive-cone norm equality."""

import numpy as np
import pytest

import ltp
from ltp.errors import DomainError, NotPositiveError, WindowTooSmall
from ltp.folner import averaging_inequality_check, find_folner
from ltp.tempered import tempered_norm, upper_bound_weighted_l1


def _positive_cone_sides(f, p):
    """Both sides of the positive-cone equality, ||f||_p^T (the lower end)
    and the integral of f Delta^(-1/q), as the suite reads them."""
    return tempered_norm(f, p).lower, upper_bound_weighted_l1(f, p)


def overlap_by_sets(coords, shift):
    shifted = {tuple(c + shift) for c in coords}
    return len(shifted & {tuple(c) for c in coords})


def test_z_line_certificate():
    G = ltp.build_group("z:64@counting")
    cert = find_folner(G, 1, 0.1)
    assert cert.box_radius == 5
    assert cert.worst_ratio == pytest.approx(10.0 / 11.0, abs=1e-15)
    assert len(cert.k_indices) == 11
    # independent recount
    k_coords = G.coords()[cert.k_indices]
    for shift in (-1, 0, 1):
        counted = overlap_by_sets(k_coords, np.array([shift]))
        assert counted == 11 - abs(shift)


def test_z2_certificate_side_39():
    G = ltp.build_group("z2:24@counting")
    cert = find_folner(G, 2, 0.1)
    side = 2 * cert.box_radius + 1
    assert side == 39
    assert cert.worst_ratio == pytest.approx((37.0 / 39.0) ** 2, abs=1e-15)
    assert cert.worst_ratio > 0.9
    # brute-force search confirms minimality: side 37 misses the ratio
    assert (35.0 / 37.0) ** 2 <= 0.9


def test_epsilon_near_one_single_cell():
    G = ltp.build_group("z:8@counting")
    cert = find_folner(G, np.array([G.identity]), 0.999)
    assert cert.box_radius == 0
    assert cert.worst_ratio == 1.0


def test_monotonicity_of_box_ratio():
    side_ratios = [(2 * L + 1 - 1) / (2 * L + 1) for L in range(1, 30)]
    assert all(b >= a for a, b in zip(side_ratios, side_ratios[1:]))


def test_window_too_small():
    G = ltp.build_group("z:8@counting")
    with pytest.raises(WindowTooSmall):
        find_folner(G, 1, 0.01)
    with pytest.raises(DomainError):
        find_folner(ltp.build_group("cyclic:8"), 1, 0.1)


def test_averaging_dirac():
    G = ltp.build_group("z:64@counting")
    cert = find_folner(G, 1, 0.1)
    lower, pairing, upper = averaging_inequality_check(ltp.dirac(G), cert, 2)
    assert max(0.0, lower - pairing, pairing - upper) <= 1e-9
    # for f = delta_e the pairing is the self-overlap ratio 1 >= 1 - eps
    assert pairing == pytest.approx(1.0, abs=1e-12)


def test_averaging_box_function():
    G = ltp.build_group("z:64@counting")
    cert = find_folner(G, 2, 0.1)
    f = ltp.box_function(G, 2)
    lower, pairing, upper = averaging_inequality_check(f, cert, 2)
    assert max(0.0, lower - pairing, pairing - upper) == 0.0


def test_averaging_zero_function():
    G = ltp.build_group("z:64@counting")
    cert = find_folner(G, 1, 0.1)
    zero = ltp.GFunction(G, np.zeros(G.n))
    lower, pairing, upper = averaging_inequality_check(zero, cert, 2)
    assert max(0.0, lower - pairing, pairing - upper) <= 1e-9


def test_averaging_rejects_complex():
    G = ltp.build_group("z:64@counting")
    cert = find_folner(G, 1, 0.1)
    with pytest.raises(NotPositiveError):
        averaging_inequality_check(ltp.random_function(G, 0), cert, 2)


def test_positive_equality_finite_example():
    G = ltp.build_group("cyclic:8@counting")
    f = ltp.GFunction(G, [1, 1, 1, 0, 0, 0, 0, 0])
    norm, target = _positive_cone_sides(f, 2)
    assert abs(norm - target) <= 1e-9
    assert norm == pytest.approx(3.0, abs=1e-9)
    assert target == pytest.approx(3.0, abs=1e-12)


def test_positive_equality_truncated_geometric():
    G = ltp.build_group("z:64@counting")
    vals = np.array([2.0 ** (-abs(k)) for k in range(-64, 65)])
    norm, target = _positive_cone_sides(ltp.GFunction(G, vals), 2)
    assert abs(norm - target) <= 1e-3
    assert norm == pytest.approx(3.0, abs=1e-3)


def test_positive_equality_dirac():
    G = ltp.build_group("z:32@counting")
    norm, target = _positive_cone_sides(ltp.dirac(G), 2)
    assert abs(norm - target) <= 1e-3
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_positive_equality_random_batch():
    rng = np.random.default_rng(77)
    G = ltp.build_group("cyclic:32@counting")
    Z = ltp.build_group("z:64@counting")
    for _ in range(50):
        f = ltp.random_function(G, rng, positive=True)
        norm, target = _positive_cone_sides(f, 2)
        assert abs(norm - target) <= 1e-6
        g = ltp.random_function(Z, rng, positive=True, support_radius=16)
        norm, target = _positive_cone_sides(g, 2)
        assert abs(norm - target) <= 1e-3
