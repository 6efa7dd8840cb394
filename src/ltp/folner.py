"""Box Folner sets on truncated lattices and the terms of the quantitative
averaging inequality they support, the chain behind the positive-cone norm
equality on amenable models.

Only boxes K = [-L, L]^d are constructed: for a shift x the overlap ratio
|xK n K| / |K| has the closed form prod_i (side - |x_i|) / side, and every
certificate is re-verified by exhaustive intersection counting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotPositiveError, WindowTooSmall
from .groups import KIND_LATTICE, GroupModel, _LatticeCarrier
from .convolve import convolve
from .space import Exponent, GFunction, inner, lp_norm, modular_reflect, _cell
from .tempered import upper_bound_weighted_l1


@dataclass
class FolnerCertificate:
    """A verified almost-invariant box: |xK n K| / |K| > 1 - epsilon for all
    x in the compact set C."""

    group: GroupModel
    c_indices: np.ndarray
    epsilon: float
    k_indices: np.ndarray
    box_radius: int
    worst_ratio: float

    @property
    def k_measure(self) -> float:
        return float(np.sum(self.group.weights[self.k_indices]))


def _lattice_carrier(model: GroupModel) -> _LatticeCarrier:
    if model.kind != KIND_LATTICE:
        raise DomainError(
            f"Folner boxes are implemented for truncated lattices, not {model.name}")
    return model.carrier


def _box_indices(carrier: _LatticeCarrier, radius: int) -> np.ndarray:
    inside = np.all(np.abs(carrier.coords) <= radius, axis=1)
    return np.nonzero(inside)[0]


def _closed_form_overlap(side: int, shift: np.ndarray) -> int:
    """|(x + K) n K| for the box of the given side and an integer shift."""
    remaining = side - np.abs(shift)
    if np.any(remaining <= 0):
        return 0
    return int(np.prod(remaining))


def _recount_overlap(k_coords: np.ndarray, shift: np.ndarray) -> int:
    shifted = {tuple(c) for c in (k_coords + shift)}
    original = {tuple(c) for c in k_coords}
    return len(shifted & original)


def find_folner(model: GroupModel, c: np.ndarray | int, epsilon: float) -> FolnerCertificate:
    """Smallest box K = [-L, L]^d with |xK n K|/|K| > 1 - epsilon for all
    x in C.

    ``c`` is either an array of indices or an integer radius (the box
    C = [-r, r]^d).  Raises :class:`WindowTooSmall` when the certified box,
    or C translated by it, does not fit inside the truncation window.
    """
    carrier = _lattice_carrier(model)
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    c_indices = (_box_indices(carrier, int(c)) if isinstance(c, (int, np.integer))
                 else np.array([_cell(model, i) for i in np.ravel(c)], dtype=np.int64))
    if c_indices.size == 0:
        raise ValueError("C must be nonempty")
    c_coords = carrier.coords[c_indices]
    c_reach = int(np.max(np.abs(c_coords)))

    for radius in range(0, carrier.radius + 1):
        side = 2 * radius + 1
        ratios = [
            _closed_form_overlap(side, shift) / side ** carrier.dim
            for shift in c_coords
        ]
        worst = min(ratios)
        if worst > 1.0 - epsilon:
            if radius + c_reach > carrier.radius:
                raise WindowTooSmall(
                    f"certified box L={radius} plus C radius {c_reach} exceeds "
                    f"the window radius {carrier.radius}")
            k_indices = _box_indices(carrier, radius)
            k_coords = carrier.coords[k_indices]
            for shift in c_coords:
                counted = _recount_overlap(k_coords, shift)
                closed = _closed_form_overlap(side, shift)
                if counted != closed:
                    raise AssertionError(
                        f"overlap recount {counted} disagrees with closed form {closed}")
            return FolnerCertificate(model, c_indices, float(epsilon),
                                     k_indices, radius, float(worst))
    raise WindowTooSmall(
        f"no box within window radius {carrier.radius} reaches ratio > {1 - epsilon}")


def averaging_inequality_check(f: GFunction, cert: FolnerCertificate,
                               p) -> tuple[float, float, float]:
    """The three terms ``(lower, pairing, upper)`` of the averaging chain
    from the positive-cone argument:

        (1 - eps) * integral_C f_tilde  <=  <f_tilde * g, h>  <=  ||g||_p ||f||_p^T ||h||_q

    with g = chi_K / |K|^{1/p} and h = chi_K / |K|^{1/q}, and the weighted-L1
    bound standing for ||f||_p^T.  Requires a positive real f supported in
    the window interior.
    """
    model = f.group
    model.require_same(cert.group)
    if not f.is_real or np.any(f.values.real < 0):
        raise NotPositiveError("averaging inequality needs a positive real f")
    exp = Exponent.of(p)

    measure = cert.k_measure
    chi = np.zeros(model.n)
    chi[cert.k_indices] = 1.0
    g = GFunction(model, chi / measure ** (1.0 / exp.p))
    h = GFunction(model, chi / measure ** (1.0 / exp.q))

    f_tilde = modular_reflect(f, exp)
    pairing = inner(convolve(f_tilde, g), h).real

    c_mask = np.zeros(model.n)
    c_mask[cert.c_indices] = 1.0
    integral_c = float(np.sum(model.weights * c_mask * f_tilde.values.real))

    upper = lp_norm(g, exp) * upper_bound_weighted_l1(f, exp) * lp_norm(h, exp.q)
    return (1.0 - cert.epsilon) * integral_c, pairing, upper
