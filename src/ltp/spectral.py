"""Fourier analysis on finite abelian models: character tables, the
Plancherel transform pair, and the terms of the restricted-isometry
identity that tie the tempered norm to the sup norm of the transform.  The
identities between them are measured by the suite's runners.

Character phases are reduced with integer arithmetic before the complex
exponential, so orthogonality and Plancherel residuals stay near machine
precision up to n = 1024 and beyond.

Normalization pairing: counting weights on the group side pair with weights
1/n on the dual, probability weights pair with counting weights on the dual;
either way ||f||_2 = ||fhat||_2 holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .errors import NotAbelianError, ResourceError
from .groups import COUNTING, PROBABILITY, build_group
from .space import GFunction, ess_sup
from .tempered import tempered_norm

if TYPE_CHECKING:
    from .groups import GroupModel

DUAL_CAP = 2048


@dataclass
class DualModel:
    """Character table and Plancherel normalization for a finite abelian model.

    ``characters[k, j] = chi_k(x_j)``; ``dual_group`` is the model that
    ``build_group`` makes of the same product of cyclics with the paired
    normalization, so functions of characters are ordinary
    :class:`GFunction` values over it.
    """

    base: GroupModel
    dual_group: GroupModel
    characters: np.ndarray = field(repr=False)


def build_dual(model: GroupModel) -> DualModel:
    """Characters of a declared product of cyclic groups.

    Raises :class:`NotAbelianError` when the model does not expose cyclic
    factors (only declared products carry an exact character table).
    """
    cached = model._cache.get("dual")
    if cached is not None:
        return cached
    factors = model.cyclic_factors
    if factors is None:
        raise NotAbelianError(
            f"{model.name} is not a declared product of cyclic groups")
    n = model.n
    if n > DUAL_CAP:
        raise ResourceError(f"character table for n={n} exceeds the cap {DUAL_CAP}")

    tables = []
    for size in factors:
        j = np.arange(size, dtype=np.int64)
        phase = (np.outer(j, j) % size).astype(np.float64) / size
        tables.append(np.exp(2j * np.pi * phase))
    characters = reduce(np.kron, tables)
    characters.setflags(write=False)

    dual_norm = PROBABILITY if model.normalization == COUNTING else COUNTING
    text = "+".join(f"cyclic:{size}" for size in factors)
    if len(factors) > 1:
        text = "product:" + text
    dual_group = build_group(f"{text}@{dual_norm}")
    dual = DualModel(base=model, dual_group=dual_group, characters=characters)
    model._cache["dual"] = dual
    return dual


# ---------------------------------------------------------------------------
# Transform pair
# ---------------------------------------------------------------------------


def fourier(dual: DualModel, f: GFunction) -> GFunction:
    """fhat(chi) = sum_j w_j f(x_j) conj(chi(x_j)), as a function on the dual."""
    dual.base.require_same(f.group)
    values = np.conj(dual.characters) @ (dual.base.weights * f.values)
    return GFunction(dual.dual_group, values)


def inverse_fourier(dual: DualModel, g: GFunction) -> GFunction:
    """g_check(x) = sum_k w'_k g(chi_k) chi_k(x), back on the base model."""
    dual.dual_group.require_same(g.group)
    values = dual.characters.T @ (dual.dual_group.weights * g.values)
    return GFunction(dual.base, values)


# ---------------------------------------------------------------------------
# Tempered norms and the transform
# ---------------------------------------------------------------------------


def restricted_isometry_terms(dual: DualModel, f: GFunction):
    """The four terms ||f||_2^T, ||f||_inf, ||fhat||_inf and ||fhat||_2^T of
    the restricted-isometry identity, each computed once: the first two sum
    to the last two.  Each tempered norm is the circulant FFT symbol of its
    own model (f's, and the dual's for fhat), a route independent of the
    character table that gives fhat, so the cross identities pair the first
    with the third (FFT symbol against character-table transform) and the
    second with the fourth (the dual's FFT symbol against the direct
    max |f|)."""
    fhat = fourier(dual, f)
    return (tempered_norm(f, 2).lower, ess_sup(f), ess_sup(fhat), tempered_norm(fhat, 2).lower)
