"""The theorem suite: a registry of named checks, each verifying one
statement about tempered norms, convolution, amenability, or the transform
on whatever models it applies to.

Checks declare the model properties they need (kind, normalization, an
abelian character table); a model that lacks them yields a skipped result
with an explanatory note rather than a failure.  Results are deterministic
for fixed (spec, p list, seed): every check draws from its own generator
seeded by (seed, check name), so neither registry order nor the
LTP_THREADS worker count can change a single observed value.
"""

from __future__ import annotations

import math
import os
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .errors import LtpError
from .groups import (COUNTING, KIND_FINITE, KIND_LATTICE, KIND_QUADRATURE,
                     PROBABILITY, GroupModel, GroupSpec, _AffineCarrier,
                     _LatticeCarrier, build_group, validate_group,
                     _affine_validation_points, _affine_modular_residual)
from .convolve import associativity_check, convolve
from .folner import averaging_inequality_check, find_folner
from .report import FAIL, CheckResult, SuiteReport
from .space import (Exponent, GFunction, dirac, dirac_measure, ess_sup,
                    estimate_modular, inner, lp_norm, modular_reflect,
                    random_function, translate, LEFT_DIRAC, RIGHT_DIRAC,
                    decompose_l1_linf, _affine_bump_probe)
from .spectral import (DUAL_CAP, build_dual, character_orthogonality_residual,
                       convolution_theorem_check, fourier,
                       inverse_product_check, mult_operator_norm,
                       parseval_check, plancherel_residual,
                       plancherel_restricted_isometry, product_theorem_check,
                       roundtrip_residual, tempered_norm_spectral)
from .tempered import (quasi_identity_blowup, re_im_closure_check, tempered_norm,
                       tempered_upper)

DEFAULT_KIND_TOL = {KIND_FINITE: 1e-9, KIND_LATTICE: 1e-6, KIND_QUADRATURE: 5e-2}


class SkipCheck(Exception):
    """Raised inside a runner when the (model, p) combination is out of the
    check's declared regime; recorded as a skip with the message as reason."""


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def _support_radius(model: GroupModel) -> float | None:
    if isinstance(model.carrier, _LatticeCarrier):
        step = model.carrier.step
        return max(step, model.carrier.radius * step / 4.0)
    return None


def _random_probe(model: GroupModel, rng, *, positive=False, complex_valued=True,
                  concentration=0.45) -> GFunction:
    """Random test function shaped for the model: unrestricted on finite
    carriers, quarter-window support on lattices, smooth modulated bump on
    the affine grid (interpolation-based paths need smooth data)."""
    if isinstance(model.carrier, _AffineCarrier):
        carrier = model.carrier
        u = carrier.coords[:, 0]
        b = carrier.coords[:, 1]
        r_u = concentration * carrier.u_values[-1]
        r_b = concentration * carrier.b_values[-1]
        phase_u, phase_b = rng.uniform(0, 2 * np.pi, 2)
        wave = 1.0 + 0.4 * np.cos(2.0 * np.pi * u / max(r_u, 1e-9) + phase_u) \
                   + 0.3 * np.cos(np.pi * b / max(r_b, 1e-9) + phase_b)
        values = _affine_bump_probe(carrier, concentration) * wave
        if not positive:
            values = values * np.exp(1j * phase_u) if complex_valued else values
        return GFunction(model, np.abs(values) if positive else values)
    return random_function(model, rng, positive=positive,
                           complex_valued=complex_valued,
                           support_radius=_support_radius(model))


def _scaling_points(model: GroupModel):
    """A few translation targets appropriate to the model."""
    if model.kind == KIND_FINITE:
        picks = sorted({1 % model.n, model.n // 3, model.n - 1})
        return [int(i) for i in picks]
    carrier = model.carrier
    if isinstance(carrier, _LatticeCarrier):
        shift = max(1, carrier.radius // 8)
        coords = [shift] + [0] * (carrier.dim - 1)
        return [int(carrier.from_coords(np.asarray(coords)))]
    points = []
    for u_x, b_x in _affine_validation_points(carrier):
        points.append((math.exp(u_x), b_x))
    return points


# ---------------------------------------------------------------------------
# Check context and definitions
# ---------------------------------------------------------------------------


@dataclass
class SuiteContext:
    model: GroupModel
    p: Exponent | None
    rng: np.random.Generator
    tol: float


@dataclass
class CheckDef:
    name: str
    ref: str
    anchors: tuple[str, ...]
    runner: Callable[[SuiteContext], tuple]
    per_p: bool = False
    requires: Callable[[GroupModel], str | None] | None = None
    tol: dict | float | None = None

    def tolerance_for(self, model: GroupModel) -> float:
        if isinstance(self.tol, dict):
            return self.tol.get(model.kind, DEFAULT_KIND_TOL[model.kind])
        if self.tol is not None:
            return float(self.tol)
        return DEFAULT_KIND_TOL[model.kind]


# -- requirement helpers ----------------------------------------------------


def _needs_finite(model):
    return None if model.kind == KIND_FINITE else f"needs a finite model, got {model.kind}"


def _needs_lattice(model):
    return None if model.kind == KIND_LATTICE else f"needs a truncated lattice, got {model.kind}"


def _needs_quadrature(model):
    return None if model.kind == KIND_QUADRATURE else f"needs a quadrature model, got {model.kind}"


def _needs_counting(model):
    if model.normalization != COUNTING:
        return "needs counting normalization (discrete-side statement)"
    if model.kind not in (KIND_FINITE, KIND_LATTICE):
        return "needs a discrete model"
    return None


def _needs_probability_finite(model):
    if model.kind != KIND_FINITE:
        return "needs a finite (compact) model"
    if model.normalization != PROBABILITY:
        return "needs probability normalization (compact-side statement)"
    return None


def _needs_dual(model):
    if model.cyclic_factors is None:
        return "dual not built: model is not a declared product of cyclic groups"
    if model.n > DUAL_CAP:
        return f"dual not built: n={model.n} beyond the character-table cap"
    return None


def _needs_unimodular(model):
    return None if model.is_unimodular else "needs a unimodular model"


def _needs_real_line(model):
    if model.kind == KIND_QUADRATURE and isinstance(model.carrier, _LatticeCarrier):
        return None
    return "needs a real-line quadrature model"


def _needs_folner_window(model):
    err = _needs_lattice(model)
    if err:
        return err
    if model.carrier.radius < 12:
        return "window radius below 12: certified box for eps=0.1 does not fit"
    return None


# -- runners ----------------------------------------------------------------


def _run_identity_translation(ctx: SuiteContext):
    f = _random_probe(ctx.model, ctx.rng)
    worst = 0.0
    for side in (LEFT_DIRAC, RIGHT_DIRAC):
        g = translate(f, ctx.model.identity, side)
        worst = max(worst, float(np.max(np.abs(g.values - f.values))))
    return worst, 0.0, "translation by the identity, both sides"


def _run_group_axioms(ctx: SuiteContext):
    try:
        validate_group(ctx.model)
    except AssertionError as exc:
        return 1.0, 0.0, f"axiom violation: {exc}"
    return 0.0, 0.0, "identity/inverse/associativity re-verified"


def _run_left_invariance(ctx: SuiteContext):
    f = _random_probe(ctx.model, ctx.rng)
    base = lp_norm(f, ctx.p)
    worst = 0.0
    for x in _scaling_points(ctx.model):
        shifted = translate(f, x, LEFT_DIRAC)
        worst = max(worst, abs(lp_norm(shifted, ctx.p) - base))
    return worst, 0.0, "||delta_x * f||_p == ||f||_p over sampled x"


def _run_modular_consistency(ctx: SuiteContext):
    model = ctx.model
    if isinstance(model.carrier, _AffineCarrier):
        return (_affine_modular_residual(model), 0.0,
                "empirical vs stored modular on sampled points")
    est = estimate_modular(model, model.identity)
    return abs(est - 1.0), 0.0, "real-line model is unimodular"


def _run_modular_multiplicativity(ctx: SuiteContext):
    model = ctx.model
    rng = ctx.rng
    i = rng.integers(0, model.n, 512)
    j = rng.integers(0, model.n, 512)
    prod = np.asarray(model.op(i, j))
    ok = prod >= 0
    if not np.any(ok):
        return 0.0, 0.0, "no in-window products sampled"
    lhs = model.modular[prod[ok]]
    rhs = model.modular[i[ok]] * model.modular[j[ok]]
    worst = float(np.max(np.abs(lhs - rhs) / rhs))
    return worst, 0.0, "Delta(xy) = Delta(x) Delta(y) on sampled pairs"


def _run_l1_linf_split(ctx: SuiteContext):
    f = _random_probe(ctx.model, ctx.rng)
    f = GFunction(ctx.model, 2.5 * f.values)
    bounded, tail = decompose_l1_linf(f)
    residual = float(np.max(np.abs(bounded.values + tail.values - f.values)))
    sup_violation = max(0.0, ess_sup(bounded) - 1.0)
    support_violation = float(np.max(
        np.where(np.abs(f.values) <= 1.0, np.abs(tail.values), 0.0)))
    worst = max(residual, sup_violation, support_violation)
    return worst, 0.0, "f = f chi_A + f chi_complement with A = {|f| <= 1}"


def _run_holder(ctx: SuiteContext):
    worst = 0.0
    for _ in range(8):
        f = _random_probe(ctx.model, ctx.rng)
        g = _random_probe(ctx.model, ctx.rng)
        lhs = abs(inner(f, g))
        q = ctx.p.q
        rhs = lp_norm(f, ctx.p) * (ess_sup(g) if math.isinf(q) else lp_norm(g, q))
        worst = max(worst, lhs - rhs)
    return max(worst, 0.0), 0.0, "|<f, g>| <= ||f||_p ||g||_q"


def _run_reflect_norm(ctx: SuiteContext):
    f = _random_probe(ctx.model, ctx.rng, positive=True)
    reflected = modular_reflect(f, ctx.p, max_leak=0.2)
    diff = abs(lp_norm(reflected, ctx.p) - lp_norm(f, ctx.p))
    scale = max(lp_norm(f, ctx.p), 1e-30)
    return diff / scale, 0.0, f"||f~||_p vs ||f||_p, leak={reflected.leak:.2e}"


def _run_conv_cross_path(ctx: SuiteContext):
    worst = 0.0
    for _ in range(4):
        f = _random_probe(ctx.model, ctx.rng)
        g = _random_probe(ctx.model, ctx.rng)
        direct = convolve(g, f, path="direct")
        fast = convolve(g, f, path="spectral")
        scale = max(lp_norm(direct, 2), 1e-30)
        worst = max(worst, lp_norm(direct - fast, 2) / scale)
    return worst, 0.0, "direct vs spectral convolution, relative L2"


def _run_associativity(ctx: SuiteContext):
    worst = 0.0
    for _ in range(4):
        f = _random_probe(ctx.model, ctx.rng)
        g = _random_probe(ctx.model, ctx.rng)
        h = _random_probe(ctx.model, ctx.rng)
        for func in (f, g, h):
            func.values /= max(lp_norm(func, 2), 1e-30)
        worst = max(worst, associativity_check(f, g, h))
    return worst, 0.0, "||(f*g)*h - f*(g*h)||_2 on normalized triples"


def _run_young(ctx: SuiteContext):
    worst = 0.0
    for _ in range(8):
        f = _random_probe(ctx.model, ctx.rng)
        g = _random_probe(ctx.model, ctx.rng)
        lhs = lp_norm(convolve(g, f), ctx.p)
        rhs = lp_norm(g, ctx.p) * lp_norm(f, 1)
        worst = max(worst, lhs - rhs)
    return max(worst, 0.0), 0.0, "||g*f||_p <= ||g||_p ||f||_1"


def _run_dirac_calculus(ctx: SuiteContext):
    model = ctx.model
    rng = ctx.rng
    f = _random_probe(model, rng)
    worst = 0.0
    for _ in range(4):
        x = int(rng.integers(0, model.n))
        y = int(rng.integers(0, model.n))
        via_conv = convolve(dirac_measure(model, x), f)
        via_translate = translate(f, x, LEFT_DIRAC)
        worst = max(worst, float(np.max(np.abs(via_conv.values - via_translate.values))))
        dd = convolve(dirac_measure(model, x), dirac_measure(model, y))
        xy = int(model.op(x, y))
        worst = max(worst, float(np.max(np.abs(dd.values - dirac_measure(model, xy).values))))
    return worst, 0.0, "delta_x * f is the left translation; delta_x * delta_y = delta_xy"


def _run_dirac_scaling(ctx: SuiteContext):
    from .tempered import dirac_scaling_check
    f = _random_probe(ctx.model, ctx.rng, positive=True)
    worst = 0.0
    details = []
    for x in _scaling_points(ctx.model):
        ratio, expected = dirac_scaling_check(f, x, ctx.p, max_leak=1e-6)
        worst = max(worst, abs(ratio - expected) / expected)
        details.append(f"{x}:{ratio:.6g}/{expected:.6g}")
    return worst, 0.0, "ratio vs Delta(x)^(-1/q): " + " ".join(details)


def _run_dirac_identity_norm(ctx: SuiteContext):
    est = tempered_norm(dirac(ctx.model), ctx.p)
    worst = max(abs(est.lower - 1.0), abs(est.upper - 1.0))
    return worst, 0.0, f"||delta_e||_p^T = 1 (method={est.method})"


def _run_discrete_lower(ctx: SuiteContext):
    worst = 0.0
    for _ in range(6):
        f = _random_probe(ctx.model, ctx.rng)
        est = tempered_norm(f, ctx.p)
        worst = max(worst, lp_norm(f, ctx.p) - est.lower)
    return max(worst, 0.0), 0.0, "||f||_p <= ||f||_p^T on counting models"


def _run_compact_upper(ctx: SuiteContext):
    worst = 0.0
    for _ in range(6):
        f = _random_probe(ctx.model, ctx.rng)
        worst = max(worst, tempered_upper(f, ctx.p) - lp_norm(f, ctx.p))
    return max(worst, 0.0), 0.0, "||f||_p^T <= ||f||_p on probability models"


def _run_finite_equivalence(ctx: SuiteContext):
    model = ctx.model
    n = model.n
    q = ctx.p.q
    growth = 1.0 if math.isinf(q) else n ** (1.0 / q)
    if model.normalization == COUNTING:
        c_lower, c_upper = 1.0, growth
    else:
        c_lower, c_upper = growth, 1.0
    worst = 0.0
    for _ in range(6):
        f = _random_probe(model, ctx.rng)
        est = tempered_norm(f, ctx.p)
        plain = lp_norm(f, ctx.p)
        worst = max(worst, plain - c_lower * est.lower)
        worst = max(worst, est.upper - c_upper * plain)
    note = f"||f||_p <= {c_lower:g} ||f||_p^T and ||f||_p^T <= {c_upper:g} ||f||_p"
    return max(worst, 0.0), 0.0, note


def _run_l1_identity(ctx: SuiteContext):
    worst = 0.0
    for _ in range(6):
        f = _random_probe(ctx.model, ctx.rng)
        est = tempered_norm(f, 1)
        scale = max(lp_norm(f, 1), 1e-30)
        worst = max(worst, abs(est.value - lp_norm(f, 1)) / scale)
    return worst, 0.0, "||f||_1^T = ||f||_1 (relative)"


def _run_l1_inclusion(ctx: SuiteContext):
    worst = 0.0
    for _ in range(6):
        f = _random_probe(ctx.model, ctx.rng)
        est = tempered_norm(f, ctx.p)
        worst = max(worst, est.value - lp_norm(f, 1))
    return max(worst, 0.0), 0.0, "||f||_p^T <= ||f||_1 on discrete counting models"


def _run_weighted_l1_upper(ctx: SuiteContext):
    from .tempered import upper_bound_weighted_l1
    worst = 0.0
    for _ in range(8):
        f = _random_probe(ctx.model, ctx.rng)
        est = tempered_norm(f, ctx.p)
        worst = max(worst, est.lower - upper_bound_weighted_l1(f, ctx.p))
    return max(worst, 0.0), 0.0, "tempered lower bound <= integral |f| Delta^(-1/q)"


def _run_re_im(ctx: SuiteContext):
    worst = 0.0
    for _ in range(12):
        f = _random_probe(ctx.model, ctx.rng)
        result = re_im_closure_check(f, ctx.p, tol=ctx.tol)
        worst = max(worst, result.observed)
    return worst, 0.0, "||Re f||_p^T and ||Im f||_p^T vs 2 ||f||_p^T"


def _run_submultiplicative(ctx: SuiteContext):
    worst = 0.0
    for _ in range(6):
        f = _random_probe(ctx.model, ctx.rng)
        g = _random_probe(ctx.model, ctx.rng)
        upper = tempered_upper(f, ctx.p)
        lhs = lp_norm(convolve(g, f), ctx.p)
        worst = max(worst, lhs - lp_norm(g, ctx.p) * upper)
    return max(worst, 0.0), 0.0, "||g*f||_p <= ||g||_p ||f||_p^T"


def _run_quasi_identity(ctx: SuiteContext):
    model = ctx.model
    count = min(16, max(2, int(1.0 / model.carrier.step) - 1))
    bounds = quasi_identity_blowup(model, ctx.p, count)
    expected = [n ** (1.0 - 1.0 / ctx.p.p) for n in range(1, count + 1)]
    worst = max(abs(b - e) for b, e in zip(bounds, expected))
    monotone = all(b2 >= b1 - 1e-15 for b1, b2 in zip(bounds, bounds[1:]))
    if not monotone:
        worst = max(worst, 1.0)
    note = f"n=1..{count}: lower bounds n^(1-1/p)/K grow without bound"
    return worst, 0.0, note


def _run_positive_cone(ctx: SuiteContext):
    from .folner import positive_norm_equality
    model = ctx.model
    if model.kind != KIND_FINITE and ctx.p.p not in (1.0, 2.0):
        raise SkipCheck("outside the exact-route regime: the iterative lower "
                        "bound on a window section undershoots for general p")
    note = "||f||_p^T = integral f Delta^(-1/q) for positive f"
    concentration = 0.45
    if model.kind == KIND_QUADRATURE:
        # experimental regime: the window-section lower bound carries a
        # Folner-type deficit that grows with the support, so the equality
        # is asserted for concentrated data only
        note += " (experimental: concentrated support, section deficit vs tolerance)"
        concentration = 0.25
    worst = 0.0
    for _ in range(8):
        f = _random_probe(model, ctx.rng, positive=True, concentration=concentration)
        result = positive_norm_equality(f, ctx.p, tol=ctx.tol)
        worst = max(worst, abs(result.observed - result.expected))
    return worst, 0.0, note


def _run_folner_certificate(ctx: SuiteContext):
    cert = find_folner(ctx.model, 1, 0.1)
    note = (f"L={cert.box_radius}, worst ratio {cert.worst_ratio:.6f} "
            f"(recount matches closed form)")
    return cert.worst_ratio, [0.9, 1.0], note


def _run_folner_averaging(ctx: SuiteContext):
    cert = find_folner(ctx.model, 1, 0.1)
    worst = 0.0
    for _ in range(6):
        f = _random_probe(ctx.model, ctx.rng, positive=True)
        result = averaging_inequality_check(f, cert, ctx.p, tol=ctx.tol)
        worst = max(worst, result.observed)
    return worst, 0.0, "averaging chain violation over random positive f"


def _run_character_orthogonality(ctx: SuiteContext):
    return character_orthogonality_residual(build_dual(ctx.model)), 0.0, \
        "sum_j w_j chi_k chi_l-bar = c delta_kl"


def _run_plancherel(ctx: SuiteContext):
    dual = build_dual(ctx.model)
    worst = 0.0
    for _ in range(8):
        f = _random_probe(ctx.model, ctx.rng)
        worst = max(worst, plancherel_residual(dual, f))
    return worst, 0.0, "||f||_2 = ||fhat||_2"


def _run_roundtrip(ctx: SuiteContext):
    dual = build_dual(ctx.model)
    worst = 0.0
    for _ in range(8):
        f = _random_probe(ctx.model, ctx.rng)
        worst = max(worst, roundtrip_residual(dual, f))
    return worst, 0.0, "inverse transform of the transform returns f"


def _unit(ctx, f: GFunction) -> GFunction:
    return GFunction(ctx.model, f.values / max(lp_norm(f, 2), 1e-30))


def _run_conv_theorem(ctx: SuiteContext):
    dual = build_dual(ctx.model)
    worst = 0.0
    for _ in range(6):
        f = _unit(ctx, _random_probe(ctx.model, ctx.rng))
        g = _unit(ctx, _random_probe(ctx.model, ctx.rng))
        worst = max(worst, convolution_theorem_check(dual, f, g))
    return worst, 0.0, "(f*g)^ = fhat ghat"


def _run_product_theorem(ctx: SuiteContext):
    dual = build_dual(ctx.model)
    worst = 0.0
    for _ in range(6):
        f = _unit(ctx, _random_probe(ctx.model, ctx.rng))
        g = _unit(ctx, _random_probe(ctx.model, ctx.rng))
        worst = max(worst, product_theorem_check(dual, f, g))
    return worst, 0.0, "(fg)^ = fhat * ghat"


def _run_parseval(ctx: SuiteContext):
    dual = build_dual(ctx.model)
    worst = 0.0
    for _ in range(6):
        f = _unit(ctx, _random_probe(ctx.model, ctx.rng))
        g_vals = ctx.rng.standard_normal(ctx.model.n) + 1j * ctx.rng.standard_normal(ctx.model.n)
        g = GFunction(dual.dual_group, g_vals)
        g = GFunction(dual.dual_group, g.values / max(lp_norm(g, 2), 1e-30))
        worst = max(worst, parseval_check(dual, f, g))
    return worst, 0.0, "<f, g-check> = <fhat, g>"


def _run_inverse_product(ctx: SuiteContext):
    dual = build_dual(ctx.model)
    worst = 0.0
    for _ in range(6):
        vals = ctx.rng.standard_normal((2, ctx.model.n)) \
            + 1j * ctx.rng.standard_normal((2, ctx.model.n))
        f = GFunction(dual.dual_group, vals[0])
        g = GFunction(dual.dual_group, vals[1])
        f = GFunction(dual.dual_group, f.values / max(lp_norm(f, 2), 1e-30))
        g = GFunction(dual.dual_group, g.values / max(lp_norm(g, 2), 1e-30))
        worst = max(worst, inverse_product_check(dual, f, g))
    return worst, 0.0, "(fg)-check = f-check * g-check"


def _run_mult_operator(ctx: SuiteContext):
    worst = 0.0
    for _ in range(8):
        f = _random_probe(ctx.model, ctx.rng)
        worst = max(worst, abs(mult_operator_norm(f) - ess_sup(f)))
    return worst, 0.0, "||M_f|| = ||f||_inf with an attaining witness"


def _run_spectral_agreement(ctx: SuiteContext):
    dual = build_dual(ctx.model)
    worst = 0.0
    for _ in range(8):
        f = _random_probe(ctx.model, ctx.rng)
        via_transform = tempered_norm_spectral(dual, f)
        via_svd = tempered_norm(f, 2, method="exact_svd").value
        worst = max(worst, abs(via_transform - via_svd))
    return worst, 0.0, "max |fhat| vs largest singular value of the weighted operator"


def _run_restricted_isometry(ctx: SuiteContext):
    dual = build_dual(ctx.model)
    worst = 0.0
    for _ in range(8):
        f = _random_probe(ctx.model, ctx.rng)
        lhs, rhs = plancherel_restricted_isometry(dual, f)
        worst = max(worst, abs(lhs - rhs))
        # the two cross identities behind the sum
        fhat = fourier(dual, f)
        worst = max(worst, abs(tempered_norm(f, 2, method="exact_svd").value - ess_sup(fhat)))
        worst = max(worst, abs(tempered_norm(fhat, 2, method="exact_svd").value - ess_sup(f)))
    return worst, 0.0, "||f||_2^T + ||f||_inf = ||fhat||_inf + ||fhat||_2^T (and cross identities)"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

REGISTRY: list[CheckDef] = [
    CheckDef("identity-translation", "delta_e * f = f",
             ("convolution-definition",), _run_identity_translation, tol=0.0),
    CheckDef("group-axioms", "associativity, identity, inverses on the carrier",
             ("convolution-definition",), _run_group_axioms,
             requires=_needs_finite, tol=0.0),
    CheckDef("left-invariance", "||delta_x * f||_p = ||f||_p",
             ("lp-norm-invariance",), _run_left_invariance, per_p=True,
             requires=_needs_finite, tol={KIND_FINITE: 1e-12}),
    CheckDef("modular-consistency", "empirical Delta matches the stored closed form",
             ("modular-reflection",), _run_modular_consistency,
             requires=_needs_quadrature, tol={KIND_QUADRATURE: 1e-2}),
    CheckDef("modular-multiplicativity", "Delta(xy) = Delta(x) Delta(y)",
             ("modular-reflection",), _run_modular_multiplicativity,
             requires=_needs_quadrature, tol={KIND_QUADRATURE: 1e-12}),
    CheckDef("l1-linf-split", "f = f chi_A + f chi_{G minus A}, A = {|f| <= 1}",
             ("l1-linf-decomposition",), _run_l1_linf_split, tol=0.0),
    CheckDef("holder-pairing", "|<f, g>| <= ||f||_p ||g||_q",
             ("lp-norm-invariance",), _run_holder, per_p=True, tol={KIND_FINITE: 1e-12}),
    CheckDef("reflect-norm-identity", "||Delta^(-1/p) f(. ^-1)||_p = ||f||_p",
             ("modular-reflection",), _run_reflect_norm, per_p=True,
             tol={KIND_FINITE: 1e-12, KIND_LATTICE: 1e-12, KIND_QUADRATURE: 1e-2}),
    CheckDef("conv-cross-path", "direct and spectral convolution agree",
             ("convolution-definition",), _run_conv_cross_path,
             requires=_needs_dual, tol=1e-10),
    CheckDef("associativity", "(f*g)*h = f*(g*h)",
             ("convolution-definition",), _run_associativity,
             requires=_needs_finite, tol=1e-10),
    CheckDef("young-inequality", "||g*f||_p <= ||g||_p ||f||_1",
             ("unimodular-young-bound",), _run_young, per_p=True,
             requires=_needs_unimodular, tol={KIND_FINITE: 1e-12, KIND_LATTICE: 1e-12}),
    CheckDef("dirac-calculus", "delta translations and products",
             ("convolution-definition",), _run_dirac_calculus,
             requires=_needs_finite, tol=1e-12),
    CheckDef("dirac-scaling", "||f * delta_x||_p^T / ||f||_p^T = Delta(x)^(-1/q)",
             ("dirac-translation-scaling",), _run_dirac_scaling, per_p=True),
    CheckDef("dirac-identity-norm", "||delta_e||_p^T = 1",
             ("quasi-identity",), _run_dirac_identity_norm, per_p=True,
             requires=_needs_counting),
    CheckDef("discrete-lower-bound", "||f||_p <= ||f||_p^T",
             ("discrete-norm-domination",), _run_discrete_lower, per_p=True,
             requires=_needs_counting),
    CheckDef("compact-upper-bound", "||f||_p^T <= ||f||_p",
             ("compact-norm-domination",), _run_compact_upper, per_p=True,
             requires=_needs_probability_finite),
    CheckDef("finite-norm-equivalence", "two-sided norm equivalence with explicit constants",
             ("finite-norm-equivalence",), _run_finite_equivalence, per_p=True,
             requires=_needs_finite),
    CheckDef("l1-identity", "||f||_1^T = ||f||_1",
             ("p1-norm-identity",), _run_l1_identity,
             tol={KIND_FINITE: 1e-12, KIND_LATTICE: 1e-12, KIND_QUADRATURE: 5e-2}),
    CheckDef("l1-inclusion-discrete", "||f||_p^T <= ||f||_1 on discrete models",
             ("l1-inclusion-discrete",), _run_l1_inclusion, per_p=True,
             requires=_needs_counting),
    CheckDef("weighted-l1-upper", "||f||_p^T <= integral |f| Delta^(-1/q)",
             ("weighted-l1-domination", "tempered-norm-definition"),
             _run_weighted_l1_upper, per_p=True, tol=1e-9),
    CheckDef("re-im-closure", "||Re f||_p^T <= 2 ||f||_p^T, same for Im",
             ("re-im-closure",), _run_re_im, per_p=True, requires=_needs_finite),
    CheckDef("submultiplicative-action", "||g*f||_p <= ||g||_p ||f||_p^T",
             ("tempered-norm-definition",), _run_submultiplicative, per_p=True,
             requires=_needs_finite),
    CheckDef("quasi-identity-blowup", "lower bounds n^(1-1/p)/K rule out a quasi identity",
             ("quasi-identity",), _run_quasi_identity, per_p=True,
             requires=_needs_real_line, tol=1e-12),
    CheckDef("positive-cone-equality", "||f||_p^T = integral f Delta^(-1/q) for f >= 0",
             ("positive-cone-characterization",), _run_positive_cone, per_p=True,
             tol={KIND_FINITE: 1e-6, KIND_LATTICE: 1e-3}),
    CheckDef("folner-certificate", "|xK n K| / |K| > 1 - eps for a box K",
             ("positive-cone-characterization",), _run_folner_certificate,
             requires=_needs_folner_window, tol=0.0),
    CheckDef("folner-averaging", "(1-eps) int_C f~ <= <f~*g, h> <= ||f||_p^T",
             ("positive-cone-characterization",), _run_folner_averaging, per_p=True,
             requires=_needs_folner_window, tol={KIND_LATTICE: 1e-9}),
    CheckDef("character-orthogonality", "character rows are orthogonal",
             ("restricted-transform-isometry",), _run_character_orthogonality,
             requires=_needs_dual, tol=1e-12),
    CheckDef("plancherel-norm", "||f||_2 = ||fhat||_2",
             ("restricted-transform-isometry",), _run_plancherel,
             requires=_needs_dual, tol=1e-12),
    CheckDef("fourier-roundtrip", "inverse transform inverts the transform",
             ("restricted-transform-isometry",), _run_roundtrip,
             requires=_needs_dual, tol=1e-12),
    CheckDef("conv-theorem", "(f*g)^ = fhat ghat",
             ("transform-of-convolution",), _run_conv_theorem,
             requires=_needs_dual, tol=1e-10),
    CheckDef("product-theorem", "(fg)^ = fhat * ghat",
             ("transform-of-product",), _run_product_theorem,
             requires=_needs_dual, tol=1e-10),
    CheckDef("parseval-pairing", "<f, g-check> = <fhat, g>",
             ("parseval-duality",), _run_parseval,
             requires=_needs_dual, tol=1e-10),
    CheckDef("inverse-product", "(fg)-check = f-check * g-check",
             ("inverse-transform-product",), _run_inverse_product,
             requires=_needs_dual, tol=1e-10),
    CheckDef("mult-operator-norm", "||M_f|| = ||f||_inf",
             ("multiplication-operator-norm",), _run_mult_operator, tol=1e-12),
    CheckDef("spectral-svd-agreement", "max |fhat| equals the exact operator norm",
             ("transform-sup-equals-tempered",), _run_spectral_agreement,
             requires=_needs_dual, tol=1e-9),
    CheckDef("restricted-isometry",
             "||f||_2^T + ||f||_inf = ||fhat||_inf + ||fhat||_2^T",
             ("restricted-transform-isometry",), _run_restricted_isometry,
             requires=_needs_dual, tol=1e-9),
]

# Every claim exercised by the suite must keep at least one registered check;
# the registry self-test (and tests) fail when an anchor goes uncovered.
COVERAGE_ANCHORS = (
    "convolution-definition",
    "lp-norm-invariance",
    "l1-linf-decomposition",
    "tempered-norm-definition",
    "dirac-translation-scaling",
    "unimodular-young-bound",
    "compact-norm-domination",
    "discrete-norm-domination",
    "finite-norm-equivalence",
    "p1-norm-identity",
    "l1-inclusion-discrete",
    "quasi-identity",
    "re-im-closure",
    "weighted-l1-domination",
    "positive-cone-characterization",
    "modular-reflection",
    "transform-of-convolution",
    "parseval-duality",
    "transform-of-product",
    "inverse-transform-product",
    "multiplication-operator-norm",
    "transform-sup-equals-tempered",
    "restricted-transform-isometry",
)


def coverage_gaps() -> list[str]:
    """Anchors with no registered check (must be empty)."""
    covered = set()
    for check in REGISTRY:
        covered.update(check.anchors)
    return [anchor for anchor in COVERAGE_ANCHORS if anchor not in covered]


def registry_self_test() -> None:
    gaps = coverage_gaps()
    if gaps:
        raise LtpError(f"suite registry leaves anchors uncovered: {gaps}")
    names = [c.name for c in REGISTRY]
    if len(names) != len(set(names)):
        raise LtpError("duplicate check names in the registry")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _task_name(check: CheckDef, p: float | None) -> str:
    if p is None:
        return check.name
    return f"{check.name}@p={p:g}"


def _execute_check(check: CheckDef, model: GroupModel, p: float | None,
                   seed: int, tol: float, timings: bool) -> CheckResult:
    name = _task_name(check, p)
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    ctx = SuiteContext(model=model, p=None if p is None else Exponent.of(p),
                       rng=rng, tol=tol)
    started = time.perf_counter()
    try:
        observed, expected, notes = check.runner(ctx)
        result = CheckResult.build(name, check.ref, observed=observed,
                                   expected=expected, tolerance=tol, notes=notes)
    except SkipCheck as exc:
        result = CheckResult.skip(name, check.ref, str(exc))
    except Exception as exc:  # a failing or broken check must not abort the suite
        result = CheckResult(name, check.ref, FAIL, None, None, tol, 0.0,
                             f"error: {type(exc).__name__}: {exc}")
    if timings:
        result.runtime_ms = (time.perf_counter() - started) * 1000.0
    return result


def run_suite(spec: GroupSpec | str, p_list=(2.0,), seed: int = 0,
              tol_overrides: dict | None = None, *, timings: bool = False,
              model: GroupModel | None = None) -> SuiteReport:
    """Build the model, run every applicable check for each exponent, and
    aggregate the results in registry order.

    ``tol_overrides`` maps check names (without the @p suffix) to tolerances.
    The worker count comes from LTP_THREADS; results do not depend on it.
    """
    registry_self_test()
    if model is None:
        model = build_group(spec)
    spec_text = model.spec.text
    overrides = tol_overrides or {}
    p_values = [float(p) for p in p_list] or [2.0]

    tasks = []
    for check in REGISTRY:
        exponents = p_values if check.per_p else [None]
        for p in exponents:
            tasks.append((check, p))

    def run_one(task):
        check, p = task
        reason = check.requires(model) if check.requires else None
        tol = float(overrides.get(check.name, check.tolerance_for(model)))
        if reason is not None:
            return CheckResult.skip(_task_name(check, p), check.ref, reason)
        return _execute_check(check, model, p, seed, tol, timings)

    workers = int(os.environ.get("LTP_THREADS", "1") or "1")
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, tasks))
    else:
        results = [run_one(task) for task in tasks]

    return SuiteReport(version=__version__, spec=spec_text, seed=int(seed),
                       checks=results)
