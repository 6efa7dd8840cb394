"""The theorem suite: a registry of named checks, each verifying one
statement about tempered norms, convolution, amenability, or the transform
on whatever models it applies to.

Each check states what it needs once, in ``needs``: the hypotheses of its
statement, read from the properties a model states (finite, compact,
discrete, abelian, unimodular, counting, probability, real line), and the
objects ltp builds for it (the dual, a Folner box, a leak-free probe, a
route).  A model that lacks a hypothesis skips the check with the note
``needs P: SPEC is not``; one where ltp has not built the object skips it
with ``unbuilt: NAME: why``.
Results are deterministic for fixed (spec, p list, seed): every check draws
from its own generator seeded by (seed, check name), so registry order
cannot change a single observed value.

A statement is read from the end of the certified bracket [lower, upper]
that proves it: a bound on ||f||_p^T from above reads ``upper`` (through
``tempered_upper``), one from below reads ``lower`` (discrete-lower-bound
and the lower side of finite-norm-equivalence).  re-im-closure reads the
parts' lower ends against f's upper end at factor 1: g * conj f is
conj(conj g * f), so ||conj f||_p^T = ||f||_p^T >= ||Re f||_p^T.

restricted-isometry reads both tempered norms from the FFT route, on f's
model and on the dual; spectral-svd-agreement alone sets the transform
against the singular-value route.  quasi-identity-blowup measures
||1_U / |U| ||_p on shrinking centred runs U of grid cells.

Each runner draws its probes and measures its statement from the
quantities the library computes: transforms, norms, convolutions,
certificates and the terms of the averaging chain.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import __version__
from .errors import DomainError, LtpError, ModelMismatchError
from .groups import (ABELIAN, COMPACT, COUNTING, DISCRETE, FINITE, PROBABILITY,
                     PROPERTIES, REAL_LINE, UNIMODULAR, GroupModel, GroupSpec, _AffineCarrier,
                     _LatticeCarrier, build_group, parse_group_spec, validate_group,
                     modular_multiplicativity_residual, _affine_validation_points,
                     _affine_modular_residual)
from .convolve import convolve
from .folner import averaging_inequality_check, find_folner
from .report import FAIL, CheckResult, SuiteReport
from .space import (Exponent, GFunction, dirac, dirac_measure, ess_sup,
                    estimate_modular, imag_part, inner, lp_norm, modular_reflect,
                    point_modular, random_function, real_part, translate, LEFT_DIRAC,
                    RIGHT_DIRAC, decompose_l1_linf, _affine_bump_probe)
from .spectral import (build_dual, fourier, inverse_fourier, mult_operator_norm,
                       restricted_isometry_terms, tempered_norm_spectral)
from .tempered import (METHOD_WL1_BOUND, tempered_norm, tempered_norms, tempered_upper,
                       upper_bound_weighted_l1)


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def _support_radius(model: GroupModel) -> float | None:
    if isinstance(model.carrier, _LatticeCarrier):
        step = model.carrier.step
        return max(step, model.carrier.radius * step / 4.0)
    return None


def _random_probe(model: GroupModel, rng, *, positive=False,
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
        return GFunction(model, np.abs(values) if positive else values * np.exp(1j * phase_u))
    return random_function(model, rng, positive=positive,
                           support_radius=_support_radius(model))


def _scaling_points(model: GroupModel):
    """A few translation targets appropriate to the model."""
    if FINITE in model.properties:
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
    draws: int = 1
    built: dict = field(default_factory=dict)  # what the check's needs built, by name


@dataclass
class CheckDef:
    """One statement and the models it applies to.

    ``runner`` measures one draw and returns the measurement, or
    ``(measurement, note)`` when the note depends on the draw; the suite
    calls it ``draws`` times.  A ``batched`` runner is called once: it draws
    all ``draws`` probes from ``ctx.rng`` in the order the draws would take
    them (``ctx.draws`` says how many) and returns the list of their
    measurements, or ``(measurements, note)``, so that their norms can come
    from one ``tempered_norms`` call.  ``needs`` names the properties from
    ``PROPERTIES`` that the statement assumes and the objects from
    ``_BUILDS`` that the runner reads from ``ctx.built``; a model that lacks
    one skips the check.  A runner that gives no note reports ``note``, or
    the statement ``ref`` when ``note`` is empty.  The suite
    keeps the largest of 0 and the measurements, and judges it against
    ``expected`` within ``tol``: one value for every model with exact
    arithmetic, ``affine_tol`` on the interpolated affine grid where a check
    needs its own.
    """
    name: str
    ref: str
    anchors: tuple[str, ...]
    runner: Callable[[SuiteContext], float | list[float] | tuple[float | list[float], str]]
    note: str = ""
    draws: int = 1
    per_p: bool = False
    batched: bool = False
    needs: tuple[str, ...] = ()
    tol: float = 1e-9
    affine_tol: float | None = None
    expected: float | tuple[float, float] = 0.0

    def tolerance_for(self, model: GroupModel) -> float:
        if self.affine_tol is not None and isinstance(model.carrier, _AffineCarrier):
            return self.affine_tol
        return self.tol


# -- what ltp has built ------------------------------------------------------


def _refuse(reason: str):
    raise DomainError(reason)


# What a check needs besides properties, by the name its ``needs`` gives:
# each builds it on the model at p, or raises LtpError saying why ltp has not
# built it there.  The dual and the Folner box are the library's to refuse;
# the rest are the suite's probes and routes.
_BUILDS: dict[str, Callable[[GroupModel, Exponent | None], object]] = {
    "dual": lambda model, p: build_dual(model),
    "Folner box": lambda model, p: find_folner(model, 1, 0.1),
    "leak-free probe": lambda model, p: None if FINITE in model.properties else _refuse(
        f"products of probes can leave the window of {model.name}"),
    "probe room": lambda model, p: None if getattr(model.carrier, "radius", 2) >= 2 else _refuse(
        f"window radius {model.carrier.radius} below 2 cells: the probe fills the window, "
        "so every translate leaks"),
    "exact route": lambda model, p: (
        None if FINITE in model.properties or p.p in (1.0, 2.0) else _refuse(
            f"the iterative lower bound on a window section undershoots at p = {p.p:g}")),
    "runs U_1 and U_2": lambda model, p: None if model.carrier.step < 0.5 else _refuse(
        f"grid step {model.carrier.step:g} is not below 1/2"),
    "modular estimate": lambda model, p: None if DISCRETE not in model.properties else _refuse(
        f"{model.name} is discrete, where build_group sets the modular function to 1"),
}


def _unmet(check: CheckDef, ctx: SuiteContext) -> str | None:
    """The skip note of the check on ctx's model at ctx's p, or None when it
    runs: ``needs P: SPEC is not`` names the properties the model lacks, and
    ``unbuilt: NAME: why`` the first thing ltp has not built there.  What the
    builds make goes into ``ctx.built``."""
    model = ctx.model
    missing = [need for need in check.needs if need in PROPERTIES and need not in model.properties]
    if missing:
        return f"needs {' and '.join(missing)}: {model.name} is not"
    for need in check.needs:
        if need not in PROPERTIES:
            try:
                ctx.built[need] = _BUILDS[need](model, ctx.p)
            except LtpError as exc:
                return f"unbuilt: {need}: {exc}"
    return None


# -- runners: each measures one draw ----------------------------------------


def _run_identity_translation(ctx: SuiteContext):
    f = _random_probe(ctx.model, ctx.rng)
    return max(float(np.max(np.abs(translate(f, ctx.model.identity, side).values - f.values)))
               for side in (LEFT_DIRAC, RIGHT_DIRAC))


def _run_group_axioms(ctx: SuiteContext):
    try:
        validate_group(ctx.model)
    except AssertionError as exc:
        return 1.0, f"axiom violation: {exc}"
    return 0.0


def _run_left_invariance(ctx: SuiteContext):
    f = _random_probe(ctx.model, ctx.rng)
    base = lp_norm(f, ctx.p)
    return max(abs(lp_norm(translate(f, x, LEFT_DIRAC), ctx.p) - base)
               for x in _scaling_points(ctx.model))


def _run_modular_consistency(ctx: SuiteContext):
    model = ctx.model
    if isinstance(model.carrier, _AffineCarrier):
        return (_affine_modular_residual(model),
                "empirical vs stored modular on sampled points")
    return abs(estimate_modular(model, model.identity) - 1.0)


def _run_modular_multiplicativity(ctx: SuiteContext):
    residual = modular_multiplicativity_residual(ctx.model, ctx.rng, 512)
    if residual is None:
        return 0.0, "no in-window products sampled"
    return residual


def _run_l1_linf_split(ctx: SuiteContext):
    f = _random_probe(ctx.model, ctx.rng)
    f = GFunction(ctx.model, 2.5 * f.values)
    bounded, tail = decompose_l1_linf(f)
    residual = float(np.max(np.abs(bounded.values + tail.values - f.values)))
    sup_violation = max(0.0, ess_sup(bounded) - 1.0)
    support_violation = float(np.max(
        np.where(np.abs(f.values) <= 1.0, np.abs(tail.values), 0.0)))
    return max(residual, sup_violation, support_violation)


def _run_holder(ctx: SuiteContext):
    f = _random_probe(ctx.model, ctx.rng)
    g = _random_probe(ctx.model, ctx.rng)
    lhs = abs(inner(f, g))
    return lhs - lp_norm(f, ctx.p) * lp_norm(g, ctx.p.q)


def _run_reflect_norm(ctx: SuiteContext):
    f = _random_probe(ctx.model, ctx.rng, positive=True)
    reflected = modular_reflect(f, ctx.p, max_leak=0.2)
    diff = abs(lp_norm(reflected, ctx.p) - lp_norm(f, ctx.p))
    scale = max(lp_norm(f, ctx.p), 1e-30)
    return diff / scale, f"||f~||_p vs ||f||_p, leak={reflected.leak:.2e}"


def _run_conv_cross_path(ctx: SuiteContext):
    f = _random_probe(ctx.model, ctx.rng)
    g = _random_probe(ctx.model, ctx.rng)
    direct = convolve(g, f, path="direct")
    fast = convolve(g, f)
    return lp_norm(direct - fast, 2) / max(lp_norm(direct, 2), 1e-30)


def _run_associativity(ctx: SuiteContext):
    f = _random_probe(ctx.model, ctx.rng)
    g = _random_probe(ctx.model, ctx.rng)
    h = _random_probe(ctx.model, ctx.rng)
    for func in (f, g, h):
        func.values /= max(lp_norm(func, 2), 1e-30)
    # the direct summation path, so that Dirac triples cancel exactly
    left = convolve(convolve(f, g, path="direct"), h, path="direct")
    right = convolve(f, convolve(g, h, path="direct"), path="direct")
    return lp_norm(left - right, 2)


def _run_young(ctx: SuiteContext):
    f = _random_probe(ctx.model, ctx.rng)
    g = _random_probe(ctx.model, ctx.rng)
    lhs = lp_norm(convolve(g, f), ctx.p)
    return lhs - lp_norm(g, ctx.p) * lp_norm(f, 1)


def _run_dirac_calculus(ctx: SuiteContext):
    # one f for every pair of points
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
    return worst


def _run_dirac_scaling(ctx: SuiteContext):
    model = ctx.model
    f = _random_probe(model, ctx.rng, positive=True)
    points = _scaling_points(model)
    family = [f] + [translate(f, x, RIGHT_DIRAC) for x in points]
    if isinstance(model.carrier, _AffineCarrier):
        # the upper ends: for positive f they are the true norms (the
        # positive-cone equality), whereas the window-section lower end
        # carries a compression deficit set by the window, which no step
        # refinement removes; exact routes make the two ends agree elsewhere
        den, *nums = [tempered_upper(g, ctx.p) for g in family]
    else:
        den, *nums = [est.lower for est in tempered_norms(family, ctx.p)]
    worst = 0.0
    details = []
    for x, num in zip(points, nums):
        ratio = num / den
        expected = point_modular(model, x) ** (-1.0 / ctx.p.q)
        worst = max(worst, abs(ratio - expected) / expected)
        details.append(f"{x}:{ratio:.6g}/{expected:.6g}")
    return worst, "ratio vs Delta(x)^(-1/q): " + " ".join(details)


def _run_dirac_identity_norm(ctx: SuiteContext):
    est = tempered_norm(dirac(ctx.model), ctx.p)
    worst = max(abs(est.lower - 1.0), abs(est.upper - 1.0))
    return worst, f"||delta_e||_p^T = 1 (method={est.method})"


def _probes(ctx: SuiteContext) -> list[GFunction]:
    """The probes of every draw of a batched runner, in draw order."""
    return [_random_probe(ctx.model, ctx.rng) for _ in range(ctx.draws)]


def _run_discrete_lower(ctx: SuiteContext):
    fs = _probes(ctx)
    return [lp_norm(f, ctx.p) - est.lower for f, est in zip(fs, tempered_norms(fs, ctx.p))]


def _upper_within(bound: Callable[[GFunction, Exponent], float]):
    """The runner of ||f||_p^T <= bound(f, p), read from the upper end."""
    def run(ctx: SuiteContext):
        f = _random_probe(ctx.model, ctx.rng)
        return tempered_upper(f, ctx.p) - bound(f, ctx.p)
    return run


def _run_finite_equivalence(ctx: SuiteContext):
    model = ctx.model
    growth = model.n ** (1.0 / ctx.p.q)
    c_lower, c_upper = (1.0, growth) if model.normalization == COUNTING else (growth, 1.0)
    fs = _probes(ctx)
    measured = []
    for f, est in zip(fs, tempered_norms(fs, ctx.p)):
        plain = lp_norm(f, ctx.p)
        measured.append(max(plain - c_lower * est.lower, est.upper - c_upper * plain))
    note = f"||f||_p <= {c_lower:g} ||f||_p^T and ||f||_p^T <= {c_upper:g} ||f||_p"
    return measured, note


def _run_l1_identity(ctx: SuiteContext):
    f = _random_probe(ctx.model, ctx.rng)
    est = tempered_norm(f, 1)
    scale = max(lp_norm(f, 1), 1e-30)
    return abs(est.lower - lp_norm(f, 1)) / scale


def _run_re_im(ctx: SuiteContext):
    # no Boyd iteration: the exact routes at p = 1 and 2, one convolution elsewhere
    f = _random_probe(ctx.model, ctx.rng)
    method = "auto" if ctx.p.p in (1.0, 2.0) else METHOD_WL1_BOUND
    parts = tempered_norms([real_part(f), imag_part(f)], ctx.p, method=method)
    return max(est.lower for est in parts) - tempered_upper(f, ctx.p)


def _run_submultiplicative(ctx: SuiteContext):
    f = _random_probe(ctx.model, ctx.rng)
    g = _random_probe(ctx.model, ctx.rng)
    upper = tempered_upper(f, ctx.p)
    lhs = lp_norm(convolve(g, f), ctx.p)
    return lhs - lp_norm(g, ctx.p) * upper


def _run_quasi_identity(ctx: SuiteContext):
    # U_n: the widest centred run of cells of Haar weight below 1/n, n = 1..16
    # up to the first n with none; ||1_U_n / |U_n| ||_p = |U_n|^(1/p - 1) > n^(1 - 1/p)
    model = ctx.model
    offsets = np.abs(model.carrier.coords[:, 0])
    runs = np.cumsum(np.bincount(offsets, weights=model.weights))  # weight of |k| <= m
    terms = []
    for n in range(1, 17):
        width = int(np.count_nonzero(runs < 1.0 / n))
        if width == 0:
            break
        terms.append(lp_norm(GFunction(model, (offsets < width) / runs[width - 1]), ctx.p))
    below = max(n ** (1.0 - 1.0 / ctx.p.p) - term for n, term in enumerate(terms, 1))
    drop = max(a - b for a, b in zip(terms, terms[1:]))
    return max(below, drop), (f"n=1..{len(terms)}: ||1_U_n / |U_n| ||_p >= n^(1-1/p) and "
                              f"non-decreasing, |U_n| < 1/n")


_POSITIVE_CONE_NOTE = "||f||_p^T = integral f Delta^(-1/q) for positive f"


def _run_positive_cone(ctx: SuiteContext):
    model = ctx.model
    # on the affine grid the window-section lower bound carries a
    # Folner-type deficit that grows with the support, so the equality is
    # asserted for concentrated data only
    affine = isinstance(model.carrier, _AffineCarrier)
    f = _random_probe(model, ctx.rng, positive=True, concentration=0.25 if affine else 0.45)
    norm, target = tempered_norm(f, ctx.p).lower, upper_bound_weighted_l1(f, ctx.p)
    if affine:
        return abs(norm - target), _POSITIVE_CONE_NOTE + \
            " (experimental: concentrated support, section deficit vs tolerance)"
    return abs(norm - target)


def _run_folner_certificate(ctx: SuiteContext):
    cert = ctx.built["Folner box"]
    return cert.worst_ratio, (f"L={cert.box_radius}, worst ratio {cert.worst_ratio:.6f} "
                              f"(recount matches closed form)")


def _run_folner_averaging(ctx: SuiteContext):
    # one certificate for every f
    cert = ctx.built["Folner box"]
    worst = 0.0
    for _ in range(6):
        f = _random_probe(ctx.model, ctx.rng, positive=True)
        lower, pairing, upper = averaging_inequality_check(f, cert, ctx.p)
        worst = max(worst, lower - pairing, pairing - upper)
    return worst


def _run_character_orthogonality(ctx: SuiteContext):
    # max |<chi_k, chi_l> - c delta_kl| with c forced by the normalization
    dual = ctx.built["dual"]
    weighted = dual.characters * dual.base.weights[None, :]
    gram = weighted @ np.conj(dual.characters.T)
    c = float(np.sum(dual.base.weights))
    return float(np.max(np.abs(gram - c * np.eye(dual.base.n))))


def _run_plancherel(ctx: SuiteContext):
    dual = ctx.built["dual"]
    f = _random_probe(ctx.model, ctx.rng)
    return abs(lp_norm(f, 2) - lp_norm(fourier(dual, f), 2))


def _run_roundtrip(ctx: SuiteContext):
    dual = ctx.built["dual"]
    f = _random_probe(ctx.model, ctx.rng)
    back = inverse_fourier(dual, fourier(dual, f))
    return float(np.max(np.abs(back.values - f.values)))


def _unit(f: GFunction) -> GFunction:
    return GFunction(f.group, f.values / max(lp_norm(f, 2), 1e-30))


def _product_rule(transform, f: GFunction, g: GFunction) -> float:
    """||T(fg) - T(f) * T(g)||_2 for the transform T of f and g, the
    convolution taken against the weights of T's side."""
    lhs = transform(GFunction(f.group, f.values * g.values))
    rhs = convolve(transform(f), transform(g))
    return lp_norm(GFunction(lhs.group, lhs.values - rhs.values), 2)


def _run_conv_theorem(ctx: SuiteContext):
    f = _unit(_random_probe(ctx.model, ctx.rng))
    g = _unit(_random_probe(ctx.model, ctx.rng))
    dual = ctx.built["dual"]
    lhs = fourier(dual, convolve(f, g))
    fg = fourier(dual, f).values * fourier(dual, g).values
    return lp_norm(GFunction(dual.dual_group, lhs.values - fg), 2)


def _run_product_theorem(ctx: SuiteContext):
    f = _unit(_random_probe(ctx.model, ctx.rng))
    g = _unit(_random_probe(ctx.model, ctx.rng))
    dual = ctx.built["dual"]
    return _product_rule(lambda h: fourier(dual, h), f, g)


def _run_parseval(ctx: SuiteContext):
    dual = ctx.built["dual"]
    f = _unit(_random_probe(ctx.model, ctx.rng))
    g_vals = ctx.rng.standard_normal(ctx.model.n) + 1j * ctx.rng.standard_normal(ctx.model.n)
    g = _unit(GFunction(dual.dual_group, g_vals))
    return abs(inner(f, inverse_fourier(dual, g)) - inner(fourier(dual, f), g))


def _run_inverse_product(ctx: SuiteContext):
    dual = ctx.built["dual"]
    vals = ctx.rng.standard_normal((2, ctx.model.n)) \
        + 1j * ctx.rng.standard_normal((2, ctx.model.n))
    f, g = (_unit(GFunction(dual.dual_group, v)) for v in vals)
    return _product_rule(lambda h: inverse_fourier(dual, h), f, g)


def _run_mult_operator(ctx: SuiteContext):
    f = _random_probe(ctx.model, ctx.rng)
    return abs(mult_operator_norm(f) - ess_sup(f))


def _run_spectral_agreement(ctx: SuiteContext):
    dual = ctx.built["dual"]
    f = _random_probe(ctx.model, ctx.rng)
    via_transform = tempered_norm_spectral(dual, f)
    return abs(via_transform - tempered_norm(f, 2, method="exact_svd").lower)


def _run_restricted_isometry(ctx: SuiteContext):
    f = _random_probe(ctx.model, ctx.rng)
    norm_f, sup_f, sup_fhat, norm_fhat = restricted_isometry_terms(ctx.built["dual"], f)
    # the identity and the two cross identities behind its sum
    return max(abs((norm_f + sup_f) - (sup_fhat + norm_fhat)),
               abs(norm_f - sup_fhat), abs(norm_fhat - sup_f))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

REGISTRY: list[CheckDef] = [
    CheckDef("identity-translation", "delta_e * f = f",
             ("convolution-definition",), _run_identity_translation,
             note="translation by the identity, both sides", tol=0.0),
    CheckDef("group-axioms", "associativity, identity, inverses on the carrier",
             ("convolution-definition",), _run_group_axioms,
             note="identity/inverse/associativity re-verified",
             needs=("leak-free probe",), tol=0.0),
    CheckDef("left-invariance", "||delta_x * f||_p = ||f||_p",
             ("lp-norm-invariance",), _run_left_invariance,
             note="||delta_x * f||_p == ||f||_p over sampled x", per_p=True,
             needs=("leak-free probe",), tol=1e-12),
    CheckDef("modular-consistency", "empirical Delta matches the stored closed form",
             ("modular-reflection",), _run_modular_consistency,
             note="real-line model is unimodular",
             needs=("modular estimate",), tol=1e-12, affine_tol=1e-2),
    CheckDef("modular-multiplicativity", "Delta(xy) = Delta(x) Delta(y)",
             ("modular-reflection",), _run_modular_multiplicativity,
             note="Delta(xy) = Delta(x) Delta(y) on sampled pairs",
             needs=("modular estimate",), tol=1e-12),
    CheckDef("l1-linf-split", "f = f chi_A + f chi_{G minus A}, A = {|f| <= 1}",
             ("l1-linf-decomposition",), _run_l1_linf_split,
             note="f = f chi_A + f chi_complement with A = {|f| <= 1}", tol=0.0),
    CheckDef("holder-pairing", "|<f, g>| <= ||f||_p ||g||_q",
             ("lp-norm-invariance",), _run_holder, draws=8, per_p=True, tol=1e-12,
             affine_tol=5e-2),
    CheckDef("reflect-norm-identity", "||Delta^(-1/p) f(. ^-1)||_p = ||f||_p",
             ("modular-reflection",), _run_reflect_norm, per_p=True,
             tol=1e-12, affine_tol=1e-2),
    CheckDef("conv-cross-path", "direct and spectral convolution agree",
             ("convolution-definition",), _run_conv_cross_path,
             note="direct vs spectral convolution, relative L2", draws=4,
             needs=("dual",), tol=1e-10),
    CheckDef("associativity", "(f*g)*h = f*(g*h)",
             ("convolution-definition",), _run_associativity,
             note="||(f*g)*h - f*(g*h)||_2 on normalized triples", draws=4,
             needs=("leak-free probe",), tol=1e-10),
    CheckDef("young-inequality", "||g*f||_p <= ||g||_p ||f||_1",
             ("unimodular-young-bound",), _run_young, draws=8, per_p=True,
             needs=(UNIMODULAR,), tol=1e-12),
    CheckDef("dirac-calculus", "delta translations and products",
             ("convolution-definition",), _run_dirac_calculus,
             note="delta_x * f is the left translation; delta_x * delta_y = delta_xy",
             needs=("leak-free probe",), tol=1e-12),
    CheckDef("dirac-scaling", "||f * delta_x||_p^T / ||f||_p^T = Delta(x)^(-1/q)",
             ("dirac-translation-scaling",), _run_dirac_scaling, per_p=True,
             needs=("probe room",), affine_tol=5e-2),
    CheckDef("dirac-identity-norm", "||delta_e||_p^T = 1",
             ("quasi-identity",), _run_dirac_identity_norm, per_p=True,
             needs=(DISCRETE, COUNTING)),
    CheckDef("discrete-lower-bound", "||f||_p <= ||f||_p^T",
             ("discrete-norm-domination",), _run_discrete_lower,
             note="||f||_p <= ||f||_p^T on counting models", draws=6, per_p=True,
             batched=True, needs=(DISCRETE, COUNTING)),
    CheckDef("compact-upper-bound", "||f||_p^T <= ||f||_p",
             ("compact-norm-domination",), _upper_within(lp_norm),
             note="||f||_p^T <= ||f||_p on probability models", draws=6, per_p=True,
             needs=(COMPACT, PROBABILITY)),
    CheckDef("finite-norm-equivalence", "two-sided norm equivalence with explicit constants",
             ("finite-norm-equivalence",), _run_finite_equivalence, draws=6, per_p=True,
             batched=True, needs=(FINITE,)),
    CheckDef("l1-identity", "||f||_1^T = ||f||_1",
             ("p1-norm-identity",), _run_l1_identity, note="||f||_1^T = ||f||_1 (relative)",
             draws=6, tol=1e-12, affine_tol=5e-2),
    CheckDef("l1-inclusion-discrete", "||f||_p^T <= ||f||_1 on discrete models",
             ("l1-inclusion-discrete",), _upper_within(lambda f, p: lp_norm(f, 1)),
             note="||f||_p^T <= ||f||_1 on discrete counting models", draws=6, per_p=True,
             needs=(DISCRETE, COUNTING)),
    CheckDef("weighted-l1-upper", "||f||_p^T <= integral |f| Delta^(-1/q)",
             ("weighted-l1-domination", "tempered-norm-definition"),
             _upper_within(upper_bound_weighted_l1),
             note="tempered upper bound <= integral |f| Delta^(-1/q)", draws=8, per_p=True),
    CheckDef("re-im-closure", "||Re f||_p^T <= 2 ||f||_p^T, same for Im",
             ("re-im-closure",), _run_re_im,
             note="lower(Re f), lower(Im f) <= upper(f): factor 1, as ||conj f||_p^T = ||f||_p^T",
             draws=12, per_p=True, needs=("leak-free probe",)),
    CheckDef("submultiplicative-action", "||g*f||_p <= ||g||_p ||f||_p^T",
             ("tempered-norm-definition",), _run_submultiplicative, draws=6, per_p=True,
             needs=("leak-free probe",)),
    CheckDef("quasi-identity-blowup", "lower bounds n^(1-1/p) rule out a quasi identity",
             ("quasi-identity",), _run_quasi_identity, per_p=True,
             needs=(REAL_LINE, "runs U_1 and U_2"), tol=1e-12),
    CheckDef("positive-cone-equality", "||f||_p^T = integral f Delta^(-1/q) for f >= 0",
             ("positive-cone-characterization",), _run_positive_cone,
             note=_POSITIVE_CONE_NOTE, draws=8, per_p=True, needs=("exact route",),
             tol=1e-6, affine_tol=5e-2),
    CheckDef("folner-certificate", "|xK n K| / |K| > 1 - eps for a box K",
             ("positive-cone-characterization",), _run_folner_certificate,
             needs=("Folner box",), tol=0.0, expected=(0.9, 1.0)),
    CheckDef("folner-averaging",
             "(1-eps) int_C f~ <= <f~*g, h> <= ||g||_p ||f||_p^T ||h||_q",
             ("positive-cone-characterization",), _run_folner_averaging,
             note="averaging chain violation over random positive f", per_p=True,
             needs=("Folner box",)),
    CheckDef("character-orthogonality", "character rows are orthogonal",
             ("restricted-transform-isometry",), _run_character_orthogonality,
             note="sum_j w_j chi_k chi_l-bar = c delta_kl", needs=(ABELIAN, "dual"), tol=1e-12),
    CheckDef("plancherel-norm", "||f||_2 = ||fhat||_2",
             ("restricted-transform-isometry",), _run_plancherel, draws=8,
             needs=(ABELIAN, "dual"), tol=1e-12),
    CheckDef("fourier-roundtrip", "inverse transform inverts the transform",
             ("restricted-transform-isometry",), _run_roundtrip,
             note="inverse transform of the transform returns f", draws=8,
             needs=(ABELIAN, "dual"), tol=1e-12),
    CheckDef("conv-theorem", "(f*g)^ = fhat ghat",
             ("transform-of-convolution",), _run_conv_theorem, draws=6,
             needs=(ABELIAN, "dual"), tol=1e-10),
    CheckDef("product-theorem", "(fg)^ = fhat * ghat",
             ("transform-of-product",), _run_product_theorem, draws=6,
             needs=(ABELIAN, "dual"), tol=1e-10),
    CheckDef("parseval-pairing", "<f, g-check> = <fhat, g>",
             ("parseval-duality",), _run_parseval, draws=6, needs=(ABELIAN, "dual"),
             tol=1e-10),
    CheckDef("inverse-product", "(fg)-check = f-check * g-check",
             ("inverse-transform-product",), _run_inverse_product, draws=6,
             needs=(ABELIAN, "dual"), tol=1e-10),
    CheckDef("mult-operator-norm", "||M_f|| = ||f||_inf",
             ("multiplication-operator-norm",), _run_mult_operator,
             note="||M_f|| = ||f||_inf with an attaining witness", draws=8, tol=1e-12),
    CheckDef("spectral-svd-agreement", "max |fhat| equals the exact operator norm",
             ("transform-sup-equals-tempered",), _run_spectral_agreement,
             note="max |fhat| vs largest singular value of the weighted operator", draws=8,
             needs=(ABELIAN, "dual")),
    CheckDef("restricted-isometry",
             "||f||_2^T + ||f||_inf = ||fhat||_inf + ||fhat||_2^T",
             ("restricted-transform-isometry",), _run_restricted_isometry,
             note="||f||_2^T + ||f||_inf = ||fhat||_inf + ||fhat||_2^T (and cross identities)",
             draws=8, needs=(ABELIAN, "dual")),
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
    unknown = {need for c in REGISTRY for need in c.needs} - PROPERTIES - set(_BUILDS)
    if unknown:
        raise LtpError(f"suite registry needs names neither property nor build: {unknown}")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _task_name(check: CheckDef, p: float | None) -> str:
    if p is None:
        return check.name
    return f"{check.name}@p={p:g}"


def _execute_check(check: CheckDef, model: GroupModel, p: float | None,
                   seed: int, overrides: dict, timings: bool) -> CheckResult:
    """Run the check's draws and judge the worst of them, a NaN included,
    against its expected value within its tolerance or the override."""
    name = _task_name(check, p)
    exp = None if p is None else Exponent.of(p)
    tol = float(overrides.get(check.name, check.tolerance_for(model)))
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    ctx = SuiteContext(model=model, p=exp, rng=rng, draws=check.draws)
    started = time.perf_counter()
    try:
        reason = _unmet(check, ctx)
        if reason is not None:
            return CheckResult.skip(name, check.ref, reason)
        worst, notes = 0.0, check.note or check.ref
        for _ in range(1 if check.batched else check.draws):
            measured = check.runner(ctx)
            if isinstance(measured, tuple):
                measured, notes = measured
            worst = np.maximum(worst, np.max(measured))
        result = CheckResult.build(name, check.ref, observed=float(worst),
                                   expected=check.expected, tolerance=tol, notes=notes)
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

    ``tol_overrides`` maps check names (without the @p suffix) to finite
    tolerances >= 0; any other key or value raises ``DomainError`` before a
    check runs.  An exponent outside [1, inf) raises ``DomainError`` before a
    check runs too.  An empty ``p_list``, or one naming an exponent twice (2
    and 2.0 alike), raises ``DomainError``: each check name appears once in a
    report.  A ``seed`` that is not an integer >= 0 raises ``DomainError``,
    and a ``model`` that is not the group ``spec`` describes raises
    ``ModelMismatchError``.
    """
    registry_self_test()
    names = {check.name for check in REGISTRY}
    overrides = {}
    for name, value in (tol_overrides or {}).items():
        if name not in names:
            raise DomainError(f"tolerance override {name!r} names no check"
                              " (name a check without the @p suffix)")
        overrides[name] = float(value)
        if not (math.isfinite(overrides[name]) and overrides[name] >= 0.0):
            raise DomainError(f"tolerance override {name}={value!r} is not a finite value >= 0")
    p_values = [Exponent.of(p).p for p in p_list]
    if not p_values:
        raise DomainError("run_suite needs at least one exponent")
    if len(set(p_values)) < len(p_values):
        raise DomainError(f"run_suite got a repeated exponent in {p_values}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DomainError(f"run_suite needs an integer seed >= 0, got {seed}")
    if model is None:
        model = build_group(spec)
    elif (parse_group_spec(spec) if isinstance(spec, str) else spec) != model.spec:
        raise ModelMismatchError(f"model {model.spec.text!r} is not the group of spec {spec!r}")
    results = [_execute_check(check, model, p, seed, overrides, timings)
               for check in REGISTRY
               for p in (p_values if check.per_p else [None])]
    return SuiteReport(version=__version__, spec=model.spec.text, seed=int(seed),
                       checks=results)
