"""Functions on group models: Lp norms and the elementary transforms
(reflection, modular reflection, real/imaginary/positive parts, L1 + Linf
splitting), plus Dirac translations and the empirical modular estimate.

On every model reflection, both Dirac translations and the modular
estimate are one pull-back, :func:`_pull`: each states its maps with the
carrier's ``law`` / ``law_inverse`` on the carrier's points, reads f there
with ``carrier.read`` and reports the share of mass it pushes
``carrier.outside`` the window.

Norms accumulate through numpy's pairwise summation, which keeps the tight
tolerances used by the verification suites meaningful on carriers up to
2^20 cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WindowLeakError
from .groups import OUT_OF_WINDOW, UNIMODULAR, GroupModel, _AffineCarrier, _LatticeCarrier

DEFAULT_MAX_LEAK = 1e-6


# ---------------------------------------------------------------------------
# Exponents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponent:
    """A Lebesgue exponent p in [1, inf); its conjugate q, 1/p + 1/q = 1, is
    derived from p.

    q is math.inf when p == 1, and formulas in q hold there as written:
    IEEE arithmetic gives 1/q = 0 and Delta^(-1/q) = 1.
    """

    p: float

    @classmethod
    def of(cls, p) -> "Exponent":
        return p if isinstance(p, Exponent) else cls(float(p))

    def __post_init__(self):
        if not (self.p >= 1.0 and math.isfinite(self.p)):
            raise DomainError(f"exponent p must lie in [1, inf), got {self.p}")

    @property
    def q(self) -> float:
        return math.inf if self.p == 1.0 else self.p / (self.p - 1.0)


# ---------------------------------------------------------------------------
# GFunction
# ---------------------------------------------------------------------------


@dataclass
class GFunction:
    """A complex-valued function on a group model.

    ``leak`` records the fraction of mass dropped at the truncation boundary
    by the operation that produced this function (0 for exact operations).
    """

    group: GroupModel
    values: np.ndarray
    leak: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (self.group.n,):
            raise DomainError(
                f"values have shape {values.shape}, expected ({self.group.n},)")
        if not np.all(np.isfinite(values.view(np.float64))):
            raise DomainError("values must be finite (no NaN/Inf)")
        self.values = values

    def copy(self) -> "GFunction":
        return GFunction(self.group, self.values.copy(), self.leak)

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0.0))

    def __add__(self, other: "GFunction") -> "GFunction":
        self.group.require_same(other.group)
        return GFunction(self.group, self.values + other.values)

    def __sub__(self, other: "GFunction") -> "GFunction":
        self.group.require_same(other.group)
        return GFunction(self.group, self.values - other.values)

    def __mul__(self, scalar) -> "GFunction":
        return GFunction(self.group, self.values * scalar)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# Norms and pairings
# ---------------------------------------------------------------------------


def lp_norm(f: GFunction, p) -> float:
    """(sum_i w_i |f_i|^p)^(1/p), and at p = inf the sup (``ess_sup``), so
    that a conjugate norm ``lp_norm(g, exp.q)`` holds at p = 1 as written."""
    if isinstance(p, float) and math.isinf(p):
        return ess_sup(f)
    exp = Exponent.of(p)
    absf = np.abs(f.values)
    if exp.p == 1.0:
        return float(np.sum(f.group.weights * absf))
    if exp.p == 2.0:
        return float(math.sqrt(np.sum(f.group.weights * absf * absf)))
    return float(np.sum(f.group.weights * absf ** exp.p) ** (1.0 / exp.p))


def ess_sup(f: GFunction) -> float:
    """Essential supremum: max |f|, as every Haar weight is positive."""
    return float(np.max(np.abs(f.values)))


def inner(f: GFunction, g: GFunction) -> complex:
    """Haar pairing sum_i w_i f_i conj(g_i)."""
    f.group.require_same(g.group)
    return complex(np.sum(f.group.weights * f.values * np.conj(g.values)))


# ---------------------------------------------------------------------------
# Elementary transforms
# ---------------------------------------------------------------------------


def decompose_l1_linf(f: GFunction) -> tuple[GFunction, GFunction]:
    """Split f = f*chi_A + f*chi_{complement} with A = {|f| <= 1}.

    The first part has ess-sup at most 1; the parts sum to f bit-exactly.
    """
    small = np.abs(f.values) <= 1.0
    bounded = np.where(small, f.values, 0.0)
    integrable = np.where(small, 0.0, f.values)
    return GFunction(f.group, bounded), GFunction(f.group, integrable)


def reflect(f: GFunction, max_leak: float = DEFAULT_MAX_LEAK) -> GFunction:
    """The reflection x -> f(x^{-1})."""
    carrier = f.group.carrier
    inverse = carrier.law_inverse(carrier.points(np.arange(f.group.n)))
    return _pull(f, inverse, inverse, 1.0, "inversion", max_leak)


def modular_reflect(f: GFunction, p, max_leak: float = DEFAULT_MAX_LEAK) -> GFunction:
    """Delta(x)^(-1/p) * f(x^{-1}); coincides with reflect on unimodular models."""
    exp = Exponent.of(p)
    reflected = reflect(f, max_leak=max_leak)
    factor = f.group.modular ** (-1.0 / exp.p)
    return GFunction(f.group, factor * reflected.values, reflected.leak)


def real_part(f: GFunction) -> GFunction:
    return GFunction(f.group, f.values.real.astype(np.complex128))


def imag_part(f: GFunction) -> GFunction:
    return GFunction(f.group, f.values.imag.astype(np.complex128))


def _require_real(f: GFunction):
    if not f.is_real:
        raise DomainError("positive/negative parts need a real-valued function")


def positive_part(f: GFunction) -> GFunction:
    _require_real(f)
    return GFunction(f.group, np.maximum(f.values.real, 0.0))


def negative_part(f: GFunction) -> GFunction:
    _require_real(f)
    return GFunction(f.group, np.maximum(-f.values.real, 0.0))


# ---------------------------------------------------------------------------
# Dirac translations
# ---------------------------------------------------------------------------

LEFT_DIRAC = "left_dirac"
RIGHT_DIRAC = "right_dirac"


def _pull(f: GFunction, at, push, scale, what: str, max_leak: float) -> GFunction:
    """The transport t -> scale * f(at(t)).

    ``at`` holds, per cell t, the carrier point where the result reads f,
    evaluated by ``carrier.read``; ``push`` holds, per cell s, the point
    where f's mass at s lands (the inverse of the ``at`` map).  The
    result's ``leak`` is the share of f's weighted mass that ``push`` sends
    ``carrier.outside`` the window; above ``max_leak`` this raises
    :class:`WindowLeakError`.
    """
    carrier = f.group.carrier
    mass = f.group.weights * np.abs(f.values)
    total = float(np.sum(mass))
    leak = float(np.sum(mass[carrier.outside(push)])) / total if total else 0.0
    if leak > max_leak:
        raise WindowLeakError(
            f"{what} leaks {leak:.3e} of the mass out of the window", leak)
    return GFunction(f.group, scale * carrier.read(f.values, at), leak)


def _cell(model: GroupModel, i) -> int:
    """The cell index i, checked against the model: numpy would read a
    negative index from the end, int() truncates a fractional one, and
    float() overflows on an int past the float range."""
    if not isinstance(i, (int, np.integer)) and not float(i).is_integer():
        raise DomainError(f"index {i} is not an integer")
    i = int(i)
    if not 0 <= i < model.n:
        raise DomainError(f"index {i} out of range for n={model.n}")
    return i


def _point(model: GroupModel, x):
    """The carrier point of x, given as an index, integer lattice coordinates
    (in cells, one per axis; also on r:H:B), or, on the affine model, an
    (a, b) pair of finite numbers with a > 0 (exact, maybe off-grid)."""
    carrier = model.carrier
    if isinstance(x, (int, np.integer)):
        return carrier.points(_cell(model, x))
    if isinstance(x, (tuple, list)) and isinstance(carrier, _AffineCarrier):
        a, b = (float(x[0]), float(x[1])) if len(x) == 2 else (math.nan, math.nan)
        if not (a > 0 and math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"affine point {x} needs two finite numbers (a, b) with a > 0")
        return math.log(a), b
    if isinstance(x, (tuple, list)) and isinstance(carrier, _LatticeCarrier):
        coords = np.asarray(x, dtype=np.float64)
        if coords.shape != (carrier.dim,) or np.any(coords != np.round(coords)):
            raise DomainError(f"lattice point {x} needs one integer coordinate per axis "
                              f"({carrier.dim} axes)")
        idx = carrier.from_coords(coords)
        if idx == OUT_OF_WINDOW:
            raise DomainError(f"lattice point {x} lies outside the window")
        return carrier.points(int(idx))
    raise DomainError(f"cannot interpret {x!r} as a point of {model.name}")


def point_modular(model: GroupModel, x) -> float:
    """Delta at a point: e^{-u} at an affine point (u, b), the stored value
    at a cell of every other model."""
    point = _point(model, x)
    if isinstance(model.carrier, _AffineCarrier):
        return math.exp(-point[0])
    return float(model.modular[point])


def translate(f: GFunction, x, side: str = LEFT_DIRAC,
              max_leak: float = DEFAULT_MAX_LEAK) -> GFunction:
    """Dirac translation of f by the point x.

    * ``left_dirac``: delta_x * f, i.e. t -> f(x^{-1} t)
    * ``right_dirac``: f * delta_x, i.e. t -> Delta(x)^{-1} f(t x^{-1})

    Quadrature models evaluate off-grid arguments by interpolation (exact in
    the u coordinate for on-grid x).  Raises :class:`WindowLeakError` when
    more than ``max_leak`` of the mass leaves the window.
    """
    if side not in (LEFT_DIRAC, RIGHT_DIRAC):
        raise DomainError(f"side must be left_dirac or right_dirac, got {side!r}")
    model = f.group
    carrier = model.carrier
    x_point = _point(model, x)
    x_inverse = carrier.law_inverse(x_point)
    t = carrier.points(np.arange(model.n))
    if side == LEFT_DIRAC:  # f(x^{-1} t); f's mass at t moves to x t
        at = carrier.law(x_inverse, t)
        push = carrier.law(x_point, t)
        scale = 1.0
    else:  # Delta(x)^{-1} f(t x^{-1}); f's mass at t moves to t x
        at = carrier.law(t, x_inverse)
        push = carrier.law(t, x_point)
        scale = 1.0 / point_modular(model, x)
    return _pull(f, at, push, scale, "translation", max_leak)


# ---------------------------------------------------------------------------
# Empirical modular estimate
# ---------------------------------------------------------------------------


def _affine_bump_probe(carrier: _AffineCarrier, scale: float = 0.45) -> np.ndarray:
    """Smooth probe (cos^2 bump) supported on the inner ``scale`` of the window."""
    r_u = scale * carrier.u_values[-1]
    r_b = scale * carrier.b_values[-1]
    u = carrier.coords[:, 0]
    b = carrier.coords[:, 1]
    fu = np.where(np.abs(u) < r_u, np.cos(0.5 * np.pi * u / r_u) ** 2, 0.0)
    fb = np.where(np.abs(b) < r_b, np.cos(0.5 * np.pi * b / r_b) ** 2, 0.0)
    return fu * fb


def estimate_modular(model: GroupModel, x, probe: GFunction | None = None,
                     max_leak: float = DEFAULT_MAX_LEAK) -> float:
    """Estimate Delta(x) as (sum w probe) / (sum w probe(. x)).

    Unimodular models (finite, lattice and real-line) return exactly 1.0.
    On the affine grid the probe must be supported well inside the window;
    :class:`WindowLeakError` is raised when the translated support drops
    more than ``max_leak`` of its mass.
    """
    if probe is not None:
        model.require_same(probe.group)
    x_point = _point(model, x)
    if UNIMODULAR in model.properties:
        return 1.0

    carrier = model.carrier
    if probe is None:
        probe = GFunction(model, _affine_bump_probe(carrier))
    t = carrier.points(np.arange(model.n))
    # probe(t x); the probe's mass at t moves to t x^{-1}, which must stay
    # representable for the cell to contribute
    shifted = _pull(probe, carrier.law(t, x_point),
                    carrier.law(t, carrier.law_inverse(x_point)),
                    1.0, "probe support", max_leak).values
    num = float(np.sum(model.weights * probe.values.real))
    den = float(np.sum(model.weights * shifted.real))
    if den <= 0.0:
        raise WindowLeakError("translated probe has no mass left in the window", 1.0)
    return num / den


# ---------------------------------------------------------------------------
# Named generators (shared by the CLI and the suites)
# ---------------------------------------------------------------------------


def dirac(model: GroupModel, x: int | None = None) -> GFunction:
    """Indicator of a single cell (the identity by default)."""
    values = np.zeros(model.n)
    values[model.identity if x is None else _cell(model, x)] = 1.0
    return GFunction(model, values)


def dirac_measure(model: GroupModel, x: int | None = None) -> GFunction:
    """Unit point mass as a density: indicator / cell weight, so that
    convolving with it reproduces the Dirac translation."""
    i = model.identity if x is None else _cell(model, x)
    values = np.zeros(model.n)
    values[i] = 1.0 / model.weights[i]
    return GFunction(model, values)


def _axis_distances(model: GroupModel, what: str) -> np.ndarray:
    """Distance of each cell to the identity along each coordinate axis, or
    along each declared cyclic factor; shape (axes, n)."""
    coords = model.coords()
    if coords is not None:
        return np.abs(coords).T
    factors = model.cyclic_factors
    if factors is None:
        raise DomainError(f"{what} generator needs coordinates or cyclic factors, "
                          f"not available on {model.name}")
    digits = np.array(np.unravel_index(np.arange(model.n), factors))
    return np.minimum(digits, np.array(factors)[:, None] - digits).astype(np.float64)


def box_function(model: GroupModel, radius: float) -> GFunction:
    """Indicator of a coordinate box of the given radius around the identity;
    radius 0 is the identity cell, a negative or NaN one a DomainError."""
    if not radius >= 0:
        raise DomainError(f"box radius must be at least 0, got {radius!r}")
    inside = np.all(_axis_distances(model, "box") <= radius, axis=0)
    return GFunction(model, inside.astype(np.float64))


def gauss_function(model: GroupModel, sigma: float) -> GFunction:
    """exp(-d^2 / (2 sigma^2)) with d the coordinate distance to the identity."""
    if not sigma > 0:
        raise DomainError(f"gauss width must be positive, got {sigma!r}")
    d2 = np.sum(_axis_distances(model, "gauss") ** 2, axis=0)
    return GFunction(model, np.exp(-0.5 * d2 / sigma ** 2))


def random_function(model: GroupModel, seed, *, complex_valued: bool = True,
                    positive: bool = False, support_radius: float | None = None) -> GFunction:
    """Seeded random test function; optionally positive and box-supported.
    A seed that is not a generator or an integer >= 0, or a negative or NaN
    support radius, is a DomainError."""
    if not (isinstance(seed, np.random.Generator)
            or isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DomainError(f"random function needs a generator or an integer seed >= 0, "
                          f"got {seed}")
    rng = np.random.default_rng(seed)  # a generator is returned as it is
    if positive:
        values = np.abs(rng.standard_normal(model.n)).astype(np.complex128)
    elif complex_valued:
        values = rng.standard_normal(model.n) + 1j * rng.standard_normal(model.n)
    else:
        values = rng.standard_normal(model.n).astype(np.complex128)
    if support_radius is not None:
        mask = box_function(model, support_radius).values.real
        values = values * mask
    return GFunction(model, values)
