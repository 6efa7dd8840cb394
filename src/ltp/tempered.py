"""Certified computation of the tempered norm: the p -> p operator norm of
the right-convolution map g -> g * f in Haar-weighted Lp.

Routes:

* p = 1: exact weighted column supremum of the operator (attained by a
  single-cell witness); equals ||f||_1 on unimodular models.
* p = 2, finite abelian: max |fhat| over the character table (the operator
  is normal with the transform values as eigenvalues).
* p = 2, translation-invariant lattices (truncated Z, Z^2, and the real-line
  grid): supremum of the symbol over the dual torus, located by a padded FFT
  scan plus Newton polish.  For window-supported data this is the operator
  norm on the full (untruncated) lattice, which is what the truncated model
  stands for; the window-section SVD is available explicitly and is a lower
  bound of it.
* p = 2, general (nonabelian finite, affine quadrature): largest singular
  value of the weighted similarity D^{1/2} M D^{-1/2} (dense SVD, or a
  deterministic Lanczos iteration above 1024 cells).
* other p: a signed-power iteration alternating the operator with dual
  exponent maps.  The best attained ratio over seeded restarts is reported
  as a certified lower bound; the weighted-L1 value is the upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import DomainError, GridTooCoarse, LtpError, ResourceError
from .groups import (KIND_FINITE, KIND_QUADRATURE, GroupModel,
                     _AffineCarrier, _LatticeCarrier)
from .convolve import DENSE_CAP, _kernel_blocks, conv_operator, convolve
from .space import (Exponent, GFunction, lp_norm, point_modular, translate,
                    weighted_l1_norm, RIGHT_DIRAC)

_SVD_DENSE_CAP = 1024
_POLISH_RTOL = 4.0 * np.finfo(np.float64).eps

METHOD_EXACT_SVD = "exact_svd"
METHOD_SPECTRAL = "spectral_abelian"
METHOD_EXACT_L1 = "exact_l1"
METHOD_BOYD = "boyd_iteration"
METHOD_WL1_BOUND = "bound_weighted_l1"


@dataclass(frozen=True)
class IterConfig:
    """Settings for the general-p power iteration."""

    tol: float = 1e-8
    max_iters: int = 500
    restarts: int = 8
    seed: int = 0


@dataclass
class NormEstimate:
    """Certified bounds for a tempered norm.

    ``lower`` is always an attained (or exactly computed) value;
    ``upper`` is never below the true norm.  ``witness``, when present, is
    a g whose Rayleigh ratio ||g*f||_p / ||g||_p meets the lower bound.
    """

    lower: float
    upper: float
    method: str
    iterations: int = 0
    converged: bool = True
    witness: GFunction | None = None

    def __post_init__(self):
        if self.lower > self.upper * (1.0 + 1e-9) + 1e-300:
            raise LtpError(
                f"norm bounds crossed: lower={self.lower!r} > upper={self.upper!r}")

    @property
    def value(self) -> float:
        """Best point estimate (the certified lower bound)."""
        return self.lower


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def upper_bound_weighted_l1(f: GFunction, p) -> float:
    """The weighted-L1 upper bound: integral of |f| Delta^{-1/q}.

    Never below the tempered norm, on every model.
    """
    return weighted_l1_norm(f, Exponent.of(p))


def tempered_norm(f: GFunction, p, cfg: IterConfig | None = None,
                  method: str = "auto") -> NormEstimate:
    """Compute or bound the tempered norm of f for the exponent p."""
    exp = Exponent.of(p)
    model = f.group
    if f.is_zero:
        return NormEstimate(0.0, 0.0, _resolve_method(model, exp, method))

    resolved = _resolve_method(model, exp, method)
    if resolved == METHOD_EXACT_L1:
        return _exact_l1(f)
    if resolved == METHOD_SPECTRAL:
        if model.kind == KIND_FINITE:
            return _spectral_finite_abelian(f)
        return _symbol_supremum(f)
    if resolved == METHOD_EXACT_SVD:
        return _exact_svd(f)
    if resolved == METHOD_WL1_BOUND:
        return _wl1_bound(f, exp)
    return _boyd(f, exp, cfg or IterConfig())


def _resolve_method(model: GroupModel, exp: Exponent, method: str) -> str:
    if method not in ("auto", METHOD_EXACT_SVD, METHOD_SPECTRAL, METHOD_EXACT_L1,
                      METHOD_BOYD, METHOD_WL1_BOUND):
        raise DomainError(f"unknown tempered-norm method {method!r}")
    if method == METHOD_EXACT_L1 and exp.p != 1.0:
        raise DomainError("exact_l1 applies to p = 1 only")
    if method in (METHOD_EXACT_SVD, METHOD_SPECTRAL) and exp.p != 2.0:
        raise DomainError(f"{method} applies to p = 2 only")
    if method == METHOD_SPECTRAL and not _has_spectral_route(model):
        raise DomainError(f"no spectral route on {model.name}")
    if method != "auto":
        return method
    if exp.p == 1.0:
        return METHOD_EXACT_L1
    if exp.p == 2.0:
        if _has_spectral_route(model):
            return METHOD_SPECTRAL
        return METHOD_EXACT_SVD
    return METHOD_BOYD


def _has_spectral_route(model: GroupModel) -> bool:
    if model.kind == KIND_FINITE and model.cyclic_factors is not None:
        return True
    # constant-weight translation-invariant lattice (truncated Z/Z^2 and the
    # real-line grid): the symbol supremum is exact for window-supported data
    return isinstance(model.carrier, _LatticeCarrier)


# ---------------------------------------------------------------------------
# p = 1: exact column supremum
# ---------------------------------------------------------------------------


def _exact_l1(f: GFunction) -> NormEstimate:
    model = f.group
    n = model.n
    if n > DENSE_CAP:
        raise ResourceError(f"exact l1 route needs n <= {DENSE_CAP}")
    w = model.weights
    values = f.values.real if f.is_real else f.values  # real arithmetic, as in matrix()
    col = np.empty(n)
    for start, stop, block in _kernel_blocks(model, values):
        col[start:stop] = w @ np.abs(block)  # sum_x |M[x, y]| / w_y
    best = int(np.argmax(col))
    lower = float(col[best])
    upper = weighted_l1_norm(f, math.inf)
    witness = np.zeros(n)
    witness[best] = 1.0
    return NormEstimate(lower, max(lower, upper), METHOD_EXACT_L1,
                        witness=GFunction(model, witness))


# ---------------------------------------------------------------------------
# p = 2 on finite abelian models: transform maximum
# ---------------------------------------------------------------------------


def _finite_transform(f: GFunction) -> np.ndarray:
    factors = f.group.cyclic_factors
    w0 = float(f.group.weights[0])
    return w0 * np.fft.fftn(f.values.reshape(factors)).reshape(-1)


def _spectral_finite_abelian(f: GFunction) -> NormEstimate:
    model = f.group
    fhat = _finite_transform(f)
    k = int(np.argmax(np.abs(fhat)))
    value = float(np.abs(fhat[k]))
    witness = GFunction(model, _character_vector(model, k))
    return NormEstimate(value, value, METHOD_SPECTRAL, witness=witness)


def _character_vector(model: GroupModel, k: int) -> np.ndarray:
    """chi_k as a vector over the carrier, mixed-radix character index k."""
    factors = model.cyclic_factors
    chi = np.ones(1, dtype=np.complex128)
    remaining = k
    total = int(np.prod(factors))
    for size in factors:
        total //= size
        digit = remaining // total
        remaining %= total
        j = np.arange(size)
        part = np.exp(2j * np.pi * ((digit * j) % size) / size)
        chi = np.kron(chi, part)
    return chi


# ---------------------------------------------------------------------------
# p = 2 on translation-invariant lattices: dual-torus symbol supremum
# ---------------------------------------------------------------------------


def _symbol_supremum(f: GFunction) -> NormEstimate:
    model = f.group
    carrier: _LatticeCarrier = model.carrier
    w0 = float(model.weights[0])
    support = np.nonzero(f.values)[0]
    coords = carrier.to_coords(support).astype(np.float64)
    if coords.ndim == 1:
        coords = coords[:, None]
    vals = f.values[support]
    dim = carrier.dim

    pad = 4096 if dim == 1 else 512
    while pad < 4 * carrier.side:
        pad *= 2
    grid = np.zeros((pad,) * dim, dtype=np.complex128)
    cells = tuple((coords[:, a].astype(np.int64) % pad) for a in range(dim))
    np.add.at(grid, cells, vals)
    samples = np.fft.fftn(grid)
    mags = np.abs(samples).reshape(-1)

    order = np.argsort(mags)[::-1][:8]
    best = 0.0
    two_pi = 2.0 * math.pi
    for flat in order:
        pos = np.unravel_index(int(flat), (pad,) * dim)
        theta0 = np.array([two_pi * m / pad for m in pos])
        best = max(best, _polish_symbol(coords, vals, theta0, two_pi / pad))
    return NormEstimate(w0 * best, w0 * best, METHOD_SPECTRAL)


def _symbol_eval(coords, vals, theta):
    phase = np.exp(-1j * (coords @ theta))
    s = np.sum(vals * phase)
    ds = np.sum(vals[:, None] * (-1j * coords) * phase[:, None], axis=0)
    d2 = -(coords[:, :, None] * coords[:, None, :])
    d2s = np.sum(vals[:, None, None] * d2 * phase[:, None, None], axis=0)
    m = float(np.abs(s) ** 2)
    grad = 2.0 * np.real(np.conj(s) * ds)
    hess = 2.0 * np.real(np.conj(ds)[:, None] * ds[None, :] + np.conj(s) * d2s)
    return m, grad, hess


def _polish_symbol(coords, vals, theta0, bin_width) -> float:
    """Maximize |sum f_k exp(-i k.theta)|^2 by safeguarded Newton ascent.

    A step is taken only on a strict gain, and the ascent ends once a gain
    is within rounding of m (4 eps m): beyond that, steps only walk along
    the flat top of the peak.
    """
    theta = np.asarray(theta0, dtype=np.float64)
    m, grad, hess = _symbol_eval(coords, vals, theta)
    for _ in range(60):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= 1e-13 * max(1.0, m):
            break
        step = None
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = None
        if step is None or np.linalg.norm(step) > 2.0 * bin_width or np.dot(step, grad) <= 0:
            step = grad * (bin_width / gnorm)
        for _ in range(30):
            m2, g2, h2 = _symbol_eval(coords, vals, theta + step)
            if m2 > m:
                break
            step = 0.5 * step
        else:
            break
        gain = m2 - m
        theta = theta + step
        m, grad, hess = m2, g2, h2
        if gain <= _POLISH_RTOL * m:
            break
    return math.sqrt(m)


# ---------------------------------------------------------------------------
# p = 2 general: singular values of the weighted similarity
# ---------------------------------------------------------------------------


def _exact_svd(f: GFunction) -> NormEstimate:
    model = f.group
    n = model.n
    if n > DENSE_CAP:
        raise ResourceError(f"exact p=2 route needs n <= {DENSE_CAP}")
    mat = conv_operator(f).weighted_matrix(2)
    scale_back = model.weights ** (-0.5)
    if n <= _SVD_DENSE_CAP:
        _, s, vh = np.linalg.svd(mat)
        sigma = float(s[0])
        witness_vec = np.conj(vh[0])
    else:
        def matvec(v):
            return mat.conj().T @ (mat @ v)

        op = LinearOperator((n, n), matvec=matvec, dtype=mat.dtype)
        v0 = np.full(n, 1.0 / math.sqrt(n))
        lam, vec = eigsh(op, k=1, which="LA", v0=v0, tol=0)
        sigma = float(math.sqrt(max(float(lam[0]), 0.0)))
        witness_vec = vec[:, 0]
    witness = GFunction(model, scale_back * witness_vec)
    if model.kind == KIND_QUADRATURE:
        # the singular value is exact for the window section only; the true
        # norm of the modeled group lies between it and the weighted-L1 bound
        upper = max(sigma, weighted_l1_norm(f, 2.0))
        return NormEstimate(sigma, upper, METHOD_EXACT_SVD, witness=witness)
    return NormEstimate(sigma, sigma, METHOD_EXACT_SVD, witness=witness)


def _wl1_bound(f: GFunction, exp: Exponent) -> NormEstimate:
    """Cheap certified bracket: the Rayleigh ratio of g = f as the lower
    bound, the weighted-L1 value as the upper.  One convolution, no matrix."""
    upper = weighted_l1_norm(f, exp)
    denom = lp_norm(f, exp)
    lower = 0.0
    if denom > 0:
        lower = lp_norm(convolve(f, f), exp) / denom
    return NormEstimate(min(lower, upper), upper, METHOD_WL1_BOUND)


# ---------------------------------------------------------------------------
# General p: signed-power iteration with certified bounds
# ---------------------------------------------------------------------------


def _plain_pnorm(x: np.ndarray, p: float) -> float:
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def _signed_power(y: np.ndarray, exponent: float) -> np.ndarray:
    mag = np.abs(y)
    phase = np.where(mag > 0, y / np.where(mag > 0, mag, 1.0), 0.0)
    return mag ** exponent * phase


def _boyd(f: GFunction, exp: Exponent, cfg: IterConfig) -> NormEstimate:
    model = f.group
    n = model.n
    if n > DENSE_CAP:
        raise ResourceError(f"iterative route needs n <= {DENSE_CAP}")
    mat = conv_operator(f).weighted_matrix(exp.p).astype(np.complex128)
    upper = weighted_l1_norm(f, exp)

    rng = np.random.default_rng(cfg.seed)
    starts: list[np.ndarray] = []
    basis = np.zeros(n, dtype=np.complex128)
    basis[model.identity] = 1.0
    starts.append(basis)
    starts.append(np.ones(n, dtype=np.complex128))
    starts.append(np.abs(rng.standard_normal(n)).astype(np.complex128))
    while len(starts) < max(cfg.restarts, 3):
        starts.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    starts = starts[:max(cfg.restarts, 3)]

    best_gamma = 0.0
    best_x = starts[0]
    best_iters = 0
    all_converged = True
    for x0 in starts:
        gamma, x, iters, converged = _boyd_single(mat, exp, x0, cfg)
        all_converged &= converged
        if gamma > best_gamma:
            best_gamma, best_x, best_iters = gamma, x, iters

    witness = GFunction(model, (model.weights ** (-1.0 / exp.p)) * best_x)
    lower = min(best_gamma, upper)  # guard against last-ulp crossings
    return NormEstimate(lower, upper, METHOD_BOYD, iterations=best_iters,
                        converged=all_converged, witness=witness)


def _boyd_single(mat: np.ndarray, exp: Exponent, x0: np.ndarray, cfg: IterConfig):
    p, q = exp.p, exp.q
    norm0 = _plain_pnorm(x0, p)
    if norm0 == 0:
        return 0.0, x0, 0, True
    x = x0 / norm0
    gamma_prev = -math.inf
    converged = False
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        y = mat @ x
        gamma = _plain_pnorm(y, p)
        if gamma == 0.0:
            return 0.0, x, iters, True
        if abs(gamma - gamma_prev) <= cfg.tol * max(1.0, gamma):
            converged = True
            break
        gamma_prev = gamma
        z = mat.conj().T @ _signed_power(y, p - 1.0)
        x_new = _signed_power(z, q - 1.0)
        nrm = _plain_pnorm(x_new, p)
        if nrm == 0.0:
            break
        x = x_new / nrm
    gamma = _plain_pnorm(mat @ x, p)
    return gamma, x, iters, converged


# ---------------------------------------------------------------------------
# Statement-level checks built on the norm
# ---------------------------------------------------------------------------


def dirac_scaling_check(f: GFunction, x, p, max_leak: float = 1e-6,
                        method: str = "auto") -> tuple[float, float]:
    """Measure ||f * delta_x||_p^T / ||f||_p^T and return it with the
    predicted value Delta(x)^{-1/q} (1 on unimodular models).

    On the affine quadrature model the ratio compares the certified upper
    bounds: for the positive probes the suites use they equal the true norms
    (amenable positive-cone equality), whereas the window-section lower
    bound carries a compression deficit set by the window size, which no
    step refinement removes.  Exact routes make the two readings coincide
    everywhere else.
    """
    exp = Exponent.of(p)
    shifted = translate(f, x, RIGHT_DIRAC, max_leak=max_leak)
    num_est = tempered_norm(shifted, exp, method=method)
    den_est = tempered_norm(f, exp, method=method)
    if isinstance(f.group.carrier, _AffineCarrier):
        num, den = num_est.upper, den_est.upper
    else:
        num, den = num_est.value, den_est.value
    if den == 0.0:
        raise DomainError("dirac scaling needs a nonzero f")
    delta = point_modular(f.group, x)
    expected = delta ** (-1.0 / exp.q) if math.isfinite(exp.q) else 1.0
    return num / den, expected


def re_im_closure_check(f: GFunction, p, tol: float = 1e-9):
    """Verify ||Re f||_p^T <= 2 ||f||_p^T and the imaginary-part twin.

    With certified bounds the sound test is lower(part) <= 2 * upper(f);
    returns a CheckResult whose observed value is the worst violation.
    """
    from .report import CheckResult
    from .space import real_part, imag_part

    exp = Exponent.of(p)
    whole = tempered_norm(f, exp)
    re_est = tempered_norm(real_part(f), exp)
    im_est = tempered_norm(imag_part(f), exp)
    violation = max(re_est.lower - 2.0 * whole.upper,
                    im_est.lower - 2.0 * whole.upper, 0.0)
    notes = (f"re={re_est.lower:.12g} im={im_est.lower:.12g} "
             f"bound={2.0 * whole.upper:.12g}")
    return CheckResult.build("re-im-closure",
                             "||Re f||_p^T <= 2||f||_p^T and ||Im f||_p^T <= 2||f||_p^T",
                             observed=violation, expected=0.0, tolerance=tol,
                             notes=notes)


def quasi_identity_blowup(model: GroupModel, p, count: int, big_k: float = 1.0) -> list[float]:
    """Lower bounds n^{1 - 1/p} / K for the Lp size of a hypothetical left
    quasi identity, using shrinking neighborhoods U_n with measure < 1/n.

    Requires a real-line quadrature model whose cell is small enough to
    realize every U_n; raises :class:`GridTooCoarse` otherwise.  For p > 1
    the sequence is strictly increasing and unbounded, which rules the
    quasi identity out on the non-discrete model.
    """
    exp = Exponent.of(p)
    if model.kind != KIND_QUADRATURE or not isinstance(model.carrier, _LatticeCarrier):
        raise DomainError("quasi-identity blowup runs on real-line quadrature models")
    step = model.carrier.step
    if count < 1:
        raise DomainError("count must be at least 1")
    bounds = []
    for n in range(1, count + 1):
        if not (step < 1.0 / n):
            raise GridTooCoarse(
                f"no neighborhood of measure < 1/{n} is representable at step {step}")
        bounds.append(n ** (1.0 - 1.0 / exp.p) / big_k)
    return bounds
