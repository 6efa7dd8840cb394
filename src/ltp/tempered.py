"""Certified computation of the tempered norm: the p -> p operator norm of
the right-convolution map g -> g * f in Haar-weighted Lp.

Routes:

* p = 1: exact weighted column supremum of the operator (attained by a
  single-cell witness); equals ||f||_1 on unimodular models.
* p = 2, finite abelian: max |w0 fhat| read from the FFT of the circulant
  operator (the operator is normal with the transform values as
  eigenvalues); the witness is the character of the largest one.
* p = 2, translation-invariant lattices (truncated Z, Z^2, and the real-line
  grid): supremum of the symbol over the dual torus, located by a padded FFT
  scan plus Newton polish.  For window-supported data this is the operator
  norm on the full (untruncated) lattice, which is what the truncated model
  stands for; the window-section SVD is available explicitly and is a lower
  bound of it.
* p = 2, general (nonabelian finite, affine quadrature): largest singular
  value of the weighted similarity D^{1/2} M D^{-1/2}, from the top
  eigenpair of M^H M (dense up to 1024 cells, a deterministic Lanczos
  iteration above).
* other p: Boyd's signed-power iteration, alternating the operator with
  dual exponent maps.  All seeded restarts advance together as the columns
  of one block, and each column freezes once its ratio settles.  The best
  attained ratio is reported as a certified lower bound with its witness;
  the weighted-L1 value is the upper bound.  On lattices the iteration
  keeps g on the eroded box D = {y : y + supp f in the window}: there the
  window convolution is the full-lattice one with no leak, so translating
  f translates D and the ratio repeats to rounding.  The price is a smaller
  search space, so ``lower`` is weak for f whose support spans a large part
  of the window (for a full-window support D is the identity alone).

  The model supplies the products.  Finite models with cyclic factors and
  at least 256 cells apply the circulant operator of ``convolve`` (FFT over
  the factor axes, the adjoint with the conjugate transform) and build no
  n x n matrix, so n may exceed the dense cap.  Below 256 cells the dense
  product is cheaper: for an n x 8 block on one core, numpy's FFT against
  the dense product took 28 vs 9 us at n = 64, 33 vs 26 us at n = 128 and
  45 vs 106 us at n = 256.  Every other model, lattices included,
  multiplies by the dense weighted matrix: on the eroded box a padded FFT
  cost more than the dense product at the suite's lattice sizes.

Callers that read only the upper end use :func:`tempered_upper`.  On the
iterative and bound routes it returns the weighted-L1 value without the
iteration, so it stays valid past the dense cap, where the Boyd route
refuses; on the exact routes it computes the norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import DomainError, GridTooCoarse, LtpError, ResourceError
from .groups import KIND_QUADRATURE, GroupModel, _AffineCarrier, _LatticeCarrier
from .convolve import (DENSE_CAP, _CirculantProduct, _kernel_blocks, conv_operator,
                       convolve)
from .space import (Exponent, GFunction, lp_norm, point_modular, translate,
                    weighted_l1_norm, RIGHT_DIRAC)

_SVD_DENSE_CAP = 1024
# Smallest cyclic model whose Boyd products go through the FFT: below it the
# dense product of an n x 8 block is cheaper (measured, see the docstring).
_FFT_MIN_N = 256
# Smallest normal double: magnitudes are floored here before a negative
# power, which keeps |y|^(p-2) finite and makes y |y|^(p-2) vanish at y = 0.
_TINY = np.finfo(np.float64).tiny
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

    def __post_init__(self):
        if self.restarts < 1:
            raise DomainError(f"restarts must be at least 1, got {self.restarts}")


@dataclass
class NormEstimate:
    """Certified bounds for a tempered norm.

    ``lower`` is always an attained (or exactly computed) value;
    ``upper`` is never below the true norm.  ``witness``, when present, is
    a g whose Rayleigh ratio ||g*f||_p / ||g||_p meets the lower bound.
    On the iterative route ``iterations`` counts the steps of the restart
    that gave ``lower``, ``matvecs`` the operator products of all
    restarts, and ``restart_spread`` the spread (max - min) / max of the
    restarts' final ratios (0 for one restart or a zero operator).
    """

    lower: float
    upper: float
    method: str
    iterations: int = 0
    converged: bool = True
    witness: GFunction | None = None
    matvecs: int = 0
    restart_spread: float = 0.0

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


def tempered_upper(f: GFunction, p, method: str = "auto") -> float:
    """``tempered_norm(f, p, method=method).upper``, bit for bit.

    The iterative and bound routes take their upper end from the
    weighted-L1 value whatever the iteration attains, so on those routes it
    is returned without building a product or running the iteration, also
    past the dense cap, where the Boyd route refuses.  Every exact route
    computes the norm as ``tempered_norm`` does.
    """
    exp = Exponent.of(p)
    if _resolve_method(f.group, exp, method) in (METHOD_BOYD, METHOD_WL1_BOUND):
        return upper_bound_weighted_l1(f, exp)
    return tempered_norm(f, exp, method=method).upper


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
        if model.cyclic_factors is not None:
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
    if method == METHOD_BOYD and exp.p == 1.0:
        # the dual exponent is infinite there, and the dual step is undefined
        raise DomainError("boyd_iteration applies to p > 1 only")
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
    # finite models with cyclic factors read the circulant symbol; on the
    # constant-weight translation-invariant lattices (truncated Z/Z^2 and the
    # real-line grid) the symbol supremum is exact for window-supported data
    return model.cyclic_factors is not None or isinstance(model.carrier, _LatticeCarrier)


# ---------------------------------------------------------------------------
# p = 1: exact column supremum
# ---------------------------------------------------------------------------


def _exact_l1(f: GFunction) -> NormEstimate:
    model = f.group
    n = model.n
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


def _spectral_finite_abelian(f: GFunction) -> NormEstimate:
    product = _CirculantProduct(f)
    k = int(np.argmax(np.abs(product.symbol)))
    value = float(np.abs(product.symbol.flat[k]))
    witness = GFunction(f.group, product.character(k))
    return NormEstimate(value, value, METHOD_SPECTRAL, witness=witness)


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
    the flat top of the peak.  For the same reason a step is halved only
    while its predicted gain grad . step exceeds 4 eps m.
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
            if np.dot(grad, step) <= _POLISH_RTOL * m:
                return math.sqrt(m)
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
    # the top eigenpair of M^H M: sigma^2 and the top right singular vector
    if n <= _SVD_DENSE_CAP:
        lam, vec = eigh(mat.conj().T @ mat, subset_by_index=[n - 1, n - 1])
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
    upper = upper_bound_weighted_l1(f, exp)
    denom = lp_norm(f, exp)
    lower = 0.0
    if denom > 0:
        lower = lp_norm(convolve(f, f), exp) / denom
    return NormEstimate(min(lower, upper), upper, METHOD_WL1_BOUND)


# ---------------------------------------------------------------------------
# General p: signed-power iteration with certified bounds
# ---------------------------------------------------------------------------


def _plain_pnorm(x: np.ndarray, p: float) -> np.ndarray:
    """Plain p-norm of each column of a block."""
    return np.sum(np.abs(x) ** p, axis=0) ** (1.0 / p)


class _DenseProduct:
    """Products with a dense matrix and its adjoint, the fallback on every
    model without a cheaper structure."""

    def __init__(self, mat: np.ndarray):
        self.mat = mat
        self._adjoint = mat.conj().T

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.mat @ x

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self._adjoint @ y


def _boyd_product(f: GFunction, exp: Exponent, cells: np.ndarray):
    """The cheapest product the model supplies for the iteration on
    ``cells``: FFT on large cyclic models, else the dense weighted matrix."""
    model = f.group
    if model.cyclic_factors is not None and model.n >= _FFT_MIN_N:
        return _CirculantProduct(f)
    if model.n > DENSE_CAP:
        raise ResourceError(f"iterative route needs n <= {DENSE_CAP}")
    mat = conv_operator(f).weighted_matrix(exp.p)[:, cells].astype(np.complex128)
    return _DenseProduct(mat)


def _boyd_cells(f: GFunction) -> tuple[np.ndarray, int]:
    """Cells on which the iteration may place g.

    Every cell, except on lattices: there only the eroded box
    D = {y : y + supp f in the window}, where g * f is the full-lattice
    convolution with nothing cut off, so translating f moves D with it.
    Returns the cells in index order and the one the first restart starts
    from: the identity, or on lattices the centre of D, which moves with D
    and is the identity when supp f is centred at the origin.
    """
    model = f.group
    carrier = model.carrier
    if not isinstance(carrier, _LatticeCarrier):
        return np.arange(model.n), model.identity
    support = carrier.coords[np.flatnonzero(f.values)]
    first = np.maximum(-carrier.radius, -carrier.radius - support.min(axis=0))
    last = np.minimum(carrier.radius, carrier.radius - support.max(axis=0))
    coords = carrier.coords
    cells = np.flatnonzero(np.all((coords >= first) & (coords <= last), axis=1))
    return cells, int(carrier.from_coords((first + last) // 2))


def _boyd_starts(m: int, first: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` starts, in order: the basis vector at ``first``,
    all ones, |normal| and then complex normals drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    starts = np.zeros((m, max(count, 3)), dtype=np.complex128)
    starts[first, 0] = 1.0
    starts[:, 1] = 1.0
    starts[:, 2] = np.abs(rng.standard_normal(m))
    for k in range(3, count):
        starts[:, k] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return starts[:, :count]


def _boyd(f: GFunction, exp: Exponent, cfg: IterConfig) -> NormEstimate:
    model = f.group
    cells, centre = _boyd_cells(f)
    product = _boyd_product(f, exp, cells)
    upper = upper_bound_weighted_l1(f, exp)
    starts = _boyd_starts(cells.size, int(np.searchsorted(cells, centre)),
                          cfg.restarts, cfg.seed)

    gamma, x, iters, converged, matvecs = _boyd_block(product, exp, starts, cfg)
    best = int(np.argmax(gamma))  # the first restart with the largest ratio
    top = float(gamma[best])
    vec = np.zeros(model.n, dtype=np.complex128)
    vec[cells] = x[:, best]
    witness = GFunction(model, (model.weights ** (-1.0 / exp.p)) * vec)
    lower = min(top, upper)  # guard against last-ulp crossings
    spread = (top - float(gamma.min())) / top if top > 0 else 0.0
    return NormEstimate(lower, upper, METHOD_BOYD, iterations=int(iters[best]),
                        converged=bool(np.all(converged)), witness=witness,
                        matvecs=matvecs, restart_spread=spread)


def _boyd_block(product, exp: Exponent, starts: np.ndarray, cfg: IterConfig):
    """Boyd's power iteration for the plain p-norm of the operator behind
    ``product`` (``apply`` and ``adjoint`` on a block), run on every column
    of ``starts`` at once.

    A column freezes once its ratio moves by at most tol * max(1, ratio)
    between two steps, once the ratio is 0, or once the dual step vanishes.
    The active columns are kept as one compact block, gathered again only
    when a column freezes.  Each step takes |y| and |z| once: with the
    magnitudes floored at the smallest normal double, y |y|^(p-2) is the
    signed power of y, |y|^(p-2) |y|^2 its p-th power, and likewise z with
    q, since |z|^((q-1) p) = |z|^q.  Returns per column the last ratio,
    vector, step count and convergence flag, and the number of products.
    """
    p, q = exp.p, exp.q
    k = starts.shape[1]
    x = starts / _plain_pnorm(starts, p)
    gamma = np.zeros(k)
    iters = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    # the active columns, their current vectors and their previous ratios
    cols, xa, prev = np.arange(k), x, np.full(k, -math.inf)
    matvecs = 0
    for step in range(1, cfg.max_iters + 1):
        y = product.apply(xa)
        mag = np.abs(y)
        power = np.maximum(mag, _TINY) ** (p - 2.0)
        g = np.sum(power * mag * mag, axis=0) ** (1.0 / p)
        matvecs += cols.size
        iters[cols] = step
        gamma[cols] = g
        done = (g == 0.0) | (np.abs(g - prev) <= cfg.tol * np.maximum(1.0, g))
        if done.any():
            converged[cols[done]] = True
            x[:, cols[done]] = xa[:, done]
            go = ~done
            cols, xa, y, power, g = cols[go], xa[:, go], y[:, go], power[:, go], g[go]
            if cols.size == 0:
                break
        prev = g
        z = product.adjoint(y * power)
        matvecs += cols.size
        mag = np.abs(z)
        power = np.maximum(mag, _TINY) ** (q - 2.0)
        nrm = np.sum(power * mag * mag, axis=0) ** (1.0 / p)
        moved = nrm > 0
        if not moved.all():
            x[:, cols[~moved]] = xa[:, ~moved]
            cols, z, power, nrm, prev = (cols[moved], z[:, moved], power[:, moved],
                                         nrm[moved], prev[moved])
            if cols.size == 0:
                break
        xa = z * (power / nrm)
    else:  # out of steps: rate the last update
        gamma[cols] = _plain_pnorm(product.apply(xa), p)
        x[:, cols] = xa
        matvecs += cols.size
    return gamma, x, iters, converged, matvecs


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
    if isinstance(f.group.carrier, _AffineCarrier):
        num = tempered_upper(shifted, exp, method=method)
        den = tempered_upper(f, exp, method=method)
    else:
        num = tempered_norm(shifted, exp, method=method).value
        den = tempered_norm(f, exp, method=method).value
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
    bound = 2.0 * tempered_upper(f, exp)
    re_est = tempered_norm(real_part(f), exp)
    im_est = tempered_norm(imag_part(f), exp)
    violation = max(re_est.lower - bound, im_est.lower - bound, 0.0)
    notes = f"re={re_est.lower:.12g} im={im_est.lower:.12g} bound={bound:.12g}"
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
