"""Certified computation of the tempered norm: the p -> p operator norm of
the right-convolution map g -> g * f in Haar-weighted Lp.

Routes, one record each in ``_ROUTES`` and in this order; the ``method``
"auto" takes the first route that serves the model and p, and a named
method the first route of that name that does:

* p = 1: exact weighted column supremum of the operator (attained by a
  single-cell witness); equals ||f||_1 on unimodular models.
* p = 2, finite abelian: max |w0 fhat| read from the FFT of the circulant
  operator (the operator is normal with the transform values as
  eigenvalues); the witness is the character of the largest one.
* p = 2, translation-invariant lattices (truncated Z, Z^2, and the real-line
  grid): supremum of the symbol over the dual torus, bracketed by one scan
  of the symbol on the periodic embedding of the circulant operator (one
  FFT in 1-D; in 2-D row FFTs over the rows f occupies, then a twiddle
  matmul along the leading axis, one block of rows at a time folded into a
  running maximum, so no pad x pad grid is held).  ``lower`` is
  the largest sampled symbol value; ``upper`` widens it by a second-order
  Bernstein bound, or is the weighted-L1 value when that is smaller.  For
  window-supported data the supremum is the operator norm on the full
  (untruncated) lattice, which is what the truncated model stands for; the
  window-section SVD is available explicitly and is a lower bound of it, so
  that route takes the weighted-L1 value as its upper end there.
  ``lower`` is attained by a character of the periodic embedding, not by a
  function on the window, so the route returns no witness.
* p = 2, finite models of at most ``convolve.DENSE_EIGH_CAP`` cells (by
  "auto" those without cyclic factors: nonabelian models and their
  products): max over the irreducibles pi of sigma_max(fhat(pi)), read from
  the model's irreducible blocks (``convolve.IrreducibleBlocks``), built
  once per model on first use.  Each f costs one product with the n x n
  block table and one batched SVD per block dimension: 0.13-0.25 ms a call
  on dihedral:64 and symmetric:5, where the dense route below takes
  0.8-1.9 ms (one core).  The build is one dense eigh of an n x n matrix,
  so it stops at the cap (the constant's comment holds the measurements).
  The witness is E v, v the top right singular vector of the largest block.
* p = 2, general (affine quadrature, larger finite models): largest singular
  value of the weighted similarity D^{1/2} M D^{-1/2}, from the top
  eigenpair of M^H M by one deterministic Lanczos iteration at every n
  (``_top_eigenpair``), on M scaled by a power of two so that any scale of
  f neither overflows nor underflows.  Off the finite models the singular
  value is the window section's, and ``upper`` is the weighted-L1 value,
  which bounds it as well.  By name it serves every model at p = 2; on the
  finite models up to the cap the suite names it only in
  spectral-svd-agreement, which sets it against the route "auto" takes
  there (the FFT above on declared cyclic products, the irreducible blocks
  elsewhere) as their independent dense reference.
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

  ``tempered_norms`` takes several f at once, and the model alone chooses
  the product.  On finite models with cyclic factors and on lattices, f
  with the same cells (D on lattices) share one block, with the restarts of
  each f as its columns and one FFT over the whole block per product: the
  circulant operator of ``convolve``, or on lattices the window torus (see
  ``_boyd_product``), one 1-D torus of length at least n where every cell,
  in 2-D too, sits at its index: a row-major chart turns the window
  convolution into a 1-D one, and since g on D keeps g * f in the window,
  the product read back on the window is the window convolution exactly
  (the proof is in ``convolve._CirculantProduct``).  Neither builds an n x n
  matrix, so n may exceed the dense cap.  Nonabelian models and the affine
  grid have no shared transform and run one dense block per f (one block of
  several matrices would make the same products); a real matrix multiplies
  in real arithmetic, the real and imaginary parts of the block together.
  A shared block holds at most 64 columns (eight f at eight restarts), a
  bound on the memory of callers that pass many f: 24 f on cyclic:256 in
  one 192-column block raised the peak RSS of a suite pass by about 6.5 MB
  over 64-column blocks (one BLAS thread, 2-vCPU host).  The suite's widest
  block is 48 columns.
  ``IterConfig`` accepts at most 64 restarts, so that one f's restarts fit
  one block: 256 restarts gave the same ``lower`` as the default 8 on
  circle:64, dihedral:64 and cyclic:32 at p = 1.5.
* any p, by name only: the Rayleigh ratio of g = f as ``lower`` and the
  weighted-L1 value as ``upper``, from one convolution.

Every route returns the ``lower`` it attained, unclamped; one above
``upper`` by more than a relative 1e-9 raises :class:`LtpError`.  Only
p = 1 lifts ``upper`` to ``lower``: two exact sums of one quantity, ulps
apart.  Bounds from above read ``upper``, through :func:`tempered_upper`
where only that end is needed.  Boyd, ``exact_svd`` off the finite models
and ``bound_weighted_l1`` state their upper end, the weighted-L1 value, in
their ``_ROUTES`` record; ``tempered_upper`` runs none of them, so it holds
past the dense cap, where Boyd refuses nonabelian models and the affine grid.

The statements about these norms are measured by the suite's runners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, LtpError
from .groups import KIND_FINITE, GroupModel, _LatticeCarrier
from .convolve import (DENSE_EIGH_CAP, ConvOperator, _CirculantProduct, _kernel_blocks,
                       convolve, irreducible_blocks)
from .space import Exponent, GFunction, lp_norm

# Widest block of Boyd columns that several f share: it bounds the memory of
# a caller that passes many f (measured, see the docstring).  It also bounds
# the restarts of one f, whose columns share one block.
_BLOCK_COLS = 64
# Smallest normal double: magnitudes are floored here before a negative
# power, which keeps |y|^(p-2) finite and makes y |y|^(p-2) vanish at y = 0.
_TINY = np.finfo(np.float64).tiny
_EPS = np.finfo(np.float64).eps

METHOD_EXACT_SVD = "exact_svd"
METHOD_SPECTRAL = "spectral_abelian"
METHOD_BLOCKS = "irreducible_blocks"
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
        if not self.tol >= 0.0:
            raise DomainError(f"tol must be at least 0, got {self.tol}")
        for name in ("max_iters", "restarts"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise DomainError(f"{name} must be at least 1, got {value}")
        if self.restarts > _BLOCK_COLS:
            raise DomainError(f"restarts must be at most {_BLOCK_COLS}, the columns of "
                              f"one block, got {self.restarts}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise DomainError(f"seed must be an integer at least 0, got {self.seed}")


@dataclass
class NormEstimate:
    """Certified bounds for a tempered norm.

    ``lower``, ``upper`` and ``restart_spread`` are Python floats, whatever
    number type a route computed them in.  ``lower`` is the value the route
    attained (or computed exactly), never clamped; ``upper`` is never below
    the true norm, and a ``lower`` above it by more than a relative 1e-9
    raises :class:`LtpError`.  ``witness``, when present, is a g whose
    Rayleigh ratio ||g*f||_p / ||g||_p meets the lower bound.  The lattice
    p = 2 route has none: its ``lower`` is a value of the symbol, attained
    on the periodic embedding and not on the window.  On the iterative route
    ``iterations`` counts the block steps the engine ran for f's restarts
    (the most any of them took), ``matvecs`` the operator products of all
    its restarts, and ``restart_spread`` the spread (max - min) / max of
    their final ratios (0 for one restart or a zero operator); other f
    sharing the block count apart.  On the ``exact_svd`` route
    ``iterations`` counts the Lanczos steps and ``matvecs`` their products,
    two a step (by M and by M^H).  Both are 0 on every other route.
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
        self.lower, self.upper = float(self.lower), float(self.upper)
        self.restart_spread = float(self.restart_spread)
        if self.lower > self.upper * (1.0 + 1e-9) + 1e-300:
            raise LtpError(
                f"norm bounds crossed: lower={self.lower!r} > upper={self.upper!r}")


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def upper_bound_weighted_l1(f: GFunction, p) -> float:
    """The weighted-L1 upper bound: integral of |f| Delta^{-1/q}.

    Never below the tempered norm, on every model.  At p = 1 the weight is
    1 and this is ||f||_1.
    """
    omega = f.group.modular ** (-1.0 / Exponent.of(p).q)
    return float(np.sum(f.group.weights * np.abs(f.values) * omega))


def tempered_upper(f: GFunction, p) -> float:
    """``tempered_norm(f, p).upper``, bit for bit, whenever that returns.

    A route whose record states its upper end (``_Route.bound``) has it
    returned without running the route, also past the dense cap, where the
    Boyd route refuses on nonabelian models and the affine grid.  Where
    ``tempered_norm`` would raise on a crossed bracket, this returns the
    bound.  Every other route computes the norm as ``tempered_norm`` does.
    """
    exp = Exponent.of(p)
    route = _route(f.group, exp, "auto")
    if route.bound is not None:
        return route.bound(f, exp)
    return tempered_norm(f, exp).upper


def tempered_norm(f: GFunction, p, cfg: IterConfig | None = None,
                  method: str = "auto") -> NormEstimate:
    """Compute or bound the tempered norm of f for the exponent p."""
    return tempered_norms([f], p, cfg, method)[0]


def tempered_norms(fs, p, cfg: IterConfig | None = None,
                   method: str = "auto") -> list[NormEstimate]:
    """``tempered_norm`` of every f (all on one model), in order.

    Each estimate is the one ``tempered_norm`` gives, up to rounding.  On
    the Boyd route the restarts of several f advance together as the
    columns of one block (see ``_boyd_norms``); every other route runs f by
    f.  A zero f gets the bracket [0, 0].
    """
    fs = list(fs)
    if not fs:
        return []
    model = fs[0].group
    for f in fs[1:]:
        model.require_same(f.group)
    exp = Exponent.of(p)
    route = _route(model, exp, method)
    live = [f for f in fs if not f.is_zero]
    found = iter(route.run(live, exp, cfg) if live else [])
    if route.bound is not None:  # rebuilt, so a lower end above the bound raises
        found = (replace(est, upper=route.bound(f, exp)) for f, est in zip(live, found))
    return [NormEstimate(0.0, 0.0, route.method) if f.is_zero else next(found) for f in fs]


def _wl1(f: GFunction, exp: Exponent) -> float:
    return upper_bound_weighted_l1(f, exp)


class _Route(NamedTuple):
    method: str
    serves: Callable[[GroupModel, float], bool]
    run: Callable[[list[GFunction], Exponent, IterConfig | None], list[NormEstimate]]
    bound: Callable[[GFunction, Exponent], float] | None = None  # the upper end it states


# The routes in dispatch order; each ``run`` maps nonzero f on one model to
# their estimates.  Each looks its route function up when called, so a
# function patched on the module is the one that runs, ``bound`` too.  The
# two ``exact_svd`` records differ in the upper end: sigma on the finite
# models; elsewhere sigma is the window section's, and the weighted-L1 value
# bounds both it and the norm the window stands for (Schur test).
_ROUTES = (
    _Route(METHOD_EXACT_L1, lambda model, p: p == 1.0,
           lambda fs, exp, cfg: [_exact_l1(f) for f in fs]),
    _Route(METHOD_SPECTRAL, lambda model, p: p == 2.0 and model.cyclic_factors is not None,
           lambda fs, exp, cfg: [_spectral_finite_abelian(f) for f in fs]),
    # exact for window-supported data on the constant-weight
    # translation-invariant lattices (truncated Z, Z^2, the real-line grid)
    _Route(METHOD_SPECTRAL,
           lambda model, p: p == 2.0 and isinstance(model.carrier, _LatticeCarrier),
           lambda fs, exp, cfg: [_symbol_supremum(f) for f in fs]),
    _Route(METHOD_BLOCKS,
           lambda model, p: (p == 2.0 and model.kind == KIND_FINITE
                             and model.n <= DENSE_EIGH_CAP),
           lambda fs, exp, cfg: [_block_norm(f) for f in fs]),
    _Route(METHOD_EXACT_SVD, lambda model, p: p == 2.0 and model.kind == KIND_FINITE,
           lambda fs, exp, cfg: [_exact_svd(f) for f in fs]),
    _Route(METHOD_EXACT_SVD, lambda model, p: p == 2.0,
           lambda fs, exp, cfg: [_exact_svd(f) for f in fs], _wl1),
    # the dual exponent is infinite at p = 1, where the dual step is undefined
    _Route(METHOD_BOYD, lambda model, p: p > 1.0,
           lambda fs, exp, cfg: _boyd_norms(fs, exp, cfg or IterConfig()), _wl1),
    _Route(METHOD_WL1_BOUND, lambda model, p: True,
           lambda fs, exp, cfg: [_wl1_bound(f, exp) for f in fs], _wl1),
)


def _route(model: GroupModel, exp: Exponent, method: str) -> _Route:
    """The first route named ``method`` ("auto" names every route) that
    serves the model at p."""
    for route in _ROUTES:
        if method in ("auto", route.method) and route.serves(model, exp.p):
            return route
    if any(route.method == method for route in _ROUTES):
        raise DomainError(f"{method} does not apply at p = {exp.p:g} on {model.name}")
    raise DomainError(f"unknown tempered-norm method {method!r}")


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
    lower = col[best]
    upper = upper_bound_weighted_l1(f, 1.0)
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
    value = np.abs(product.symbol.flat[k])
    witness = GFunction(f.group, product.character(k))
    return NormEstimate(value, value, METHOD_SPECTRAL, witness=witness)


# ---------------------------------------------------------------------------
# p = 2 on translation-invariant lattices: dual-torus symbol supremum
# ---------------------------------------------------------------------------


def _symbol_rounding(f: GFunction, pad: int) -> float:
    """Bound on |computed - exact| at every node of the scan on pad^dim
    nodes (proof in ``_symbol_supremum``)."""
    model = f.group
    w0 = float(model.weights[0])
    norm = float(np.linalg.norm(f.values))
    size = pad ** model.carrier.dim
    rounding = 8.0 * _EPS * math.log2(size) * math.sqrt(size) * w0 * norm
    if model.carrier.dim == 1:
        return rounding
    rows = np.unique(model.carrier.coords[np.flatnonzero(f.values), 0]).size
    matmul = _EPS * w0 * (8.0 * math.log2(pad) * math.sqrt(pad * rows) * norm
                          + (2 * rows + 20) * float(np.sum(np.abs(f.values))))
    return max(rounding, matmul)


def _symbol_supremum(f: GFunction) -> NormEstimate:
    """sup |w0 fhat| over the dual torus, bracketed by one scan.

    The scan samples the symbol at the frequencies 2 pi m / pad of each
    axis, so its maximum ``top`` is a value of the symbol: the lower end.
    In 2-D the circulant product streams the samples in blocks of rows and
    folds them into ``top`` (``symbol_max``), holding no pad x pad grid.
    |fhat|^2 has frequencies within +-d_a on axis a, d_a the extent of
    supp f along it.  On the segment from the maximiser to its nearest grid
    node, at most pi / pad away on each axis and parametrised over [0, 1],
    its frequencies are at most eta = pi sum_a d_a / pad, so its second
    derivative is at most eta^2 sup^2 (Bernstein's inequality, applied
    twice).  The gradient vanishes at the maximiser, so the node keeps
    |fhat|^2 >= (1 - eta^2 / 2) sup^2, which gives the upper end
    (top + rounding) / sqrt(1 - eta^2 / 2).  The weighted-L1 value bounds
    the norm as well and is used alone when eta^2 >= 2.

    ``rounding`` bounds |computed - exact| at every node, in units of
    eps with x = w0 f, L = pad and N = L^dim nodes.  In 1-D the scan is an
    FFT, and Higham's bound (Accuracy and Stability of Numerical Algorithms,
    2nd ed., Thm 24.2) on the 2-norm of its error over all nodes, which
    bounds each node, is 8 log2(N) sqrt(N) ||x||_2.  In 2-D, with s
    occupied rows, the leading axis is the matmul twiddle @ rows, taken
    block by block with each node's inner product unchanged, and the
    error at a node is at most the sum of
      (a) the row FFTs, by Thm 24.2 per row, 8 log2(L) sqrt(L) ||x_j||_2
          for row j, carried by unimodular twiddles: together at most
          8 log2(L) sqrt(L s) ||x||_2, by Cauchy-Schwarz over the s rows;
      (b) the inner products of length s (Higham ch. 3, with the complex
          products of Lemma 3.5) plus twiddles computed as exp of an angle
          below 2 pi, off by under 8 eps and budgeted at 16 eps: at most
          (2 s + 20) ||x||_1.
    The margin in 2-D is the larger of this sum and the FFT expression
    8 log2(N) sqrt(N) ||x||_2, the bound an ``fftn`` scan of the whole grid
    carries.  The expression is the larger up to pad 512 (the sum is at
    most 0.73 of it there, since s and the cells per row are at most L / 4
    and ||x||_1 <= sqrt(s L / 4) ||x||_2), so every model up to z2:63
    keeps the margin of an ``fftn`` scan; the sum takes over only
    for wide supports at pad 1024 and above.
    """
    carrier: _LatticeCarrier = f.group.carrier
    pad = 4096 if carrier.dim == 1 else 512
    while pad < 4 * carrier.side:
        pad *= 2
    product = _CirculantProduct(f, (pad,) * carrier.dim)
    top = product.symbol_max()
    support = carrier.coords[np.flatnonzero(f.values)]
    eta = math.pi * float(np.sum(support.max(axis=0) - support.min(axis=0))) / pad
    upper = upper_bound_weighted_l1(f, 2.0)
    if eta * eta < 2.0:
        rounding = _symbol_rounding(f, pad)
        upper = min(upper, (top + rounding) / math.sqrt(1.0 - 0.5 * eta * eta))
    return NormEstimate(top, upper, METHOD_SPECTRAL)


# ---------------------------------------------------------------------------
# p = 2 on finite models: irreducible blocks
# ---------------------------------------------------------------------------


def _block_norm(f: GFunction) -> NormEstimate:
    """max_pi sigma_max(fhat(pi)), every block of f from one product with the
    model's block table; the witness is E v, v the top right singular vector
    of the largest block."""
    model = f.group
    blocks = irreducible_blocks(model)
    coef = (float(model.weights[0]) * f.values) @ blocks.table
    offsets = np.concatenate(([0], np.cumsum(blocks.dims ** 2)))
    sigma = []  # the largest singular value of each block, one call per dimension
    for d in np.unique(blocks.dims):
        at = np.flatnonzero(blocks.dims == d)
        same = coef[offsets[at[0]]:offsets[at[-1] + 1]].reshape(at.size, d, d)
        sigma.append(np.linalg.svd(same, compute_uv=False)[:, 0])
    sigma = np.concatenate(sigma)
    k = int(np.argmax(sigma))
    d = blocks.dims[k]
    vh = np.linalg.svd(coef[offsets[k]:offsets[k + 1]].reshape(d, d))[2]
    witness = GFunction(model, blocks.bases[k] @ vh[0].conj())
    return NormEstimate(sigma[k], sigma[k], METHOD_BLOCKS, witness=witness)


# ---------------------------------------------------------------------------
# p = 2 general: singular values of the weighted similarity
# ---------------------------------------------------------------------------


# Lanczos steps between two tests of the stopping rule, each one dense eigh
# of the tridiagonal matrix built so far
_LANCZOS_TEST_EVERY = 4


def _top_eigenpair(mat: np.ndarray) -> tuple[float, np.ndarray, int]:
    """The largest eigenvalue of H = M^H M, a unit eigenvector and the steps
    taken, by Lanczos with full reorthogonalisation (Paige, PhD thesis,
    London, 1972; Parlett, The Symmetric Eigenvalue Problem, 1998, ch. 13).

    Each step forms w = H q from two products with M, M^H y as
    conj(M^T conj(y)), so no adjoint copy of M exists.  Classical
    Gram-Schmidt against the whole basis, run twice, orthogonalises w: the
    first pass holds the recurrence, alpha its coefficient on q, and the
    second the reorthogonalisation.  The basis grows with the steps taken.
    Every ``_LANCZOS_TEST_EVERY`` steps the top Ritz pair (theta, s) of the
    tridiagonal matrix meets ARPACK's tol = 0 rule, beta |s_last| <=
    eps theta, or the iteration goes on: beta |s_last| is the residual norm
    of the Ritz pair.  It stops at once when beta falls to the rounding
    level of ||H q|| (n eps of it): the Krylov space is then invariant, and
    holds the top eigenvector, on which the generic start has a nonzero
    component.
    """
    n = mat.shape[1]
    conj = np.conj if np.iscomplexobj(mat) else (lambda x: x)
    # a seeded generic start: on abelian models all ones is the character 0,
    # an eigenvector of H, whose Krylov space stops at once
    q = np.random.default_rng(0).standard_normal(n)
    q /= math.sqrt(q @ q)
    basis = np.empty((min(n, 32), n), dtype=mat.dtype)
    alpha, beta = [], []
    for j in range(n):
        if j == len(basis):
            grown = np.empty((min(2 * j, n), n), dtype=mat.dtype)
            grown[:j] = basis
            basis = grown
        basis[j] = q
        done = basis[:j + 1]
        w = conj(mat.T @ conj(mat @ q))
        scale = math.sqrt(np.vdot(w, w).real)
        coef = conj(done @ conj(w))
        w -= coef @ done
        w -= conj(done @ conj(w)) @ done
        alpha.append(coef[j].real)
        beta.append(math.sqrt(np.vdot(w, w).real))
        last = beta[-1] <= n * _EPS * scale or j == n - 1
        if last or (j + 1) % _LANCZOS_TEST_EVERY == 0:
            ritz, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], 1)
                                        + np.diag(beta[:-1], -1))
            if last or beta[-1] * abs(vecs[-1, -1]) <= _EPS * ritz[-1]:
                break
        q = w / beta[-1]
    return float(ritz[-1]), vecs[:, -1] @ done, j + 1


def _exact_svd(f: GFunction) -> NormEstimate:
    model = f.group
    mat = ConvOperator(f).weighted_matrix(2)
    # Every entry is w_x^(1/2) w_y^(1/2) times a value or cell average of f,
    # so a power of two brings the largest below 1 and ||H q|| neither
    # overflows nor underflows at any scale of f.  It scales every step of
    # Lanczos exactly, and sigma back exactly.
    exponent = math.frexp(float(np.max(model.weights)) * float(np.max(np.abs(f.values))))[1]
    mat *= math.ldexp(1.0, -exponent)
    # sigma^2 and the top right singular vector of the weighted similarity
    lam, vec, steps = _top_eigenpair(mat)
    sigma = math.ldexp(math.sqrt(max(lam, 0.0)), exponent)
    witness = GFunction(model, model.weights ** (-0.5) * vec)
    return NormEstimate(sigma, sigma, METHOD_EXACT_SVD, iterations=steps, witness=witness,
                        matvecs=2 * steps)


def _wl1_bound(f: GFunction, exp: Exponent) -> NormEstimate:
    """Cheap certified bracket: the Rayleigh ratio of g = f as the lower
    bound; the route's record states the upper end, the weighted-L1 value.
    One convolution, no matrix."""
    denom = lp_norm(f, exp)
    lower = lp_norm(convolve(f, f), exp) / denom if denom > 0 else 0.0
    return NormEstimate(lower, math.inf, METHOD_WL1_BOUND)


# ---------------------------------------------------------------------------
# General p: signed-power iteration with certified bounds
# ---------------------------------------------------------------------------


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Sum of each column of an (n, k) block, read with unit stride from
    its transposed copy, where ``np.sum(axis=0)`` strides.  Each column is
    summed pairwise on its own, so its sum does not depend on k; a product
    with a ones vector rounds differently for the last few columns."""
    return np.ascontiguousarray(a.T).sum(axis=1)


def _plain_pnorm(x: np.ndarray, p: float) -> np.ndarray:
    """Plain p-norm of each column of a block."""
    return _column_sums(np.abs(x) ** p) ** (1.0 / p)


def _times(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat @ x for an (n, k) block x.  A real mat takes a complex x as its
    float64 view, where each row holds the real and imaginary parts side by
    side, so both go through one real product."""
    if mat.dtype != np.float64 or x.dtype != np.complex128:
        return mat @ x
    return (mat @ np.ascontiguousarray(x).view(np.float64)).view(np.complex128)


class _DenseProduct:
    """Products with a dense matrix and its adjoint, the fallback on every
    model without a cheaper structure.  A real matrix multiplies in real
    arithmetic, a complex one in complex."""

    def __init__(self, mat: np.ndarray):
        self.mat = mat
        self._adjoint = mat.conj().T

    def keep(self, cols) -> None:
        """Every column of a block multiplies by the same matrix."""

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _times(self.mat, x)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return _times(self._adjoint, y)


def _smooth_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c that is at least n."""
    size = n
    while True:
        rest = size
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return size
        size += 1


def _boyd_product(fs: list[GFunction], exp: Exponent, cells: np.ndarray,
                  columns: np.ndarray):
    """The product the model supplies for the iteration of every f in ``fs``
    on ``cells``, block column j multiplying by fs[columns[j]].

    Cyclic models multiply by the FFT over the factor axes, and lattices by
    one FFT pair over the window torus, the 1-D torus of the smallest
    5-smooth length at least n that holds every cell at its index (300 on
    z2:8, 135 on z:64).  Every other model multiplies by the dense weighted
    matrix of its lone f (see ``_boyd_norms``), on every cell."""
    model = fs[0].group
    if model.cyclic_factors is not None:
        return _CirculantProduct(fs, columns=columns)
    if isinstance(model.carrier, _LatticeCarrier):
        return _CirculantProduct(fs, (_smooth_size(model.n),), cells, columns)
    return _DenseProduct(ConvOperator(fs[0]).weighted_matrix(exp.p))


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


def _boyd_norms(fs: list[GFunction], exp: Exponent, cfg: IterConfig) -> list[NormEstimate]:
    """Boyd estimates of nonzero f on one model, the restarts of every f
    that shares a block advancing as its columns.

    f with the same cells (all of them off lattices, the eroded box D on
    lattices) share blocks of at most ``_BLOCK_COLS`` columns on cyclic
    models and lattices; every other model runs one dense block per f.
    Every f starts from the same ``cfg.restarts`` starts, so its estimate
    is the one a block of its own gives, up to rounding."""
    model = fs[0].group
    shared = model.cyclic_factors is not None or isinstance(model.carrier, _LatticeCarrier)
    width = max(1, _BLOCK_COLS // cfg.restarts) if shared else 1
    plans = [_boyd_cells(f) for f in fs]
    groups: dict[bytes, list[int]] = {}
    for i, (cells, _) in enumerate(plans):
        groups.setdefault(cells.tobytes(), []).append(i)
    out: list[NormEstimate | None] = [None] * len(fs)
    k = cfg.restarts
    for members in groups.values():
        cells, centre = plans[members[0]]
        starts = _boyd_starts(cells.size, int(np.searchsorted(cells, centre)), k, cfg.seed)
        for lo in range(0, len(members), width):
            block = members[lo:lo + width]
            columns = np.repeat(np.arange(len(block)), k)
            product = _boyd_product([fs[i] for i in block], exp, cells, columns)
            run = _boyd_block(product, exp, np.tile(starts, len(block)), cfg)
            for j, i in enumerate(block):
                own = slice(j * k, (j + 1) * k)
                out[i] = _boyd(fs[i], exp, cells, [part[..., own] for part in run])
    return out


def _boyd(f: GFunction, exp: Exponent, cells: np.ndarray, run) -> NormEstimate:
    """f's estimate from its restarts' columns of a block run on ``cells``."""
    model = f.group
    gamma, x, iters, converged, products = run
    best = int(np.argmax(gamma))  # the first restart with the largest ratio
    top = gamma[best]
    vec = np.zeros(model.n, dtype=np.complex128)
    vec[cells] = x[:, best]
    witness = GFunction(model, (model.weights ** (-1.0 / exp.p)) * vec)
    spread = (top - gamma.min()) / top if top > 0 else 0.0
    return NormEstimate(top, math.inf, METHOD_BOYD,  # the route states the upper end
                        iterations=int(iters.max()), converged=bool(np.all(converged)),
                        witness=witness, matvecs=int(products.sum()), restart_spread=spread)


def _boyd_block(product, exp: Exponent, starts: np.ndarray, cfg: IterConfig):
    """Boyd's power iteration for the plain p-norm of the operator behind
    ``product`` (``apply`` and ``adjoint`` on a block), run on every column
    of ``starts`` at once.

    A column freezes once its ratio moves by at most tol * ratio between
    two steps (so c f takes f's steps), once the ratio is 0, or once the
    dual step vanishes.
    The active columns are kept as one compact block, gathered again only
    when a column freezes, and ``product.keep`` is told which columns they
    are.  Each step takes |y| and |z| once: with the magnitudes floored at
    the smallest normal double, y |y|^(p-2) is the signed power of y,
    |y|^(p-2) |y|^2 its p-th power, and likewise z with q, since
    |z|^((q-1) p) = |z|^q.  Returns per column the last ratio, vector, step
    count, convergence flag and number of products.
    """
    p, q = exp.p, exp.q
    k = starts.shape[1]
    x = starts / _plain_pnorm(starts, p)
    gamma = np.zeros(k)
    iters = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    products = np.zeros(k, dtype=np.int64)
    # the active columns, their current vectors and their previous ratios
    cols, xa, prev = np.arange(k), x, np.full(k, -math.inf)
    for step in range(1, cfg.max_iters + 1):
        y = product.apply(xa)
        mag = np.abs(y)
        power = np.maximum(mag, _TINY) ** (p - 2.0)
        g = _column_sums(power * mag * mag) ** (1.0 / p)
        products[cols] += 1
        iters[cols] = step
        gamma[cols] = g
        done = (g == 0.0) | (np.abs(g - prev) <= cfg.tol * g)
        if done.any():
            converged[cols[done]] = True
            x[:, cols[done]] = xa[:, done]
            go = ~done
            cols, xa, y, power, g = cols[go], xa[:, go], y[:, go], power[:, go], g[go]
            if cols.size == 0:
                break
            product.keep(cols)
        prev = g
        y *= power
        z = product.adjoint(y)
        products[cols] += 1
        mag = np.abs(z)
        power = np.maximum(mag, _TINY) ** (q - 2.0)
        nrm = _column_sums(power * mag * mag) ** (1.0 / p)
        moved = nrm > 0
        if not moved.all():
            x[:, cols[~moved]] = xa[:, ~moved]
            cols, z, power, nrm, prev = (cols[moved], z[:, moved], power[:, moved],
                                         nrm[moved], prev[moved])
            if cols.size == 0:
                break
            product.keep(cols)
        power /= nrm
        z *= power
        xa = z
    else:  # out of steps: rate the last update
        gamma[cols] = _plain_pnorm(product.apply(xa), p)
        x[:, cols] = xa
        products[cols] += 1
    return gamma, x, iters, converged, products
