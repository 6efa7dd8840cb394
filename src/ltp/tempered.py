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
  matmul along the leading axis).  ``lower`` is
  the largest sampled symbol value; ``upper`` widens it by a second-order
  Bernstein bound, or is the weighted-L1 value when that is smaller.  For
  window-supported data the supremum is the operator norm on the full
  (untruncated) lattice, which is what the truncated model stands for; the
  window-section SVD is available explicitly and is a lower bound of it, so
  that route takes the weighted-L1 value as its upper end there.
  ``lower`` is attained by a character of the periodic embedding, not by a
  function on the window, so the route returns no witness.
* p = 2, general (nonabelian finite, affine quadrature): largest singular
  value of the weighted similarity D^{1/2} M D^{-1/2}, from the top
  eigenpair of M^H M (dense up to 224 cells, a deterministic Lanczos
  iteration above).  On one core the two cross between 200 and 224 cells
  for complex f and near 224 for real f: dense against Lanczos took 7.6 vs
  9.7 ms at n = 200, 9.8 vs 8.1 ms at n = 224, 10.5 vs 6.4 ms at n = 225
  and 14.6 vs 7.8 ms at n = 256 for complex f, and 2.2 vs 3.3, 2.8 vs 2.9,
  2.7 vs 2.8 and 3.9 vs 2.0 ms for real f.  By name it serves every
  model at p = 2; on the abelian models the suite names it only in
  spectral-svd-agreement, which sets it against the transform.
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
  ``_boyd_product``), where D is placed at its coordinates mod the period;
  since g on D keeps g * f in the window, the product read back on the
  window is the window convolution exactly.  Neither builds an n x n
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
where only that end is needed.  On the iterative and bound routes it
returns the weighted-L1 value without the iteration, so it stays valid
past the dense cap, where the Boyd route refuses on nonabelian models and
the affine grid; on the exact routes it computes the norm.

The statements about these norms are measured by the suite's runners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import DomainError, LtpError
from .groups import KIND_FINITE, GroupModel, _LatticeCarrier
from .convolve import ConvOperator, _CirculantProduct, _kernel_blocks, convolve
from .space import Exponent, GFunction, lp_norm

# Largest model whose p = 2 singular value comes from dense ``eigh`` of
# M^H M; above it the Lanczos iteration is cheaper (measured, see the
# docstring).
_SVD_DENSE_CAP = 224
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
        if self.max_iters < 1:
            raise DomainError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.restarts < 1:
            raise DomainError(f"restarts must be at least 1, got {self.restarts}")
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
    sharing the block count apart.
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


def tempered_upper(f: GFunction, p, method: str = "auto") -> float:
    """``tempered_norm(f, p, method=method).upper``, bit for bit.

    The iterative and bound routes take their upper end from the
    weighted-L1 value whatever the iteration attains, so on those routes it
    is returned without building a product or running the iteration, also
    past the dense cap, where the Boyd route refuses on nonabelian models
    and the affine grid.  Every exact route computes the norm as
    ``tempered_norm`` does.
    """
    exp = Exponent.of(p)
    if _route(f.group, exp, method).method in (METHOD_BOYD, METHOD_WL1_BOUND):
        return upper_bound_weighted_l1(f, exp)
    return tempered_norm(f, exp, method=method).upper


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
    return [NormEstimate(0.0, 0.0, route.method) if f.is_zero else next(found) for f in fs]


class _Route(NamedTuple):
    method: str
    serves: Callable[[GroupModel, float], bool]
    run: Callable[[list[GFunction], Exponent, IterConfig | None], list[NormEstimate]]


# The routes in dispatch order; each ``run`` maps nonzero f on one model to
# their estimates.  Each looks its route function up when called, so a
# function patched on the module is the one that runs.
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
    _Route(METHOD_EXACT_SVD, lambda model, p: p == 2.0,
           lambda fs, exp, cfg: [_exact_svd(f) for f in fs]),
    # the dual exponent is infinite at p = 1, where the dual step is undefined
    _Route(METHOD_BOYD, lambda model, p: p > 1.0,
           lambda fs, exp, cfg: _boyd_norms(fs, exp, cfg or IterConfig())),
    _Route(METHOD_WL1_BOUND, lambda model, p: True,
           lambda fs, exp, cfg: [_wl1_bound(f, exp) for f in fs]),
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
    occupied rows, the leading axis is the matmul twiddle @ rows, and the
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
    top = np.max(np.abs(product.symbol))
    support = carrier.coords[np.flatnonzero(f.values)]
    eta = math.pi * float(np.sum(support.max(axis=0) - support.min(axis=0))) / pad
    upper = upper_bound_weighted_l1(f, 2.0)
    if eta * eta < 2.0:
        rounding = _symbol_rounding(f, pad)
        upper = min(upper, (top + rounding) / math.sqrt(1.0 - 0.5 * eta * eta))
    return NormEstimate(top, upper, METHOD_SPECTRAL)


# ---------------------------------------------------------------------------
# p = 2 general: singular values of the weighted similarity
# ---------------------------------------------------------------------------


def _exact_svd(f: GFunction) -> NormEstimate:
    model = f.group
    n = model.n
    mat = ConvOperator(f).weighted_matrix(2)
    scale_back = model.weights ** (-0.5)
    # the top eigenpair of M^H M: sigma^2 and the top right singular vector
    if n <= _SVD_DENSE_CAP:
        lam, vec = eigh(mat.conj().T @ mat, subset_by_index=[n - 1, n - 1])
    else:
        adjoint = mat.conj().T

        def matvec(v):
            return adjoint @ (mat @ v)

        op = LinearOperator((n, n), matvec=matvec, dtype=mat.dtype)
        # a seeded generic start: on abelian models all ones is the
        # character 0, an eigenvector of M^H M, whose Krylov space stops at
        # once (41 against 31 products on cyclic:256)
        v0 = np.random.default_rng(0).standard_normal(n)
        lam, vec = eigsh(op, k=1, which="LA", v0=v0, tol=0)
    sigma = math.sqrt(max(lam[0], 0.0))
    witness = GFunction(model, scale_back * vec[:, 0])
    upper = sigma
    if model.kind != KIND_FINITE:
        # the singular value is exact for the window section only; the norm
        # of the lattice or group the window stands for lies between it and
        # the weighted-L1 bound
        upper = max(sigma, upper_bound_weighted_l1(f, 2.0))
    return NormEstimate(sigma, upper, METHOD_EXACT_SVD, witness=witness)


def _wl1_bound(f: GFunction, exp: Exponent) -> NormEstimate:
    """Cheap certified bracket: the Rayleigh ratio of g = f as the lower
    bound, the weighted-L1 value as the upper.  One convolution, no matrix."""
    upper = upper_bound_weighted_l1(f, exp)
    denom = lp_norm(f, exp)
    lower = lp_norm(convolve(f, f), exp) / denom if denom > 0 else 0.0
    return NormEstimate(lower, upper, METHOD_WL1_BOUND)


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
    the FFT over the window torus, the smallest 5-smooth period per axis
    that is at least the window side (18 on z2:8, 135 on z:64).  Every other
    model multiplies by the dense weighted matrix of its lone f (see
    ``_boyd_norms``), on every cell."""
    model = fs[0].group
    if model.cyclic_factors is not None:
        return _CirculantProduct(fs, columns=columns)
    carrier = model.carrier
    if isinstance(carrier, _LatticeCarrier):
        torus = (_smooth_size(carrier.side),) * carrier.dim
        return _CirculantProduct(fs, torus, cells, columns)
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
    return NormEstimate(top, upper_bound_weighted_l1(f, exp), METHOD_BOYD,
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
