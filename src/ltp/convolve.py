"""Convolution against left Haar weights.

The convention is convolve(a, b) = a * b with
(a*b)(x) = sum_y w_y a(y) b(y^{-1} x).  The right-convolution map g -> g * f,
whose operator norm is the tempered norm, has the matrix
M[x, y] = w_y K[x, y] with kernel K[x, y] = f(y^{-1} x).

On finite models with declared cyclic factors the map is diagonalised by
the characters, and one circulant operator, :class:`_CirculantProduct`,
holds the only FFT code for them: ``convolve``, the p = 2 route (its symbol
and eigen-characters) and the products of Boyd's iteration all read from
it.  It also places lattice data on a periodic embedding, whose symbol the
lattice p = 2 scan reads and whose products Boyd's iteration takes.  Every
other route (direct convolution, the operator matrix, the exact p = 1
column supremum) reads K from one column-block generator,
:func:`_kernel_blocks`.  Each carrier gives it one table per f and an index
that does not depend on f, and every block is one gather: f zero-padded and
indexed by coordinate differences on the lattices (z, z2, r), a table of
cell averages indexed by (u_y, u_x, b_x - b_y) on the affine grid, and f
indexed by the division table idx[x, y] = y^{-1} x on the other finite
models.

Every result carries the fraction of product mass dropped at a truncation
boundary in its ``leak`` metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceError
from .groups import (KIND_FINITE, GroupModel, _AffineCarrier, _LatticeCarrier)
from .space import Exponent, GFunction

DENSE_CAP = 4096
_CHUNK = 256


def _kernel_blocks(model: GroupModel, values: np.ndarray):
    """Yield (start, stop, K[:, start:stop]) with K[x, y] = f(y^{-1} x).

    ``values`` holds f on the model's cells; K is 0 where y^{-1} x leaves
    the window.  This is the only code that knows the kernel of each
    carrier; callers consume it one 256-column block at a time, so no n x n
    kernel exists unless a caller assembles one.  Lattices read f(x - y)
    from coordinate differences and need no division table.  On the affine
    grid the u shift u_x - u_y is exact, and the b argument
    e^{-u_y} (b_x - b_y) is averaged over the compressed image of each
    source cell (see ``averaged_rows``) once per distinct (u_y, u_x,
    b_x - b_y), with b_x - b_y = d h_b; every block gathers from that table.
    """
    n = model.n
    carrier = model.carrier
    if isinstance(carrier, _AffineCarrier):
        # V[iu_y, iu_x, ib_x - ib_y], filled in slices no larger than a block
        n_u, n_b, wide = carrier.n_u, carrier.n_b, 2 * carrier.n_b - 1
        ext, cum = carrier.b_prefix(values)
        u_idx = np.arange(n_u)
        table = np.empty((n_u, n_u, wide), dtype=values.dtype)
        for lo in range(0, n_u, _CHUNK // 2):
            u_y = u_idx[lo:lo + _CHUNK // 2, None, None]
            comp = np.exp(-carrier.u_values[u_y])
            tau_c = comp * (carrier.h_b * np.arange(1 - n_b, n_b))
            tau_h = 0.5 * comp * carrier.h_b
            table[lo:lo + _CHUNK // 2] = carrier.averaged_rows(
                ext, cum, u_idx[:, None] - u_y + carrier.k_u, tau_c - tau_h, tau_c + tau_h)
        table = table.reshape(-1)
        iu, ib = np.divmod(np.arange(n), n_b)
        rows = iu * wide + ib + n_b - 1
        offset = ib - iu * n_u * wide

        def block(cols):
            return table[rows[:, None] - offset[cols]]
    elif isinstance(carrier, _LatticeCarrier):
        # K[x, y] = f(x - y) read from f zero-padded by R on every side of
        # each axis: the per-axis difference x_a - y_a + 2R indexes the
        # padded copy, and differences that leave the window land on the pad
        side, radius, dim = carrier.side, carrier.radius, carrier.dim
        wide = 2 * side - 1
        ext = np.zeros((wide,) * dim, dtype=values.dtype)
        ext[(slice(radius, radius + side),) * dim] = values.reshape((side,) * dim)
        ext = ext.reshape(-1)
        offset = (carrier.coords + radius) @ (wide ** np.arange(dim - 1, -1, -1))
        rows = offset + 2 * radius * int(np.sum(wide ** np.arange(dim)))

        def block(cols):
            return ext[rows[:, None] - offset[cols]]
    else:
        idx = model.division_table()
        padded = np.concatenate([values, [0.0]])  # -1 sentinel gathers the zero pad

        def block(cols):
            return padded[idx[:, cols]]

    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        yield start, stop, block(slice(start, stop))


def _product_leak(g: GFunction, f: GFunction) -> float:
    """Fraction of |g| x |f| product mass landing outside the window."""
    model = g.group
    mg = model.weights * np.abs(g.values)
    mf = model.weights * np.abs(f.values)
    total = float(mg.sum() * mf.sum())
    if total == 0.0:
        return 0.0
    support_g = np.nonzero(mg)[0]
    support_f = np.nonzero(mf)[0]
    carrier = model.carrier
    out = carrier.outside(carrier.law(carrier.points(support_g[:, None]),
                                      carrier.points(support_f[None, :])))
    leaked = float(np.sum(mg[support_g][:, None] * mf[support_f][None, :] * out))
    return leaked / total


def convolve(g: GFunction, f: GFunction, *, path: str = "auto") -> GFunction:
    """g * f against the left Haar weights of the shared model.

    ``path`` is "auto", where the model picks (the circulant operator of f
    on finite models with declared cyclic factors, the kernel blocks
    elsewhere), or "direct", the kernel blocks on every model: the
    independent reference the circulant operator agrees with to 1e-10
    relative.  The result's ``leak`` field carries the fraction of product
    mass dropped at the truncation boundary (always 0 on finite models).
    """
    g.group.require_same(f.group)
    model = g.group

    if path not in ("auto", "direct"):
        raise ValueError(f"unknown convolution path {path!r}")
    if model.cyclic_factors is not None and path == "auto":
        return GFunction(model, _CirculantProduct(f).apply(g.values), 0.0)

    weighted = model.weights * g.values
    values = np.zeros(model.n, dtype=np.complex128)
    for start, stop, block in _kernel_blocks(model, f.values):
        values += block @ weighted[start:stop]
    leak = 0.0 if model.kind == KIND_FINITE else _product_leak(g, f)
    return GFunction(model, values, leak)


class _CirculantProduct:
    """Right convolution by f on a finite model with cyclic factors:
    M x = w0 ifft(fhat fft(x)) over the factor axes, and M^H uses conj(fhat).
    The Haar weights are constant there, so M is already its own p-weighted
    similarity, for every p.  ``symbol[..., 0] = w0 fhat`` is the eigenvalue
    of M on the character ``character(k)``.

    Given several f, ``symbol`` holds one transform per f along its last
    axis, and ``columns`` names the f whose symbol multiplies each column of
    the block the product is made for; ``keep(cols)`` narrows that block to
    its columns ``cols``.  Without ``columns`` the symbol broadcasts over
    the block.

    With ``torus`` (one period per axis) f lives on a lattice model (z, z2,
    r) and is placed on the periodic embedding Z_torus: cell x sits at
    x mod torus.  ``symbol`` is then w0 fhat sampled at the frequencies
    2 pi m / torus of the dual torus.  ``apply`` places a block given on
    ``cells`` (every cell by default) on the torus and reads the circular
    convolution back on the window; ``adjoint`` goes from the window back to
    ``cells``.  When every g on ``cells`` keeps g * f in the window and each
    period is at least the window side, no image wraps onto the window, so
    this is the window convolution, exactly.

    A 1-D torus transforms the embedded grid.  In 2-D f occupies s of the
    pad torus rows (at most 17 of 512 on z2:8), so only those rows are
    placed and transformed along the last axis: the 1-D transforms ``fftn``
    runs first, value for value.  The leading axis is then one matmul,
    twiddle (pad x s) @ rows (s x pad) with
    twiddle[m, j] = exp(-2 pi i ((m r_j) mod pad) / pad) for row r_j.
    Its cost grows as s pad^2 against pad^2 log(pad) for an FFT over all
    pad rows, so it wins while s is small: the p = 2 route on z2:8 takes
    1.9-2.6 ms a call, against 7.4-8.3 ms with ``fftn`` of the whole grid.
    On full-window supports from z2:100 up it is slower than ``fftn``: 62
    against 53 ms a call on z2:100 (s = 201, pad 1024) and 397 against
    253 ms on z2:200 (s = 401, pad 2048).  The suite's only 2-D model,
    z2:8, occupies at most 17 rows."""

    def __init__(self, f: GFunction | list[GFunction], torus: tuple[int, ...] | None = None,
                 cells: np.ndarray | None = None, columns: np.ndarray | None = None):
        fs = [f] if isinstance(f, GFunction) else list(f)
        model = fs[0].group
        values = np.stack([g.values for g in fs], axis=1)
        w0 = float(model.weights[0])
        self.shape = tuple(model.cyclic_factors if torus is None else torus)
        self.axes = tuple(range(len(self.shape)))
        if torus is None:
            self.symbol = w0 * np.fft.fftn(values.reshape(self.shape + (len(fs),)),
                                           axes=self.axes)
            self._window = self._cells = None
        else:
            symbol = self._torus_transform(model, values)
            symbol *= w0
            self.symbol = symbol
            self._window = np.ravel_multi_index(tuple((model.carrier.coords % torus).T), torus)
            self._cells = self._window if cells is None else self._window[cells]
        self.columns = columns
        self.keep(slice(None))

    def keep(self, cols) -> None:
        """Multiply only the columns ``cols`` of the block from now on."""
        self._symbol = self.symbol if self.columns is None else \
            self.symbol[..., self.columns[cols]]
        self._conj = None

    def _torus_transform(self, model: GroupModel, values: np.ndarray) -> np.ndarray:
        # the embedded grid in 1-D, the rows some f occupies in 2-D
        at = model.carrier.coords % self.shape
        count = values.shape[1]
        if len(self.shape) == 1:
            grid = np.zeros(self.shape + (count,), dtype=np.complex128)
            grid[tuple(at.T)] = values
            return np.fft.fftn(grid, axes=self.axes)
        cells = np.flatnonzero(np.any(values != 0, axis=1))
        rows, slot = np.unique(at[cells, 0], return_inverse=True)
        occupied = np.zeros((rows.size,) + self.shape[1:] + (count,), dtype=np.complex128)
        occupied[(slot,) + tuple(at[cells, 1:].T)] = values[cells]
        occupied = np.fft.fftn(occupied, axes=self.axes[1:])
        pad = self.shape[0]
        roots = np.exp((-2j * np.pi / pad) * np.arange(pad))
        twiddle = roots[np.arange(pad)[:, None] * rows % pad]
        return (twiddle @ occupied.reshape(rows.size, -1)).reshape(self.shape + (count,))

    def _over_axes(self, transform, y: np.ndarray) -> np.ndarray:
        # one 1-D transform per factor, last axis first as fftn orders them:
        # the same values without fftn's per-call setup
        for axis in reversed(self.axes):
            y = transform(y, axis=axis)
        return y

    def _multiply(self, x: np.ndarray, symbol: np.ndarray, source, target) -> np.ndarray:
        if source is None:
            y = self._over_axes(np.fft.fft, x.reshape(self.shape + (-1,)))
            return self._over_axes(np.fft.ifft, symbol * y).reshape(x.shape)
        grid = np.zeros((math.prod(self.shape),) + x.shape[1:], dtype=np.complex128)
        grid[source] = x
        y = self._over_axes(np.fft.fft, grid.reshape(self.shape + (-1,)))
        y = self._over_axes(np.fft.ifft, symbol * y)
        return y.reshape(grid.shape)[target]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._multiply(x, self._symbol, self._cells, self._window)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        if self._conj is None:  # formed once per set of columns, on the first adjoint
            self._conj = self._symbol.conj()
        return self._multiply(y, self._conj, self._window, self._cells)

    def character(self, k: int) -> np.ndarray:
        """chi_k over the carrier (mixed-radix index k): the inverse
        transform of n times the unit impulse at k."""
        impulse = np.zeros(self.shape + (1,), dtype=np.complex128)
        impulse.flat[k] = impulse.size
        return self._over_axes(np.fft.ifft, impulse).reshape(-1)


@dataclass
class ConvOperator:
    """The right-convolution map g -> g * f as the matrix
    M[x, y] = w_y f(y^{-1} x), materialized on first use and cached.

    Only models with n <= 4096 get a matrix; ``convolve`` applies the map
    on every model without building it.
    """

    f: GFunction
    _matrix: np.ndarray | None = None

    @property
    def group(self) -> GroupModel:
        return self.f.group

    def matrix(self) -> np.ndarray:
        n = self.group.n
        if n > DENSE_CAP:
            raise ResourceError(f"dense operator for n={n} exceeds the cap {DENSE_CAP}")
        if self._matrix is None:
            self._matrix = _operator_matrix(self.f)
        return self._matrix

    def weighted_matrix(self, p) -> np.ndarray:
        """D^{1/p} M D^{-1/p}: the similarity that turns the Haar-weighted
        p -> p operator norm into the plain matrix p-norm."""
        exp = Exponent.of(p)
        w = self.group.weights
        scale_left = w ** (1.0 / exp.p)
        scale_right = w ** (-1.0 / exp.p)
        return scale_left[:, None] * self.matrix() * scale_right[None, :]


def _operator_matrix(f: GFunction) -> np.ndarray:
    model = f.group
    values = f.values.real if f.is_real else f.values  # real f keeps a float64 matrix
    out = np.empty((model.n, model.n), dtype=values.dtype)
    for start, stop, block in _kernel_blocks(model, values):
        out[:, start:stop] = block
    return out * model.weights[None, :]
