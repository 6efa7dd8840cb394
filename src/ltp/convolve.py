"""Convolution against left Haar weights.

The convention is convolve(a, b) = a * b with
(a*b)(x) = sum_y w_y a(y) b(y^{-1} x).  The right-convolution map g -> g * f,
whose operator norm is the tempered norm, has the matrix
M[x, y] = w_y K[x, y] with kernel K[x, y] = f(y^{-1} x).

On finite models with declared cyclic factors the map is diagonalised by
the characters, and one circulant operator, :class:`_CirculantProduct`,
holds the only FFT code for them: ``convolve``, the p = 2 route (its
symbol and eigen-characters) and the products of Boyd's iteration all read
from it.  Every other route (direct convolution, the operator matrix, the
exact p = 1 column supremum) reads K from one column-block generator,
:func:`_kernel_blocks`: coordinate differences on the lattices (z, z2, r),
cell-averaged quadrature on the affine grid, and a gather through the
division table idx[x, y] = y^{-1} x on the other finite models.

Every result carries the fraction of product mass dropped at a truncation
boundary in its ``leak`` metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceError
from .groups import (KIND_FINITE, GroupModel, _AffineCarrier, _LatticeCarrier)
from .space import GFunction, lp_norm

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
    source cell (see ``averaged_rows``).
    """
    n = model.n
    carrier = model.carrier
    if isinstance(carrier, _AffineCarrier):
        iu_all, _ = carrier.split(np.arange(n))
        u = carrier.coords[:, 0]
        b = carrier.coords[:, 1]
        ext, cum = carrier.b_prefix(values)

        def block(cols):
            rows = iu_all[:, None] - iu_all[cols][None, :] + carrier.k_u
            comp = np.exp(-u[cols])[None, :]
            tau_c = comp * (b[:, None] - b[cols][None, :])
            tau_h = 0.5 * comp * carrier.h_b
            return carrier.averaged_rows(ext, cum, rows, tau_c - tau_h, tau_c + tau_h)
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
    if isinstance(carrier, _LatticeCarrier):
        cg = carrier.to_coords(support_g)[:, None, :]
        cf = carrier.to_coords(support_f)[None, :, :]
        out = np.any(np.abs(cg + cf) > carrier.radius, axis=2)
    else:  # the affine grid, the only other windowed carrier
        ug, bg = carrier.coords[support_g].T[:, :, None]
        uf, bf = carrier.coords[support_f].T[:, None, :]
        out = ~carrier.inside(*carrier.product_coords(ug, bg, uf, bf))
    leaked = float(np.sum(mg[support_g][:, None] * mf[support_f][None, :] * out))
    return leaked / total


def convolve(g: GFunction, f: GFunction, *, path: str = "auto") -> GFunction:
    """g * f against the left Haar weights of the shared model.

    ``path`` is "auto", "direct", or "spectral"; the spectral path applies
    the circulant operator of f, exists only on finite models with declared
    cyclic factors (where "auto" takes it) and agrees with the direct path
    to 1e-10 relative.  The result's ``leak`` field carries the fraction of
    product mass dropped at the truncation boundary (always 0 on finite
    models).
    """
    g.group.require_same(f.group)
    model = g.group

    if path not in ("auto", "direct", "spectral"):
        raise ValueError(f"unknown convolution path {path!r}")

    if path == "spectral" and model.cyclic_factors is None:
        raise ResourceError("spectral path needs a finite model with declared cyclic factors")
    if model.cyclic_factors is not None and path != "direct":
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
    similarity, for every p.  ``symbol[k] = w0 fhat[k]`` is the eigenvalue
    of M on the character ``character(k)``."""

    def __init__(self, f: GFunction):
        self.shape = tuple(f.group.cyclic_factors)
        self.axes = tuple(range(len(self.shape)))
        w0 = float(f.group.weights[0])
        self.symbol = w0 * np.fft.fftn(f.values.reshape(self.shape))[..., None]

    def _over_axes(self, transform, y: np.ndarray) -> np.ndarray:
        # one 1-D transform per factor, last axis first as fftn orders them:
        # the same values without fftn's per-call setup
        for axis in reversed(self.axes):
            y = transform(y, axis=axis)
        return y

    def _multiply(self, x: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        y = self._over_axes(np.fft.fft, x.reshape(self.shape + (-1,)))
        return self._over_axes(np.fft.ifft, symbol * y).reshape(x.shape)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._multiply(x, self.symbol)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self._multiply(y, self.symbol.conj())

    def character(self, k: int) -> np.ndarray:
        """chi_k over the carrier (mixed-radix index k): the inverse
        transform of n times the unit impulse at k."""
        impulse = np.zeros(self.symbol.shape, dtype=np.complex128)
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
        from .space import Exponent
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


def conv_operator(f: GFunction) -> ConvOperator:
    return ConvOperator(f)


def associativity_check(f: GFunction, g: GFunction, h: GFunction) -> float:
    """L2 norm of (f*g)*h - f*(g*h); bounded by 1e-10 on finite models where
    the Fubini exchange is a finite sum.  Uses the direct summation path so
    that Dirac triples cancel exactly."""
    left = convolve(convolve(f, g, path="direct"), h, path="direct")
    right = convolve(f, convolve(g, h, path="direct"), path="direct")
    return lp_norm(left - right, 2)
