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
lattice p = 2 scan reads and whose products Boyd's iteration takes.  On
the other finite models the irreducible representations split the map
into blocks instead: :func:`irreducible_blocks` builds the blocks of the
regular representation once per model, up to ``DENSE_EIGH_CAP`` cells,
from the products the model's division table holds, and the p = 2 route
reads the blocks of f from them.  Either transform is the route that
spectral-svd-agreement sets against the dense singular value.  Every
other route (direct convolution, the operator matrix, the exact p = 1
column supremum) reads K from one column-block generator,
:func:`_kernel_blocks`.  Each carrier gives it one table per f and an
index that does not depend on f, and every block is one gather: f
zero-padded and indexed by coordinate differences on the lattices (z, z2,
r), a table of cell averages indexed by (u_y, u_x, b_x - b_y) on the affine
grid, and f indexed by the division table idx[x, y] = y^{-1} x on the
other finite models.

Every result carries the fraction of product mass dropped at a truncation
boundary in its ``leak`` metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LtpError, ResourceError
from .groups import (KIND_FINITE, GroupModel, _AffineCarrier, _CHUNK, _LatticeCarrier)
from .space import Exponent, GFunction

DENSE_CAP = 4096


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
        idx = model.division_table()  # a finite division table holds no -1

        def block(cols):
            return values[idx[:, cols]]

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
    points_f, mass_f = carrier.points(support_f[None, :]), mf[support_f][None, :]
    leaked = 0.0
    # _CHUNK cells of g's support at a time: no |supp g| x |supp f| array
    for start in range(0, support_g.size, _CHUNK):
        rows = support_g[start:start + _CHUNK]
        out = carrier.outside(carrier.law(carrier.points(rows[:, None]), points_f))
        leaked += float(np.sum(mg[rows][:, None] * mass_f * out))
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
        raise DomainError(f"unknown convolution path {path!r}")
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

    With ``torus`` f lives on a lattice model (z, z2, r) and is placed on
    the periodic embedding Z_torus.  The symbol is then w0 fhat sampled at
    the frequencies 2 pi m / torus of the dual torus, held whole as
    ``symbol`` on a 1-D torus and streamed by ``symbol_blocks`` on a 2-D one.

    A 1-D torus Z_N holds every lattice window, of any dimension, by cell
    index: with N >= n, g and g * f sit at their own cell index i and f at
    (i - e) mod N, e the identity's index.  Each product is then one FFT
    pair of length N.  ``apply`` places a block given on ``cells`` (every
    cell by default) and reads the circular convolution back on cells
    0 .. n-1; ``adjoint`` goes from those cells back to ``cells``.  This is
    the window convolution exactly when every g on ``cells`` keeps g * f in
    the window (Kronecker substitution; Nussbaumer, Fast Fourier Transform
    and Convolution Algorithms, 1982, ch. 3).  The index of a cell is the
    row-major offset phi(x) = sum_a x_a side^(d-1-a) of its coordinates
    plus e, and phi is linear, so f(s) at phi(s) and g(y) at phi(y) + e
    meet at phi(y + s) + e mod N, the index of y + s.
      apply: for y on ``cells`` and s in supp f, y + s lies in the window,
        so its index is in [0, n) and lands on its own residue.
      adjoint: a stray term at y on ``cells`` pairs a window cell x with an
        s in supp f, x != y + s, at the same residue.  y + s is a window
        cell too, so w = x - (y + s) != 0 has every |w_a| <= side - 1 and
        phi(w) = 0 mod N.  But |phi(w)| <= side^d - 1 = n - 1 < N, and
        phi(w) = 0 forces w = 0, since |sum_{a>b} w_a side^(d-1-a)| <=
        side^(d-1-b) - 1.
    Distinct cells of supp f also keep distinct residues, their indices
    being less than n <= N apart.

    A 2-D torus, one period per axis, serves the p = 2 symbol scan alone
    (no ``symbol``, ``apply`` or ``adjoint``): cell x sits at its
    coordinates mod torus.  There f occupies s of the pad torus rows (at
    most 17 of 512 on z2:8), so only those rows are placed and transformed
    along the last axis: the 1-D transforms ``fftn`` runs first, value for
    value.  The leading axis is then the matmul twiddle (pad x s) @ rows
    (s x pad) with twiddle[m, j] = exp(-2 pi i ((m r_j) mod pad) / pad)
    for row r_j, taken one block of twiddle rows at a time, at most
    ``_CHUNK ** 2`` nodes (128 rows at pad 512).  ``symbol_blocks`` yields
    each block scaled by w0 and ``symbol_max`` folds them into one maximum,
    so no pad x pad array exists: the traced peak of the p = 2 route on
    z2:8 is 2.2 MiB, against 6.0 MiB for the whole grid and its |.|.
    Every node is the same inner product as in one matmul of the whole
    grid, and reads the same bits.  The cost grows as s pad^2 against
    pad^2 log(pad) for an FFT over all pad rows, so it wins while s is
    small: the p = 2 route on z2:8 takes 1.8 ms a call on a full window,
    against 5.0 ms for ``fftn`` of the whole grid and its maximum alone.
    On full-window supports from z2:100 up it is slower than ``fftn``:
    35-38 against 31-34 ms a call on z2:100 (s = 201, pad 1024) and
    276-309 against 155-174 ms on z2:200 (s = 401, pad 2048), 5-10% more
    than one matmul of the whole grid took.  The suite's only 2-D model, z2:8,
    occupies at most 17 rows."""

    def __init__(self, f: GFunction | list[GFunction], torus: tuple[int, ...] | None = None,
                 cells: np.ndarray | None = None, columns: np.ndarray | None = None):
        fs = [f] if isinstance(f, GFunction) else list(f)
        model = fs[0].group
        values = np.stack([g.values for g in fs], axis=1)
        w0 = float(model.weights[0])
        self.shape = tuple(model.cyclic_factors if torus is None else torus)
        self.axes = tuple(range(len(self.shape)))
        self._scan = None
        if torus is None:
            self.symbol = w0 * np.fft.fftn(values.reshape(self.shape + (len(fs),)),
                                           axes=self.axes)
            self._window = self._cells = None
        elif len(self.shape) == 1:
            # cell i at (i - e) mod N
            grid = np.zeros(self.shape + (len(fs),), dtype=np.complex128)
            grid[(np.arange(model.n) - model.identity) % self.shape[0]] = values
            self.symbol = np.fft.fftn(grid, axes=self.axes)
            self.symbol *= w0
            self._window = slice(0, model.n)
            self._cells = self._window if cells is None else cells
        else:
            self.symbol = None
            self._scan = self._occupied_rows(model, values)
            self._w0 = w0
        self.columns = columns
        self.keep(slice(None))

    def keep(self, cols) -> None:
        """Multiply only the columns ``cols`` of the block from now on."""
        self._symbol = self.symbol if self.columns is None else \
            self.symbol[..., self.columns[cols]]
        self._conj = None

    def _occupied_rows(self, model: GroupModel, values: np.ndarray):
        # the torus rows some f occupies, and their last-axis transforms
        # raveled one row of the torus per row
        at = model.carrier.coords % self.shape
        cells = np.flatnonzero(np.any(values != 0, axis=1))
        rows, slot = np.unique(at[cells, 0], return_inverse=True)
        occupied = np.zeros((rows.size,) + self.shape[1:] + values.shape[1:],
                            dtype=np.complex128)
        occupied[(slot,) + tuple(at[cells, 1:].T)] = values[cells]
        occupied = np.fft.fftn(occupied, axes=self.axes[1:])
        return rows, occupied.reshape(rows.size, -1)

    def symbol_blocks(self):
        """Yield (start, block): the symbol on the leading-axis indices
        start, start + 1, ... of ``block``.  Without a 2-D torus that is the
        whole ``symbol`` at once.  On a 2-D torus each block is the twiddle
        matmul for at most ``_CHUNK ** 2`` nodes, written into one buffer
        that the next block overwrites.  On z2:8 a scan took 1.48 ms so,
        2.15 ms with a fresh 1 MB array per block and 1.60 ms as one matmul
        of the whole grid (glibc, one BLAS thread)."""
        if self._scan is None:
            yield 0, self.symbol
            return
        rows, occupied = self._scan
        pad = self.shape[0]
        height = max(1, _CHUNK ** 2 // occupied.shape[1])
        roots = np.exp((-2j * np.pi / pad) * np.arange(pad))
        buffer = np.empty((height, occupied.shape[1]), dtype=np.complex128)
        for start in range(0, pad, height):
            twiddle = roots[np.arange(start, min(start + height, pad))[:, None] * rows % pad]
            block = np.matmul(twiddle, occupied, out=buffer[:len(twiddle)])
            block *= self._w0
            yield start, block.reshape((len(twiddle),) + self.shape[1:] + (-1,))

    def symbol_max(self) -> float:
        """max |symbol| over every node and f, folded block by block."""
        return float(np.max([np.max(np.abs(block)) for _, block in self.symbol_blocks()]))

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


@dataclass(frozen=True)
class IrreducibleBlocks:
    """The regular representation of a finite model split into irreducible
    blocks, the Fourier transform of a group with no character table.

    Each irreducible pi of dimension d appears in the right-translation
    representation (rho(z) g)(x) = g(x z^{-1}) on an orthonormal basis
    ``bases[k]`` (n x d) of an invariant subspace, where
    T_z = E^H rho(z) E.  Right convolution by f is w0 sum_z f(z) rho(z),
    so on that subspace it is the block fhat(pi) = w0 sum_z f(z) T_z, and
    every other copy of pi carries the same block: the p = 2 tempered norm
    is max_pi sigma_max(fhat(pi)) (Plancherel; Serre, Linear Representations
    of Finite Groups, 2.6).  Row z of ``table`` holds every T_z raveled, the
    irreducibles in the order of ``dims``, ascending: sum d^2 = n columns,
    so the blocks of f are the row vector f @ table.
    """

    dims: np.ndarray
    bases: tuple[np.ndarray, ...]
    table: np.ndarray


# Largest model whose irreducible blocks are built: the build is one dense
# n x n eigh plus a gather of n^2 d values per irreducible of dimension d.  It
# takes 11-13 ms on dihedral:64; past the cap it costs as much as many calls
# of the exact_svd route: 0.7 s and a 133 MB gather for the 16-dimensional
# irreducibles of symmetric:6 (720 cells), against 49-50 ms a call (one BLAS
# thread, 2-vCPU host).
DENSE_EIGH_CAP = 224
# Seeded draws the build tries before it refuses, and the relative gap below
# which two eigenvalues of a draw count as one.
_BLOCK_DRAWS = 4
_BLOCK_SPLIT = 1e-8


def _hermitian_draw(rng, labels: np.ndarray, inverses: np.ndarray) -> np.ndarray:
    """A random complex h, constant on the level sets of ``labels`` (cell
    indices), with h(z^{-1}) = conj h(z).  It is complex: a real h of that
    symmetry gives pi and its conjugate one eigenvalue."""
    r = rng.standard_normal(labels.size) + 1j * rng.standard_normal(labels.size)
    h = r[labels]
    return h + h[inverses].conj()


def _split_blocks(model: GroupModel, right: np.ndarray, classes: np.ndarray,
                  rng) -> IrreducibleBlocks | None:
    """One seeded draw of the blocks, or None when the draw does not
    separate the irreducibles.

    Left convolution by a central Hermitian c is c[right] (x z^{-1} at
    [x, z]); its eigenspaces are the isotypic components, one of dimension
    d^2 per irreducible.  Left convolution by a Hermitian a, a[right],
    commutes with every rho(z), so each of its eigenspaces inside a
    component is invariant: one of dimension d is E.  The draw is refused
    unless every component has a square size, its top d eigenvalues of a
    are one cluster, T at the identity is I and every T_z is unitary (E's
    span is invariant), and sum_pi d tr T_z is n at the identity and 0
    elsewhere (the blocks hold every irreducible, d times over).
    """
    n = model.n
    inverses = model.inverses
    c = _hermitian_draw(rng, classes, inverses)
    a = _hermitian_draw(rng, np.arange(n), inverses)
    lam, vec = np.linalg.eigh(c[right])
    # sum |c| bounds the eigenvalues; one component's agree to rounding
    cuts = np.flatnonzero(np.diff(lam) > _BLOCK_SPLIT * float(np.sum(np.abs(c)))) + 1
    bounds = np.concatenate(([0], cuts, [n]))
    sizes = np.diff(bounds)
    dims = np.rint(np.sqrt(sizes)).astype(np.int64)
    if np.any(dims * dims != sizes):
        return None
    spread = _BLOCK_SPLIT * float(np.sum(np.abs(a)))
    moved = a[right] @ vec
    bases = []
    for start, stop, d in zip(bounds[:-1], bounds[1:], dims):
        lam_a, vec_a = np.linalg.eigh(vec[:, start:stop].conj().T @ moved[:, start:stop])
        top = lam_a[-d:]
        if top[-1] - top[0] > spread or (d < stop - start and top[0] - lam_a[-d - 1] <= spread):
            return None
        bases.append(np.linalg.qr(vec[:, start:stop] @ vec_a[:, -d:])[0])
    order = np.argsort(dims, kind="stable")
    dims = dims[order]
    bases = tuple(bases[k] for k in order)
    # T[z, i, j] = sum_x conj E[x, i] E[x z^{-1}, j], one matmul per block
    blocks = [(basis.conj().T @ basis[right].reshape(n, -1)).reshape(d, n, d).transpose(1, 0, 2)
              for basis, d in zip(bases, dims)]
    tol = 1e-10  # every residual is below 2e-14 up to the cap
    e = model.identity
    if any(np.max(np.abs(t[e] - np.eye(d))) > tol
           or np.max(np.abs(np.sum(np.abs(t) ** 2, axis=(1, 2)) - d)) > tol
           for t, d in zip(blocks, dims)):
        return None
    regular = sum(d * np.trace(t, axis1=1, axis2=2) for t, d in zip(blocks, dims))
    regular[e] -= n
    if np.max(np.abs(regular)) > tol:
        return None
    table = np.concatenate([t.reshape(n, -1) for t in blocks], axis=1)
    for array in (dims, table) + bases:
        array.setflags(write=False)
    return IrreducibleBlocks(dims, bases, table)


def irreducible_blocks(model: GroupModel) -> IrreducibleBlocks:
    """The irreducible blocks of a finite model of at most ``DENSE_EIGH_CAP``
    cells, built once per model and cached.

    Each of ``_BLOCK_DRAWS`` seeded draws is checked (see ``_split_blocks``)
    and the first that passes is kept, so the blocks are the same on every
    build; when none passes the build raises :class:`LtpError`, and never
    returns a block it could not check.
    """
    cached = model._cache.get("blocks")
    if cached is not None:
        return cached
    if model.kind != KIND_FINITE:
        raise DomainError(f"irreducible blocks need a finite model, {model.name} is not")
    n = model.n
    if n > DENSE_EIGH_CAP:
        raise ResourceError(f"irreducible blocks for n={n} exceed the cap {DENSE_EIGH_CAP}")
    # every product from the division table D[x, y] = y^{-1} x: the right
    # translations x z^{-1} = D[z^{-1}, x^{-1}], C-contiguous, since gathers
    # through a transposed index come out transposed and the block table
    # then moves by rounding
    table = model.division_table()
    inv = model.inverses
    right = np.ascontiguousarray(table[np.ix_(inv, inv)].T)
    # the conjugacy class of x named by its least member g x g^{-1}, with
    # g x = D[x, g^{-1}]
    classes = right[table[:, inv], np.arange(n)].min(axis=1)
    for draw in range(_BLOCK_DRAWS):
        blocks = _split_blocks(model, right, classes, np.random.default_rng(draw))
        if blocks is not None:
            model._cache["blocks"] = blocks
            return blocks
    raise LtpError(f"irreducible blocks of {model.name}: none of {_BLOCK_DRAWS} seeded "
                   "draws separated its representations")


@dataclass
class ConvOperator:
    """The right-convolution map g -> g * f as the matrix
    M[x, y] = w_y f(y^{-1} x), materialized on first use and cached.

    Only models with n <= 4096 get a matrix, read-only; ``convolve``
    applies the map on every model without building it.
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
            self._matrix.setflags(write=False)
        return self._matrix

    def weighted_matrix(self, p) -> np.ndarray:
        """D^{1/p} M D^{-1/p}: the similarity that turns the Haar-weighted
        p -> p operator norm into the plain matrix p-norm."""
        exp = Exponent.of(p)
        w = self.group.weights
        scale_left = w ** (1.0 / exp.p)
        scale_right = w ** (-1.0 / exp.p)
        out = scale_left[:, None] * self.matrix()  # a new array, scaled in place
        out *= scale_right
        return out


def _operator_matrix(f: GFunction) -> np.ndarray:
    model = f.group
    values = f.values.real if f.is_real else f.values  # real f keeps a float64 matrix
    out = np.empty((model.n, model.n), dtype=values.dtype)
    for start, stop, block in _kernel_blocks(model, values):
        out[:, start:stop] = block
    return out * model.weights[None, :]
