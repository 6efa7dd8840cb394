"""Desk-scale models of locally compact groups.

Three carrier kinds are supported:

* ``finite``: exact Cayley arithmetic (cyclic, dihedral, symmetric groups
  and direct products of these), optionally with probability-normalized
  Haar weights.
* ``lattice-truncated``: boxes in Z^d with exact integer arithmetic;
  products falling outside the box map to an absorbing out-of-window state.
* ``quadrature``: step grids for the real line and for the affine (ax+b)
  group.  The affine model stores a on a geometric grid a = exp(u) with
  uniform u, so group products are exact in u and interpolated in b.

Elements are indices 0..n-1.  Cells with several coordinates (the factor
cells of a product, the shifted coordinates of a lattice) are numbered in
numpy's C order, ``np.ravel_multi_index``: the last coordinate varies
fastest.  The sentinel ``OUT_OF_WINDOW`` (-1) flags products that land
outside a truncated window; convolution sums drop those terms and account
for the dropped mass.
"""

from __future__ import annotations

import math
import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ModelMismatchError, ResourceError, SpecParseError

OUT_OF_WINDOW = -1

KIND_FINITE = "finite"
KIND_LATTICE = "lattice-truncated"
KIND_QUADRATURE = "quadrature"

COUNTING = "counting"
PROBABILITY = "probability"

# The properties a model states (``GroupModel.properties``) and the suite's
# checks read as the hypotheses of their statements; the two normalizations
# are properties too.
FINITE = "finite"
COMPACT = "compact"
DISCRETE = "discrete"
ABELIAN = "abelian"
UNIMODULAR = "unimodular"
REAL_LINE = "real line"
PROPERTIES = frozenset({FINITE, COMPACT, DISCRETE, ABELIAN, UNIMODULAR, REAL_LINE,
                        COUNTING, PROBABILITY})

ELEMENT_CAP = 1 << 20  # largest carrier build_group makes

# Finite models up to this size are validated exactly on their division
# table; larger ones and lattices on seeded samples, with no n x n table.
_EXACT_LIMIT = 512
_SAMPLED_TRIPLES = 4096
_CHUNK = 256  # rows or columns per vectorized call: division table, kernel, leak
# Affine validation tolerances: modular multiplicativity at the snapped
# product, and the empirical modular estimate against Delta = e^{-u}.
_AFFINE_TOL_MULT = 1e-12
_AFFINE_TOL_MODULAR = 1e-2


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupSpec:
    """Parsed form of a group descriptor string.

    Grammar, one ``_FAMILIES`` record per family (suffix ``@counting`` or
    ``@probability`` optional, the family's default otherwise: probability
    for ``circle``, counting for the rest):

        cyclic:N | circle:N | dihedral:N | symmetric:N
        product:SPEC+SPEC[+SPEC...]     (finite factors, not products)
        z:R | z2:R | r:H:B | affine:HU:RU:HB:RB

    N and R are positive integers; the other parameters are positive finite
    numbers in (step, radius) pairs, each radius at least its step.  Equal
    specs name the same group, however written: ``text`` is not compared.
    """

    text: str = field(compare=False)
    family: str
    params: tuple
    normalization: str
    factors: tuple["GroupSpec", ...] = ()


_COUNTS = ("N", "R")  # the integer parameters; every other one is a step or radius


def _parse_param(name: str, token: str, usage: str):
    """One parameter, named in the family's ``usage`` line: a positive
    integer for N and R, a positive finite number for every other name."""
    count = name in _COUNTS
    try:
        value = int(token) if count else float(token)
    except ValueError:
        value = None
    if value is None or not value > 0 or not (count or math.isfinite(value)):
        what = "a positive integer" if count else "a positive finite number"
        raise SpecParseError(f"{usage}, {name} {what}, got {token!r}")
    return value


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a group descriptor string into a :class:`GroupSpec`."""
    if not isinstance(text, str) or not text.strip():
        raise SpecParseError("empty group spec")
    raw = text.strip()

    normalization = None
    body = raw
    if "@" in raw:
        body, _, suffix = raw.rpartition("@")
        if suffix not in (COUNTING, PROBABILITY):
            raise SpecParseError(f"unknown normalization suffix {suffix!r}")
        normalization = suffix
    if not body:
        raise SpecParseError(f"missing group family in {raw!r}")

    family, _, rest = body.partition(":")
    if family not in _FAMILIES:
        raise SpecParseError(f"unknown group family {family!r}")
    record = _FAMILIES[family]
    normalization = normalization or record.normalization

    if family == "product":
        if not rest:
            raise SpecParseError("product needs at least two factors")
        parts = rest.split("+")
        if len(parts) < 2:
            raise SpecParseError("product needs at least two '+'-separated factors")
        factors = []
        for part in parts:
            if "@" in part:
                raise SpecParseError("normalization suffix belongs after the whole product")
            sub = parse_group_spec(part)
            if sub.family == "product":
                raise SpecParseError("nested products are not supported; flatten the factor list")
            if _FAMILIES[sub.family].kind != KIND_FINITE:
                raise SpecParseError(f"product factors must be finite groups, got {part!r}")
            factors.append(sub)
        return GroupSpec(raw, "product", (), normalization, tuple(factors))

    usage = f"{family} takes " + ":".join((family,) + record.params)
    tokens = rest.split(":")
    if len(tokens) != len(record.params):
        raise SpecParseError(usage)
    params = tuple(_parse_param(name, token, usage)
                   for name, token in zip(record.params, tokens))
    steps = [value for name, value in zip(record.params, params) if name not in _COUNTS]
    if any(radius < step for step, radius in zip(steps[::2], steps[1::2])):
        raise SpecParseError(f"{usage}, each radius at least its step")
    return GroupSpec(raw, family, params, normalization)


# ---------------------------------------------------------------------------
# Carriers: index arithmetic for each family
# ---------------------------------------------------------------------------


def _capped(n: int) -> int:
    """n, the cell count of a carrier about to be built, checked against
    ``ELEMENT_CAP`` before the carrier allocates anything."""
    if n > ELEMENT_CAP:
        raise ResourceError(f"a carrier of {n} cells exceeds the cap {ELEMENT_CAP}")
    return n


def _half_width(radius: float, step: float) -> int:
    """round(radius / step), the cells on each side of the centre of a grid
    axis, checked against ``ELEMENT_CAP`` while the ratio is still a float:
    past the cap, or too large for an int, it is a ResourceError."""
    ratio = radius / step
    if not ratio <= ELEMENT_CAP:
        raise ResourceError(
            f"a grid axis of {2.0 * ratio:.3g} cells exceeds the cap {ELEMENT_CAP}")
    return int(round(ratio))


class _Carrier:
    """A group stated once: subclasses define ``law`` and ``law_inverse`` on
    points.  On index carriers a point is its cell index, ``OUT_OF_WINDOW``
    for a product that leaves a truncated window; other carriers define
    ``points``, the point of each cell, and ``cell``, the cell of a point
    (``OUT_OF_WINDOW`` off the window).  ``op`` and ``inv``, the law on
    cells that the division table and validation read, derive from these.
    The transports read the law on points, ``outside`` flags points off
    the window and ``read`` evaluates cell data at points.
    """

    n: int
    identity: int
    is_abelian: bool
    cyclic_factors: tuple[int, ...] | None = None

    def law(self, x, y):
        raise NotImplementedError

    def law_inverse(self, x):
        raise NotImplementedError

    def points(self, cells):
        return np.asarray(cells)

    def cell(self, x):
        return x

    def op(self, i, j):
        return self.cell(self.law(self.points(i), self.points(j)))

    def inv(self, i):
        return self.cell(self.law_inverse(self.points(i)))

    def outside(self, x):
        return np.asarray(x) == OUT_OF_WINDOW

    def read(self, values: np.ndarray, x):
        x = np.asarray(x)
        return np.where(x == OUT_OF_WINDOW, 0.0, values[np.clip(x, 0, None)])


class _CyclicCarrier(_Carrier):
    def __init__(self, n: int):
        self.n = _capped(n)
        self.identity = 0
        self.is_abelian = True
        self.cyclic_factors = (n,)

    def law(self, i, j):
        return (np.asarray(i) + np.asarray(j)) % self.n

    def law_inverse(self, i):
        return (-np.asarray(i)) % self.n


class _DihedralCarrier(_Carrier):
    """Order-2m dihedral group; index s*m + r for rotation r, flip s."""

    def __init__(self, m: int):
        self.m = m
        self.n = _capped(2 * m)
        self.identity = 0
        self.is_abelian = m <= 2

    def law(self, i, j):
        s1, r1 = np.divmod(i, self.m)
        s2, r2 = np.divmod(j, self.m)
        return (s1 ^ s2) * self.m + (r1 + np.where(s1 == 1, -r2, r2)) % self.m

    def law_inverse(self, i):
        s, r = np.divmod(i, self.m)
        return s * self.m + np.where(s == 1, r, -r % self.m)


class _SymmetricCarrier(_Carrier):
    """Symmetric group on N letters, permutations in lexicographic order.

    Composition convention: (p*q)(t) = p(q(t)).  A permutation's rank is the
    position of its base-N code among the codes of ``perms``, which ascend
    with the lexicographic order, so no Cayley table is materialized.
    """

    def __init__(self, big_n: int):
        if big_n > 10:
            raise ResourceError(f"symmetric:{big_n} is far beyond desk scale")
        self.n = _capped(math.factorial(big_n))
        self.perms = np.array(list(itertools.permutations(range(big_n))), dtype=np.int64)
        self.identity = 0
        self.is_abelian = big_n <= 2
        # the codes fit in int64: ELEMENT_CAP stops N at 9, and 9**9 < 2**63
        self._place = big_n ** np.arange(big_n - 1, -1, -1, dtype=np.int64)
        self._codes = self.perms @ self._place

    def _rank(self, rows: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._codes, rows @ self._place)

    def law(self, i, j):
        i, j = np.broadcast_arrays(i, j)
        return self._rank(self.perms[i[..., None], self.perms[j]])

    def law_inverse(self, i):
        return self._rank(np.argsort(self.perms[i], axis=-1))


class _ProductCarrier(_Carrier):
    """Direct product; cell ``ravel_multi_index(factor cells, shape)``."""

    def __init__(self, children: Sequence[_Carrier]):
        self.children = list(children)
        self.shape = tuple(c.n for c in self.children)
        self.n = _capped(math.prod(self.shape))
        self.identity = int(np.ravel_multi_index([c.identity for c in self.children], self.shape))
        self.is_abelian = all(c.is_abelian for c in self.children)
        if all(c.cyclic_factors is not None for c in self.children):
            self.cyclic_factors = sum((c.cyclic_factors for c in self.children), ())

    def law(self, i, j):
        pairs = zip(self.children, np.unravel_index(i, self.shape), np.unravel_index(j, self.shape))
        return np.ravel_multi_index([c.law(a, b) for c, a, b in pairs], self.shape)

    def law_inverse(self, i):
        parts = zip(self.children, np.unravel_index(i, self.shape))
        return np.ravel_multi_index([c.law_inverse(a) for c, a in parts], self.shape)


class _LatticeCarrier(_Carrier):
    """Truncated Z^d box [-R, R]^d; addition with an out-of-window sentinel.

    ``coords[i]`` holds the integer coordinates of cell i, the carrier's
    only chart: cell ``ravel_multi_index(coords + R, shape)``, so the centre
    cell is the identity.  ``from_coords`` is its inverse.  ``step`` is the
    length of one lattice unit: 1 on Z and Z^2, the grid step h on the
    real-line quadrature r:h:B.
    """

    def __init__(self, dim: int, radius: int, step: float = 1.0):
        self.dim = dim
        self.radius = radius
        self.step = step
        self.side = 2 * radius + 1
        self.shape = (self.side,) * dim
        self.n = _capped(math.prod(self.shape))
        self.is_abelian = True
        self.identity = self.n // 2
        self.coords = np.stack(np.unravel_index(np.arange(self.n), self.shape), axis=1) - radius
        self.coords.setflags(write=False)

    def from_coords(self, coords):
        """The cell of each coordinate row, ``OUT_OF_WINDOW`` off the box; the
        box test comes before any int cast, so inf and 1e300 read outside."""
        coords = np.asarray(coords)
        inside = np.all(np.abs(coords) <= self.radius, axis=-1)
        cells = np.full(inside.shape, OUT_OF_WINDOW, dtype=np.int64)
        shifted = (coords[inside] + self.radius).astype(np.intp, copy=False)
        cells[inside] = np.ravel_multi_index(tuple(shifted.T), self.shape)
        return cells

    def law(self, x, y):
        return self.from_coords(self.coords[x] + self.coords[y])

    def law_inverse(self, x):
        return self.from_coords(-self.coords[x])


class _AffineCarrier(_Carrier):
    """Grid for the ax+b group in coordinates (u, b) with a = exp(u).

    ``coords[i]`` is the (u, b) of cell i and the carrier's only chart.  A
    point is a pair (u, b) of exact coordinates, scalars or arrays, off-grid
    in general: ``points`` reads the chart, ``law`` is the product
    (u1,b1)(u2,b2) = (u1+u2, exp(u1)*b2 + b1), exact on the u grid, and
    ``read`` evaluates cell data at points by bilinear interpolation, the
    one place that decides how the transports sample off-grid.  ``cell``
    snaps a point to the nearest cell.
    """

    def __init__(self, h_u: float, r_u: float, h_b: float, r_b: float):
        self.h_u = float(h_u)
        self.h_b = float(h_b)
        self.k_u = _half_width(r_u, h_u)
        self.k_b = _half_width(r_b, h_b)
        self.n_u = 2 * self.k_u + 1
        self.n_b = 2 * self.k_b + 1
        self.n = _capped(self.n_u * self.n_b)
        self.u_values = self.h_u * np.arange(-self.k_u, self.k_u + 1)
        self.b_values = self.h_b * np.arange(-self.k_b, self.k_b + 1)
        self.identity = self.k_u * self.n_b + self.k_b
        self.is_abelian = False
        iu, ib = np.divmod(np.arange(self.n), self.n_b)
        self.coords = np.stack([self.u_values[iu], self.b_values[ib]], axis=1)
        for array in (self.u_values, self.b_values, self.coords):
            array.setflags(write=False)

    def snap(self, u, b):
        """Nearest grid index for exact coordinates (u, b); -1 outside."""
        iu = np.rint(np.asarray(u) / self.h_u).astype(np.int64) + self.k_u
        ib = np.rint(np.asarray(b) / self.h_b).astype(np.int64) + self.k_b
        inside = (iu >= 0) & (iu < self.n_u) & (ib >= 0) & (ib < self.n_b)
        return np.where(inside, iu * self.n_b + ib, OUT_OF_WINDOW)

    def points(self, cells):
        return self.coords[cells, 0], self.coords[cells, 1]

    def cell(self, x):
        return self.snap(*x)

    def law(self, x, y):
        (u1, b1), (u2, b2) = x, y
        return u1 + u2, np.exp(u1) * b2 + b1

    def law_inverse(self, x):
        u, b = x
        return -u, -np.exp(-u) * b

    def outside(self, x):
        """Off the window, with half a cell of tolerance."""
        u, b = x
        return ((np.abs(u) > self.u_values[-1] + 0.5 * self.h_u)
                | (np.abs(b) > self.b_values[-1] + 0.5 * self.h_b))

    def read(self, values: np.ndarray, x):
        """Bilinear evaluation of cell data at the points x.

        Points outside the window evaluate to zero.  Linear interpolation is
        exact at grid nodes, so on-grid points reproduce the stored values.
        """
        u, b = x
        grid = values.reshape(self.n_u, self.n_b)
        tu = np.asarray(u) / self.h_u + self.k_u
        tb = np.asarray(b) / self.h_b + self.k_b
        iu0 = np.floor(tu).astype(np.int64)
        ib0 = np.floor(tb).astype(np.int64)
        au = tu - iu0
        ab = tb - ib0

        out = np.zeros(np.broadcast_shapes(tu.shape, tb.shape), dtype=values.dtype)
        for du, wu in ((0, 1.0 - au), (1, au)):
            for db, wb in ((0, 1.0 - ab), (1, ab)):
                iu = iu0 + du
                ib = ib0 + db
                valid = (iu >= 0) & (iu < self.n_u) & (ib >= 0) & (ib < self.n_b)
                weight = wu * wb
                contrib = np.where(valid, grid[np.clip(iu, 0, self.n_u - 1),
                                               np.clip(ib, 0, self.n_b - 1)], 0)
                out = out + weight * contrib
        return out

    def b_prefix(self, values: np.ndarray):
        """Extended b-profiles and their exact running integrals per u row.

        The grid data is treated as piecewise linear along b with a one-cell
        ramp to zero beyond the window (matching ``read``); the returned
        pair feeds :meth:`averaged_rows`.
        """
        grid = values.reshape(self.n_u, self.n_b)
        ext = np.zeros((self.n_u, self.n_b + 2), dtype=grid.dtype)
        ext[:, 1:-1] = grid
        seg = 0.5 * self.h_b * (ext[:, :-1] + ext[:, 1:])
        cum = np.concatenate([np.zeros((self.n_u, 1), dtype=grid.dtype),
                              np.cumsum(seg, axis=1)], axis=1)
        return ext, cum

    def _prefix_eval(self, ext, cum, rows, tau):
        base = self.b_values[0] - self.h_b
        t = (tau - base) / self.h_b
        n_cells = self.n_b + 1
        j = np.floor(t).astype(np.int64)
        below = j < 0
        above = j >= n_cells
        jc = np.clip(j, 0, n_cells - 1)
        delta = np.clip((t - jc) * self.h_b, 0.0, self.h_b)
        vj = ext[rows, jc]
        vj1 = ext[rows, jc + 1]
        p = cum[rows, jc] + vj * delta + (vj1 - vj) * (delta * delta) / (2.0 * self.h_b)
        p = np.where(below, 0.0, p)
        return np.where(above, cum[rows, n_cells], p)

    def averaged_rows(self, ext, cum, rows, tau_lo, tau_hi):
        """Mean of the row profile over [tau_lo, tau_hi], zero off-window rows.

        Convolution kernels read f at b-arguments compressed by e^{-u_y};
        once the compressed cell width exceeds the b step, point sampling
        aliases and inflates operator columns, so kernel values are averaged
        over the exact image of each source cell instead.
        """
        valid = (rows >= 0) & (rows < self.n_u)
        r = np.clip(rows, 0, self.n_u - 1)
        width = tau_hi - tau_lo
        value = (self._prefix_eval(ext, cum, r, tau_hi)
                 - self._prefix_eval(ext, cum, r, tau_lo)) / width
        return np.where(valid, value, 0)


class _Family(NamedTuple):
    params: tuple[str, ...]  # the grammar's parameter names, in order
    kind: str
    carrier: Callable[..., _Carrier]  # called with the parsed parameters
    properties: frozenset[str]  # every model's, abelian and the normalization aside
    normalization: str = COUNTING


_FINITE_GROUP = frozenset({FINITE, COMPACT, DISCRETE, UNIMODULAR})
_LATTICE = frozenset({DISCRETE, UNIMODULAR})

# The grammar: one record per family.  A product's carrier is called with
# its factor specs.
_FAMILIES = {
    "cyclic": _Family(("N",), KIND_FINITE, _CyclicCarrier, _FINITE_GROUP),
    "circle": _Family(("N",), KIND_FINITE, _CyclicCarrier, _FINITE_GROUP, PROBABILITY),
    "dihedral": _Family(("N",), KIND_FINITE, _DihedralCarrier, _FINITE_GROUP),
    "symmetric": _Family(("N",), KIND_FINITE, _SymmetricCarrier, _FINITE_GROUP),
    "product": _Family((), KIND_FINITE,
                       lambda *factors: _ProductCarrier([_make_carrier(f) for f in factors]),
                       _FINITE_GROUP),
    "z": _Family(("R",), KIND_LATTICE, lambda radius: _LatticeCarrier(1, radius), _LATTICE),
    "z2": _Family(("R",), KIND_LATTICE, lambda radius: _LatticeCarrier(2, radius), _LATTICE),
    "r": _Family(("H", "B"), KIND_QUADRATURE,
                 lambda h, b: _LatticeCarrier(1, _half_width(b, h), h),
                 frozenset({UNIMODULAR, REAL_LINE})),
    "affine": _Family(("HU", "RU", "HB", "RB"), KIND_QUADRATURE, _AffineCarrier, frozenset()),
}


# ---------------------------------------------------------------------------
# GroupModel
# ---------------------------------------------------------------------------


@dataclass
class GroupModel:
    """A measured group at desk scale: carrier + Haar weights + modular values.

    Immutable after construction; all operations on it are pure.
    """

    spec: GroupSpec
    carrier: _Carrier = field(repr=False)
    weights: np.ndarray = field(repr=False)
    modular: np.ndarray = field(repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.modular = np.asarray(self.modular, dtype=np.float64)
        self.weights.setflags(write=False)
        self.modular.setflags(write=False)

    # -- basic facts, read from the spec or the carrier -----------------

    @property
    def kind(self) -> str:
        return _FAMILIES[self.spec.family].kind

    @property
    def normalization(self) -> str:
        return self.spec.normalization

    @property
    def name(self) -> str:
        return self.spec.text

    @property
    def n(self) -> int:
        return self.carrier.n

    @property
    def identity(self) -> int:
        return self.carrier.identity

    @property
    def properties(self) -> frozenset[str]:
        """The model's names from ``PROPERTIES``: its family's, abelian when
        the carrier is, and its normalization."""
        family = _FAMILIES[self.spec.family].properties | {self.normalization}
        return family | {ABELIAN} if self.carrier.is_abelian else family

    @property
    def cyclic_factors(self) -> tuple[int, ...] | None:
        return getattr(self.carrier, "cyclic_factors", None)

    def op(self, i, j):
        """Group product on indices; -1 where it leaves the window or an operand
        is -1 (the carrier reads such an operand as cell 0, then it is masked)."""
        i, j = np.asarray(i), np.asarray(j)
        return np.where((i == OUT_OF_WINDOW) | (j == OUT_OF_WINDOW), OUT_OF_WINDOW,
                        self.carrier.op(np.maximum(i, 0), np.maximum(j, 0)))

    def inv(self, i):
        i = np.asarray(i)
        return np.where(i == OUT_OF_WINDOW, OUT_OF_WINDOW, self.carrier.inv(np.maximum(i, 0)))

    @property
    def inverses(self) -> np.ndarray:
        inv = self._cache.get("inverses")
        if inv is None:
            inv = np.asarray(self.carrier.inv(np.arange(self.n)))
            inv.setflags(write=False)
            self._cache["inverses"] = inv
        return inv

    def division_table(self) -> np.ndarray:
        """idx[x, y] = index of y^{-1} x, -1 where it or y^{-1} leaves the
        window (affine only); cached, used by dense paths."""
        table = self._cache.get("division_table")
        if table is None:
            n = self.n
            if n * n > (1 << 26):
                raise ResourceError(f"division table for n={n} exceeds the dense cap")
            all_idx = np.arange(n)
            inv_y = self.inverses
            table = np.empty((n, n), dtype=np.int64)
            for start in range(0, n, _CHUNK):
                block = inv_y[None, start:start + _CHUNK]
                table[:, start:start + _CHUNK] = self.carrier.op(block, all_idx[:, None])
            table[:, inv_y == OUT_OF_WINDOW] = OUT_OF_WINDOW
            table.setflags(write=False)
            self._cache["division_table"] = table
        return table

    def coords(self) -> np.ndarray | None:
        """Coordinate chart per index, when the carrier has one."""
        if isinstance(self.carrier, _LatticeCarrier):
            return self.carrier.coords * self.carrier.step
        if isinstance(self.carrier, _AffineCarrier):
            return self.carrier.coords
        return None

    def require_same(self, other: "GroupModel"):
        if other is not self:
            raise ModelMismatchError(
                f"functions live on different models: {self.name!r} vs {other.name!r}")

    def __repr__(self):
        return f"GroupModel({self.name!r}, kind={self.kind}, n={self.n})"


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_group(spec: GroupSpec | str) -> GroupModel:
    """Construct a :class:`GroupModel` from a spec (object or grammar string).

    Raises :class:`SpecParseError` on bad descriptors and
    :class:`ResourceError` when the carrier would exceed ``ELEMENT_CAP``.
    """
    if isinstance(spec, str):
        spec = parse_group_spec(spec)

    carrier = _make_carrier(spec)
    n = carrier.n

    if isinstance(carrier, _AffineCarrier):
        u = carrier.coords[:, 0]
        weights = np.exp(-u) * carrier.h_u * carrier.h_b
        modular = np.exp(-u)
    else:  # unimodular; a lattice cell has the measure of its step
        weights = np.full(n, carrier.step if isinstance(carrier, _LatticeCarrier) else 1.0)
        modular = np.ones(n)

    if spec.normalization == PROBABILITY:
        weights = weights / weights.sum()

    model = GroupModel(spec=spec, carrier=carrier, weights=weights, modular=modular)
    validate_group(model)
    return model


def _make_carrier(spec: GroupSpec) -> _Carrier:
    return _FAMILIES[spec.family].carrier(*spec.params, *spec.factors)


# ---------------------------------------------------------------------------
# Build-time validation
# ---------------------------------------------------------------------------


class GroupValidationError(AssertionError):
    pass


def validate_group(model: GroupModel):
    """Verify the structural invariants of a freshly built model.

    Finite models are checked exactly up to n = 512 (Light's test on the
    division table), by seeded samples above that and on lattices.  Quadrature
    models additionally cross-validate the stored modular function against an
    empirical translation estimate.
    """
    n = model.n
    if not np.all(model.weights > 0):
        raise GroupValidationError("Haar weights must be positive")
    if not np.all(model.modular > 0):
        raise GroupValidationError("modular values must be positive")
    if abs(model.modular[model.identity] - 1.0) > 1e-15:
        raise GroupValidationError("modular function must be 1 at the identity")

    all_idx = np.arange(n)
    e = model.identity

    lattice = isinstance(model.carrier, _LatticeCarrier)
    if (model.kind == KIND_FINITE or lattice) and not np.all(model.modular == 1.0):
        raise GroupValidationError("discrete/compact models must be unimodular")

    # Two-sided identity and inverses: cheap for every kind (lattice/affine
    # inverses of in-window identity-products stay in window).
    if not np.all(model.op(e, all_idx) == all_idx):
        raise GroupValidationError("identity is not a left identity")
    if not np.all(model.op(all_idx, e) == all_idx):
        raise GroupValidationError("identity is not a right identity")

    if model.kind == KIND_FINITE:
        inv = model.inverses
        if not (np.all(model.op(all_idx, inv) == e) and np.all(model.op(inv, all_idx) == e)):
            raise GroupValidationError("inverses are not exact two-sided inverses")
        if not np.allclose(model.weights, model.weights[0]):
            raise GroupValidationError("finite models need constant Haar weights")
        if n <= _EXACT_LIMIT:
            _check_light(model)
            return
    elif lattice:
        if np.any(model.inverses == OUT_OF_WINDOW):
            raise GroupValidationError("lattice inversion left the window")
    else:
        _check_affine(model)
        return

    rng = np.random.default_rng(0)
    i = rng.integers(0, n, _SAMPLED_TRIPLES)
    j = rng.integers(0, n, _SAMPLED_TRIPLES)
    k = rng.integers(0, n, _SAMPLED_TRIPLES)
    left = model.op(model.op(i, j), k)
    right = model.op(i, model.op(j, k))
    # a truncated intermediate propagates the sentinel; associativity is
    # only asserted where both complete products stayed in the window
    mask = (left != OUT_OF_WINDOW) & (right != OUT_OF_WINDOW)
    if not np.all(left[mask] == right[mask]):
        raise GroupValidationError("sampled associativity check failed")


def _check_light(model: GroupModel):
    """Light's associativity test (Clifford & Preston, *The Algebraic Theory of
    Semigroups* I, 1961, section 1.2) on the division table D, x y = D[y, inv[x]]:
    the elements g with (x g) y = x (g y) form a submagma: products pass too.
    It starts from the identity, which ``validate_group`` checked from both sides."""
    n = model.n
    inv = model.inverses
    # the table reading needs an involution; indices outside 0..n-1 would wrap
    if not (np.all((inv >= 0) & (inv < n)) and np.array_equal(inv[inv], np.arange(n))):
        raise GroupValidationError("inversion is not an involution of the carrier")
    division = model.division_table()
    if not np.all((division >= 0) & (division < n)):
        raise GroupValidationError("a product leaves the carrier")
    reached = np.zeros(n, dtype=bool)
    reached[model.identity] = True
    while not reached.all():
        g = int(np.argmin(reached))  # the first element not reached yet
        # (x g) y and x (g y), both indexed [y, x]
        if not np.array_equal(division[:, inv[division[g, inv]]],
                              division[np.ix_(division[:, inv[g]], inv)]):
            raise GroupValidationError(f"associativity fails at element {g}")
        reached[g] = True
        while not reached[(products := division[np.ix_(reached, inv[reached])])].all():
            reached[products] = True


def modular_multiplicativity_residual(model: GroupModel, rng, draws: int) -> float | None:
    """max |Delta(xy) - Delta(x) Delta(y)| / (Delta(x) Delta(y)) over ``draws``
    sampled pairs whose product stays in the window; None when no sampled
    product does."""
    i = rng.integers(0, model.n, draws)
    j = rng.integers(0, model.n, draws)
    prod = np.asarray(model.op(i, j))
    ok = prod != OUT_OF_WINDOW
    if not np.any(ok):
        return None
    lhs = model.modular[prod[ok]]
    rhs = model.modular[i[ok]] * model.modular[j[ok]]
    return float(np.max(np.abs(lhs - rhs) / rhs))


def _check_affine(model: GroupModel):
    # u is exact under the product, so the stored modular value at the
    # snapped index must satisfy the multiplicativity law essentially to
    # machine precision.
    rel = modular_multiplicativity_residual(model, np.random.default_rng(1), 2048)
    if rel is not None and rel > _AFFINE_TOL_MULT:
        raise GroupValidationError(f"modular multiplicativity off by {rel:.3e}")

    worst = _affine_modular_residual(model)
    if worst > _AFFINE_TOL_MODULAR:
        raise GroupValidationError(
            f"empirical modular estimate off by {worst:.3e} (tolerance {_AFFINE_TOL_MODULAR})")


def _affine_modular_residual(model: GroupModel) -> float:
    """Worst relative error of ``estimate_modular`` against Delta = e^{-u} at the
    validation points; no leak guard, as a leaking probe raises the residual."""
    from .space import estimate_modular
    worst = 0.0
    for u_x, b_x in _affine_validation_points(model.carrier):
        est = estimate_modular(model, int(model.carrier.snap(u_x, b_x)), max_leak=math.inf)
        expected = math.exp(-u_x)
        worst = max(worst, abs(est - expected) / expected)
    return worst


def _affine_validation_points(carrier: _AffineCarrier):
    """On-grid translation targets for the modular check: u shifts of
    +-u_step (about a quarter of the u radius), a pure b shift b_step (at
    most 0.5 and an eighth of the b radius) and their sum.  The u shifts
    and the sum kept the mid-window probe inside on every grid measured.
    The pure b shift moves probe cells by up to e^(0.45 R_u) b_step and
    can leak on wide u windows (2.566e-3 of the mass on
    affine:0.25:10:0.25:4, 6.880e-3 on affine:0.5:8:0.5:2), so
    ``estimate_modular`` with its default leak guard raises
    WindowLeakError there.  The residual check reads every target with no
    guard; ROADMAP item 8 owns the fix."""
    r_u = carrier.u_values[-1]
    r_b = carrier.b_values[-1]
    ku = max(1, int(round(0.25 * r_u / carrier.h_u)))
    u_step = ku * carrier.h_u
    kb = max(1, int(round(min(0.5, r_b / 8.0) / carrier.h_b)))
    b_step = kb * carrier.h_b
    return [(u_step, 0.0), (-u_step, 0.0), (0.0, b_step), (u_step, b_step)]
