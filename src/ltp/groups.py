"""Desk-scale models of locally compact groups.

Three carrier kinds are supported:

* ``finite``: exact Cayley arithmetic (cyclic, dihedral, symmetric groups
  and direct products of cyclics), optionally with probability-normalized
  Haar weights.
* ``lattice-truncated``: boxes in Z^d with exact integer arithmetic;
  products falling outside the box map to an absorbing out-of-window state.
* ``quadrature``: step grids for the real line and for the affine (ax+b)
  group.  The affine model stores a on a geometric grid a = exp(u) with
  uniform u, so group products are exact in u and interpolated in b.

Elements are indices 0..n-1.  The sentinel ``OUT_OF_WINDOW`` (-1) flags
products that land outside a truncated window; convolution sums drop those
terms and account for the dropped mass.
"""

from __future__ import annotations

import math
import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ResourceError, SpecParseError

OUT_OF_WINDOW = -1

KIND_FINITE = "finite"
KIND_LATTICE = "lattice-truncated"
KIND_QUADRATURE = "quadrature"

COUNTING = "counting"
PROBABILITY = "probability"

DEFAULT_ELEMENT_CAP = 1 << 20

# Finite models up to this size are validated exactly on their division
# table; larger ones and lattices on seeded samples, with no n x n table.
_EXACT_LIMIT = 512
_SAMPLED_TRIPLES = 4096
_TABLE_BLOCK = 256  # division-table columns per vectorized op call
# Affine validation tolerances: modular multiplicativity at the snapped
# product, and the empirical modular estimate against Delta = e^{-u}.
_AFFINE_TOL_MULT = 1e-12
_AFFINE_TOL_MODULAR = 1e-2


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------

_FAMILIES = ("cyclic", "circle", "dihedral", "symmetric", "product",
             "z", "z2", "r", "affine")


@dataclass(frozen=True)
class GroupSpec:
    """Parsed form of a group descriptor string.

    Grammar (suffix ``@counting`` or ``@probability`` optional, counting is
    the default except for ``circle`` which defaults to probability):

        cyclic:N | circle:N | dihedral:N | symmetric:N
        product:SPEC+SPEC[+SPEC...]     (factors must not be products)
        z:R | z2:R | r:H:B | affine:HU:RU:HB:RB
    """

    text: str
    family: str
    params: tuple
    normalization: str
    factors: tuple["GroupSpec", ...] = ()


def _parse_positive_int(token: str, what: str) -> int:
    try:
        value = int(token)
    except ValueError as exc:
        raise SpecParseError(f"{what}: expected an integer, got {token!r}") from exc
    if value <= 0:
        raise SpecParseError(f"{what}: must be positive, got {value}")
    return value


def _parse_positive_float(token: str, what: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise SpecParseError(f"{what}: expected a number, got {token!r}") from exc
    if not (value > 0) or not math.isfinite(value):
        raise SpecParseError(f"{what}: must be positive and finite, got {value}")
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

    if normalization is None:
        normalization = PROBABILITY if family == "circle" else COUNTING

    if family in ("cyclic", "circle", "dihedral", "symmetric"):
        if not rest or ":" in rest:
            raise SpecParseError(f"{family} takes exactly one integer parameter")
        n = _parse_positive_int(rest, family)
        return GroupSpec(raw, family, (n,), normalization)

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
            if sub.family not in ("cyclic", "circle", "dihedral", "symmetric"):
                raise SpecParseError(f"product factors must be finite groups, got {part!r}")
            factors.append(sub)
        return GroupSpec(raw, "product", (), normalization, tuple(factors))

    if family in ("z", "z2"):
        if not rest or ":" in rest:
            raise SpecParseError(f"{family} takes exactly one integer radius")
        radius = _parse_positive_int(rest, f"{family} radius")
        return GroupSpec(raw, family, (radius,), normalization)

    if family == "r":
        parts = rest.split(":")
        if len(parts) != 2:
            raise SpecParseError("r takes step and radius, r:H:B")
        h = _parse_positive_float(parts[0], "r step")
        b = _parse_positive_float(parts[1], "r radius")
        if b < h:
            raise SpecParseError("r radius must be at least the step")
        return GroupSpec(raw, "r", (h, b), normalization)

    if family == "affine":
        parts = rest.split(":")
        if len(parts) != 4:
            raise SpecParseError("affine takes affine:HU:RU:HB:RB")
        hu = _parse_positive_float(parts[0], "affine u step")
        ru = _parse_positive_float(parts[1], "affine u radius")
        hb = _parse_positive_float(parts[2], "affine b step")
        rb = _parse_positive_float(parts[3], "affine b radius")
        if ru < hu or rb < hb:
            raise SpecParseError("affine radii must be at least the matching step")
        return GroupSpec(raw, "affine", (hu, ru, hb, rb), normalization)

    raise SpecParseError(f"unhandled family {family!r}")


# ---------------------------------------------------------------------------
# Carriers: index arithmetic for each family
# ---------------------------------------------------------------------------


class _Carrier:
    """Vectorized index arithmetic.  Subclasses fill in op/inv."""

    n: int
    identity: int
    is_abelian: bool
    cyclic_factors: tuple[int, ...] | None = None

    def op(self, i, j):
        raise NotImplementedError

    def inv(self, i):
        raise NotImplementedError


class _CyclicCarrier(_Carrier):
    def __init__(self, n: int):
        self.n = n
        self.identity = 0
        self.is_abelian = True
        self.cyclic_factors = (n,)

    def op(self, i, j):
        return (np.asarray(i) + np.asarray(j)) % self.n

    def inv(self, i):
        return (-np.asarray(i)) % self.n


class _DihedralCarrier(_Carrier):
    """Order-2m dihedral group; index s*m + r for rotation r, flip s."""

    def __init__(self, m: int):
        self.m = m
        self.n = 2 * m
        self.identity = 0
        self.is_abelian = m <= 2

    def op(self, i, j):
        i = np.asarray(i)
        j = np.asarray(j)
        r1, s1 = i % self.m, i // self.m
        r2, s2 = j % self.m, j // self.m
        r = (r1 + np.where(s1 == 1, -r2, r2)) % self.m
        s = s1 ^ s2
        return s * self.m + r

    def inv(self, i):
        i = np.asarray(i)
        r, s = i % self.m, i // self.m
        r_inv = np.where(s == 1, r, (-r) % self.m)
        return s * self.m + r_inv


class _SymmetricCarrier(_Carrier):
    """Symmetric group on N letters, permutations in lexicographic order.

    Composition convention: (p*q)(t) = p(q(t)).  Ranking uses the factorial
    number system so no Cayley table is materialized.
    """

    def __init__(self, big_n: int):
        self.big_n = big_n
        self.n = math.factorial(big_n)
        self.perms = np.array(list(itertools.permutations(range(big_n))), dtype=np.int64)
        self.identity = 0
        self.is_abelian = big_n <= 2
        self._suffix_fact = np.array(
            [math.factorial(big_n - 1 - i) for i in range(big_n)], dtype=np.int64)

    def _rank(self, perm_rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(perm_rows)
        rank = np.zeros(rows.shape[0], dtype=np.int64)
        for i in range(self.big_n - 1):
            less = np.sum(rows[:, i + 1:] < rows[:, i:i + 1], axis=1)
            rank += less * self._suffix_fact[i]
        return rank

    def op(self, i, j):
        i = np.asarray(i)
        j = np.asarray(j)
        shape = np.broadcast_shapes(i.shape, j.shape)
        i_flat = np.broadcast_to(i, shape).reshape(-1)
        j_flat = np.broadcast_to(j, shape).reshape(-1)
        q = self.perms[j_flat]
        composed = self.perms[i_flat[:, None], q]
        return self._rank(composed).reshape(shape)

    def inv(self, i):
        i = np.asarray(i)
        flat = i.reshape(-1)
        inverted = np.argsort(self.perms[flat], axis=1)
        return self._rank(inverted).reshape(i.shape)


class _ProductCarrier(_Carrier):
    """Direct product with mixed-radix indexing, first factor most significant."""

    def __init__(self, children: Sequence[_Carrier]):
        self.children = list(children)
        sizes = [c.n for c in self.children]
        self.n = int(np.prod(sizes))
        strides = []
        acc = 1
        for size in reversed(sizes):
            strides.append(acc)
            acc *= size
        self.strides = np.array(list(reversed(strides)), dtype=np.int64)
        self.sizes = np.array(sizes, dtype=np.int64)
        self.identity = int(np.dot([c.identity for c in self.children], self.strides))
        self.is_abelian = all(c.is_abelian for c in self.children)
        if all(c.cyclic_factors is not None for c in self.children):
            factors: list[int] = []
            for c in self.children:
                factors.extend(c.cyclic_factors)
            self.cyclic_factors = tuple(factors)

    def decode(self, i):
        i = np.asarray(i)
        parts = []
        for stride, size in zip(self.strides, self.sizes):
            parts.append((i // stride) % size)
        return parts

    def encode(self, parts):
        total = np.zeros_like(np.asarray(parts[0]), dtype=np.int64)
        for part, stride in zip(parts, self.strides):
            total = total + np.asarray(part) * stride
        return total

    def op(self, i, j):
        pi = self.decode(i)
        pj = self.decode(j)
        return self.encode([c.op(a, b) for c, a, b in zip(self.children, pi, pj)])

    def inv(self, i):
        return self.encode([c.inv(a) for c, a in zip(self.children, self.decode(i))])


class _LatticeCarrier(_Carrier):
    """Truncated Z^d box [-R, R]^d; addition with an out-of-window sentinel.

    ``step`` is the length of one lattice unit: 1 on Z and Z^2, the grid
    step h on the real-line quadrature r:h:B.
    """

    def __init__(self, dim: int, radius: int, step: float = 1.0):
        self.dim = dim
        self.radius = radius
        self.step = step
        self.side = 2 * radius + 1
        self.n = self.side ** dim
        self.is_abelian = True
        strides = [self.side ** (dim - 1 - k) for k in range(dim)]
        self.strides = np.array(strides, dtype=np.int64)
        self.identity = int(np.dot([radius] * dim, self.strides))
        grids = np.meshgrid(*[np.arange(-radius, radius + 1)] * dim, indexing="ij")
        self.coords = np.stack([g.reshape(-1) for g in grids], axis=1)

    def to_coords(self, i):
        i = np.asarray(i)
        parts = []
        for stride in self.strides:
            parts.append((i // stride) % self.side - self.radius)
        return np.stack(parts, axis=-1)

    def from_coords(self, coords):
        coords = np.asarray(coords)
        inside = np.all(np.abs(coords) <= self.radius, axis=-1)
        shifted = coords + self.radius
        idx = np.sum(shifted * self.strides, axis=-1)
        return np.where(inside, idx, OUT_OF_WINDOW)

    def op(self, i, j):
        i = np.asarray(i)
        j = np.asarray(j)
        out = self.from_coords(self.to_coords(i) + self.to_coords(j))
        return np.where((i == OUT_OF_WINDOW) | (j == OUT_OF_WINDOW), OUT_OF_WINDOW, out)

    def inv(self, i):
        i = np.asarray(i)
        out = self.from_coords(-self.to_coords(i))
        return np.where(i == OUT_OF_WINDOW, OUT_OF_WINDOW, out)


class _AffineCarrier(_Carrier):
    """Grid for the ax+b group in coordinates (u, b) with a = exp(u).

    Product (u1,b1)(u2,b2) = (u1+u2, exp(u1)*b2 + b1): exact on the u grid,
    generally off-grid in b.  Index-level op/inv snap b to the nearest cell;
    interpolation-based evaluation is available through ``interp`` for the
    paths that need sub-cell accuracy.
    """

    def __init__(self, h_u: float, r_u: float, h_b: float, r_b: float):
        self.h_u = float(h_u)
        self.h_b = float(h_b)
        self.k_u = int(round(r_u / h_u))
        self.k_b = int(round(r_b / h_b))
        self.n_u = 2 * self.k_u + 1
        self.n_b = 2 * self.k_b + 1
        self.n = self.n_u * self.n_b
        self.u_values = self.h_u * np.arange(-self.k_u, self.k_u + 1)
        self.b_values = self.h_b * np.arange(-self.k_b, self.k_b + 1)
        self.identity = self.k_u * self.n_b + self.k_b
        self.is_abelian = False
        iu, ib = np.divmod(np.arange(self.n), self.n_b)
        self.coords = np.stack([self.u_values[iu], self.b_values[ib]], axis=1)

    # index <-> (u, b) helpers -------------------------------------------

    def split(self, i):
        i = np.asarray(i)
        return i // self.n_b, i % self.n_b

    def u_of(self, i):
        iu, _ = self.split(i)
        return (iu - self.k_u) * self.h_u

    def b_of(self, i):
        _, ib = self.split(i)
        return (ib - self.k_b) * self.h_b

    def index_from(self, iu, ib):
        iu = np.asarray(iu)
        ib = np.asarray(ib)
        inside = (iu >= 0) & (iu < self.n_u) & (ib >= 0) & (ib < self.n_b)
        return np.where(inside, iu * self.n_b + ib, OUT_OF_WINDOW)

    def snap(self, u, b):
        """Nearest grid index for exact coordinates (u, b); -1 outside."""
        iu = np.rint(np.asarray(u) / self.h_u).astype(np.int64) + self.k_u
        ib = np.rint(np.asarray(b) / self.h_b).astype(np.int64) + self.k_b
        return self.index_from(iu, ib)

    def product_coords(self, u1, b1, u2, b2):
        return u1 + u2, np.exp(u1) * b2 + b1

    def inverse_coords(self, u, b):
        return -u, -np.exp(-u) * b

    def op(self, i, j):
        i = np.asarray(i)
        j = np.asarray(j)
        u1, b1 = self.u_of(i), self.b_of(i)
        u2, b2 = self.u_of(j), self.b_of(j)
        u, b = self.product_coords(u1, b1, u2, b2)
        out = self.snap(u, b)
        return np.where((i == OUT_OF_WINDOW) | (j == OUT_OF_WINDOW), OUT_OF_WINDOW, out)

    def inv(self, i):
        i = np.asarray(i)
        u, b = self.inverse_coords(self.u_of(i), self.b_of(i))
        out = self.snap(u, b)
        return np.where(i == OUT_OF_WINDOW, OUT_OF_WINDOW, out)

    def inside(self, u, b):
        """Window membership for exact coordinates (half-cell tolerance)."""
        u_ok = np.abs(u) <= self.u_values[-1] + 0.5 * self.h_u
        b_ok = np.abs(b) <= self.b_values[-1] + 0.5 * self.h_b
        return u_ok & b_ok

    def b_prefix(self, values: np.ndarray):
        """Extended b-profiles and their exact running integrals per u row.

        The grid data is treated as piecewise linear along b with a one-cell
        ramp to zero beyond the window (matching ``interp``); the returned
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

    def interp(self, values: np.ndarray, u, b):
        """Bilinear evaluation of grid data at exact coordinates.

        ``values`` is a length-n vector over indices; points outside the
        window evaluate to zero.  Linear interpolation is exact at grid
        nodes, so on-grid coordinates reproduce the stored values.
        """
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


# ---------------------------------------------------------------------------
# GroupModel
# ---------------------------------------------------------------------------


@dataclass
class GroupModel:
    """A measured group at desk scale: carrier + Haar weights + modular values.

    Immutable after construction; all operations on it are pure.
    """

    kind: str
    spec: GroupSpec
    carrier: _Carrier = field(repr=False)
    weights: np.ndarray = field(repr=False)
    modular: np.ndarray = field(repr=False)
    normalization: str = COUNTING
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.modular = np.asarray(self.modular, dtype=np.float64)
        self.weights.setflags(write=False)
        self.modular.setflags(write=False)
        if not self.name:
            self.name = self.spec.text

    # -- basic facts ------------------------------------------------------

    @property
    def n(self) -> int:
        return self.carrier.n

    @property
    def identity(self) -> int:
        return self.carrier.identity

    @property
    def is_abelian(self) -> bool:
        return self.carrier.is_abelian

    @property
    def cyclic_factors(self) -> tuple[int, ...] | None:
        return getattr(self.carrier, "cyclic_factors", None)

    @property
    def is_unimodular(self) -> bool:
        return bool(np.all(self.modular == 1.0))

    def op(self, i, j):
        """Group product on indices; -1 where the product leaves the window."""
        return self.carrier.op(i, j)

    def inv(self, i):
        return self.carrier.inv(i)

    @property
    def inverses(self) -> np.ndarray:
        inv = self._cache.get("inverses")
        if inv is None:
            inv = np.asarray(self.carrier.inv(np.arange(self.n)))
            inv.setflags(write=False)
            self._cache["inverses"] = inv
        return inv

    def division_table(self) -> np.ndarray:
        """idx[x, y] = index of y^{-1} x (or -1); cached, used by dense paths."""
        table = self._cache.get("division_table")
        if table is None:
            n = self.n
            if n * n > (1 << 26):
                raise ResourceError(f"division table for n={n} exceeds the dense cap")
            all_idx = np.arange(n)
            inv_y = self.inverses
            table = np.empty((n, n), dtype=np.int64)
            for start in range(0, n, _TABLE_BLOCK):
                block = inv_y[None, start:start + _TABLE_BLOCK]
                table[:, start:start + _TABLE_BLOCK] = self.carrier.op(block, all_idx[:, None])
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
            from .errors import ModelMismatchError
            raise ModelMismatchError(
                f"functions live on different models: {self.name!r} vs {other.name!r}")

    def __repr__(self):
        return f"GroupModel({self.name!r}, kind={self.kind}, n={self.n})"


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_group(spec: GroupSpec | str, *, validate: bool = True,
                element_cap: int = DEFAULT_ELEMENT_CAP) -> GroupModel:
    """Construct a :class:`GroupModel` from a spec (object or grammar string).

    Raises :class:`SpecParseError` on bad descriptors and
    :class:`ResourceError` when the carrier would exceed ``element_cap``.
    """
    if isinstance(spec, str):
        spec = parse_group_spec(spec)

    carrier, kind = _make_carrier(spec, element_cap)
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

    model = GroupModel(kind=kind, spec=spec, carrier=carrier,
                       weights=weights, modular=modular,
                       normalization=spec.normalization)
    if validate:
        validate_group(model)
    return model


def _make_carrier(spec: GroupSpec, element_cap: int):
    family = spec.family

    def check_cap(n: int):
        if n > element_cap:
            raise ResourceError(
                f"carrier for {spec.text!r} has {n} elements, exceeding the cap {element_cap}")

    if family in ("cyclic", "circle"):
        n = spec.params[0]
        check_cap(n)
        return _CyclicCarrier(n), KIND_FINITE
    if family == "dihedral":
        check_cap(2 * spec.params[0])
        return _DihedralCarrier(spec.params[0]), KIND_FINITE
    if family == "symmetric":
        big_n = spec.params[0]
        if big_n > 10:
            raise ResourceError(f"symmetric:{big_n} is far beyond desk scale")
        check_cap(math.factorial(big_n))
        return _SymmetricCarrier(big_n), KIND_FINITE
    if family == "product":
        children = [_make_carrier(f, element_cap)[0] for f in spec.factors]
        carrier = _ProductCarrier(children)
        check_cap(carrier.n)
        return carrier, KIND_FINITE
    if family == "z":
        radius = spec.params[0]
        check_cap(2 * radius + 1)
        return _LatticeCarrier(1, radius), KIND_LATTICE
    if family == "z2":
        radius = spec.params[0]
        check_cap((2 * radius + 1) ** 2)
        return _LatticeCarrier(2, radius), KIND_LATTICE
    if family == "r":
        h, b = spec.params
        radius = int(round(b / h))
        check_cap(2 * radius + 1)
        return _LatticeCarrier(1, radius, h), KIND_QUADRATURE
    if family == "affine":
        hu, ru, hb, rb = spec.params
        carrier = _AffineCarrier(hu, ru, hb, rb)
        check_cap(carrier.n)
        return carrier, KIND_QUADRATURE

    raise SpecParseError(f"unhandled family {family!r}")


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

    if model.kind in (KIND_FINITE, KIND_LATTICE) or model.spec.family == "r":
        if not np.all(model.modular == 1.0):
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
    elif model.kind == KIND_LATTICE or model.spec.family == "r":
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
    Semigroups* I, 1961, section 1.2) on the Cayley table x y = D[y, inv[x]]:
    the elements g with (x g) y = x (g y) form a submagma: products pass too."""
    n = model.n
    inv = model.inverses
    # the table reading needs an involution; indices outside 0..n-1 would wrap
    if not (np.all((inv >= 0) & (inv < n)) and np.array_equal(inv[inv], np.arange(n))):
        raise GroupValidationError("inversion is not an involution of the carrier")
    division = model.division_table()
    if not np.all((division >= 0) & (division < n)):
        raise GroupValidationError("a product leaves the carrier")
    cayley = division[:, inv].T
    reached = np.zeros(n, dtype=bool)
    while not reached.all():
        g = int(np.argmin(reached))  # the first element not reached yet
        if not np.array_equal(cayley[cayley[:, g]], cayley[:, cayley[g]]):
            raise GroupValidationError(f"associativity fails at element {g}")
        reached[g] = True
        while not reached[(products := cayley[np.ix_(reached, reached)])].all():
            reached[products] = True


def _check_affine(model: GroupModel):
    rng = np.random.default_rng(1)
    i = rng.integers(0, model.n, 2048)
    j = rng.integers(0, model.n, 2048)
    prod = model.op(i, j)
    ok = prod != OUT_OF_WINDOW
    if np.any(ok):
        # u is exact under the product, so the stored modular value at the
        # snapped index must satisfy the multiplicativity law essentially
        # to machine precision.
        lhs = model.modular[prod[ok]]
        rhs = model.modular[i[ok]] * model.modular[j[ok]]
        rel = np.abs(lhs - rhs) / rhs
        if rel.max() > _AFFINE_TOL_MULT:
            raise GroupValidationError(
                f"modular multiplicativity off by {rel.max():.3e}")

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
    """On-grid translation targets that keep a mid-window probe inside."""
    r_u = carrier.u_values[-1]
    r_b = carrier.b_values[-1]
    ku = max(1, int(round(0.25 * r_u / carrier.h_u)))
    u_step = ku * carrier.h_u
    kb = max(1, int(round(min(0.5, r_b / 8.0) / carrier.h_b)))
    b_step = kb * carrier.h_b
    return [(u_step, 0.0), (-u_step, 0.0), (0.0, b_step), (u_step, b_step)]
