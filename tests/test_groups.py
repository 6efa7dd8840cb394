"""Group model construction, validation, translation, and the modular
estimate."""

import ast
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import ltp
from ltp.errors import (DomainError, ResourceError, SpecParseError,
                        WindowLeakError)
from ltp.groups import (OUT_OF_WINDOW, GroupModel, GroupValidationError,
                        _CyclicCarrier, _SymmetricCarrier, parse_group_spec,
                        validate_group)
from ltp.space import point_modular


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,family,normalization", [
    ("cyclic:4", "cyclic", "counting"),
    ("cyclic:4@probability", "cyclic", "probability"),
    ("circle:8", "circle", "probability"),
    ("circle:8@counting", "circle", "counting"),
    ("dihedral:5", "dihedral", "counting"),
    ("symmetric:4", "symmetric", "counting"),
    ("product:cyclic:2+cyclic:12", "product", "counting"),
    ("z:64", "z", "counting"),
    ("z2:16", "z2", "counting"),
    ("r:0.05:4", "r", "counting"),
    ("affine:0.25:2:0.25:4", "affine", "counting"),
])
def test_grammar_accepts(text, family, normalization):
    spec = parse_group_spec(text)
    assert spec.family == family
    assert spec.normalization == normalization


@pytest.mark.parametrize("text", [
    "", "cyclic", "cyclic:0", "cyclic:-3", "cyclic:4@bogus", "nono:4",
    "z:0", "r:0.1", "r:-1:4", "affine:0.25:2:0.25", "product:cyclic:4",
    "product:cyclic:2+product:cyclic:2+cyclic:2", "product:z:4+cyclic:2",
    "symmetric:x",
])
def test_grammar_rejects(text):
    with pytest.raises(SpecParseError):
        parse_group_spec(text)


def test_only_groups_builds_models_and_carriers():
    # every model comes from build_group: no other module calls GroupModel,
    # GroupSpec or a carrier class
    builders = {"GroupModel", "GroupSpec"} | {
        name for name, value in vars(ltp.groups).items()
        if isinstance(value, type) and issubclass(value, ltp.groups._Carrier)}
    callers = set()
    for path in Path(ltp.groups.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in builders:
                    callers.add(path.name)
    assert callers == {"groups.py"}


def test_element_cap():
    # one spec per family just past 2^20 cells: a carrier that allocated
    # before checking the cap would cost megabytes here, not gigabytes
    for text in ("z:600000", "cyclic:2000000", "dihedral:524289", "symmetric:10",
                 "symmetric:11", "z2:512", "r:1:524288", "affine:1:512:1:512",
                 "product:cyclic:1024+cyclic:1025",
                 # radius / step overflows to inf, past what an int can hold
                 "r:1e-300:1e300", "affine:1e-300:1e300:1:1"):
        with pytest.raises(ResourceError):
            ltp.build_group(text)


# ---------------------------------------------------------------------------
# Finite models
# ---------------------------------------------------------------------------

def test_cyclic4_counting():
    G = ltp.build_group("cyclic:4@counting")
    assert G.n == 4
    assert np.all(G.weights == 1.0)
    assert np.all(G.modular == 1.0)
    i, j = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    assert np.all(G.op(i, j) == (i + j) % 4)


def test_circle8_probability():
    G = ltp.build_group("circle:8")
    assert G.n == 8
    assert np.allclose(G.weights, 1.0 / 8.0)
    assert np.all(G.modular == 1.0)
    assert G.normalization == "probability"


def test_dihedral_relations():
    G = ltp.build_group("dihedral:4")
    assert G.n == 8
    assert not G.is_abelian
    r, s = 1, 4  # a generating rotation and a flip
    # s r s = r^{-1}
    assert int(G.op(int(G.op(s, r)), s)) == int(G.inv(r))


def test_symmetric_composition_convention():
    G = ltp.build_group("symmetric:4")
    perms = list(itertools.permutations(range(4)))
    idx = np.arange(G.n)
    table = G.op(idx[:, None], idx)
    for i, j in itertools.product(range(G.n), repeat=2):
        composed = tuple(perms[i][perms[j][t]] for t in range(4))
        assert perms[table[i, j]] == composed
        assert G.op(i, j) == table[i, j]
    rows = np.array(perms)
    assert np.array_equal(rows[G.inv(idx)], np.argsort(rows, axis=1))
    assert np.array_equal(G.carrier._rank(rows), idx)


def test_product_factors():
    G = ltp.build_group("product:cyclic:2+cyclic:12")
    assert G.n == 24
    assert G.is_abelian
    assert G.cyclic_factors == (2, 12)
    # any finite factors; cells are the factor cells in C order
    for spec in ("product:cyclic:3+dihedral:2", "product:symmetric:3+cyclic:2"):
        G = ltp.build_group(spec)
        A, B = (ltp.build_group(factor.text) for factor in G.spec.factors)
        cells = list(itertools.product(range(A.n), range(B.n)))
        index = {cell: k for k, cell in enumerate(cells)}
        assert G.identity == index[(A.identity, B.identity)]
        idx = np.arange(G.n)
        table, inv = G.op(idx[:, None], idx), G.inv(idx)
        for k, (a, b) in enumerate(cells):
            assert inv[k] == index[(int(A.inv(a)), int(B.inv(b)))]
            for m, (c, d) in enumerate(cells):
                assert table[k, m] == index[(int(A.op(a, c)), int(B.op(b, d)))]


def test_finite_inverses_exact():
    for spec in ("cyclic:7", "dihedral:5", "symmetric:4", "product:cyclic:3+cyclic:5"):
        G = ltp.build_group(spec)
        idx = np.arange(G.n)
        inv = G.inverses
        assert np.all(G.op(idx, inv) == G.identity)
        assert np.all(G.op(inv, idx) == G.identity)


# Rows of an order-5 loop: identity 0, every element its own inverse, Latin
# rows, but (1 1) 2 = 2 while 1 (1 2) = 4.
_LOOP_ROWS = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                       [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])


class _LoopCarrier(_CyclicCarrier):
    def op(self, i, j):
        return _LOOP_ROWS[np.asarray(i), np.asarray(j)]

    def inv(self, i):
        return np.asarray(i)


class _CorruptedCyclicCarrier(_CyclicCarrier):
    """Addition mod n with the single product 3 * 5 moved from 8 to 9."""

    def op(self, i, j):
        i, j = np.asarray(i), np.asarray(j)
        return np.where((i == 3) & (j == 5), 9, super().op(i, j))


@pytest.mark.parametrize("carrier", [_LoopCarrier(5), _CorruptedCyclicCarrier(512)],
                         ids=["loop:5", "corrupted-cyclic:512"])
def test_validation_rejects_non_associative_carrier(carrier):
    # both carriers pass the identity and inverse checks; only the
    # associativity test can reject them
    n = carrier.n
    model = GroupModel(spec=parse_group_spec(f"cyclic:{n}"), carrier=carrier,
                       weights=np.ones(n), modular=np.ones(n))
    with pytest.raises(GroupValidationError, match="associativity"):
        validate_group(model)


def test_symmetric_build_evaluates_each_pair_once(monkeypatch):
    # validation reads the Cayley table off the division table, so building
    # evaluates op on n^2 pairs rather than on the n^3 of a triple loop
    evaluated = []
    op = _SymmetricCarrier.op

    def counting_op(self, i, j):
        evaluated.append(math.prod(np.broadcast_shapes(np.shape(i), np.shape(j))))
        return op(self, i, j)

    monkeypatch.setattr(_SymmetricCarrier, "op", counting_op)
    G = ltp.build_group("symmetric:5")
    assert sum(evaluated) <= 2 * G.n ** 2


@pytest.mark.parametrize("spec", [
    "cyclic:300", "dihedral:5", "symmetric:4", "product:cyclic:3+dihedral:2",
    "z:8", "z2:3", "r:0.25:2", "affine:0.125:1:0.125:1",
])
def test_division_table_matches_op(spec):
    G = ltp.build_group(spec)
    x, y = np.divmod(np.arange(G.n * G.n), G.n)
    table = G.division_table()
    assert table.dtype == np.int64
    assert np.array_equal(table.reshape(-1), G.op(G.inv(y), x))
    # only affine inverses leave the window (their columns are all -1)
    assert np.any(G.inverses == OUT_OF_WINDOW) == spec.startswith("affine")


# ---------------------------------------------------------------------------
# Lattice models
# ---------------------------------------------------------------------------

def test_lattice_window_sentinel():
    G = ltp.build_group("z:8")
    coords = G.coords()[:, 0]
    five = int(np.flatnonzero(coords == 5)[0])
    six = int(np.flatnonzero(coords == 6)[0])
    assert int(G.op(five, six)) == OUT_OF_WINDOW
    assert int(G.op(five, int(np.flatnonzero(coords == -5)[0]))) == G.identity
    # sentinel propagates
    assert int(G.op(OUT_OF_WINDOW, five)) == OUT_OF_WINDOW
    assert int(G.inv(OUT_OF_WINDOW)) == OUT_OF_WINDOW


def test_z2_carrier():
    G = ltp.build_group("z2:3")
    assert G.n == 49
    assert np.all(G.inv(np.arange(G.n)) != OUT_OF_WINDOW)
    assert np.all(G.coords()[G.identity] == 0)
    # the chart is the meshgrid "ij" chart, and from_coords its inverse
    for spec in ("z:4", "z2:3", "r:0.25:1"):
        carrier = ltp.build_group(spec).carrier
        axes = [np.arange(-carrier.radius, carrier.radius + 1)] * carrier.dim
        chart = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        assert np.array_equal(carrier.coords, chart)
        assert np.array_equal(carrier.from_coords(carrier.coords), np.arange(carrier.n))


def test_real_line_weights():
    G = ltp.build_group("r:0.05:4")
    assert G.kind == "quadrature"
    assert np.allclose(G.weights, 0.05)
    assert np.all(G.modular == 1.0)


# ---------------------------------------------------------------------------
# Affine model
# ---------------------------------------------------------------------------

def test_affine_closed_form_haar_and_modular():
    G = ltp.build_group("affine:0.25:2:0.25:4")
    coords = G.coords()
    u = coords[:, 0]
    assert np.allclose(G.modular, np.exp(-u))
    assert np.allclose(G.weights, np.exp(-u) * 0.25 * 0.25)
    # the point (a, b) = (e, 0) sits on the grid and carries Delta = 1/e
    at = int(np.argmin(np.abs(u - 1.0) + np.abs(coords[:, 1])))
    assert G.modular[at] == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_affine_modular_estimate_confirms_closed_form():
    # empirical cross-check of Delta(e, 0): on-grid u and b=0 make the
    # translated sums exact, so the estimate matches to float precision
    G = ltp.build_group("affine:0.25:2:0.25:4")
    est = ltp.estimate_modular(G, (math.e, 0.0))
    assert est == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_affine_product_exact_in_u():
    G = ltp.build_group("affine:0.25:2:0.25:4")
    coords = G.coords()
    a = int(np.argmin(np.abs(coords[:, 0] - 0.5) + np.abs(coords[:, 1] - 1.0)))
    b = int(np.argmin(np.abs(coords[:, 0] + 0.25) + np.abs(coords[:, 1] - 0.5)))
    prod = int(G.op(a, b))
    assert prod != OUT_OF_WINDOW
    u1, b1 = coords[a]
    u2, b2 = coords[b]
    assert coords[prod][0] == pytest.approx(u1 + u2, abs=1e-15)
    assert coords[prod][1] == pytest.approx(math.exp(u1) * b2 + b1, abs=0.125 + 1e-12)


def test_estimate_modular_discrete_models_exact_one():
    for spec, x in [("cyclic:6", 2), ("cyclic:8@probability", 3), ("z:16", 5)]:
        G = ltp.build_group(spec)
        assert ltp.estimate_modular(G, x) == 1.0


def test_estimate_modular_refuses_a_probe_from_another_model():
    for spec, x in [("affine:0.25:1:0.25:2", (2.0, 0.0)), ("cyclic:6", 2)]:
        G = ltp.build_group(spec)
        probe = ltp.random_function(ltp.build_group(spec), 0)
        with pytest.raises(ltp.ModelMismatchError):
            ltp.estimate_modular(G, x, probe=probe)


def test_estimate_modular_off_grid_refinement():
    # Delta(a=2, b=0) = 0.5; the estimate is within 1% at step 0.125 and the
    # error contracts under refinement
    errors = {}
    for step in (0.25, 0.125):
        G = ltp.build_group(f"affine:{step}:2:{step}:4")
        est = ltp.estimate_modular(G, (2.0, 0.0))
        errors[step] = abs(est - 0.5) / 0.5
    assert errors[0.25] < 0.01  # within 1% already at the default grid
    assert errors[0.125] < 0.01
    assert errors[0.25] / errors[0.125] > 1.8


def test_affine_modular_validation_points_are_exact():
    # on-grid u keeps the u sums exact, and a uniform b shift of the linear
    # interpolant telescopes, so the build-time validation points agree with
    # the closed form to float precision (off-grid contraction is covered by
    # test_estimate_modular_off_grid_refinement)
    from ltp.groups import _affine_validation_points
    G = ltp.build_group("affine:0.25:2:0.25:4")
    for u_x, b_x in _affine_validation_points(G.carrier):
        est = ltp.estimate_modular(G, int(G.carrier.snap(u_x, b_x)))
        assert est == pytest.approx(math.exp(-u_x), rel=1e-12)


def test_wide_affine_window_validates_on_the_residual():
    # on a wide u window the pure b shift pulls probe cells back by up to
    # e^{0.45 R_u} b_x, past the window edge: more mass leaks than
    # estimate_modular's default guard allows, and validation judges the
    # residual against the closed form instead, which stays below 1%
    from ltp.groups import _affine_modular_residual, _affine_validation_points
    G = ltp.build_group("affine:0.5:8:0.5:2")
    u_x, b_x = _affine_validation_points(G.carrier)[2]
    with pytest.raises(WindowLeakError):
        ltp.estimate_modular(G, int(G.carrier.snap(u_x, b_x)))
    assert _affine_modular_residual(G) < 1e-2


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

def test_translate_identity_is_exact():
    for spec in ("cyclic:5", "z:8", "affine:0.25:1:0.25:2"):
        G = ltp.build_group(spec)
        rng = np.random.default_rng(3)
        f = ltp.random_function(G, rng)
        for side in (ltp.LEFT_DIRAC, ltp.RIGHT_DIRAC):
            out = ltp.translate(f, G.identity, side)
            assert np.array_equal(out.values, f.values)
            assert out.leak == 0.0


def test_translate_cyclic_shift():
    G = ltp.build_group("cyclic:4")
    f = ltp.GFunction(G, [1, 2, 3, 4])
    shifted = ltp.translate(f, 1, ltp.LEFT_DIRAC)
    assert np.allclose(shifted.values, [4, 1, 2, 3])


def test_left_translation_preserves_lp_norm():
    rng = np.random.default_rng(11)
    for spec in ("cyclic:12", "dihedral:4", "symmetric:3"):
        G = ltp.build_group(spec)
        f = ltp.random_function(G, rng)
        for p in (1.0, 2.0, 3.5):
            base = ltp.lp_norm(f, p)
            for x in (1, G.n // 2, G.n - 1):
                assert ltp.lp_norm(ltp.translate(f, x, ltp.LEFT_DIRAC), p) == \
                    pytest.approx(base, rel=1e-13)


def test_right_translation_norm_scaling_affine():
    # ||f * delta_x||_2 = Delta(x)^(-1/2) ||f||_2; at (a, b) = (2, 0) the
    # ratio is sqrt(2), within 2% at step 0.125
    G = ltp.build_group("affine:0.125:2:0.125:4")
    coords = G.coords()
    u, b = coords[:, 0], coords[:, 1]
    fu = np.where(np.abs(u + 0.35) < 0.9, np.cos(0.5 * np.pi * (u + 0.35) / 0.9) ** 2, 0.0)
    fb = np.where(np.abs(b) < 1.5, np.cos(0.5 * np.pi * b / 1.5) ** 2, 0.0)
    f = ltp.GFunction(G, fu * fb)
    shifted = ltp.translate(f, (2.0, 0.0), ltp.RIGHT_DIRAC)
    ratio = ltp.lp_norm(shifted, 2) / ltp.lp_norm(f, 2)
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.02)


def test_translate_window_leak_raises():
    G = ltp.build_group("z:8")
    f = ltp.box_function(G, 6)
    with pytest.raises(WindowLeakError) as excinfo:
        ltp.translate(f, (5,), ltp.LEFT_DIRAC)
    assert excinfo.value.leak > 1e-6


def test_affine_transports_report_the_mass_they_push_out():
    # The expected leaks use the ax+b law written out here,
    # (u1, b1)(u2, b2) = (u1 + u2, e^u1 b2 + b1) and (u, b)^-1 = (-u, -e^-u b).
    # At this x the four leaks differ from one another, and each differs from
    # the share its pull-back argument would leak, so a transport that pushes
    # mass along the wrong map fails.
    G = ltp.build_group("affine:0.25:1:0.25:2")
    u, b = G.coords().T
    rng = np.random.default_rng(5)
    f = ltp.GFunction(G, rng.uniform(0.5, 1.5, G.n) * (b >= 1.0))  # near the b edge
    u_x, b_x = 0.5, -1.0
    x = (math.exp(u_x), b_x)
    mass = G.weights * np.abs(f.values)

    def share(push_u, push_b):
        outside = (np.abs(push_u) > 1.0 + 0.125) | (np.abs(push_b) > 2.0 + 0.125)
        return float(np.sum(mass[outside])) / float(np.sum(mass))

    cases = [
        (lambda: ltp.reflect(f), share(-u, -np.exp(-u) * b)),  # t -> t^-1
        (lambda: ltp.translate(f, x, ltp.LEFT_DIRAC),
         share(u_x + u, np.exp(u_x) * b + b_x)),  # t -> x t
        (lambda: ltp.translate(f, x, ltp.RIGHT_DIRAC),
         share(u + u_x, np.exp(u) * b_x + b)),  # t -> t x
        (lambda: ltp.estimate_modular(G, x, probe=f),
         share(u - u_x, b - np.exp(u - u_x) * b_x)),  # t -> t x^-1
    ]
    for transport, expected in cases:
        assert 0.01 < expected < 0.99
        with pytest.raises(WindowLeakError) as excinfo:
            transport()
        assert excinfo.value.leak == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("spec,shift", [
    ("z:8", (3,)), ("z2:4", (2, 1)), ("r:0.25:2", (3,)),
])
def test_lattice_transports_report_the_mass_they_push_out(spec, shift):
    # The expected leaks are brute-force shares over coordinate pairs: a
    # point sum leaves the box [-R, R]^d when one of its coordinates does.
    G = ltp.build_group(spec)
    coords, radius = G.carrier.coords, G.carrier.radius
    rng = np.random.default_rng(11)
    f = ltp.GFunction(G, rng.uniform(0.5, 1.5, G.n) * (coords[:, 0] >= radius // 2))
    g = ltp.GFunction(G, rng.uniform(0.5, 1.5, G.n))
    mass_f = G.weights * np.abs(f.values)
    mass_g = G.weights * np.abs(g.values)

    moved_out = np.any(np.abs(coords + np.array(shift)) > radius, axis=1)
    expected = float(np.sum(mass_f[moved_out])) / float(np.sum(mass_f))
    assert 0.01 < expected < 0.99
    for side in (ltp.LEFT_DIRAC, ltp.RIGHT_DIRAC):
        with pytest.raises(WindowLeakError) as excinfo:
            ltp.translate(f, shift, side)
        assert excinfo.value.leak == pytest.approx(expected, rel=1e-12)

    assert ltp.reflect(f).leak == 0.0

    pair_out = np.any(np.abs(coords[:, None, :] + coords[None, :, :]) > radius, axis=2)
    pair_mass = mass_g[:, None] * mass_f[None, :]
    expected = float(np.sum(pair_mass[pair_out])) / float(np.sum(pair_mass))
    assert 0.01 < expected < 0.99
    assert ltp.convolve(g, f).leak == pytest.approx(expected, rel=1e-12)


def test_transports_name_no_carrier_class_or_kind():
    # how a point moves and when it leaves the window is the carrier's law:
    # the transports themselves branch on no carrier class and no model kind
    wanted = {"space.py": {"reflect", "translate", "estimate_modular", "_pull"},
              "convolve.py": {"_product_leak"}}
    names = {}
    for filename, functions in wanted.items():
        path = Path(ltp.groups.__file__).parent / filename
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name in functions:
                names[node.name] = {
                    sub.id if isinstance(sub, ast.Name) else sub.attr
                    for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}
    assert set(names) == set().union(*wanted.values())
    for function, used in names.items():
        branches = {name for name in used
                    if name in ("_AffineCarrier", "_LatticeCarrier") or name.startswith("KIND_")}
        assert not branches, f"{function} names {sorted(branches)}"


def test_translate_leak_reported_below_threshold():
    G = ltp.build_group("z:8")
    f = ltp.box_function(G, 2)
    out = ltp.translate(f, (3,), ltp.LEFT_DIRAC)
    assert out.leak == 0.0


def test_resolve_point_errors():
    G = ltp.build_group("cyclic:4")
    f = ltp.random_function(G, 0)
    with pytest.raises(DomainError):
        ltp.translate(f, 9, ltp.LEFT_DIRAC)
    A = ltp.build_group("affine:0.25:1:0.25:2")
    g = ltp.random_function(A, 0)
    with pytest.raises(DomainError):
        ltp.translate(g, (-1.0, 0.0), ltp.LEFT_DIRAC)
    # lattice points are integer coordinates, one per axis, never truncated
    for spec, x in (("r:0.05:4", (0.5,)), ("z2:4", (1.5, 0)), ("z:8", (1, 2))):
        with pytest.raises(DomainError):
            ltp.translate(ltp.dirac(ltp.build_group(spec)), x, ltp.LEFT_DIRAC)
    # huge or infinite coordinates lie outside, tested before any int cast
    Z4 = ltp.build_group("z:4")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ((1e300,), (math.inf,), (-math.inf,)):
            with pytest.raises(DomainError, match="lies outside the window"):
                ltp.translate(ltp.dirac(Z4), x, ltp.LEFT_DIRAC)
            with pytest.raises(DomainError, match="lies outside the window"):
                point_modular(Z4, x)
    # a cell index is read in range, never from the end as numpy would
    C = ltp.build_group("cyclic:8")
    Z = ltp.build_group("z:8")
    for build in (lambda: ltp.dirac(C, -1), lambda: ltp.dirac_measure(C, -3),
                  lambda: ltp.dirac(C, 8), lambda: ltp.dirac(C, 10**400),
                  lambda: ltp.dirac_measure(C, 10**400),
                  lambda: ltp.find_folner(Z, np.array([-1]), 0.5)):
        with pytest.raises(DomainError, match="out of range"):
            build()
    # and whole, never truncated: 2.5 is no cell, while 2, np.int64(2) and 2.0 are
    for build in (lambda: ltp.dirac(C, 2.5), lambda: ltp.dirac_measure(C, 2.5),
                  lambda: ltp.find_folner(Z, np.array([1.7]), 0.5)):
        with pytest.raises(DomainError, match="not an integer"):
            build()
    for i in (2, np.int64(2), 2.0):
        assert np.flatnonzero(ltp.dirac(C, i).values).tolist() == [2]
        assert np.flatnonzero(ltp.dirac_measure(C, i).values).tolist() == [2]
        assert ltp.find_folner(Z, np.array([i + 6]), 0.5).c_indices.tolist() == [8]
