"""Convolution paths, the operator wrapper, and the algebra identities.

The reference oracle is a literal triple-loop sum over the carrier,
independent of the library's gather/FFT paths.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import ltp
from ltp.convolve import ConvOperator, _CirculantProduct
from ltp.errors import ModelMismatchError
from ltp.groups import KIND_FINITE, _AffineCarrier


def naive_convolve(model, g, f):
    """(g*f)(x) = sum_y w_y g(y) f(y^{-1} x), written as the definition."""
    out = np.zeros(model.n, dtype=np.complex128)
    for x in range(model.n):
        acc = 0.0 + 0.0j
        for y in range(model.n):
            t = int(model.op(int(model.inv(y)), x))
            if t >= 0:
                acc += model.weights[y] * g[y] * f[t]
        out[x] = acc
    return out


def test_dirac_shift_example():
    G = ltp.build_group("cyclic:4@counting")
    g = ltp.GFunction(G, [1, 0, 0, 0])
    f = ltp.GFunction(G, [0, 1, 0, 0])
    assert np.allclose(ltp.convolve(g, f).values, [0, 1, 0, 0])


def test_hand_computed_square():
    G = ltp.build_group("cyclic:4@counting")
    f = ltp.GFunction(G, [1, 1, 0, 0])
    assert np.allclose(ltp.convolve(f, f).values, [1, 2, 1, 0], atol=1e-14)


def test_normalized_constant_on_circle():
    G = ltp.build_group("circle:12")
    ones = ltp.GFunction(G, np.ones(12))
    assert np.allclose(ltp.convolve(ones, ones).values, 1.0, atol=1e-14)


@pytest.mark.parametrize("spec", ["cyclic:6", "cyclic:9@probability",
                                  "product:cyclic:2+cyclic:4", "dihedral:3",
                                  "symmetric:3", "z:5"])
def test_direct_path_matches_naive(spec):
    G = ltp.build_group(spec)
    rng = np.random.default_rng(42)
    g = ltp.random_function(G, rng)
    f = ltp.random_function(G, rng)
    expected = naive_convolve(G, g.values, f.values)
    got = ltp.convolve(g, f, path="direct")
    assert np.max(np.abs(got.values - expected)) < 1e-12


@pytest.mark.parametrize("spec", ["cyclic:8", "cyclic:12@probability",
                                  "product:cyclic:2+cyclic:8", "circle:10",
                                  "product:cyclic:2+cyclic:3+cyclic:4"])
def test_spectral_path_matches_direct(spec):
    G = ltp.build_group(spec)
    rng = np.random.default_rng(7)
    for _ in range(5):
        g = ltp.random_function(G, rng)
        f = ltp.random_function(G, rng)
        direct = ltp.convolve(g, f, path="direct")
        fast = ltp.convolve(g, f)
        scale = max(ltp.lp_norm(direct, 2), 1e-30)
        assert ltp.lp_norm(direct - fast, 2) / scale < 1e-10


def test_convolve_takes_only_the_auto_and_direct_paths():
    G = ltp.build_group("cyclic:8")
    f = ltp.random_function(G, 0)
    with pytest.raises(ValueError, match="unknown convolution path"):
        ltp.convolve(f, f, path="spectral")


@pytest.mark.parametrize("spec", ["z:64", "z2:8"])
def test_torus_symbol_matches_character_sum(spec):
    # the lattice symbol on the periodic embedding against the direct sum
    # w0 sum_k f(k) exp(-i k . theta) at grid frequencies theta = 2 pi m / pad
    G = ltp.build_group(spec)
    dim = G.carrier.dim
    pad = 4096 if dim == 1 else 512
    f = ltp.random_function(G, 11, support_radius=G.carrier.radius / 2)
    symbol = _CirculantProduct(f, (pad,) * dim).symbol[..., 0]
    rng = np.random.default_rng(5)
    scale = float(np.sum(np.abs(f.values)))
    for m in rng.integers(0, pad, size=(6, dim)):
        theta = 2.0 * np.pi * m / pad
        direct = G.weights[0] * np.sum(f.values * np.exp(-1j * (G.carrier.coords @ theta)))
        assert abs(symbol[tuple(m)] - direct) <= 1e-12 * scale


def test_fft_code_lives_in_the_circulant_product_only():
    def fft_lines(tree):
        return {node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name) and node.value.id == "np"}

    src = Path(ltp.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in src.glob("*.py")}
    circulant = next(node for node in trees["convolve.py"].body
                     if isinstance(node, ast.ClassDef) and node.name == "_CirculantProduct")
    found = {name: fft_lines(tree) for name, tree in trees.items()}
    assert fft_lines(circulant)
    assert {name: lines for name, lines in found.items() if lines} == \
        {"convolve.py": fft_lines(circulant)}


def test_operator_matrix_is_circulant_with_first_column_f():
    G = ltp.build_group("cyclic:6@counting")
    rng = np.random.default_rng(0)
    f = ltp.random_function(G, rng)
    mat = ConvOperator(f).matrix()
    assert np.allclose(mat[:, 0], f.values)
    for y in range(6):
        assert np.allclose(mat[:, y], np.roll(f.values, y))


def test_dirac_measure_operator_is_identity():
    for spec in ("cyclic:5@counting", "cyclic:5@probability"):
        G = ltp.build_group(spec)
        mat = ConvOperator(ltp.dirac_measure(G)).matrix()
        assert np.allclose(mat, np.eye(5), atol=1e-14)


@pytest.mark.parametrize("spec", ["cyclic:6", "dihedral:4", "z:5", "z2:8", "r:0.5:2",
                                  "affine:0.25:1:0.25:1", "affine:0.125:1:0.125:1"])
def test_direct_path_matches_operator_matrix(spec):
    # z2:8 and affine:0.125:1:0.125:1 (n = 289) span two kernel column blocks
    G = ltp.build_group(spec)
    rng = np.random.default_rng(5)
    for f in (ltp.random_function(G, rng), ltp.random_function(G, rng, complex_valued=False)):
        mat = ConvOperator(f).matrix()
        for _ in range(5):
            g = ltp.random_function(G, rng)
            expected = mat @ g.values
            got = ltp.convolve(g, f, path="direct").values
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("spec", ["r:0.5:2", "r:0.05:4", "affine:0.25:1:0.25:1",
                                  "affine:0.125:1:0.125:1"])
def test_exact_l1_witness_attains_lower(spec):
    G = ltp.build_group(spec)
    for f in (ltp.random_function(G, 3), ltp.random_function(G, 4, complex_valued=False)):
        est = ltp.tempered_norm(f, 1)
        witness = est.witness
        ratio = ltp.lp_norm(ltp.convolve(witness, f), 1) / ltp.lp_norm(witness, 1)
        assert ratio == pytest.approx(est.lower, rel=1e-12)


def lattice_kernel(model, f):
    """K[x, y] = f(x - y) on a truncated lattice, 0 where x - y leaves the
    window, read from coordinates by a dictionary lookup."""
    coords = [tuple(c) for c in model.carrier.coords]
    index = {c: i for i, c in enumerate(coords)}
    out = np.zeros((model.n, model.n), dtype=f.values.dtype)
    for x, cx in enumerate(coords):
        for y, cy in enumerate(coords):
            t = index.get(tuple(a - b for a, b in zip(cx, cy)))
            if t is not None:
                out[x, y] = f.values[t]
    return out


def affine_kernel(model, f):
    """K[x, y] on the affine grid by the per-pair formula: the mean of row
    u_x - u_y of f over e^{-u_y} (b_x - b_y -+ h_b / 2), the image of cell
    y, with b_x - b_y rounded for each pair."""
    carrier = model.carrier
    u, b = carrier.coords[:, 0], carrier.coords[:, 1]
    steps = np.rint(u / carrier.h_u).astype(np.int64)
    ext, cum = carrier.b_prefix(f.values.real if f.is_real else f.values)
    rows = steps[:, None] - steps[None, :] + carrier.k_u
    comp = np.exp(-u)[None, :]
    tau_c = comp * (b[:, None] - b[None, :])
    tau_h = 0.5 * comp * carrier.h_b
    return carrier.averaged_rows(ext, cum, rows, tau_c - tau_h, tau_c + tau_h)


@pytest.mark.parametrize("spec, exact", [("affine:0.25:1:0.25:1", True),
                                         ("affine:0.125:1:0.125:1", True),
                                         ("affine:0.1:1:0.1:1", False)])
def test_affine_kernel_matches_the_per_pair_formula(spec, exact):
    # on dyadic steps b_x - b_y and (ib_x - ib_y) h_b round alike, so the
    # table of distinct entries reproduces the per-pair kernel bit for bit
    G = ltp.build_group(spec)
    n_u, n_b = G.carrier.n_u, G.carrier.n_b
    rng = np.random.default_rng(23)
    for f in (ltp.random_function(G, rng), ltp.random_function(G, rng, complex_valued=False)):
        mat = ConvOperator(f).matrix()
        expected = affine_kernel(G, f) * G.weights[None, :]
        if exact:
            assert np.array_equal(mat, expected)
        else:
            assert np.max(np.abs(mat - expected)) <= 1e-14 * np.max(np.abs(expected))
        # columns with equal u_y are b-shifts of one another, read from the
        # first column (shifts up) and the last (shifts down)
        grid = mat.reshape(n_u, n_b, n_u, n_b)
        for s in range(n_b):
            assert np.array_equal(grid[:, s:, :, s], grid[:, :n_b - s, :, 0])
            assert np.array_equal(grid[:, :n_b - s, :, n_b - 1 - s], grid[:, s:, :, n_b - 1])


def test_affine_kernel_averages_each_distinct_entry_once(monkeypatch):
    G = ltp.build_group("affine:0.125:1:0.125:1")
    averaged = []
    original = _AffineCarrier.averaged_rows

    def counting(carrier, *args):
        out = original(carrier, *args)
        averaged.append(out.size)
        return out

    monkeypatch.setattr(_AffineCarrier, "averaged_rows", counting)
    ConvOperator(ltp.random_function(G, 0)).matrix()
    # n_u^2 (2 n_b - 1) = 17^2 * 33 entries (u_y, u_x, b_x - b_y), not the
    # n^2 = 289^2 cell pairs
    assert sum(averaged) == 9537


@pytest.fixture
def no_lattice_division_table(monkeypatch):
    original = ltp.GroupModel.division_table

    def refusing(model):
        if model.kind != KIND_FINITE:
            raise AssertionError(f"division table read on {model.name}")
        return original(model)

    monkeypatch.setattr(ltp.GroupModel, "division_table", refusing)


@pytest.mark.parametrize("spec", ["z:64", "z2:8", "r:0.05:4"])
def test_lattice_kernel_reads_coordinates_not_the_division_table(spec, no_lattice_division_table):
    G = ltp.build_group(spec)
    rng = np.random.default_rng(17)
    for f in (ltp.random_function(G, rng), ltp.random_function(G, rng, complex_valued=False)):
        kernel = lattice_kernel(G, f)
        assert np.array_equal(ConvOperator(f).matrix(), kernel * G.weights[None, :])
        g = ltp.random_function(G, rng)
        expected = kernel @ (G.weights * g.values)
        got = ltp.convolve(g, f, path="direct").values
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
        columns = G.weights @ np.abs(kernel)
        assert ltp.tempered_norm(f, 1).lower == pytest.approx(np.max(columns), rel=1e-13)


def test_lattice_convolution_runs_past_the_division_table_cap(no_lattice_division_table):
    G = ltp.build_group("z2:50")
    assert G.n == 10201
    f = ltp.random_function(G, 3, support_radius=2)
    g = ltp.random_function(G, 4, support_radius=2)
    got = ltp.convolve(g, f)
    coords = G.carrier.coords
    expected = np.zeros(G.n, dtype=np.complex128)
    for y in np.flatnonzero(g.values):
        for t in np.flatnonzero(f.values):
            x = int(G.carrier.from_coords(coords[y] + coords[t]))
            expected[x] += G.weights[y] * g.values[y] * f.values[t]
    assert got.leak == 0.0
    assert np.max(np.abs(got.values - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_convolving_with_dirac_measure_is_translation():
    rng = np.random.default_rng(13)
    G = ltp.build_group("dihedral:4")
    f = ltp.random_function(G, rng)
    for x in (1, 3, 6):
        via_conv = ltp.convolve(ltp.dirac_measure(G, x), f)
        via_translate = ltp.translate(f, x, ltp.LEFT_DIRAC)
        assert np.max(np.abs(via_conv.values - via_translate.values)) < 1e-13


def test_dirac_products_compose():
    G = ltp.build_group("cyclic:8@counting")
    for x, y in [(2, 5), (7, 7), (0, 3)]:
        dd = ltp.convolve(ltp.dirac_measure(G, x), ltp.dirac_measure(G, y))
        expected = ltp.dirac_measure(G, int(G.op(x, y)))
        assert np.allclose(dd.values, expected.values, atol=1e-14)


def _associativity_residual(f, g, h):
    """||(f*g)*h - f*(g*h)||_2 on the direct path, as the suite measures it."""
    left = ltp.convolve(ltp.convolve(f, g, path="direct"), h, path="direct")
    right = ltp.convolve(f, ltp.convolve(g, h, path="direct"), path="direct")
    return ltp.lp_norm(left - right, 2)


def test_associativity_diracs_exact():
    G = ltp.build_group("cyclic:8")
    for x, y, z in [(1, 2, 3), (5, 7, 2)]:
        res = _associativity_residual(ltp.dirac_measure(G, x),
                                      ltp.dirac_measure(G, y),
                                      ltp.dirac_measure(G, z))
        assert res == 0.0


@pytest.mark.parametrize("spec", ["cyclic:12", "symmetric:4"])
def test_associativity_random(spec):
    G = ltp.build_group(spec)
    rng = np.random.default_rng(21)
    for _ in range(5):
        f = ltp.random_function(G, rng)
        g = ltp.random_function(G, rng)
        h = ltp.random_function(G, rng)
        for func in (f, g, h):
            func.values /= ltp.lp_norm(func, 2)
        assert _associativity_residual(f, g, h) < 1e-12


def test_young_bound_unimodular():
    rng = np.random.default_rng(2)
    for spec in ("cyclic:10", "cyclic:10@probability", "z:12"):
        G = ltp.build_group(spec)
        for _ in range(10):
            f = ltp.random_function(G, rng)
            g = ltp.random_function(G, rng)
            for p in (1.0, 1.5, 2.0, 3.0):
                lhs = ltp.lp_norm(ltp.convolve(g, f), p)
                assert lhs <= ltp.lp_norm(g, p) * ltp.lp_norm(f, 1) + 1e-12


def test_leak_fraction_metadata():
    G = ltp.build_group("z:8")
    wide = ltp.box_function(G, 6)
    out = ltp.convolve(wide, wide)
    assert 0.0 < out.leak < 1.0
    narrow = ltp.box_function(G, 2)
    assert ltp.convolve(narrow, narrow).leak == 0.0
    F = ltp.build_group("cyclic:9")
    f = ltp.random_function(F, 0)
    assert ltp.convolve(f, f).leak == 0.0


def test_model_mismatch():
    a = ltp.random_function(ltp.build_group("cyclic:4"), 0)
    b = ltp.random_function(ltp.build_group("cyclic:5"), 0)
    with pytest.raises(ModelMismatchError):
        ltp.convolve(a, b)


def test_affine_convolution_mass_and_bound():
    # integral of g*f equals (integral g)(integral f) up to interpolation,
    # and the weighted-L1 operator bound holds for the averaged kernel
    A = ltp.build_group("affine:0.25:1.5:0.25:3")
    coords = A.coords()
    u, b = coords[:, 0], coords[:, 1]
    fu = np.where(np.abs(u) < 0.5, np.cos(np.pi * u / 1.0) ** 2, 0.0)
    fb = np.where(np.abs(b) < 0.8, np.cos(0.5 * np.pi * b / 0.8) ** 2, 0.0)
    f = ltp.GFunction(A, fu * fb)
    conv = ltp.convolve(f, f)
    mass = float(np.sum(A.weights * f.values.real))
    got = float(np.sum(A.weights * conv.values.real))
    assert got == pytest.approx(mass * mass, rel=0.02)
    rng = np.random.default_rng(3)
    bound = ltp.upper_bound_weighted_l1(f, 2.0)
    for _ in range(5):
        g = ltp.random_function(A, rng)
        ratio = ltp.lp_norm(ltp.convolve(g, f), 2) / ltp.lp_norm(g, 2)
        assert ratio <= bound + 1e-12
