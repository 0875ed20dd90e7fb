"""Weight matrices and the fractional derivative operator."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fracdec import (
    Cochain,
    ConfigError,
    FracConfig,
    GeometryError,
    MeshError,
    SimplicialComplex,
    build_frac_derivative,
    generate_interval_mesh,
    generate_unit_square_mesh,
)
from fracdec import mesh, metric
from fracdec.metric import DistanceTable, simplex_distance
from fracdec.operator import _LatticeWeights, _fast_len, _weight_rows
from fracdec.special import gamma

from conftest import dense_coboundary, nudged_mesh, perturbed_square_mesh


def oracle_weights(d, config):
    """The original boolean-mask weight assembly, as the W oracle."""
    n = d.shape[0]
    off = ~np.eye(n, dtype=bool)
    assert not np.any(d[off] <= 0.0)
    with np.errstate(divide="ignore"):
        w = d ** (-config.s)
    np.fill_diagonal(w, config.diagonal_constant * np.max(w[off]))
    return w


def oracle_left_mask(w, x):
    """The original left-sided mask: keep sources strictly left."""
    keep = x[None, :] < x[:, None]
    return np.where(keep, w, 0.0)


def oracle_signed(w, x):
    """The original right-sign product: a +-1 matrix times W."""
    return w * np.where(x[None, :] > x[:, None], -1.0, 1.0)


def oracle_lattice_symbols(complex_, p, config):
    """The half-row lattice build, as the (slots, symbols, exponent)
    oracle: class keys by matmul, a box per class by boolean masks, rows
    at cell 0 on the first axis and at either end of the box on the
    others, lags by % on each axis of the (E, q, dims) vertex
    coordinates, and the other half-space of lags and the 1D sides by
    explicit index arrays over every class pair."""
    simp = complex_.simplices[p + 1]
    coords = np.stack(np.unravel_index(simp, complex_.lattice), axis=-1)
    cells = coords[:, 0]
    reach = max(complex_.lattice) - 1
    offsets = (coords[:, 1:] - cells[:, None] + reach).reshape(len(simp), -1)
    place = (2 * reach + 1) ** np.arange(offsets.shape[1] - 1, -1, -1)
    _, kind = np.unique(offsets @ place, return_inverse=True)
    kinds = kind.max() + 1
    grid = tuple(_fast_len(2 * m - 1) for m in complex_.lattice)
    size = math.prod(grid)
    slots = kind * size + np.ravel_multi_index(cells.T, grid)
    index = np.empty(kinds * size, dtype=np.int64)
    index[slots] = np.arange(len(simp))
    corners = []
    for k in range(kinds):
        box = cells[kind == k]
        assert box[:, 0].min() == 0
        ends = [(0,)] + list(zip(box.min(axis=0)[1:], box.max(axis=0)[1:]))
        for corner in itertools.product(*ends):
            corners.append(k * size + np.ravel_multi_index(corner, grid))
    rows = np.unique(index[corners])
    unfolded = dataclasses.replace(config, sidedness="two_sided", right_sign="plus")
    w = _weight_rows(complex_, p, unfolded, rows)
    # W is symmetric: row r's weight to e is W[e, r], at lag cell_e - cell_r.
    lag = np.zeros(w.shape, dtype=np.int64)
    for axis, n in enumerate(grid):
        lag = lag * n + (cells[None, :, axis] - cells[rows, None, axis]) % n
    pair = kind[None, :] * kinds + kind[rows, None]
    exponent = int(np.frexp(np.abs(w).max())[1])
    table = np.zeros(kinds * kinds * size)
    table[pair * size + lag] = np.ldexp(w, -exponent)
    table = table.reshape(kinds, kinds, *grid)
    if config.sidedness == "left_sided":
        table[:, :, 0] = 0.0
    else:
        sign = -1.0 if config.right_sign == "minus" else 1.0
        every = np.indices(grid).reshape(len(grid), -1).T
        seen = every[(every[:, 0] >= 1) & (every[:, 0] < complex_.lattice[0])]
        for k, l in itertools.product(range(kinds), repeat=2):
            table[(k, l, *((-seen) % grid).T)] = sign * table[(l, k, *seen.T)]
    symbols = np.fft.rfftn(table, axes=tuple(range(2, 2 + len(grid))))
    return slots, symbols, exponent


def _fake_distances(monkeypatch, entries):
    """Make the next simplex_distance call return the given table."""
    def fake(complex_, p, mode="geodesic", rows=None):
        table = np.array(entries)
        return DistanceTable(p=p, mode=mode,
                             entries=table if rows is None else table[rows])
    monkeypatch.setattr(metric, "simplex_distance", fake)


class TestFracConfig:
    def test_defaults(self):
        cfg = FracConfig()
        assert cfg.s == 0.5
        assert cfg.sidedness == "two_sided"
        assert cfg.right_sign == "plus"
        assert cfg.distance_mode == "geodesic"
        assert cfg.diagonal_constant == pytest.approx(2.0)  # 2s/(1-s) at s=.5

    def test_diagonal_constant_override(self):
        assert FracConfig(c_s=3.5).diagonal_constant == 3.5

    def test_diagonal_constant_formula(self):
        cfg = FracConfig(s=0.25)
        assert cfg.diagonal_constant == pytest.approx(2 * 0.25 / 0.75)

    def test_validation(self):
        for bad in (dict(s=0.0), dict(s=1.5), dict(s=-0.3), dict(c_s=-1.0),
                    dict(c_s=float("nan")), dict(c_s=float("inf")),
                    dict(sidedness="both"), dict(right_sign="times"),
                    dict(distance_mode="manhattan")):
            with pytest.raises(ConfigError):
                FracConfig(**bad)

    def test_left_sided_minus_rejected(self):
        # Left-sided mode has no right side for "minus" to negate.
        for s in (0.5, 1.0):
            with pytest.raises(ConfigError, match="two-sided"):
                FracConfig(s=s, sidedness="left_sided", right_sign="minus")
        FracConfig(sidedness="left_sided", right_sign="plus")
        FracConfig(sidedness="two_sided", right_sign="minus")

    def test_s_one_default_cs_undefined(self):
        with pytest.raises(ConfigError):
            FracConfig(s=1.0).diagonal_constant

    def test_s_one_refuses_explicit_cs(self):
        # s = 1 is the plain coboundary, which has no diagonal for c_s.
        with pytest.raises(ConfigError, match="c_s has no effect at s = 1"):
            FracConfig(s=1.0, c_s=5.0)


class TestWeightMatrix:
    def test_hand_computed_4_edges(self):
        # Four edges of length 1/4: edge barycenters are |i-j|/4 apart.
        cx = generate_interval_mesh(0.0, 1.0, 4)
        w = _weight_rows(cx, 0, FracConfig(s=0.5))
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert w[i, j] == pytest.approx((abs(i - j) / 4.0) ** -0.5,
                                                    rel=1e-13)
        # max off-diagonal weight is (1/4)^(-1/2) = 2; C_s = 2 at s = 1/2.
        np.testing.assert_allclose(np.diag(w), 4.0, rtol=1e-13)

    def test_symmetry(self):
        cx = generate_unit_square_mesh(3)
        w = _weight_rows(cx, 0, FracConfig(s=0.5))
        np.testing.assert_allclose(w, w.T, atol=1e-14)

    def test_s_one_rejected(self):
        cx = generate_interval_mesh(0, 1, 4)
        with pytest.raises(ConfigError):
            _weight_rows(cx, 0, FracConfig(s=1.0))

    def test_zero_distance_rejected(self, monkeypatch):
        cx = generate_interval_mesh(0, 1, 3)
        _fake_distances(monkeypatch, [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0],
                                      [0.0, 1.0, 0.0]])
        with pytest.raises(GeometryError):
            _weight_rows(cx, 0, FracConfig())

    def test_coincident_barycenters_rejected(self):
        # Edges (0, 1) and (2, 3) share the midpoint 0.5: their Euclidean
        # distance is exactly zero.
        cx = SimplicialComplex.from_simplices(
            1, [(0, 1), (1, 2), (2, 3)],
            vertex_coords=np.array([[0.0], [1.0], [0.25], [0.75]]))
        for cfg in (FracConfig(distance_mode="euclidean"),
                    FracConfig(s=0.3, distance_mode="euclidean",
                               right_sign="minus")):
            with pytest.raises(GeometryError, match="zero distance"):
                build_frac_derivative(cx, 0, cfg)
        build_frac_derivative(cx, 0, FracConfig())  # geodesic: all apart

    def test_negative_distance_rejected(self, monkeypatch):
        cx = generate_interval_mesh(0, 1, 3)
        _fake_distances(monkeypatch, [[0.0, 1.0, -2.0], [1.0, 0.0, 1.0],
                                      [-2.0, 1.0, 0.0]])
        with pytest.raises(GeometryError):
            _weight_rows(cx, 0, FracConfig(s=0.3))

    def test_single_simplex_rejected(self):
        cx = generate_interval_mesh(0, 1, 1)
        with pytest.raises(MeshError, match="two simplices"):
            _weight_rows(cx, 0, FracConfig())

    @pytest.mark.parametrize("mode", ["geodesic", "euclidean"])
    def test_bit_identical_to_mask_assembly(self, oracle_mesh, mode):
        for s, c_s in ((0.3, None), (0.5, None), (0.7, 1.25)):
            cfg = FracConfig(s=s, c_s=c_s, distance_mode=mode)
            for q in range(1, oracle_mesh.dimension + 1):
                d = simplex_distance(oracle_mesh, q, mode).entries
                w = _weight_rows(oracle_mesh, q - 1, cfg)
                assert w.flags.c_contiguous
                np.testing.assert_array_equal(w, oracle_weights(d, cfg))


class TestFracDerivative:
    def test_constant_maps_to_zero_exactly(self):
        for cx in (generate_interval_mesh(0, 1, 12), generate_unit_square_mesh(3)):
            op = build_frac_derivative(cx, 0, FracConfig(s=0.5))
            out = op.apply(Cochain(0, np.full(cx.n_simplices(0), 3.7)))
            np.testing.assert_array_equal(out.values, 0.0)

    def test_integer_order_is_plain_coboundary_bitexact(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            if rng.random() < 0.7:
                cx = generate_interval_mesh(0.0, 1.0, int(rng.integers(2, 40)))
            else:
                cx = generate_unit_square_mesh(int(rng.integers(1, 5)))
            p = 0 if cx.dimension == 1 else int(rng.integers(0, 2))
            op = build_frac_derivative(cx, p, FracConfig(s=1.0))
            v = rng.normal(size=cx.n_simplices(p))
            got = op.apply(Cochain(p, v)).values
            want = dense_coboundary(cx, p) @ v
            assert np.array_equal(got, want)

    def test_linearity(self):
        cx = generate_interval_mesh(0, 1, 10)
        op = build_frac_derivative(cx, 0, FracConfig(s=0.4))
        rng = np.random.default_rng(3)
        a = rng.normal(size=11)
        b = rng.normal(size=11)
        lhs = op.apply(Cochain(0, 2.0 * a - 3.0 * b)).values
        rhs = 2.0 * op.apply(Cochain(0, a)).values - 3.0 * op.apply(Cochain(0, b)).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_translation_invariance(self):
        # Same topology and metric, shifted embedding: identical output.
        a = generate_interval_mesh(0.0, 1.0, 8)
        b = generate_interval_mesh(5.0, 6.0, 8)
        cfg = FracConfig(s=0.5)
        v = np.sin(np.arange(9.0))
        out_a = build_frac_derivative(a, 0, cfg).apply(Cochain(0, v)).values
        out_b = build_frac_derivative(b, 0, cfg).apply(Cochain(0, v)).values
        np.testing.assert_allclose(out_a, out_b, atol=1e-12)

    def test_fractional_composition_not_zero(self):
        # Unlike the integer coboundary, D_1^s D_0^s does not vanish.
        cx = generate_unit_square_mesh(2)
        cfg = FracConfig(s=0.5)
        op0 = build_frac_derivative(cx, 0, cfg)
        op1 = build_frac_derivative(cx, 1, cfg)
        rng = np.random.default_rng(11)
        v = rng.normal(size=cx.n_simplices(0))
        out = op1.apply(op0.apply(Cochain(0, v))).values
        assert np.max(np.abs(out)) > 1e-6

    def test_degree_mismatch(self):
        cx = generate_interval_mesh(0, 1, 4)
        op = build_frac_derivative(cx, 0, FracConfig())
        with pytest.raises(ConfigError):
            op.apply(Cochain(1, np.zeros(4)))

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_wrong_length_rejected(self, s):
        # Both branches check the length in the coboundary product.
        cx = generate_interval_mesh(0, 1, 4)
        op = build_frac_derivative(cx, 0, FracConfig(s=s))
        for n in (4, 6):
            with pytest.raises(ConfigError, match="does not match 5 columns"):
                op.apply(Cochain(0, np.zeros(n)))


class TestOracleAssembly:
    """op.apply against the original mask and sign-matrix assembly."""

    @pytest.mark.parametrize("mode", ["geodesic", "euclidean"])
    @pytest.mark.parametrize("sidedness, right_sign", [
        ("two_sided", "plus"), ("two_sided", "minus"), ("left_sided", "plus")])
    def test_apply_bit_identical(self, oracle_interval_mesh, mode, sidedness,
                                 right_sign):
        cx = oracle_interval_mesh
        x = metric.barycenters(cx, 1)[:, 0]
        d0 = dense_coboundary(cx, 0)
        rng = np.random.default_rng(5)
        v = rng.normal(size=cx.n_simplices(0))
        for s in (0.3, 0.5, 0.7):
            cfg = FracConfig(s=s, sidedness=sidedness, right_sign=right_sign,
                             distance_mode=mode)
            w = oracle_weights(simplex_distance(cx, 1, mode).entries, cfg)
            if sidedness == "left_sided":
                w = oracle_left_mask(w, x)
            elif right_sign == "minus":
                w = oracle_signed(w, x)
            want = (1.0 / gamma(1.0 - s)) * (w @ (d0 @ v))
            op = build_frac_derivative(cx, 0, cfg)
            np.testing.assert_array_equal(op.apply(Cochain(0, v)).values, want)


class TestSidedness:
    def test_left_mask_strictly_left(self):
        cx = generate_interval_mesh(0, 1, 4)
        w = _weight_rows(cx, 0, FracConfig(sidedness="left_sided"))
        expected = np.tril(np.ones((4, 4), dtype=bool), k=-1)
        np.testing.assert_array_equal(w != 0.0, expected)
        assert np.all(w >= 0.0)

    def test_left_mask_requires_1d(self):
        cx = generate_unit_square_mesh(2)
        for s in (0.5, 1.0):
            with pytest.raises(ConfigError, match="1D"):
                build_frac_derivative(cx, 0, FracConfig(s=s, sidedness="left_sided"))

    def test_right_sign_minus_pattern(self):
        cx = generate_interval_mesh(0, 1, 3)
        plus = _weight_rows(cx, 0, FracConfig())
        minus = _weight_rows(cx, 0, FracConfig(right_sign="minus"))
        expected = np.array([[1, -1, -1], [1, 1, -1], [1, 1, 1]], dtype=float)
        np.testing.assert_array_equal(np.sign(minus), expected)
        np.testing.assert_array_equal(np.abs(minus), plus)

    def test_sidedness_requires_embedding(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        cx = SimplicialComplex.from_simplices(
            1, edges, edge_lengths=dict.fromkeys(edges, 1.0))
        build_frac_derivative(cx, 0, FracConfig())
        for cfg in (FracConfig(sidedness="left_sided"),
                    FracConfig(right_sign="minus")):
            with pytest.raises(MeshError, match="embedded"):
                build_frac_derivative(cx, 0, cfg)

    def test_sidedness_needs_a_straight_x_line(self):
        # Sidedness compares first coordinates: a vertical or bent 1D
        # complex would get an all-zero or an unsigned derivative.
        edges = [(0, 1), (1, 2), (2, 3)]
        for coords in ([(0, 0), (0, 1), (0, 2), (0, 3)],
                       [(0, 0), (1, 0), (1, 1), (2, 1)]):
            cx = SimplicialComplex.from_simplices(1, edges, vertex_coords=coords)
            build_frac_derivative(cx, 0, FracConfig())
            for s, cfg in itertools.product((0.5, 1.0), (
                    {"sidedness": "left_sided"}, {"right_sign": "minus"})):
                with pytest.raises(ConfigError, match="other coordinates .* must be constant"):
                    build_frac_derivative(cx, 0, FracConfig(s=s, **cfg))
        # Constant columns after the first change nothing but the path:
        # dense on the embedded copy, FFT on the generator's interval.
        line = generate_interval_mesh(0, 1, 6)
        x = line.vertex_coords
        v = Cochain(0, np.exp(x[:, 0]))
        for extra in ([0.0], [5.0, -2.0]):
            flat = SimplicialComplex.from_simplices(
                1, line.simplices[1], vertex_coords=np.hstack([x, np.tile(extra, (7, 1))]))
            for cfg in (FracConfig(sidedness="left_sided"), FracConfig(right_sign="minus")):
                np.testing.assert_allclose(
                    build_frac_derivative(flat, 0, cfg).apply(v).values,
                    build_frac_derivative(line, 0, cfg).apply(v).values, rtol=1e-12, atol=1e-14)

    def test_right_sign_minus_rejected_off_1d(self):
        cx = generate_unit_square_mesh(2)
        for s in (0.5, 1.0):
            with pytest.raises(ConfigError, match="1D"):
                build_frac_derivative(cx, 0, FracConfig(s=s, right_sign="minus"))

    def test_sign_convention_changes_result(self):
        cx = generate_interval_mesh(0, 1, 8)
        v = cx.vertex_coords[:, 0] ** 2
        plus = build_frac_derivative(cx, 0, FracConfig(right_sign="plus"))
        minus = build_frac_derivative(cx, 0, FracConfig(right_sign="minus"))
        a = plus.apply(Cochain(0, v)).values
        b = minus.apply(Cochain(0, v)).values
        assert np.max(np.abs(a - b)) > 1e-3


def _fast_and_dense(cx, p, cfg):
    """The FFT-applied W of a lattice mesh and its dense oracle, the
    whole matrix from the dense helper."""
    assert cx.lattice is not None
    fast = build_frac_derivative(cx, p, cfg).weights
    assert not isinstance(fast, np.ndarray)
    return fast, _weight_rows(cx, p, cfg)


def _relative_gap(cx, p, cfg, trials=2):
    """Largest |lattice W x - dense W x| over max |dense W x|, on random x."""
    fast, dense = _fast_and_dense(cx, p, cfg)
    assert fast.shape == dense.shape
    rng = np.random.default_rng(len(dense))
    gap = 0.0
    for _ in range(trials):
        x = rng.standard_normal(dense.shape[1])
        want = dense @ x
        gap = max(gap, np.max(np.abs(fast @ x - want)) / np.max(np.abs(want)))
    return gap


_SIDES = [("two_sided", "plus"), ("two_sided", "minus"), ("left_sided", "plus")]


class TestLatticeBackend:
    """W applied by FFT on generator meshes, against the dense oracle."""

    @pytest.mark.parametrize("n", [2, 3, 7, 100, 999, 2048])
    @pytest.mark.parametrize("mode", ["geodesic", "euclidean"])
    @pytest.mark.parametrize("sidedness, right_sign", _SIDES)
    def test_interval_matches_dense(self, n, mode, sidedness, right_sign):
        cx = generate_interval_mesh(0.0, 1.0, n)
        for s in (0.1, 0.5, 0.9):
            cfg = FracConfig(s=s, sidedness=sidedness, right_sign=right_sign,
                             distance_mode=mode)
            assert _relative_gap(cx, 0, cfg) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 13, 24])
    @pytest.mark.parametrize("mode", ["geodesic", "euclidean"])
    @pytest.mark.parametrize("p", [0, 1])
    def test_square_matches_dense(self, n, mode, p):
        cx = generate_unit_square_mesh(n)
        for s in (0.1, 0.5, 0.9):
            cfg = FracConfig(s=s, c_s=None if s != 0.5 else 1.25,
                             distance_mode=mode)
            assert _relative_gap(cx, p, cfg) <= 1e-12

    @pytest.mark.parametrize("mode", ["geodesic", "euclidean"])
    def test_build_is_the_modulo_lag_build(self, mode):
        # Bit for bit: the same rows, lags, classes and so symbols.
        cases = [(generate_interval_mesh(a, b, n), 0, FracConfig(
                     s=s, sidedness=side, right_sign=sign, distance_mode=mode))
                 for a, b, n in ((0.0, 1.0, 2), (-3.0, 5.0, 37), (0.0, 1.0, 300),
                                 (0.0, 1.0, 10000))
                 for s, (side, sign) in zip((0.2, 0.5, 0.8), _SIDES)]
        cases += [(generate_unit_square_mesh(n), p, FracConfig(
                      s=0.4, c_s=2.0 if p else None, distance_mode=mode))
                  for n in (1, 2, 5, 16, 32, 70) for p in (0, 1)]
        for cx, p, cfg in cases:
            got = _LatticeWeights.build(cx, p, cfg)
            slots, symbols, exponent = oracle_lattice_symbols(cx, p, cfg)
            np.testing.assert_array_equal(got.slots, slots)
            assert got.symbols.shape == symbols.shape
            assert got.symbols.tobytes() == symbols.tobytes()
            assert got.exponent == exponent

    def test_small_matrix_entrywise(self):
        # Every column of the FFT operator, against the dense matrix.
        for cx, p, cfg in ((generate_interval_mesh(-1.0, 2.0, 6), 0,
                            FracConfig(s=0.3, right_sign="minus")),
                           (generate_unit_square_mesh(3), 1,
                            FracConfig(s=0.7, distance_mode="euclidean"))):
            fast, dense = _fast_and_dense(cx, p, cfg)
            cols = np.column_stack([fast @ e for e in np.eye(len(dense))])
            np.testing.assert_allclose(cols, dense, rtol=0,
                                       atol=1e-13 * np.abs(dense).max())

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("mode", ["geodesic", "euclidean"])
    @pytest.mark.parametrize("sidedness, right_sign", _SIDES)
    def test_sides_fold_by_lag_sign(self, n, mode, sidedness, right_sign):
        # Every column of the FFT operator, whose sides are folded onto its
        # table by lag sign, against the dense matrix, folded row by row.
        cx = generate_interval_mesh(-1.0, 2.0, n)
        for s in (0.2, 0.75):
            cfg = FracConfig(s=s, sidedness=sidedness, right_sign=right_sign,
                             distance_mode=mode)
            fast, dense = _fast_and_dense(cx, 0, cfg)
            cols = np.column_stack([fast @ e for e in np.eye(len(dense))])
            np.testing.assert_allclose(cols, dense, rtol=0,
                                       atol=1e-13 * np.abs(dense).max())

    def test_single_edge_same_error(self):
        cx = generate_interval_mesh(0.0, 1.0, 1)
        assert cx.lattice == (2,)
        for build in (build_frac_derivative, _weight_rows):
            with pytest.raises(MeshError, match="two simplices"):
                build(cx, 0, FracConfig())

    def test_copies_follow_content(self):
        # A moved copy is dense; a rebuild or copy with the same content
        # is a lattice mesh and gives the generator's output bit for bit.
        cx = generate_unit_square_mesh(3)
        moved = dataclasses.replace(cx, vertex_coords=cx.vertex_coords * 2.0,
                                    edge_lengths=None)
        assert moved.lattice is None
        assert isinstance(build_frac_derivative(moved, 0, FracConfig()).weights,
                          np.ndarray)
        v = np.random.default_rng(3).normal(size=cx.n_simplices(0))
        want = build_frac_derivative(cx, 0, FracConfig()).apply(Cochain(0, v)).values
        rebuilt = SimplicialComplex.from_simplices(
            2, cx.simplices[2][::-1], vertex_coords=cx.vertex_coords)
        for copy in (rebuilt, dataclasses.replace(cx)):
            assert copy.lattice == (4, 4)
            op = build_frac_derivative(copy, 0, FracConfig())
            assert not isinstance(op.weights, np.ndarray)
            assert np.array_equal(op.apply(Cochain(0, v)).values, want)

    def test_integer_order_has_no_weights(self):
        for cx, p in ((generate_interval_mesh(0, 1, 9), 0),
                      (generate_unit_square_mesh(4), 1)):
            op = build_frac_derivative(cx, p, FracConfig(s=1.0))
            assert op.weights is None
            v = np.random.default_rng(1).normal(size=cx.n_simplices(p))
            assert np.array_equal(op.apply(Cochain(p, v)).values,
                                  dense_coboundary(cx, p) @ v)

    def test_constants_annihilate_exactly(self):
        for cx, cfg in ((generate_interval_mesh(0, 1, 37),
                         FracConfig(s=0.3, sidedness="left_sided")),
                        (generate_interval_mesh(0, 1, 37),
                         FracConfig(s=0.9, right_sign="minus")),
                        (generate_unit_square_mesh(7),
                         FracConfig(distance_mode="euclidean"))):
            op = build_frac_derivative(cx, 0, cfg)
            assert not isinstance(op.weights, np.ndarray)
            out = op.apply(Cochain(0, np.full(cx.n_simplices(0), -2.5)))
            np.testing.assert_array_equal(out.values, 0.0)

    def test_smaller_than_dense(self):
        cx = generate_unit_square_mesh(16)
        op = build_frac_derivative(cx, 0, FracConfig())
        e = cx.n_simplices(1)
        assert op.weights.shape == (e, e)
        assert op.weights.nbytes < 8 * e * e / 10

    def test_huge_diagonal_constant_stays_finite(self):
        # The symbols are scaled by a power of two, so a C_s near the top
        # of the float range overflows no more than the dense product.
        cx = generate_unit_square_mesh(2)
        cfg = FracConfig(c_s=1e307)
        v = np.random.default_rng(2).normal(size=cx.n_simplices(1))
        fast, dense = (w @ v for w in _fast_and_dense(cx, 0, cfg))
        assert np.all(np.isfinite(fast))
        np.testing.assert_allclose(fast, dense, rtol=0,
                                   atol=1e-13 * np.abs(dense).max())

    @pytest.mark.parametrize("dim, n, p, cfg", [
        (2, 256, 0, FracConfig(s=0.4)),
        (2, 256, 0, FracConfig(s=0.4, distance_mode="euclidean")),
        (2, 96, 1, FracConfig(s=0.7, distance_mode="euclidean")),
        (1, 1 << 16, 0, FracConfig(s=0.3, sidedness="left_sided")),
        (1, 1 << 16, 0, FracConfig(s=0.6, right_sign="minus")),
    ], ids=["square256-geodesic", "square256-euclidean", "square96-p1-euclidean",
            "interval65536-left", "interval65536-minus"])
    def test_matches_exact_rows_at_scale(self, dim, n, p, cfg):
        # Beyond the sizes the dense oracle reaches: 16 random rows of W,
        # exact from the distance rows, against the FFT product, within
        # 1e-12 of sum_j |w_ij| |x_j| on each row.
        cx = generate_interval_mesh(0.0, 1.0, n) if dim == 1 else generate_unit_square_mesh(n)
        fast = build_frac_derivative(cx, p, cfg).weights
        rng = np.random.default_rng(fast.shape[0])
        rows = rng.choice(fast.shape[0], 16, replace=False)
        x = rng.standard_normal(fast.shape[1])
        w = _weight_rows(cx, p, cfg, rows)
        np.testing.assert_array_less(np.abs((fast @ x)[rows] - w @ x),
                                     1e-12 * (np.abs(w) @ np.abs(x)))


def test_fast_len_is_scipys():
    from scipy.fft import next_fast_len
    assert [_fast_len(n) for n in range(1, 5001)] == \
        [next_fast_len(n, real=True) for n in range(1, 5001)]


class TestLatticeMemoryGuard:
    """The FFT build is refused before it allocates when its peak would
    not fit: the table with either the corner rows and their indices or
    the symbols."""

    def test_guard_counts_the_build_peak(self, monkeypatch):
        # N = 3 edges: E = 33, 6 corner rows (2 per class), 3 classes on an
        # 8 x 8 grid (a 3 x 3 x 8 x 5 spectrum), and 6 integers per edge.
        cx = generate_unit_square_mesh(3)
        e, rows, table, spectrum = 33, 6, 9 * 64, 9 * 8 * 5
        need = 8 * (table + 6 * e) + max(17 * rows * e, 16 * spectrum)
        monkeypatch.setattr(mesh, "_memory_budget", lambda: need)
        build_frac_derivative(cx, 0, FracConfig())
        monkeypatch.setattr(mesh, "_memory_budget", lambda: need - 1)
        # The mesh passes the generators' guard; its operator does not fit.
        assert generate_unit_square_mesh(3).lattice == (4, 4)
        with pytest.raises(ConfigError, match="^FFT weights over 33 degree-1 simplices need "
                                              r"0\.0 GiB, more than the 0\.0 GiB of memory$"):
            build_frac_derivative(cx, 0, FracConfig())

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("mode", ["geodesic", "euclidean"])
    def test_build_peak_is_bounded(self, monkeypatch, n, mode):
        # The tracemalloc peak of a whole build is at most 3.5 times the
        # operator it makes, and no more than the guard counted.
        cx = generate_unit_square_mesh(n)
        counted, check = [], mesh._check_memory
        monkeypatch.setattr(mesh, "_check_memory",
                            lambda need, *args: counted.append(need) or check(need, *args))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            op = build_frac_derivative(cx, 0, FracConfig(distance_mode=mode))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * op.weights.nbytes
        assert len(counted) == 1 and peak <= counted[0]


class TestDenseMemoryGuard:
    def test_guard_names_the_generators(self, monkeypatch):
        # One float short of a whole table: the FFT path's few rows fit.
        # The meshes are built first: under budgets this small, the mesh
        # guard, which counts the build's peak, refuses them.
        cx = generate_unit_square_mesh(3)
        square = generate_unit_square_mesh(4)
        e = cx.n_simplices(1)
        monkeypatch.setattr(mesh, "_memory_budget", lambda: 8 * e * e - 8)
        for complex_ in (nudged_mesh(cx), cx):
            with pytest.raises(ConfigError, match="--interval or --square, or a "
                                                  "mesh file written by gen-mesh"):
                metric.simplex_distance(complex_, 1, "geodesic")
            with pytest.raises(ConfigError, match="generate_unit_square_mesh"):
                build_frac_derivative(nudged_mesh(cx), 0, FracConfig())
        # Euclidean slabs and the FFT path allocate nothing of size E^2;
        # the FFT build's 12 corner rows are few next to E from N = 4 on
        # (at N = 3 they and the table need more than E^2 floats).
        assert metric.simplex_distance(cx, 1, "euclidean",
                                       rows=np.array([0, 5])).entries.shape == (2, e)
        monkeypatch.setattr(mesh, "_memory_budget", lambda: 8 * square.n_simplices(1) ** 2 - 8)
        build_frac_derivative(square, 0, FracConfig())

    def test_guard_needs_e_squared_plus_v_squared(self, monkeypatch):
        cx = nudged_mesh(generate_interval_mesh(0, 1, 10))
        need = 8 * (10 ** 2 + 11 ** 2)
        monkeypatch.setattr(mesh, "_memory_budget", lambda: need)
        metric.simplex_distance(cx, 1, "geodesic")
        monkeypatch.setattr(mesh, "_memory_budget", lambda: need - 1)
        with pytest.raises(ConfigError):
            metric.simplex_distance(cx, 1, "geodesic")

    def test_guard_counts_the_rows_asked_for(self, monkeypatch):
        # Geodesic rows of a mesh that is not a lattice are rows of the
        # table built from all-pairs vertex distances: 3 E + V^2 floats.
        cx = perturbed_square_mesh(4, seed=4)
        square = generate_unit_square_mesh(4)  # before the budgets, as above
        rows = np.array([7, 0, 3])
        need = 8 * (3 * cx.n_simplices(1) + cx.n_simplices(0) ** 2)
        monkeypatch.setattr(mesh, "_memory_budget", lambda: need)
        metric.simplex_distance(cx, 1, "geodesic", rows=rows)
        monkeypatch.setattr(mesh, "_memory_budget", lambda: need - 1)
        with pytest.raises(ConfigError, match="generate_unit_square_mesh"):
            metric.simplex_distance(cx, 1, "geodesic", rows=rows)
        # Euclidean rows, and geodesic rows of a lattice mesh, need their
        # 3 E floats alone.
        assert square.n_simplices(1) == cx.n_simplices(1)
        need = 8 * 3 * cx.n_simplices(1)
        monkeypatch.setattr(mesh, "_memory_budget", lambda: need)
        metric.simplex_distance(cx, 1, "euclidean", rows=rows)
        slab = metric.simplex_distance(square, 1, "geodesic", rows=rows).entries
        assert slab.shape == (3, square.n_simplices(1))
        monkeypatch.setattr(mesh, "_memory_budget", lambda: need - 1)
        for complex_, mode in ((cx, "euclidean"), (square, "geodesic")):
            with pytest.raises(ConfigError):
                metric.simplex_distance(complex_, 1, mode, rows=rows)

    def test_dense_euclidean_operator_is_guarded(self, monkeypatch):
        # A moved square takes the dense path in both modes; its E x E
        # Euclidean weights are refused under a budget below E^2 floats.
        cx = nudged_mesh(generate_unit_square_mesh(4))
        e = cx.n_simplices(1)
        monkeypatch.setattr(mesh, "_memory_budget", lambda: 8 * e * e - 8)
        with pytest.raises(ConfigError, match="generate_unit_square_mesh"):
            build_frac_derivative(cx, 0, FracConfig(distance_mode="euclidean"))
        monkeypatch.setattr(mesh, "_memory_budget", lambda: 8 * e * e)
        op = build_frac_derivative(cx, 0, FracConfig(distance_mode="euclidean"))
        assert op.weights.shape == (e, e)

    def test_euclidean_tables_need_no_vertex_table(self, monkeypatch):
        # Only geodesic distances off the lattice build the V x V table,
        # so a whole Euclidean table needs its E^2 floats alone.
        cx = perturbed_square_mesh(4, seed=4)
        e = cx.n_simplices(1)
        assert (e, cx.n_simplices(0)) == (56, 25)
        monkeypatch.setattr(mesh, "_memory_budget", lambda: 8 * e ** 2 + 8)
        assert metric.simplex_distance(cx, 1, "euclidean").entries.shape == (e, e)
        with pytest.raises(ConfigError, match="generate_unit_square_mesh"):
            metric.simplex_distance(cx, 1, "geodesic")

    def test_no_budget_no_check(self, monkeypatch):
        monkeypatch.setattr(mesh, "_memory_budget", lambda: None)
        cx = nudged_mesh(generate_interval_mesh(0, 1, 10))
        assert metric.simplex_distance(cx, 1, "euclidean").entries.shape == (10, 10)

    def test_budget_is_physical_memory(self):
        budget = mesh._memory_budget()
        assert budget is None or budget > 2 ** 20
