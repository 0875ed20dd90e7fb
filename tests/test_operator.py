"""Weight matrices and the fractional derivative operator."""

import numpy as np
import pytest

from fracdec import (
    Cochain,
    ConfigError,
    FracConfig,
    GeometryError,
    apply_left_sided_mask,
    build_coboundary,
    build_frac_derivative,
    build_riemann_liouville_experimental,
    build_weight_matrix,
    generate_interval_mesh,
    generate_unit_square_mesh,
    right_sign_matrix,
    simplex_distance,
)
from fracdec.metric import DistanceTable


def oracle_weights(d, config):
    """The original boolean-mask weight assembly, as the W oracle."""
    n = d.shape[0]
    off = ~np.eye(n, dtype=bool)
    assert not np.any(d[off] <= 0.0)
    with np.errstate(divide="ignore"):
        w = d ** (-config.s)
    np.fill_diagonal(w, config.diagonal_constant * np.max(w[off]))
    return w


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

    def test_json_round_trip(self):
        cfg = FracConfig(s=0.3, c_s=1.25, sidedness="left_sided",
                         right_sign="minus", distance_mode="euclidean")
        assert FracConfig.from_json(cfg.to_json()) == cfg

    def test_s_one_default_cs_undefined(self):
        with pytest.raises(ConfigError):
            FracConfig(s=1.0).diagonal_constant


class TestWeightMatrix:
    def test_hand_computed_4_edges(self):
        # Four edges of length 1/4: edge barycenters are |i-j|/4 apart.
        cx = generate_interval_mesh(0.0, 1.0, 4)
        w = build_weight_matrix(cx, 0, FracConfig(s=0.5))
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert w[i, j] == pytest.approx((abs(i - j) / 4.0) ** -0.5,
                                                    rel=1e-13)
        # max off-diagonal weight is (1/4)^(-1/2) = 2; C_s = 2 at s = 1/2.
        np.testing.assert_allclose(np.diag(w), 4.0, rtol=1e-13)

    def test_symmetry(self):
        cx = generate_unit_square_mesh(3)
        w = build_weight_matrix(cx, 0, FracConfig(s=0.5))
        np.testing.assert_allclose(w, w.T, atol=1e-14)

    def test_s_one_rejected(self):
        cx = generate_interval_mesh(0, 1, 4)
        with pytest.raises(ConfigError):
            build_weight_matrix(cx, 0, FracConfig(s=1.0))

    def test_zero_distance_rejected(self):
        cx = generate_interval_mesh(0, 1, 3)
        d = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        table = DistanceTable(p=1, mode="geodesic", entries=d)
        with pytest.raises(GeometryError):
            build_weight_matrix(cx, 0, FracConfig(), dist_table=table)


    def test_negative_distance_rejected(self):
        cx = generate_interval_mesh(0, 1, 3)
        d = np.array([[0.0, 1.0, -2.0], [1.0, 0.0, 1.0], [-2.0, 1.0, 0.0]])
        table = DistanceTable(p=1, mode="geodesic", entries=d)
        with pytest.raises(GeometryError):
            build_weight_matrix(cx, 0, FracConfig(s=0.3), dist_table=table)

    @pytest.mark.parametrize("mode", ["geodesic", "euclidean"])
    def test_bit_identical_to_mask_assembly(self, oracle_mesh, mode):
        for s, c_s in ((0.3, None), (0.5, None), (0.7, 1.25)):
            cfg = FracConfig(s=s, c_s=c_s, distance_mode=mode)
            for q in range(1, oracle_mesh.dimension + 1):
                d = simplex_distance(oracle_mesh, q, mode).entries
                w = build_weight_matrix(oracle_mesh, q - 1, cfg)
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
            want = build_coboundary(cx, p) @ v
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

    def test_matrix_matches_apply(self):
        cx = generate_interval_mesh(0, 1, 6)
        for cfg in (FracConfig(s=0.5), FracConfig(s=0.5, right_sign="minus"),
                    FracConfig(s=0.5, sidedness="left_sided"), FracConfig(s=1.0)):
            op = build_frac_derivative(cx, 0, cfg)
            rng = np.random.default_rng(1)
            v = rng.normal(size=7)
            np.testing.assert_allclose(op.matrix() @ v,
                                       op.apply(Cochain(0, v)).values, atol=1e-12)


class TestSidedness:
    def test_left_mask_strictly_left(self):
        cx = generate_interval_mesh(0, 1, 4)
        w = np.ones((4, 4))
        masked = apply_left_sided_mask(w, cx, p=1)
        expected = np.tril(np.ones((4, 4)), k=-1)
        np.testing.assert_array_equal(masked, expected)

    def test_left_mask_keep_diagonal(self):
        cx = generate_interval_mesh(0, 1, 4)
        w = np.ones((4, 4))
        masked = apply_left_sided_mask(w, cx, p=1, keep_diagonal=True)
        expected = np.tril(np.ones((4, 4)))
        np.testing.assert_array_equal(masked, expected)

    def test_left_mask_requires_1d(self):
        cx = generate_unit_square_mesh(2)
        with pytest.raises(ConfigError):
            apply_left_sided_mask(np.ones((33, 33)), cx, p=1)

    def test_right_sign_plus_is_identity(self):
        cx = generate_interval_mesh(0, 1, 4)
        assert right_sign_matrix(cx, 1, "plus") is None

    def test_right_sign_minus_pattern(self):
        cx = generate_interval_mesh(0, 1, 3)
        signs = right_sign_matrix(cx, 1, "minus")
        expected = np.array([[1, -1, -1], [1, 1, -1], [1, 1, 1]], dtype=float)
        np.testing.assert_array_equal(signs, expected)

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


class TestRiemannLiouvilleVariant:
    def test_snapshot_1d(self):
        # Characterization values for x^3 on 8 edges at s = 1/2, frozen
        # from a verified run: this variant has no closed-form oracle.
        cx = generate_interval_mesh(0, 1, 8)
        op = build_riemann_liouville_experimental(cx, 0, FracConfig(s=0.5))
        out = op.apply(Cochain(0, cx.vertex_coords[:, 0] ** 3)).values
        expected = [0.15489439, 0.22800048, 0.33796479, 0.47600028,
                    0.62132529, 0.73236305, 0.71527716, 0.25805907]
        np.testing.assert_allclose(out, expected, atol=1e-7)

    def test_constant_not_annihilated(self):
        cx = generate_interval_mesh(0, 1, 8)
        op = build_riemann_liouville_experimental(cx, 0, FracConfig(s=0.5))
        out = op.apply(Cochain(0, np.ones(9))).values
        assert np.max(np.abs(out)) > 0.1

    def test_integer_order_reduces_to_coboundary(self):
        cx = generate_interval_mesh(0, 1, 8)
        op = build_riemann_liouville_experimental(cx, 0, FracConfig(s=1.0))
        v = np.arange(9.0)
        want = build_coboundary(cx, 0) @ v
        assert np.array_equal(op.apply(Cochain(0, v)).values, want)
