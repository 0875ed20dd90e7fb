"""Closed-form ground truths against the singular-kernel quadrature and
the per-family forms they replaced."""

import math

import numpy as np
import pytest

import caputo_oracle
from caputo_oracle import QuadratureSpec, caputo_quadrature
from fracdec import ConfigError, family_names, gamma, get_family
from fracdec.oracles import caputo_polynomial, caputo_power, left_caputo_exp

POINTS = (0.15, 0.4, 0.85)
ORDERS = [round(0.1 * k, 1) for k in range(1, 10)]
CUBIC, QUADRATIC = (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 1.0)


def cubic(x, s, sign):
    return get_family("cubic_x3").reference(x, s, sign)


def quadratic(x, s, sign):
    return caputo_polynomial(QUADRATIC, x, s, sign)


def normwise(got, want):
    return np.linalg.norm(np.ravel(got - want)) / np.linalg.norm(np.ravel(want))


class TestPowerRule:
    def test_formula(self):
        for q in (1.0, 2.0, 3.0, 2.5):
            for s in (0.25, 0.5, 0.75):
                for x in POINTS:
                    expected = gamma(q + 1) * x ** (q - s) / gamma(q + 1 - s)
                    assert caputo_power(q, s, x) == pytest.approx(expected)

    def test_vs_quadrature(self):
        for q in (2.0, 3.0):
            for s in (0.3, 0.5, 0.7):
                for x in POINTS:
                    oracle = caputo_quadrature(lambda t: q * t ** (q - 1),
                                               0.0, 1.0, x, s, side="left")
                    assert caputo_power(q, s, x) == pytest.approx(oracle, abs=1e-8)

    def test_validation(self):
        with pytest.raises(ConfigError):
            caputo_power(0.0, 0.5, 0.5)
        with pytest.raises(ConfigError):
            caputo_power(2.0, 1.0, 0.5)
        with pytest.raises(ConfigError):
            caputo_power(2.0, 0.5, -0.1)


class TestTwoSidedForms:
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_cubic_vs_quadrature(self, s, sign):
        for x in POINTS:
            oracle = caputo_quadrature(lambda t: 3 * t ** 2, 0.0, 1.0, x, s,
                                       side="two_sided", right_sign=sign)
            assert cubic(x, s, sign) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_quadratic_vs_quadrature(self, s, sign):
        for x in POINTS:
            oracle = caputo_quadrature(lambda t: 2 * t, 0.0, 1.0, x, s,
                                       side="two_sided", right_sign=sign)
            assert quadratic(x, s, sign) == pytest.approx(oracle, abs=1e-8)

    def test_poly_is_linear_combination(self):
        for s in (0.4, 0.5):
            for sign in ("plus", "minus"):
                x = np.linspace(0.05, 0.95, 7)
                combo = -10 * cubic(x, s, sign) + 10 * quadratic(x, s, sign)
                poly = get_family("poly_neg10x3_plus_10x2").reference(x, s, sign)
                np.testing.assert_allclose(poly, combo, atol=1e-13)

    def test_half_order_printed_forms(self):
        # At s = 1/2 the pieces reduce to the familiar explicit formulas.
        x = 0.3
        right_c = 3.0 / gamma(3.5) * math.sqrt(1 - x) * (0.75 + x + 2 * x * x)
        left_c = gamma(4.0) / gamma(3.5) * x ** 2.5
        assert cubic(x, 0.5, "minus") == pytest.approx(left_c - right_c, rel=1e-12)
        right_q = 2.0 / gamma(2.5) * math.sqrt(1 - x) * (x + 0.5)
        left_q = 2.0 / gamma(2.5) * x ** 1.5
        assert quadratic(x, 0.5, "plus") == pytest.approx(left_q + right_q,
                                                          rel=1e-12)


class TestExponential:
    def test_vs_quadrature(self):
        for s in (0.3, 0.5, 0.7):
            for x in POINTS:
                oracle = caputo_quadrature(math.exp, 0.0, 1.0, x, s, side="left")
                assert left_caputo_exp(x, s) == pytest.approx(oracle, abs=1e-8)

    def test_s_limits(self):
        # As s -> 0+, the left derivative tends to e^x - 1 (the integral
        # of f' with a flat kernel).
        assert left_caputo_exp(0.7, 1e-6) == pytest.approx(math.exp(0.7) - 1.0,
                                                           abs=1e-4)

    def test_negative_point_rejected(self):
        with pytest.raises(ConfigError, match="x >= 0"):
            left_caputo_exp(np.array([-0.5, 0.2]), 0.5)

    def test_vector_input(self):
        x = np.array([0.2, 0.5])
        out = left_caputo_exp(x, 0.5)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(left_caputo_exp(0.2, 0.5))


class Test2DFields:
    def test_saddle_components(self):
        for (x, y) in ((0.2, 0.7), (0.5, 0.5)):
            vec = get_family("saddle_2d").reference(x, y, 0.5, "plus")
            ox = -caputo_quadrature(lambda t: 2 * t, 0, 1, x, 0.5,
                                    side="two_sided", right_sign="plus")
            oy = caputo_quadrature(lambda t: 2 * t, 0, 1, y, 0.5,
                                   side="two_sided", right_sign="plus")
            np.testing.assert_allclose(vec, [ox, oy], atol=1e-8)

    def test_shifted_min_components(self):
        for (x, y) in ((0.2, 0.7), (0.45, 0.1)):
            vec = get_family("shifted_min_2d").reference(x, y, 0.5, "plus")
            ox = caputo_quadrature(lambda t: 2 * (t - 0.1), 0, 1, x, 0.5,
                                   side="two_sided", right_sign="plus")
            oy = caputo_quadrature(lambda t: 2 * (t - 0.1), 0, 1, y, 0.5,
                                   side="two_sided", right_sign="plus")
            np.testing.assert_allclose(vec, [ox, oy], atol=1e-8)

    def test_vectorized_shape(self):
        x = np.linspace(0.1, 0.9, 5)
        assert get_family("saddle_2d").reference(x, x).shape == (5, 2)


class TestQuadratureOracle:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            QuadratureSpec(abs_tol=0.0)

    def test_domain_checks(self):
        with pytest.raises(ConfigError):
            caputo_quadrature(math.exp, 0.0, 1.0, 1.5, 0.5)
        with pytest.raises(ConfigError):
            caputo_quadrature(math.exp, 0.0, 1.0, 0.5, 1.0)
        with pytest.raises(ConfigError):
            caputo_quadrature(math.exp, 0.0, 1.0, 0.5, 0.5, side="upward")

    def test_right_side_only(self):
        x, s = 0.4, 0.5
        left = caputo_quadrature(lambda t: 2 * t, 0, 1, x, s, side="left")
        right = caputo_quadrature(lambda t: 2 * t, 0, 1, x, s, side="right")
        both = caputo_quadrature(lambda t: 2 * t, 0, 1, x, s,
                                 side="two_sided", right_sign="minus")
        assert both == pytest.approx(left - right, abs=1e-10)

    def test_constant_derivative_zero(self):
        assert caputo_quadrature(lambda t: 0.0, 0, 1, 0.5, 0.5,
                                 side="two_sided") == pytest.approx(0.0, abs=1e-12)


class TestFamilyRegistry:
    def test_names(self):
        names = family_names()
        for required in ("constant", "cubic_x3", "exp_x",
                         "poly_neg10x3_plus_10x2", "saddle_2d",
                         "shifted_min_2d", "power"):
            assert required in names

    def test_power_exponent(self):
        fam = get_family("power", q=2.0)
        assert fam.sample(3.0) == pytest.approx(9.0)
        assert fam.reference(0.5, 0.5) == pytest.approx(caputo_power(2.0, 0.5, 0.5))

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            get_family("sinc")

    def test_sample_derivative_consistency(self):
        # Finite differences of each sample match the stored derivative.
        h = 1e-6
        for name in ("cubic_x3", "poly_neg10x3_plus_10x2", "exp_x"):
            fam = get_family(name)
            for x in POINTS:
                fd = (fam.sample(x + h) - fam.sample(x - h)) / (2 * h)
                assert fd == pytest.approx(caputo_oracle.derivative(fam)(x), rel=1e-5)


class TestReplacedForms:
    """The one polynomial form and the array Mittag-Leffler series against
    the per-family forms and the scalar series they replaced."""

    X = np.linspace(0.0, 1.0, 257)

    @pytest.mark.parametrize("s", ORDERS)
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_1d_polynomial_families(self, s, sign):
        x, old = self.X, caputo_oracle
        for got, want in (
                (cubic(x, s, sign), old.two_sided_cubic(x, s, sign)),
                (quadratic(x, s, sign), old.two_sided_quadratic(x, s, sign)),
                (get_family("poly_neg10x3_plus_10x2").reference(x, s, sign),
                 old.two_sided_poly(x, s, sign))):
            assert normwise(got, want) <= 1e-13
        assert np.all(get_family("constant").reference(self.X, s, sign) == 0.0)

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_2d_fields(self, sign):
        x, y = np.meshgrid(self.X, self.X[::-1])
        for name, replaced in (
                ("saddle_2d", caputo_oracle.frac_gradient_saddle),
                ("shifted_min_2d", caputo_oracle.frac_gradient_shifted_min)):
            got = get_family(name).reference(x, y, 0.5, sign)
            assert got.shape == x.shape + (2,)
            assert normwise(got, replaced(x, y, sign)) <= 1e-13

    def test_default_signs(self):
        x = np.array([0.2, 0.7])
        for name, sign in (("cubic_x3", "minus"), ("poly_neg10x3_plus_10x2", "plus"),
                           ("constant", "plus")):
            fam = get_family(name)
            assert fam.default_right_sign == sign
            np.testing.assert_array_equal(fam.reference(x, 0.4),
                                          fam.reference(x, 0.4, sign))
        for name in ("saddle_2d", "shifted_min_2d"):
            fam = get_family(name)
            assert fam.default_right_sign == "plus"
            np.testing.assert_array_equal(fam.reference(x, x),
                                          fam.reference(x, x, 0.5, "plus"))

    @pytest.mark.parametrize("s", ORDERS)
    def test_exp_array_series(self, s):
        x = (np.arange(2048) + 0.5) / 2048
        got = get_family("exp_x").reference(x, s)
        want = caputo_oracle.left_caputo_exp_series(x, s)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14

    @pytest.mark.parametrize("s", [0.0, 1.0, 1.5, -0.5])
    def test_order_outside_unit_interval(self, s):
        with pytest.raises(ConfigError, match="s in"):
            caputo_polynomial(CUBIC, 0.5, s, "plus")

    @pytest.mark.parametrize("x", [-0.1, 1.1, [0.5, 1.0 + 1e-12]])
    def test_point_outside_unit_interval(self, x):
        with pytest.raises(ConfigError, match="0 <= x <= 1"):
            caputo_polynomial(CUBIC, x, 0.5, "plus")
