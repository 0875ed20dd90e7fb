"""Closed-form ground truths against the singular-kernel quadrature and
the per-family forms they replaced."""

import math

import numpy as np
import pytest

import caputo_oracle
from caputo_oracle import QuadratureSpec, caputo_quadrature
from fracdec import ConfigError, get_family, oracles
from fracdec.oracles import caputo_polynomial, caputo_power, left_caputo_exp
from fracdec.special import gamma
from test_special import parent_horner

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

    def test_nan_point_rejected(self):
        with pytest.raises(ConfigError, match="power rule domain is x >= 0"):
            get_family("power").reference(np.array([0.5, np.nan]), 0.5)


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


def parent_caputo_polynomial(coeffs, x, s, right_sign):
    """caputo_polynomial as it was: the domain checked by two comparisons
    and an and, each Horner sum started from a filled array."""
    if not 0 < s < 1:
        raise ConfigError("two-sided closed forms require s in (0, 1)")
    x = np.asarray(x, dtype=float)
    if not ((0 <= x) & (x <= 1)).all():  # NaN fails too
        raise ConfigError("two-sided closed forms hold on 0 <= x <= 1")
    left, right = (parent_horner(poly, x) for poly in oracles._factored(tuple(coeffs), s))
    left *= x ** (1.0 - s)
    right *= np.power(1.0 - x, 1.0 - s)
    out = left + right if right_sign == "plus" else left - right
    return out if out.ndim else float(out)


class TestPolynomialDomain:
    INPUTS = [np.empty(0), np.empty((0, 40)), 0.5, np.asarray(0.25), 0.0, -0.0,
              np.array([-0.0, 0.5]), 1.0, np.array([0.0, 1.0]),
              np.nextafter(1.0, 2.0), np.array([0.5, np.nextafter(1.0, 2.0)]),
              np.nextafter(-0.0, -1.0), np.nan, np.array([0.5, np.nan]),
              np.array([[np.nan, 2.0]]), np.inf, -np.inf]

    @pytest.mark.parametrize("coeffs", [(1.0,), (0.0, 2.0), (0.0, 0.0, 10.0, -10.0)])
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_values_and_refusals_are_the_parents(self, coeffs, sign):
        for x in self.INPUTS:
            try:
                want = parent_caputo_polynomial(coeffs, x, 0.4, sign)
            except ConfigError as err:
                with pytest.raises(ConfigError) as got:
                    caputo_polynomial(coeffs, x, 0.4, sign)
                assert str(got.value) == str(err)
                continue
            got = caputo_polynomial(coeffs, x, 0.4, sign)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert np.shape(got) == np.shape(want)


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

    def test_nan_point_rejected(self):
        # Not the Mittag-Leffler series' "did not converge in 200 terms".
        with pytest.raises(ConfigError, match="e\\^x closed form domain is x >= 0"):
            get_family("exp_x").reference(np.array([0.5, np.nan]), 0.5)

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
        assert get_family("saddle_2d").reference(x, x, 0.5).shape == (5, 2)

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.7, 0.9])
    @pytest.mark.parametrize("name", ["saddle_2d", "shifted_min_2d"])
    def test_every_order_vs_quadrature(self, name, s):
        # The 2D families hold at every s in (0, 1), not only at 1/2.
        fam = get_family(name)
        for (x, y) in ((0.15, 0.85), (0.4, 0.4), (0.85, 0.15)):
            for sign in ("plus", "minus"):
                vec = fam.reference(x, y, s, sign)
                want = [caputo_quadrature(caputo_oracle.derivative(fam, axis), 0, 1,
                                          t, s, side="two_sided", right_sign=sign)
                        for axis, t in enumerate((x, y))]
                np.testing.assert_allclose(vec, want, rtol=0, atol=1e-8)


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
        # An unknown name lists every family there is.
        with pytest.raises(ConfigError, match="choices") as exc:
            get_family("sinc")
        for required in ("constant", "cubic_x3", "exp_x",
                         "poly_neg10x3_plus_10x2", "saddle_2d",
                         "shifted_min_2d", "power"):
            assert required in str(exc.value)
            get_family(required)

    def test_power_exponent(self):
        fam = get_family("power", q=2.0)
        assert fam.sample(3.0) == pytest.approx(9.0)
        assert fam.reference(0.5, 0.5) == pytest.approx(caputo_power(2.0, 0.5, 0.5))

    def test_power_sample_domain(self):
        # A non-integer power has no real value left of 0; an integer one does.
        with pytest.raises(ConfigError, match="x >= 0"):
            get_family("power", q=0.5).sample(np.array([-1.0, 0.5]))
        np.testing.assert_array_equal(get_family("power", q=2.0).sample([-1.0, 0.5]),
                                      [1.0, 0.25])
        np.testing.assert_array_equal(get_family("power", q=0.5).sample([0.0, 0.25]),
                                      [0.0, 0.5])

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_power_exponent_outside_domain(self, q):
        with pytest.raises(ConfigError, match="finite exponent q > 0"):
            get_family("power", q=q)

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
    # 0 and 1 exactly, then 1e-16 .. 1e-1 from either end.
    ENDS = np.concatenate([[0.0, 1.0], np.logspace(-16, -1, 31), 1.0 - np.logspace(-16, -1, 31)])

    @pytest.mark.parametrize("s", [0.01, *ORDERS, 0.99])
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_factored_form_is_the_term_by_term_form(self, s, sign):
        # Every polynomial family and both axes of each 2D family.  Both
        # forms were within 8e-14 of 40-digit values at s = 0.01, the
        # worst case, on these points.
        x = np.concatenate([self.ENDS, self.X])
        tuples = [c for fam in oracles._FAMILIES.values() if fam.coeffs
                  for c in ((fam.coeffs,) if fam.dim == 1 else fam.coeffs)]
        for coeffs in tuples:
            got = caputo_polynomial(coeffs, x, s, sign)
            want = caputo_oracle.caputo_polynomial_terms(coeffs, x, s, sign)
            if not any(coeffs[1:]):  # constant
                assert np.all(got == 0.0)
                continue
            assert normwise(got, want) <= 1e-13
            for i in range(0, len(x), 8):
                one = caputo_polynomial(coeffs, x[i], s, sign)
                assert type(one) is float
                assert one == pytest.approx(got[i], rel=1e-15, abs=0.0)

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
        # Every reference defaults to right_sign="plus", as FracConfig does.
        x = np.array([0.2, 0.7])
        for name in ("cubic_x3", "poly_neg10x3_plus_10x2", "constant", "exp_x"):
            fam = get_family(name)
            np.testing.assert_array_equal(fam.reference(x, 0.4),
                                          fam.reference(x, 0.4, "plus"))
        np.testing.assert_array_equal(get_family("power").reference(x, 0.4),
                                      get_family("power").reference(x, 0.4, "plus"))
        for name in ("saddle_2d", "shifted_min_2d"):
            fam = get_family(name)
            np.testing.assert_array_equal(fam.reference(x, x, 0.4),
                                          fam.reference(x, x, 0.4, "plus"))

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

    @pytest.mark.parametrize("x", [-0.1, 1.1, [0.5, 1.0 + 1e-12], [0.5, np.nan], np.nan])
    def test_point_outside_unit_interval(self, x):
        with pytest.raises(ConfigError, match="0 <= x <= 1"):
            caputo_polynomial(CUBIC, x, 0.5, "plus")
