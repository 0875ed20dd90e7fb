"""Gamma and Mittag-Leffler function tests."""

import itertools
import math

import numpy as np
import pytest

from caputo_oracle import mittag_leffler_series
from fracdec import ConfigError, SeriesConvergenceError, special
from fracdec.special import gamma, mittag_leffler


class TestGamma:
    def test_factorials(self):
        for n in range(13):
            assert gamma(n + 1) == pytest.approx(math.factorial(n), rel=1e-10)

    def test_half(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_against_stdlib(self):
        for z in np.linspace(0.05, 20.0, 400):
            assert gamma(z) == pytest.approx(math.gamma(z), rel=1e-12)

    def test_negative_noninteger(self):
        for z in (-0.5, -1.5, -2.5, -3.7):
            assert gamma(z) == pytest.approx(math.gamma(z), rel=1e-11)

    def test_recurrence(self):
        for z in (0.3, 1.7, 4.2):
            assert gamma(z + 1) == pytest.approx(z * gamma(z), rel=1e-13)

    def test_poles_raise(self):
        for z in (0.0, -1.0, -2.0, -7.0):
            with pytest.raises(ConfigError):
                gamma(z)

    def test_overflow_raises(self):
        assert gamma(171.0) == pytest.approx(math.factorial(170), rel=1e-12)
        for z in (172.0, 201.0, 1e308, math.inf):
            with pytest.raises(ConfigError, match="overflows"):
                gamma(z)


def parent_horner(coef, z):
    """_horner as it was: the constant filled in, then * z and + coef[k]."""
    out = np.full(z.shape, coef[-1])[()]
    for c in reversed(coef[:-1]):
        out *= z
        out += c
    return out


class TestHorner:
    @pytest.mark.parametrize("k", range(1, 21))
    def test_matches_the_filled_form(self, k):
        # Bit for bit and type for type, for 0-d and array z, at the
        # Mittag-Leffler and closed-form arguments and a -0.0, with the
        # list Mittag-Leffler passes and the tuple of the closed forms.
        rng = np.random.default_rng(k)
        coef = list(rng.normal(size=k))
        for z, c in itertools.product(
                (np.asarray(0.37), np.asarray(-0.0), np.asarray(50.0),
                 rng.random(33) * 50.0, np.linspace(0.0, 1.0, 12).reshape(3, 4),
                 np.array([-0.0, 0.0, 1.0]), np.empty(0)), (coef, tuple(coef))):
            got, want = special._horner(c, z), parent_horner(c, z)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert np.shape(got) == np.shape(want)


class TestMittagLeffler:
    def test_exp_identity(self):
        for z in np.linspace(0.0, 1.0, 21):
            assert mittag_leffler(1.0, 1.0, z) == pytest.approx(math.exp(z), abs=1e-12)

    def test_exp_minus_one_over_z(self):
        for z in np.linspace(0.05, 1.0, 20):
            expected = (math.exp(z) - 1.0) / z
            assert mittag_leffler(1.0, 2.0, z) == pytest.approx(expected, abs=1e-12)

    def test_e12_at_zero(self):
        # The z -> 0 limit of (e^z - 1)/z is 1.
        assert mittag_leffler(1.0, 2.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_cosh_identity(self):
        for z in (0.2, 0.9, 1.5):
            assert mittag_leffler(2.0, 1.0, z * z) == pytest.approx(math.cosh(z), rel=1e-12)

    def test_large_argument_rejected(self):
        with pytest.raises(ConfigError):
            mittag_leffler(1.0, 1.0, 80.0)
        with pytest.raises(ConfigError):
            mittag_leffler(1.0, 1.0, np.array([0.5, -50.5]))

    def test_nan_argument_rejected(self):
        # Not "did not converge in 200 terms": NaN fails the domain guard.
        for z in (np.nan, np.array([0.5, np.nan])):
            with pytest.raises(ConfigError, match="0 <= z <= 50"):
                mittag_leffler(1.0, 1.5, z)

    def test_term_budget_exhaustion(self):
        with pytest.raises(SeriesConvergenceError):
            mittag_leffler(0.05, 1.0, 40.0)

    def test_budget_is_a_module_constant(self, monkeypatch):
        monkeypatch.setattr(special, "MAX_TERMS", 5)
        with pytest.raises(SeriesConvergenceError, match="in 5 terms"):
            mittag_leffler(1.0, 1.0, 1.0)

    def test_params_validation(self):
        for kwargs in (dict(a=-1.0, b=1.0), dict(a=1.0, b=-0.5)):
            with pytest.raises(ConfigError):
                mittag_leffler(z=0.5, **kwargs)

    def test_array_shapes(self):
        assert isinstance(mittag_leffler(1.0, 1.0, 0.5), float)
        z = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        out = mittag_leffler(1.0, 1.0, z)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out, np.exp(z), rtol=1e-14)
        assert mittag_leffler(1.0, 1.0, np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.5, 1.5), (1.0, 1.3),
                                      (1.0, 2.0), (2.0, 1.0), (2.0, 1.7)])
    def test_array_matches_scalar_series(self, a, b):
        z = np.linspace(0.0, 5.0, 61)
        want = np.array([mittag_leffler_series(a, b, zi) for zi in z])
        np.testing.assert_allclose(mittag_leffler(a, b, z), want,
                                   rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("z", [-10.0, -20.0, -40.0, [0.5, -20.0, 2.0], -5.0,
                                   -1e-300, [-0.0, -1e-300]])
    def test_negative_z_cancellation_raises(self, z):
        # Below zero the series cancels (it once returned -1.08e-7 for
        # e^-20 and 44.7 for e^-40), so every z < 0 is refused; -0.0 is not.
        with pytest.raises(ConfigError, match="0 <= z <= 50"):
            mittag_leffler(1.0, 1.0, z)
        assert mittag_leffler(1.0, 1.0, -0.0) == 1.0

    def test_coefficients_match_scipy_rgamma(self):
        # 1 / math.gamma(a k + b), 0 once Gamma overflows, is rgamma to
        # 4e-15 relative; below 1e-290, where the reciprocal is subnormal,
        # to 1e-300 absolute.
        from scipy.special import rgamma
        grid = np.linspace(0.05, 2.0, 25)
        for a, b in itertools.product(grid, grid):
            x = a * np.arange(special.MAX_TERMS) + b
            got = np.array([special._rgamma(v) for v in x])
            want = rgamma(x)
            big = want > 1e-290
            np.testing.assert_allclose(got[big], want[big], rtol=4e-15, atol=0)
            np.testing.assert_allclose(got[~big], want[~big], rtol=0, atol=1e-300)

    def test_negative_z_guard_costs_nothing_at_nonnegative_z(self, monkeypatch):
        # One Horner pass per call; a refused argument costs none.
        passes = []
        horner = special._horner
        monkeypatch.setattr(special, "_horner",
                            lambda coef, z: passes.append(z) or horner(coef, z))
        mittag_leffler(1.0, 0.7, np.linspace(0.0, 5.0, 11))
        mittag_leffler(1.0, 0.7, 2.5)
        assert len(passes) == 2
        with pytest.raises(ConfigError):
            mittag_leffler(1.0, 0.7, np.linspace(-1.0, 5.0, 11))
        assert len(passes) == 2
