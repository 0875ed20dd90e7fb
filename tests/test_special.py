"""Gamma and Mittag-Leffler function tests."""

import math

import numpy as np
import pytest

from caputo_oracle import mittag_leffler_series
from fracdec import ConfigError, SeriesConvergenceError, gamma, mittag_leffler, special


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
        z = np.linspace(-1.0, 5.0, 61)
        want = np.array([mittag_leffler_series(a, b, zi) for zi in z])
        np.testing.assert_allclose(mittag_leffler(a, b, z), want,
                                   rtol=1e-13, atol=1e-15)
