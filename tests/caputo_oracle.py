"""Reference implementations the closed-form layer is checked against.

- ``caputo_quadrature``: direct singular-kernel quadrature of the
  defining Caputo integrals, the ground truth for every closed form.
- ``derivative``: df/dt of a family, from its coefficient tuple (or
  exp for ``exp_x``), as the quadrature needs it.
- ``mittag_leffler_series``: the scalar, term-by-term series that the
  array-valued ``fracdec.special.mittag_leffler`` replaced.
- ``two_sided_cubic`` ... ``frac_gradient_shifted_min``: the per-family
  closed forms that ``fracdec.oracles.caputo_polynomial`` replaced.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.integrate import quad

from fracdec import AccuracyError, ConfigError, SeriesConvergenceError
from fracdec.oracles import _right_power_part
from fracdec.special import gamma


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the singular-kernel quadrature oracle."""

    abs_tol: float = 1e-9
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0:
            raise ConfigError("abs_tol must be positive")


def _smooth_integral(f_prime, s, length, to_tau, spec):
    """Integral of f'(tau) |tau - x|^(-s) with the singular endpoint at
    distance 0, after the substitution u = distance^(1-s)."""
    if length <= 0:
        return 0.0
    expo = 1.0 / (1.0 - s)

    def integrand(u):
        return f_prime(to_tau(u ** expo)) / (1.0 - s)

    upper = length ** (1.0 - s)
    val, err = quad(integrand, 0.0, upper,
                    epsabs=spec.abs_tol / 4.0, epsrel=1e-12,
                    limit=spec.max_subdivisions)
    if err > spec.abs_tol:
        raise AccuracyError(
            f"quadrature reached absolute error {err:.2e} > {spec.abs_tol:.2e}"
        )
    return val


def caputo_quadrature(f_prime, a, b, x, s, side="left", right_sign="plus",
                      spec=QuadratureSpec()):
    """Direct numerical evaluation of the defining Caputo integrals.

    (1/Gamma(1-s)) [ int_a^x f'(t)(x-t)^(-s) dt
                     +- int_x^b f'(t)(t-x)^(-s) dt ]

    side selects "left", "right", or "two_sided"; right_sign fixes the
    sign of the right-hand integral in two-sided mode.  f_prime is the
    analytic derivative of the target function.
    """
    if not 0 < s < 1:
        raise ConfigError("quadrature oracle requires s in (0, 1)")
    if not a <= x <= b:
        raise ConfigError("evaluation point must lie in [a, b]")
    if side not in ("left", "right", "two_sided"):
        raise ConfigError(f"unknown side {side!r}")
    scale = 1.0 / gamma(1.0 - s)
    left = right = 0.0
    if side in ("left", "two_sided"):
        left = _smooth_integral(f_prime, s, x - a, lambda d: x - d, spec)
    if side in ("right", "two_sided"):
        right = _smooth_integral(f_prime, s, b - x, lambda d: x + d, spec)
    if side == "left":
        return scale * left
    if side == "right":
        return scale * right
    sgn = 1.0 if right_sign == "plus" else -1.0
    return scale * (left + sgn * right)


def derivative(family, axis=0):
    """df/dt of a 1D family, or of a 2D family's polynomial on one axis."""
    if family.name == "exp_x":
        return math.exp
    coeffs = family.coeffs if family.dim == 1 else family.coeffs[axis]
    return lambda t: float(P.polyval(t, P.polyder(coeffs)))


def mittag_leffler_series(a, b, z, series_tol=1e-15, max_terms=200):
    """Two-parameter Mittag-Leffler function E_{a,b}(z) by direct series.

    E_{a,b}(z) = sum_k z^k / gamma(a k + b).  Truncates once the current
    term is below series_tol relative to the partial sum; raises
    SeriesConvergenceError if max_terms is exhausted first.
    """
    if a <= 0 or b <= 0:
        raise ConfigError("Mittag-Leffler parameters a, b must be positive")
    z = float(z)
    if abs(z) > 50:
        raise ConfigError("series evaluation is restricted to |z| <= 50")
    total = 0.0
    power = 1.0
    for k in range(max_terms):
        g = a * k + b
        if g > 170.0:  # gamma overflows double precision; terms are dead
            return total
        term = power / gamma(g)
        total += term
        if abs(term) < series_tol * max(abs(total), 1e-300):
            return total
        power *= z
    raise SeriesConvergenceError(
        f"Mittag-Leffler series did not converge in {max_terms} terms"
    )


def left_caputo_exp_series(x, s):
    """x^(1-s) E_{1,2-s}(x), one scalar series per point."""
    return np.array([xi ** (1.0 - s) * mittag_leffler_series(1.0, 2.0 - s, xi)
                     for xi in np.asarray(x, dtype=float)])


def two_sided_cubic(x, s=0.5, right_sign="minus"):
    """Two-sided fractional derivative of x^3 on [0, 1]."""
    x = np.asarray(x, dtype=float)
    left = gamma(4.0) * x ** (3.0 - s) / gamma(4.0 - s)
    right = 3.0 * _right_power_part(2, s, x)
    out = left - right if right_sign == "minus" else left + right
    return out if out.ndim else float(out)


def two_sided_quadratic(x, s=0.5, right_sign="plus"):
    """Two-sided fractional derivative of x^2 on [0, 1]."""
    x = np.asarray(x, dtype=float)
    left = gamma(3.0) * x ** (2.0 - s) / gamma(3.0 - s)
    right = 2.0 * _right_power_part(1, s, x)
    out = left + right if right_sign == "plus" else left - right
    return out if out.ndim else float(out)


def two_sided_poly(x, s=0.5, right_sign="plus"):
    """Two-sided fractional derivative of -10x^3 + 10x^2."""
    x = np.asarray(x, dtype=float)
    out = -10.0 * two_sided_cubic(x, s, right_sign) \
        + 10.0 * two_sided_quadratic(x, s, right_sign)
    return out if np.ndim(out) else float(out)


def frac_gradient_saddle(x, y, right_sign="plus"):
    """Two-sided fractional gradient of -x^2 + y^2 on [0,1]^2 at s = 1/2."""
    c1 = -two_sided_quadratic(x, 0.5, right_sign)
    c2 = two_sided_quadratic(y, 0.5, right_sign)
    return np.stack([np.asarray(c1, dtype=float), np.asarray(c2, dtype=float)], axis=-1)


def _shifted_component(t, right_sign):
    t = np.asarray(t, dtype=float)
    left = 2.0 * t ** 1.5 / gamma(2.5) - np.sqrt(t) / (5.0 * gamma(1.5))
    right = (2.0 * np.sqrt(1.0 - t) * (t + 0.5) / gamma(2.5)
             - np.sqrt(1.0 - t) / (5.0 * gamma(1.5)))
    return left + right if right_sign == "plus" else left - right


def frac_gradient_shifted_min(x, y, right_sign="plus"):
    """Two-sided fractional gradient of (x-.1)^2 + (y-.1)^2 at s = 1/2."""
    return np.stack([_shifted_component(x, right_sign),
                     _shifted_component(y, right_sign)], axis=-1)
