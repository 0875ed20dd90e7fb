"""Ground-truth fractional derivatives.

Closed forms for the test families, plus a singular-kernel quadrature
evaluator of the defining Caputo integrals that keeps the closed forms
honest.  Two-sided closed forms carry an explicit right_sign: "plus"
adds the right-hand integral, "minus" subtracts it.  Note the defaults
differ per family; they follow the convention under which each closed
form was originally stated (verified against the quadrature oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import AccuracyError, ConfigError
from .special import gamma, mittag_leffler


def caputo_power(q, s, x):
    """Left-sided fractional derivative of x^q on [0, x].

    Gamma(q+1) x^(q-s) / Gamma(q+1-s).
    """
    if q <= 0:
        raise ConfigError("power rule requires q > 0")
    if not 0 < s < 1:
        raise ConfigError("power rule requires s in (0, 1)")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ConfigError("power rule domain is x >= 0")
    out = gamma(q + 1.0) * x ** (q - s) / gamma(q + 1.0 - s)
    return out if out.ndim else float(out)


def _right_power_part(m, s, x):
    """(1/Gamma(1-s)) int_x^1 t^m (t-x)^(-s) dt for integer m >= 0.

    Binomial expansion of (u + x)^m after the shift u = t - x; each
    term integrates in closed form.
    """
    acc = np.zeros_like(np.asarray(x, dtype=float))
    for k in range(m + 1):
        acc = acc + (math.comb(m, k) * x ** (m - k)
                     * (1.0 - x) ** (k + 1.0 - s) / (k + 1.0 - s))
    return acc / gamma(1.0 - s)


def two_sided_cubic(x, s=0.5, right_sign="minus"):
    """Two-sided fractional derivative of x^3 on [0, 1].

    At s = 1/2 the right-hand part reduces to
    (3/Gamma(3.5)) (1-x)^(1/2) (.75 + x + 2x^2); the stated closed form
    subtracts it, hence the "minus" default.
    """
    x = np.asarray(x, dtype=float)
    left = gamma(4.0) * x ** (3.0 - s) / gamma(4.0 - s)
    right = 3.0 * _right_power_part(2, s, x)
    out = left - right if right_sign == "minus" else left + right
    return out if out.ndim else float(out)


def two_sided_quadratic(x, s=0.5, right_sign="plus"):
    """Two-sided fractional derivative of x^2 on [0, 1].

    At s = 1/2 the right-hand part reduces to
    (2/Gamma(2.5)) (1-x)^(1/2) (x + 1/2).
    """
    x = np.asarray(x, dtype=float)
    left = gamma(3.0) * x ** (2.0 - s) / gamma(3.0 - s)
    right = 2.0 * _right_power_part(1, s, x)
    out = left + right if right_sign == "plus" else left - right
    return out if out.ndim else float(out)


def two_sided_poly(x, s=0.5, right_sign="plus"):
    """Two-sided fractional derivative of -10x^3 + 10x^2.

    Stated with the right-hand integral added; equals
    -10 * cubic + 10 * quadratic at matching right_sign.
    """
    x = np.asarray(x, dtype=float)
    out = -10.0 * two_sided_cubic(x, s, right_sign) \
        + 10.0 * two_sided_quadratic(x, s, right_sign)
    return out if np.ndim(out) else float(out)


def left_caputo_exp(x, s):
    """Left-sided fractional derivative of e^x: x^(1-s) E_{1,2-s}(x)."""
    if not 0 < s < 1:
        raise ConfigError("requires s in (0, 1)")
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return float(x) ** (1.0 - s) * mittag_leffler(1.0, 2.0 - s, float(x))
    return np.array([xi ** (1.0 - s) * mittag_leffler(1.0, 2.0 - s, xi) for xi in x])


def frac_gradient_saddle(x, y, right_sign="plus"):
    """Two-sided fractional gradient of -x^2 + y^2 on [0,1]^2 at s = 1/2.

    Component-wise 1D derivatives; the stated form adds the right-hand
    integrals.
    """
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
    """Two-sided fractional gradient of (x-.1)^2 + (y-.1)^2 at s = 1/2.

    Each component is the two-sided derivative of (t-.1)^2 in its own
    variable, validated against the quadrature oracle.
    """
    return np.stack([_shifted_component(x, right_sign),
                     _shifted_component(y, right_sign)], axis=-1)


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


@dataclass(frozen=True)
class ClosedFormFamily:
    """A named test function with its fractional-derivative ground truth."""

    name: str
    dim: int
    side: str                       # "left" or "two_sided"
    sample: object                  # f(x) or f(x, y)
    derivative: object              # df/dt in one variable
    reference: object               # closed form, see below
    default_right_sign: str = "plus"
    fixed_s: float | None = None    # closed form only valid at this order

    def check_order(self, s):
        """Raise ConfigError if the closed form does not hold at order s."""
        if self.fixed_s is not None and s != self.fixed_s:
            raise ConfigError(f"family {self.name} has a closed form only at "
                              f"s = {self.fixed_s}")


def _power_family(q):
    return ClosedFormFamily(
        name=f"power{q:g}", dim=1, side="left",
        sample=lambda x: np.asarray(x, dtype=float) ** q,
        derivative=lambda t: q * t ** (q - 1.0),
        reference=lambda x, s, right_sign=None: caputo_power(q, s, x),
    )


_FAMILIES = {
    "constant": ClosedFormFamily(
        name="constant", dim=1, side="two_sided",
        sample=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        derivative=lambda t: 0.0,
        reference=lambda x, s, right_sign="plus": np.zeros_like(np.asarray(x, dtype=float)),
    ),
    "cubic_x3": ClosedFormFamily(
        name="cubic_x3", dim=1, side="two_sided",
        sample=lambda x: np.asarray(x, dtype=float) ** 3,
        derivative=lambda t: 3.0 * t ** 2,
        reference=lambda x, s, right_sign="minus": two_sided_cubic(x, s, right_sign),
        default_right_sign="minus",
    ),
    "poly_neg10x3_plus_10x2": ClosedFormFamily(
        name="poly_neg10x3_plus_10x2", dim=1, side="two_sided",
        sample=lambda x: -10.0 * np.asarray(x, dtype=float) ** 3
        + 10.0 * np.asarray(x, dtype=float) ** 2,
        derivative=lambda t: -30.0 * t ** 2 + 20.0 * t,
        reference=lambda x, s, right_sign="plus": two_sided_poly(x, s, right_sign),
    ),
    "exp_x": ClosedFormFamily(
        name="exp_x", dim=1, side="left",
        sample=lambda x: np.exp(np.asarray(x, dtype=float)),
        derivative=math.exp,
        reference=lambda x, s, right_sign=None: left_caputo_exp(x, s),
    ),
    "saddle_2d": ClosedFormFamily(
        name="saddle_2d", dim=2, side="two_sided",
        sample=lambda x, y: -np.asarray(x, dtype=float) ** 2
        + np.asarray(y, dtype=float) ** 2,
        derivative=None,
        reference=lambda x, y, s=0.5, right_sign="plus":
        frac_gradient_saddle(x, y, right_sign),
        fixed_s=0.5,
    ),
    "shifted_min_2d": ClosedFormFamily(
        name="shifted_min_2d", dim=2, side="two_sided",
        sample=lambda x, y: (np.asarray(x, dtype=float) - 0.1) ** 2
        + (np.asarray(y, dtype=float) - 0.1) ** 2,
        derivative=None,
        reference=lambda x, y, s=0.5, right_sign="plus":
        frac_gradient_shifted_min(x, y, right_sign),
        fixed_s=0.5,
    ),
}


def get_family(name, q=None):
    """Look up a test family by identifier; only "power" takes an exponent."""
    if name == "power":
        return _power_family(3.0 if q is None else float(q))
    if name not in _FAMILIES:
        raise ConfigError(f"unknown family {name!r}; choices: "
                          f"{', '.join(sorted(_FAMILIES))}, power")
    if q is not None:
        raise ConfigError(f"family {name} takes no exponent q; only power does")
    return _FAMILIES[name]


def family_names():
    return sorted(_FAMILIES) + ["power"]
