"""Ground-truth fractional derivatives.

Closed forms for the test families: the power rule, x^(1-s) E_{1,2-s}(x)
for e^x, and one two-sided form for polynomials, so that each
polynomial family is just its coefficient tuple.  Two-sided closed
forms carry an explicit right_sign: "plus" adds the right-hand
integral, "minus" subtracts it.  Note the defaults differ per family;
they follow the convention under which each closed form was originally
stated.  The test suite checks every form against a quadrature of the
defining Caputo integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import ConfigError
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
    if (x < 0).any():
        raise ConfigError("power rule domain is x >= 0")
    out = gamma(q + 1.0) * x ** (q - s) / gamma(q + 1.0 - s)
    return out if out.ndim else float(out)


def _right_power_part(m, s, x):
    """(1/Gamma(1-s)) int_x^1 t^m (t-x)^(-s) dt for integer m >= 0.

    Binomial expansion of (u + x)^m after the shift u = t - x; each
    term integrates in closed form.
    """
    acc = 0.0
    for k in range(m + 1):
        acc = acc + (math.comb(m, k) * x ** (m - k)
                     * (1.0 - x) ** (k + 1.0 - s) / (k + 1.0 - s))
    return acc / gamma(1.0 - s)


def caputo_polynomial(coeffs, x, s, right_sign):
    """Two-sided fractional derivative of sum_m coeffs[m] t^m on [0, 1].

    Term by term: the left part of t^m is caputo_power(m, s, x) and its
    right part m * _right_power_part(m - 1, s, x); "plus" adds the
    right part, "minus" subtracts it.  The constant term drops out.
    """
    if not 0 < s < 1:
        raise ConfigError("two-sided closed forms require s in (0, 1)")
    x = np.asarray(x, dtype=float)
    if ((x < 0) | (x > 1)).any():
        raise ConfigError("two-sided closed forms hold on 0 <= x <= 1")
    left = right = np.zeros_like(x)
    for m, c in enumerate(coeffs[1:], start=1):
        if not c:
            continue
        left = left + c * caputo_power(m, s, x)
        right = right + c * m * _right_power_part(m - 1, s, x)
    out = left + right if right_sign == "plus" else left - right
    return out if out.ndim else float(out)


def left_caputo_exp(x, s):
    """Left-sided fractional derivative of e^x: x^(1-s) E_{1,2-s}(x)."""
    if not 0 < s < 1:
        raise ConfigError("requires s in (0, 1)")
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise ConfigError("e^x closed form domain is x >= 0")
    out = x ** (1.0 - s) * mittag_leffler(1.0, 2.0 - s, x)
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class ClosedFormFamily:
    """A named test function with its fractional-derivative ground truth."""

    name: str
    dim: int
    side: str                       # "left" or "two_sided"
    sample: object                  # f(x) or f(x, y)
    reference: object               # closed form, see below
    coeffs: tuple | None = None     # polynomial families: 1D, or one per axis in 2D
    default_right_sign: str = "plus"
    fixed_s: float | None = None    # closed form only stated at this order

    def check_order(self, s):
        """Raise ConfigError if the closed form does not hold at order s."""
        if self.fixed_s is not None and s != self.fixed_s:
            raise ConfigError(f"family {self.name} has a closed form only at "
                              f"s = {self.fixed_s}")


def _power_family(q):
    return ClosedFormFamily(
        name=f"power{q:g}", dim=1, side="left",
        sample=lambda x: np.asarray(x, dtype=float) ** q,
        reference=lambda x, s, right_sign=None: caputo_power(q, s, x),
    )


def _polynomial_family(name, coeffs, right_sign="plus"):
    """Two-sided family sum_m coeffs[m] t^m in 1D, with right_sign as
    the default sign of its reference."""
    return ClosedFormFamily(
        name=name, dim=1, side="two_sided",
        sample=lambda x: polyval(x, coeffs),
        reference=lambda x, s, right_sign=right_sign:
        caputo_polynomial(coeffs, x, s, right_sign),
        coeffs=coeffs, default_right_sign=right_sign,
    )


def _gradient_family(name, cx, cy, right_sign="plus"):
    """Two-sided fractional gradient of p(x) + q(y) on [0, 1]^2 at
    s = 1/2: each component is the 1D derivative of its axis polynomial."""
    def reference(x, y, s=0.5, right_sign=right_sign):
        return np.stack([caputo_polynomial(cx, x, s, right_sign),
                         caputo_polynomial(cy, y, s, right_sign)], axis=-1)
    return ClosedFormFamily(
        name=name, dim=2, side="two_sided",
        sample=lambda x, y: polyval(x, cx) + polyval(y, cy),
        reference=reference, coeffs=(cx, cy), default_right_sign=right_sign,
        fixed_s=0.5,
    )


_FAMILIES = {
    "constant": _polynomial_family("constant", (1.0,)),
    # At s = 1/2 the stated form of x^3 subtracts the right-hand part.
    "cubic_x3": _polynomial_family("cubic_x3", (0.0, 0.0, 0.0, 1.0), "minus"),
    "poly_neg10x3_plus_10x2": _polynomial_family(
        "poly_neg10x3_plus_10x2", (0.0, 0.0, 10.0, -10.0)),
    "exp_x": ClosedFormFamily(
        name="exp_x", dim=1, side="left",
        sample=lambda x: np.exp(np.asarray(x, dtype=float)),
        reference=lambda x, s, right_sign=None: left_caputo_exp(x, s),
    ),
    "saddle_2d": _gradient_family("saddle_2d", (0.0, 0.0, -1.0), (0.0, 0.0, 1.0)),
    "shifted_min_2d": _gradient_family(  # (x - .1)^2 + (y - .1)^2
        "shifted_min_2d", (0.01, -0.2, 1.0), (0.01, -0.2, 1.0)),
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
