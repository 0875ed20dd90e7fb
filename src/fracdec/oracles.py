"""Ground-truth fractional derivatives.

Closed forms for the test families: the power rule, x^(1-s) E_{1,2-s}(x)
for e^x, and one two-sided form for polynomials, x^(1-s) P(x) +-
(1-x)^(1-s) Q(x) with P and Q cached per (coeffs, s), so that each
polynomial family is just its coefficient tuple.  Every family holds at
every order s in (0, 1), and every reference takes right_sign with
FracConfig's default "plus": "plus" adds the right-hand integral,
"minus" subtracts it, a left-sided form ignores it.  The test suite
checks every form against a quadrature of the defining Caputo integrals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyadd, polymul, polypow, polyval

from .errors import ConfigError
from .special import _horner, gamma, mittag_leffler


def caputo_power(q, s, x):
    """Left-sided fractional derivative of x^q on [0, x].

    Gamma(q+1) x^(q-s) / Gamma(q+1-s).
    """
    if q <= 0:
        raise ConfigError("power rule requires q > 0")
    if not 0 < s < 1:
        raise ConfigError("power rule requires s in (0, 1)")
    x = np.asarray(x, dtype=float)
    if not (x >= 0).all():  # NaN fails too
        raise ConfigError("power rule domain is x >= 0")
    out = gamma(q + 1.0) * x ** (q - s) / gamma(q + 1.0 - s)
    return out if out.ndim else float(out)


@functools.lru_cache(maxsize=64)
def _factored(coeffs, s):
    """caputo_polynomial's P and Q as monomial coefficient tuples."""
    p, q = [0.0] * max(len(coeffs) - 1, 1), [0.0]
    for m, c in enumerate(coeffs[1:], start=1):
        if c:
            p[m - 1] = c * gamma(m + 1.0) / gamma(m + 1.0 - s)
            for k in range(m):
                q = polyadd(q, c * m * math.comb(m - 1, k) / (k + 1.0 - s) * polymul(
                    polypow([0.0, 1.0], m - 1 - k), polypow([1.0, -1.0], k)))
    return tuple(p), tuple(np.asarray(q) / gamma(1.0 - s))


def caputo_polynomial(coeffs, x, s, right_sign):
    """Two-sided fractional derivative of sum_m c_m t^m on [0, 1].

    x^(1-s) P(x) + (1-x)^(1-s) Q(x), "plus" adding the right part and
    "minus" subtracting it: P[m-1] = c_m Gamma(m+1)/Gamma(m+1-s) (the
    power rule) and Q = (1/Gamma(1-s)) sum_m c_m m sum_{k<m} C(m-1,k)
    x^(m-1-k) (1-x)^k / (k+1-s), both cached per (coeffs, s).  The
    domain 0 <= x <= 1 is checked by one min and one max of x.
    """
    if not 0 < s < 1:
        raise ConfigError("two-sided closed forms require s in (0, 1)")
    x = np.asarray(x, dtype=float)
    # initial= passes an empty x; a NaN propagates and fails both.
    if not (x.min(initial=0.0) >= 0 and x.max(initial=1.0) <= 1):
        raise ConfigError("two-sided closed forms hold on 0 <= x <= 1")
    left, right = (_horner(poly, x) for poly in _factored(tuple(coeffs), s))
    left *= x ** (1.0 - s)
    right *= np.power(1.0 - x, 1.0 - s)  # scalar 1 - x: ** may round unlike an array
    out = left + right if right_sign == "plus" else left - right
    return out if out.ndim else float(out)


def left_caputo_exp(x, s):
    """Left-sided fractional derivative of e^x: x^(1-s) E_{1,2-s}(x)."""
    if not 0 < s < 1:
        raise ConfigError("requires s in (0, 1)")
    x = np.asarray(x, dtype=float)
    if not (x >= 0).all():  # NaN fails too
        raise ConfigError("e^x closed form domain is x >= 0")
    out = x ** (1.0 - s) * mittag_leffler(1.0, 2.0 - s, x)
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class ClosedFormFamily:
    """A named test function with its fractional-derivative ground truth.

    reference is f(x, s, right_sign="plus") in 1D and
    f(x, y, s, right_sign="plus") in 2D, for every s in (0, 1).
    """

    name: str
    dim: int
    side: str                       # "left" or "two_sided"
    sample: object                  # f(x) or f(x, y)
    reference: object               # closed form, see above
    coeffs: tuple | None = None     # polynomial families: 1D, or one per axis in 2D


def _power_family(q):
    def sample(x):
        x = np.asarray(x, dtype=float)
        if not q.is_integer() and (x < 0).any():
            raise ConfigError(f"x^{q:g} needs x >= 0 for a non-integer exponent")
        return x ** q
    return ClosedFormFamily(
        name=f"power{q:g}", dim=1, side="left", sample=sample,
        reference=lambda x, s, right_sign="plus": caputo_power(q, s, x),
    )


def _polynomial_family(name, coeffs):
    """Two-sided family sum_m coeffs[m] t^m in 1D."""
    return ClosedFormFamily(
        name=name, dim=1, side="two_sided",
        sample=lambda x: polyval(x, coeffs),
        reference=lambda x, s, right_sign="plus":
        caputo_polynomial(coeffs, x, s, right_sign),
        coeffs=coeffs,
    )


def _gradient_family(name, cx, cy):
    """Two-sided fractional gradient of p(x) + q(y) on [0, 1]^2: each
    component is the 1D derivative of its axis polynomial."""
    def reference(x, y, s, right_sign="plus"):
        return np.stack([caputo_polynomial(cx, x, s, right_sign),
                         caputo_polynomial(cy, y, s, right_sign)], axis=-1)
    return ClosedFormFamily(
        name=name, dim=2, side="two_sided",
        sample=lambda x, y: polyval(x, cx) + polyval(y, cy),
        reference=reference, coeffs=(cx, cy),
    )


_FAMILIES = {
    "constant": _polynomial_family("constant", (1.0,)),
    "cubic_x3": _polynomial_family("cubic_x3", (0.0, 0.0, 0.0, 1.0)),
    "poly_neg10x3_plus_10x2": _polynomial_family(
        "poly_neg10x3_plus_10x2", (0.0, 0.0, 10.0, -10.0)),
    "exp_x": ClosedFormFamily(
        name="exp_x", dim=1, side="left",
        sample=lambda x: np.exp(np.asarray(x, dtype=float)),
        reference=lambda x, s, right_sign="plus": left_caputo_exp(x, s),
    ),
    "saddle_2d": _gradient_family("saddle_2d", (0.0, 0.0, -1.0), (0.0, 0.0, 1.0)),
    "shifted_min_2d": _gradient_family(  # (x - .1)^2 + (y - .1)^2
        "shifted_min_2d", (0.01, -0.2, 1.0), (0.01, -0.2, 1.0)),
}


def get_family(name, q=None):
    """Look up a test family by identifier; only "power" takes an exponent."""
    if name == "power":
        q = 3.0 if q is None else float(q)
        if not 0 < q < math.inf:  # the power rule's domain
            raise ConfigError(f"power family needs a finite exponent q > 0, got {q}")
        return _power_family(q)
    if name not in _FAMILIES:
        raise ConfigError(f"unknown family {name!r}; choices: "
                          f"{', '.join(sorted(_FAMILIES))}, power")
    if q is not None:
        raise ConfigError(f"family {name} takes no exponent q; only power does")
    return _FAMILIES[name]
