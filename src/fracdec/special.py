"""Gamma and two-parameter Mittag-Leffler functions.

Gamma is the standard library's, behind pole and overflow checks that
raise the package's ConfigError.  The Mittag-Leffler function is summed
directly as a power series, evaluated by Horner's rule over an array of
arguments on 0 <= z <= 50, where the series has no cancellation and
converges quickly; the package evaluates it nowhere else.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, SeriesConvergenceError

SERIES_TOL = 1e-15
MAX_TERMS = 200


def gamma(z):
    """Gamma function for real z away from the poles at 0, -1, -2, ...
    and below the overflow near z = 171.6."""
    z = float(z)
    if z <= 0 and z == math.floor(z):
        raise ConfigError(f"gamma pole at z = {z:g}")
    try:
        g = math.gamma(z)
    except OverflowError:
        g = math.inf
    if math.isinf(g):
        raise ConfigError(f"gamma overflows at z = {z:g}")
    return g


def _rgamma(x):
    """1 / Gamma(x) for x > 0; 0.0 where Gamma(x) overflows."""
    try:
        return 1.0 / math.gamma(x)
    except OverflowError:
        return 0.0


def _horner(coef, z):
    """sum_k coef[k] z^k over an array z (a scalar for 0-d z): z coef[-1]
    in one new array, then + coef[k] and * z in place down to coef[0]."""
    if len(coef) == 1:
        return np.full(z.shape, coef[0])[()]
    out = z * coef[-1]
    for c in coef[-2:0:-1]:
        out += c
        out *= z
    out += coef[0]
    return out


def mittag_leffler(a, b, z):
    """Two-parameter Mittag-Leffler function E_{a,b}(z) by direct series.

    E_{a,b}(z) = sum_k z^k / gamma(a k + b), for a scalar or an array z.
    Every z must lie in [0, 50], else ConfigError.  The series is
    truncated at the first term below SERIES_TOL relative to the partial
    sum at r = max z, which bounds every term for the whole array (the
    per-point rule at the largest point); raises SeriesConvergenceError
    if MAX_TERMS are not enough.
    """
    if a <= 0 or b <= 0:
        raise ConfigError("Mittag-Leffler parameters a, b must be positive")
    z = np.asarray(z, dtype=float)
    if not np.all((z >= 0) & (z <= 50)):  # NaN fails too
        raise ConfigError("series evaluation is restricted to 0 <= z <= 50")
    r = float(np.max(z, initial=0.0))
    coef = []
    total = 0.0
    power = 1.0
    for k in range(MAX_TERMS):
        coef.append(_rgamma(a * k + b))
        term = coef[-1] * power
        total += term
        if not math.isfinite(total):
            break
        if term <= SERIES_TOL * total:
            out = _horner(coef, z)
            return out if out.ndim else float(out)
        power *= r
    raise SeriesConvergenceError(
        f"Mittag-Leffler series did not converge in {MAX_TERMS} terms"
    )
