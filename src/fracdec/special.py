"""Gamma and two-parameter Mittag-Leffler functions.

Gamma is the standard library's, behind pole and overflow checks that
raise the package's ConfigError.  The Mittag-Leffler function is summed
directly as a power series, evaluated by Horner's rule over an array of
arguments: every evaluation here has |z| <= 50, where the series
converges quickly, and for z < 0 only where the alternating series does
not cancel (Garrappa, SIAM J. Numer. Anal. 53, 2015, covers the regimes
beyond it).
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
    """sum_k coef[k] z^k over an array z, in place (a scalar for 0-d z)."""
    out = np.full(z.shape, coef[-1])[()]
    for c in reversed(coef[:-1]):
        out *= z
        out += c
    return out


def mittag_leffler(a, b, z):
    """Two-parameter Mittag-Leffler function E_{a,b}(z) by direct series.

    E_{a,b}(z) = sum_k z^k / gamma(a k + b), for a scalar or an array z.
    The series is truncated at the first term below SERIES_TOL relative
    to the partial sum at r = max |z|, which bounds every term for the
    whole array (for z >= 0 it is the per-point rule at the largest
    point); raises SeriesConvergenceError if MAX_TERMS are not enough.
    For z < 0 the terms alternate and cancel, so the rounding error is
    about eps E_{a,b}(|z|) rather than eps |E_{a,b}(z)|; when some z < 0,
    a second pass at |z| raises SeriesConvergenceError wherever that
    error exceeds 1e-10 relative to the value (for a = b = 1, below
    about z = -6.5).
    """
    if a <= 0 or b <= 0:
        raise ConfigError("Mittag-Leffler parameters a, b must be positive")
    z = np.asarray(z, dtype=float)
    r = float(np.max(np.abs(z), initial=0.0))
    if not r <= 50:  # NaN fails too
        raise ConfigError("series evaluation is restricted to |z| <= 50")
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
            if (z < 0).any():
                bad = np.finfo(float).eps * _horner(coef, np.abs(z)) > 1e-10 * np.abs(out)
                if bad.any():
                    raise SeriesConvergenceError(
                        "Mittag-Leffler series loses more than 1e-10 relative "
                        f"accuracy to cancellation at z = {z[bad].flat[0]:g}")
            return out if out.ndim else float(out)
        power *= r
    raise SeriesConvergenceError(
        f"Mittag-Leffler series did not converge in {MAX_TERMS} terms"
    )
