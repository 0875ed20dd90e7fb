"""Gamma and two-parameter Mittag-Leffler functions.

Gamma is the standard library's, behind a pole check that raises the
package's ConfigError.  The Mittag-Leffler function is summed directly
as a power series, evaluated by Horner's rule over an array of
arguments: every evaluation here has |z| <= 50, where the series
converges quickly (Garrappa, SIAM J. Numer. Anal. 53, 2015, covers the
regimes beyond it).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import rgamma

from .errors import ConfigError, SeriesConvergenceError

SERIES_TOL = 1e-15
MAX_TERMS = 200


def gamma(z):
    """Gamma function for real z away from the poles at 0, -1, -2, ..."""
    z = float(z)
    if z <= 0 and z == math.floor(z):
        raise ConfigError(f"gamma pole at z = {z:g}")
    return math.gamma(z)


def mittag_leffler(a, b, z):
    """Two-parameter Mittag-Leffler function E_{a,b}(z) by direct series.

    E_{a,b}(z) = sum_k z^k / gamma(a k + b), for a scalar or an array z.
    The series is truncated at the first term below SERIES_TOL relative
    to the partial sum at r = max |z|, which bounds every term for the
    whole array (for z >= 0 it is the per-point rule at the largest
    point); raises SeriesConvergenceError if MAX_TERMS are not enough.
    For z < 0 the terms alternate and cancel, so the rounding error is
    relative to E_{a,b}(|z|) rather than to the value.
    """
    if a <= 0 or b <= 0:
        raise ConfigError("Mittag-Leffler parameters a, b must be positive")
    z = np.asarray(z, dtype=float)
    r = float(np.max(np.abs(z), initial=0.0))
    if r > 50:
        raise ConfigError("series evaluation is restricted to |z| <= 50")
    coef = rgamma(a * np.arange(MAX_TERMS) + b).tolist()  # 0 once gamma overflows
    total = 0.0
    power = 1.0
    for n, c in enumerate(coef, start=1):
        term = c * power
        total += term
        if not math.isfinite(total):
            break
        if term <= SERIES_TOL * total:
            out = np.full(z.shape, c)
            for ck in reversed(coef[:n - 1]):
                out = out * z + ck
            return out if out.ndim else float(out)
        power *= r
    raise SeriesConvergenceError(
        f"Mittag-Leffler series did not converge in {MAX_TERMS} terms"
    )
