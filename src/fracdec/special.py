"""Gamma and two-parameter Mittag-Leffler functions.

Gamma uses a Lanczos rational approximation (g = 7, 9 terms) with the
reflection formula for arguments below 1/2; the required arguments in
this package are small reals such as Gamma(1 - s) or Gamma(3.5).  The
Mittag-Leffler function is summed directly: every evaluation here lies
in a regime where the power series converges quickly.
"""

from __future__ import annotations

import math

from .errors import ConfigError, SeriesConvergenceError

# Lanczos coefficients for g = 7.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(z):
    """Gamma function for real z away from the poles at 0, -1, -2, ...

    Satisfies gamma(z + 1) = z * gamma(z); relative accuracy is around
    1e-14 on the range used by this package.
    """
    z = float(z)
    if z <= 0 and z == math.floor(z):
        raise ConfigError(f"gamma pole at z = {z:g}")
    if z < 0.5:
        # Reflection: gamma(z) gamma(1 - z) = pi / sin(pi z).
        return math.pi / (math.sin(math.pi * z) * gamma(1.0 - z))
    z -= 1.0
    x = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        x += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * x


def mittag_leffler(a, b, z, series_tol=1e-15, max_terms=200):
    """Two-parameter Mittag-Leffler function E_{a,b}(z) by direct series.

    E_{a,b}(z) = sum_k z^k / gamma(a k + b).  Truncates once the current
    term is below series_tol relative to the partial sum; raises
    SeriesConvergenceError if max_terms is exhausted first.
    """
    if a <= 0 or b <= 0:
        raise ConfigError("Mittag-Leffler parameters a, b must be positive")
    if series_tol <= 0 or max_terms < 1:
        raise ConfigError("invalid series controls")
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
