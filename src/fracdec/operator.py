"""Weight matrix assembly and the fractional discrete exterior derivative.

The operator on p-cochains is (1 / Gamma(1 - s)) * W * D_p, where D_p
is the signed coboundary and W is a dense matrix of inverse
distance-to-the-s weights between (p+1)-simplices.  Rows of W index the
target simplex, columns the source simplex.  In 1D the sidedness and the
right-side sign are folded into W when it is built.  At s = 1 the
operator is the plain coboundary, bit-exactly (Kronecker branch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mesh, metric
from .errors import ConfigError, GeometryError, MeshError
from .special import gamma

SIDEDNESS = ("two_sided", "left_sided")
RIGHT_SIGNS = ("plus", "minus")


@dataclass(frozen=True)
class FracConfig:
    """Parameters of the fractional derivative.

    c_s defaults to 2s / (1 - s).  right_sign chooses the sign applied
    to contributions from sources to the right of the target in 1D
    two-sided mode: "plus" sums both sides, "minus" subtracts the right
    side.  "plus" is the convention under which the 1D convergence
    study exhibits clean order-1/2 behaviour.  Left-sided mode has no
    right side, so it takes "plus" only.
    """

    s: float = 0.5
    c_s: float | None = None
    sidedness: str = "two_sided"
    right_sign: str = "plus"
    distance_mode: str = "geodesic"

    def __post_init__(self):
        if not 0.0 < self.s <= 1.0:
            raise ConfigError(f"fractional order s must be in (0, 1], got {self.s}")
        if self.c_s is not None and not (math.isfinite(self.c_s) and self.c_s > 0):
            raise ConfigError(f"c_s must be finite and positive, got {self.c_s}")
        if self.sidedness not in SIDEDNESS:
            raise ConfigError(f"unknown sidedness {self.sidedness!r}")
        if self.right_sign not in RIGHT_SIGNS:
            raise ConfigError(f"unknown right_sign {self.right_sign!r}")
        if self.sidedness == "left_sided" and self.right_sign != "plus":
            raise ConfigError(f"right_sign={self.right_sign!r} needs two-sided "
                              f"mode: left_sided has no right side")
        if self.distance_mode not in metric.DISTANCE_MODES:
            raise ConfigError(f"unknown distance mode {self.distance_mode!r}")

    @property
    def diagonal_constant(self):
        """Resolved C_s: the explicit value or the 2s/(1-s) default."""
        if self.c_s is not None:
            return self.c_s
        if self.s >= 1.0:
            raise ConfigError("default c_s = 2s/(1-s) is undefined at s = 1")
        return 2.0 * self.s / (1.0 - self.s)


def build_weight_matrix(complex_, p, config):
    """Dense weight matrix W over the (p+1)-simplices.

    Off-diagonal entry (i, j) is distance(i, j)^(-s); every diagonal
    entry is C_s times the largest off-diagonal weight.  Only valid for
    s in (0, 1); s = 1 takes the Kronecker branch in the operator.
    """
    if config.s >= 1.0:
        raise ConfigError("s = 1 is integer order: weight matrix is the identity")
    # The distance table is ours alone, so the weights overwrite it.
    w = metric.simplex_distance(complex_, p + 1, config.distance_mode).entries
    if w.shape[0] < 2:
        raise MeshError("weight matrix needs at least two simplices")
    with np.errstate(divide="ignore", invalid="ignore"):
        np.power(w, -config.s, out=w)
    np.fill_diagonal(w, 0.0)
    # A zero off-diagonal distance gives inf, a negative one NaN.
    top = w.max()
    if not np.isfinite(top):
        raise GeometryError("zero distance between distinct simplices")
    np.fill_diagonal(w, config.diagonal_constant * top)
    return w


def _fold_sides(w, complex_, q, config):
    """Fold the 1D sidedness and right-side sign into W over q-simplices.

    left_sided keeps source j for target t iff barycenter_x(j) <
    barycenter_x(t); the strict comparison zeroes the diagonal as well,
    which is what reproduces the left-sided undershoot behaviour seen in
    the 1D exp experiment.  right_sign "minus" negates the sources
    strictly to the right of the target.  W is changed in place.
    """
    if config.sidedness == "two_sided" and config.right_sign == "plus":
        return
    x = metric.barycenters(complex_, q)[:, 0]
    if config.sidedness == "left_sided":
        np.multiply(w, x[None, :] < x[:, None], out=w)
    else:
        np.negative(w, out=w, where=x[None, :] > x[:, None])


@dataclass(frozen=True)
class FracOperator:
    """Assembled fractional discrete exterior derivative D_p^s.

    apply maps alpha to scale * W * (D_p alpha).  weights is None only
    in the integer branch, where apply is the plain coboundary.
    """

    p: int
    config: FracConfig
    coboundary: object
    weights: np.ndarray | None = None
    scale: float = 1.0

    def apply(self, cochain):
        """Map a degree-p cochain to a degree-(p+1) cochain."""
        if cochain.degree != self.p:
            raise ConfigError(f"expected a degree-{self.p} cochain")
        out = mesh.apply_coboundary(self.coboundary, cochain)
        if self.weights is None:
            return out
        return mesh.Cochain(self.p + 1, self.scale * (self.weights @ out.values))


def build_frac_derivative(complex_, p, config):
    """Assemble D_p^s for a complex.

    At s = 1 the weight matrix is skipped entirely so that applying the
    operator is bit-identical to the plain coboundary.  left_sided and
    right_sign "minus" are defined only on 1D complexes and rejected
    elsewhere, at any s.
    """
    if complex_.dimension != 1:
        for name, default in (("sidedness", "two_sided"), ("right_sign", "plus")):
            value = getattr(config, name)
            if value != default:
                raise ConfigError(f"{name}={value!r} is defined for 1D complexes "
                                  f"only, not dimension {complex_.dimension}")
    d = mesh.build_coboundary(complex_, p)
    if config.s >= 1.0:
        return FracOperator(p=p, config=config, coboundary=d)
    w = build_weight_matrix(complex_, p, config)
    _fold_sides(w, complex_, p + 1, config)
    scale = 1.0 / gamma(1.0 - config.s)
    return FracOperator(p=p, config=config, coboundary=d, weights=w, scale=scale)
