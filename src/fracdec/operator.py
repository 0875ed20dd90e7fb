"""Weight matrix assembly and the fractional discrete exterior derivative.

The operator on p-cochains is (1 / Gamma(1 - s)) * W * D_p, where D_p
is the signed coboundary and W is a dense matrix of inverse
distance-to-the-s weights between (p+1)-simplices.  Rows of W index the
target simplex, columns the source simplex.  At s = 1 the operator is
the plain coboundary, bit-exactly (Kronecker branch).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

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
    study exhibits clean order-1/2 behaviour.
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

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls(**json.loads(text))


def build_weight_matrix(complex_, p, config, dist_table=None):
    """Dense weight matrix W over the (p+1)-simplices.

    Off-diagonal entry (i, j) is distance(i, j)^(-s); every diagonal
    entry is C_s times the largest off-diagonal weight.  Only valid for
    s in (0, 1); s = 1 takes the Kronecker branch in the operator.
    """
    if dist_table is None:
        dist_table = metric.simplex_distance(complex_, p + 1, config.distance_mode)
    return _weights_from_distances(dist_table.entries, config)


def _weights_from_distances(d, config):
    if config.s >= 1.0:
        raise ConfigError("s = 1 is integer order: weight matrix is the identity")
    n = d.shape[0]
    if n < 2:
        raise MeshError("weight matrix needs at least two simplices")
    with np.errstate(divide="ignore", invalid="ignore"):
        w = d ** (-config.s)
    np.fill_diagonal(w, 0.0)
    # A zero off-diagonal distance gives inf, a negative one NaN.
    top = w.max()
    if not np.isfinite(top):
        raise GeometryError("zero distance between distinct simplices")
    np.fill_diagonal(w, config.diagonal_constant * top)
    return w


def _barycenter_x(complex_, p):
    if complex_.dimension != 1:
        raise ConfigError("sidedness masking is defined for 1D complexes only")
    if complex_.vertex_coords is None:
        raise MeshError("sidedness masking requires an embedded complex")
    return metric.barycenters(complex_, p)[:, 0]


def apply_left_sided_mask(w, complex_, p=1, keep_diagonal=False):
    """Zero the weights of sources not strictly left of the target.

    Entry (target t, source j) survives iff barycenter_x(j) <
    barycenter_x(t).  The strict comparison zeroes the diagonal as well,
    which is what reproduces the left-sided undershoot behaviour seen in
    the 1D exp experiment; pass keep_diagonal=True to retain it.
    """
    x = _barycenter_x(complex_, p)
    keep = x[None, :] < x[:, None]
    if keep_diagonal:
        keep = keep | np.eye(len(x), dtype=bool)
    return np.where(keep, w, 0.0)


def right_sign_matrix(complex_, p, right_sign):
    """Signs applied at application time in 1D two-sided mode.

    "minus" negates contributions from sources whose barycenter lies to
    the right of the target's; "plus" is the literal two-sided sum.
    """
    if right_sign == "plus":
        return None
    x = _barycenter_x(complex_, p)
    return np.where(x[None, :] > x[:, None], -1.0, 1.0)


@dataclass(frozen=True)
class FracOperator:
    """Assembled fractional discrete exterior derivative D_p^s."""

    p: int
    config: FracConfig
    coboundary: object
    weights: np.ndarray | None           # None in the integer branch
    signs: np.ndarray | None = None      # right_sign application mask
    variant: str = "caputo"              # "caputo" or "riemann_liouville"
    scale: float = field(default=1.0)

    def apply(self, cochain):
        """Map a degree-p cochain to a degree-(p+1) cochain."""
        if cochain.degree != self.p:
            raise ConfigError(f"expected a degree-{self.p} cochain")
        if self.weights is None:
            return mesh.apply_coboundary(self.coboundary, cochain)
        if self.variant == "riemann_liouville":
            out = self.scale * (self.coboundary @ (self.weights @ cochain.values))
            return mesh.Cochain(self.p + 1, out)
        w = self.weights if self.signs is None else self.weights * self.signs
        out = self.scale * (w @ (self.coboundary @ cochain.values))
        return mesh.Cochain(self.p + 1, out)

    def matrix(self):
        """Dense matrix of the operator, for export and inspection."""
        d = self.coboundary.toarray().astype(float)
        if self.weights is None:
            return d
        if self.variant == "riemann_liouville":
            return self.scale * (d @ self.weights)
        w = self.weights if self.signs is None else self.weights * self.signs
        return self.scale * (w @ d)


def build_frac_derivative(complex_, p, config, dist_table=None):
    """Assemble D_p^s for a complex.

    At s = 1 the weight matrix is skipped entirely so that applying the
    operator is bit-identical to the plain coboundary.  right_sign
    "minus" is defined only on 1D complexes and rejected elsewhere.
    """
    if config.right_sign != "plus" and complex_.dimension != 1:
        raise ConfigError(f"right_sign={config.right_sign!r} is defined for 1D "
                          f"complexes only, not dimension {complex_.dimension}")
    d = mesh.build_coboundary(complex_, p)
    if config.s >= 1.0:
        return FracOperator(p=p, config=config, coboundary=d, weights=None)
    w = build_weight_matrix(complex_, p, config, dist_table=dist_table)
    signs = None
    if config.sidedness == "left_sided":
        w = apply_left_sided_mask(w, complex_, p + 1)
    elif complex_.dimension == 1:
        signs = right_sign_matrix(complex_, p + 1, config.right_sign)
    scale = 1.0 / gamma(1.0 - config.s)
    return FracOperator(p=p, config=config, coboundary=d, weights=w,
                        signs=signs, scale=scale)


def build_riemann_liouville_experimental(complex_, p, config, dist_table=None):
    """Experimental operator alpha -> (1/Gamma(1-s)) D_p (W alpha).

    The weighting acts on the p-simplices before differentiation; note
    this does not annihilate constants.  Kept for comparison only.
    """
    d = mesh.build_coboundary(complex_, p)
    if config.s >= 1.0:
        return FracOperator(p=p, config=config, coboundary=d, weights=None,
                            variant="riemann_liouville")
    if dist_table is None:
        dist_table = metric.simplex_distance(complex_, p, config.distance_mode)
    w = _weights_from_distances(dist_table.entries, config)
    scale = 1.0 / gamma(1.0 - config.s)
    return FracOperator(p=p, config=config, coboundary=d, weights=w,
                        variant="riemann_liouville", scale=scale)
