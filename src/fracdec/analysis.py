"""Reconstruction of 1-cochains and the error/convergence harness.

1D cochains are compared to reference functions as piecewise-constant
functions.  Two step conventions are supported: "barycenter" steps run
from one edge barycenter to the next (the plotting convention, the last
step extended to the right endpoint of the domain), while "edge" steps
cover each edge exactly.  The edge convention is what reproduces the
reference L2 error table; see the convergence study.

2D cochains are lifted to piecewise-affine vector fields through the
Whitney map and evaluated at triangle barycenters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import mesh, metric, operator
from .errors import AccuracyError, ConfigError, GeometryError, MeshError

_L2_QUAD_TOL = 1e-10
_L2_QUAD_RTOL = 1e-10
# A triangle whose corner sine is below this is degenerate.
_DEGENERATE_SINE = 1e-14


@dataclass(frozen=True)
class StairsFunction:
    """Piecewise-constant function on consecutive intervals."""

    breakpoints: np.ndarray   # length n+1, strictly increasing
    values: np.ndarray        # length n

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", np.asarray(self.breakpoints, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if len(self.breakpoints) != len(self.values) + 1:
            raise ConfigError("need one more breakpoint than step values")
        if not np.all(np.diff(self.breakpoints) > 0):
            raise MeshError("breakpoints must be strictly increasing")

    def __call__(self, x):
        idx = np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1,
                      0, len(self.values) - 1)
        return self.values[idx]


def _sorted_edge_geometry(complex_):
    if complex_.dimension != 1 or complex_.vertex_coords is None:
        raise MeshError("stairs need an embedded 1D complex")
    x = complex_.vertex_coords[:, 0]
    edges = complex_.simplices[1]
    bary = x[edges].mean(axis=1)
    order = np.argsort(bary)
    lo, hi = np.sort(x[edges[order]], axis=1).T
    # Edges that meet share a vertex coordinate, so any overlap is real.
    if np.any(lo[1:] < hi[:-1]):
        raise MeshError("edges overlap; cannot form a stairs function")
    return order, bary[order], lo, hi


def to_stairs(complex_, cochain, support="barycenter"):
    """1-cochain as a stairs function over a 1D embedded complex.

    support="barycenter": step i runs from barycenter i to barycenter
    i+1, with the final step extended to the right end of the domain.
    support="edge": step i covers edge i exactly.
    """
    if cochain.degree != 1:
        raise ConfigError("stairs are defined for 1-cochains")
    order, bary, lo, hi = _sorted_edge_geometry(complex_)
    vals = cochain.values[order]
    if support == "barycenter":
        bps = np.append(bary, hi[-1])
    elif support == "edge":
        bps = np.append(lo, hi[-1])
    else:
        raise ConfigError(f"unknown stairs support {support!r}")
    return StairsFunction(bps, vals)


def _graded_gauss_rule(m):
    """m-point Gauss-Legendre rule on [0, 1] through the grading map.

    x = u^4 (35 - 84u + 70u^2 - 20u^3) has Jacobian 140 u^3 (1-u)^3,
    which vanishes to third order at both ends, so integrands with
    x^a or (1-x)^a endpoint singularities become smooth in u.
    """
    t, w = np.polynomial.legendre.leggauss(m)
    u = (t + 1.0) / 2.0
    x = u ** 4 * (35.0 - 84.0 * u + 70.0 * u ** 2 - 20.0 * u ** 3)
    return x, w / 2.0 * 140.0 * u ** 3 * (1.0 - u) ** 3


_FINE_RULE = _graded_gauss_rule(24)
_COARSE_RULE = _graded_gauss_rule(16)


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad, imported at the first call: only steps that
    the L2 norm's Gauss rules cannot resolve need it."""
    from scipy.integrate import quad as adaptive_quad

    return adaptive_quad(func, a, b, **kwargs)


def l2_error_stairs(stairs, reference):
    """sqrt of the integral of (stairs - reference)^2 over the support.

    reference must accept an array of points and return values of the
    same shape (a scalar result is broadcast).  Every step is mapped to
    [0, 1] by an endpoint-grading polynomial and integrated with
    24-point Gauss-Legendre in one vectorised pass; the difference to a
    16-point rule on the same step estimates its error.  Steps whose
    estimate exceeds 1e-10 plus 1e-10 times the step's value (an
    interior kink, say) are redone by adaptive quadrature at absolute
    tolerance 1e-10.
    """
    (fine_x, fine_w), (coarse_x, coarse_w) = _FINE_RULE, _COARSE_RULE
    lo = stairs.breakpoints[:-1, None]
    h = np.diff(stairs.breakpoints)[:, None]
    nodes = np.hstack([lo + h * fine_x, lo + h * coarse_x])
    ref = np.broadcast_to(np.asarray(reference(nodes), dtype=float), nodes.shape)
    sq = (stairs.values[:, None] - ref) ** 2
    steps = h[:, 0] * (sq[:, :len(fine_x)] @ fine_w)
    coarse = h[:, 0] * (sq[:, len(fine_x):] @ coarse_w)
    # "not <=" also sends NaN estimates to the fallback.
    tol = _L2_QUAD_TOL + _L2_QUAD_RTOL * np.abs(steps)
    for i in np.flatnonzero(~(np.abs(steps - coarse) <= tol)):
        v = stairs.values[i]
        val, err = quad(lambda t: (v - reference(t)) ** 2,
                        stairs.breakpoints[i], stairs.breakpoints[i + 1],
                        epsabs=_L2_QUAD_TOL, limit=200)
        # quad's error estimate is conservative near sqrt-type endpoints;
        # anything below 1e-7 per step is far inside the comparison needs.
        if err > 1e-7 + 1e-12 * abs(val):
            raise AccuracyError(f"step quadrature error {err:.2e} too large")
        steps[i] = val
    return float(np.sqrt(steps.sum()))


def linf_error(predicted, reference):
    """Maximum absolute deviation between two aligned vectors."""
    predicted = np.asarray(predicted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if predicted.shape != reference.shape or predicted.size == 0:
        raise ConfigError("predicted/reference samples must align and be nonempty")
    return float(np.max(np.abs(predicted - reference)))


@dataclass(frozen=True)
class WhitneyField:
    """Piecewise-affine vector field from a 1-cochain on a triangle mesh.

    Per triangle the field is sum_e c_e (lambda_i grad lambda_j -
    lambda_j grad lambda_i) over its three edges (i < j in global
    vertex order); its tangential integral along any edge recovers the
    cochain value on that edge.
    """

    triangles: np.ndarray      # (T, 3) vertex indices
    corners: np.ndarray        # (T, 3, 2) vertex coordinates
    gradients: np.ndarray      # (T, 3, 2) barycentric gradients
    edge_values: np.ndarray    # (T, 3) cochain values on edges (01, 02, 12)

    def evaluate(self, tri_index, point):
        """Field value at points inside the given triangles.

        tri_index is one triangle index or an array of them, point a
        matching (2,) point or (..., 2) array; one vector per point.
        """
        tri = np.asarray(tri_index)
        # np.take gathers whole rows, much faster than fancy indexing.
        grads = np.take(self.gradients, tri, axis=0)
        c01, c02, c12 = np.moveaxis(np.take(self.edge_values, tri, axis=0), -1, 0)
        # Barycentric coordinates: lambda_k = grad lambda_k . (x - c_0)
        # for k = 1, 2, and lambda_0 = 1 - lambda_1 - lambda_2.
        origin = np.take(self.corners[:, 0], tri, axis=0)
        x, y = np.moveaxis(np.asarray(point, dtype=float) - origin, -1, 0)
        lam1 = grads[..., 1, 0] * x + grads[..., 1, 1] * y
        lam2 = grads[..., 2, 0] * x + grads[..., 2, 1] * y
        lam0 = 1.0 - (lam1 + lam2)
        # sum_e c_e (lambda_i grad lambda_j - lambda_j grad lambda_i),
        # gathered by vertex: the coefficient of grad lambda_v.
        coef = (-c01 * lam1 - c02 * lam2,
                c01 * lam0 - c12 * lam2,
                c02 * lam0 + c12 * lam1)
        return (coef[0][..., None] * grads[..., 0, :]
                + coef[1][..., None] * grads[..., 1, :]
                + coef[2][..., None] * grads[..., 2, :])


def whitney_reconstruct(complex_, cochain):
    """Build the Whitney interpolant of a 1-cochain on a triangle mesh.

    A triangle is degenerate, and raises GeometryError, when the sine
    of its angle at its first vertex is below 1e-14: |det| of its two
    edge vectors from that vertex against the product of their lengths,
    which holds at any scale.
    """
    if complex_.dimension != 2 or complex_.vertex_coords is None:
        raise MeshError("Whitney reconstruction needs an embedded triangle mesh")
    if cochain.degree != 1:
        raise ConfigError("Whitney reconstruction acts on 1-cochains")
    if len(cochain.values) != complex_.n_simplices(1):
        raise ConfigError(f"cochain has {len(cochain.values)} values for "
                          f"{complex_.n_simplices(1)} edges")
    coords = complex_.vertex_coords
    tris = complex_.simplices[2]
    corners = np.take(coords, tris, axis=0)
    t_mat = np.stack([corners[:, 1] - corners[:, 0],
                      corners[:, 2] - corners[:, 0]], axis=2)
    det = t_mat[:, 0, 0] * t_mat[:, 1, 1] - t_mat[:, 0, 1] * t_mat[:, 1, 0]
    spans = np.hypot(t_mat[:, 0], t_mat[:, 1])
    if np.any(np.abs(det) < _DEGENERATE_SINE * spans[:, 0] * spans[:, 1]):
        raise GeometryError("degenerate (zero-area) triangle")
    inv = np.linalg.inv(t_mat)
    g1, g2 = inv[:, 0], inv[:, 1]        # rows of T^{-1} are grad lambda_1,2
    grads = np.stack([-g1 - g2, g1, g2], axis=1)
    # Edges (01, 02, 12) leave out vertex 2, 1, 0: facet slots reversed.
    return WhitneyField(tris.copy(), corners, grads, cochain.values[complex_.facets[2][:, ::-1]])


def eval_at_barycenters(field, complex_):
    """One field vector per triangle, evaluated at the barycenter.

    At the barycenter every barycentric coordinate is 1/3, so the
    evaluation reduces to (1/3) sum_e c_e (grad lambda_j - grad
    lambda_i).
    """
    diff = np.stack([field.gradients[:, 1] - field.gradients[:, 0],
                     field.gradients[:, 2] - field.gradients[:, 0],
                     field.gradients[:, 2] - field.gradients[:, 1]], axis=1)
    return (field.edge_values[:, :, None] * diff).sum(axis=1) / 3.0


def edge_integrals(field, complex_):
    """Tangential line integral of the field along every edge.

    The field is affine on each edge, so the midpoint value times the
    edge vector is exact.  Each edge is integrated in the first triangle
    (in table order) that contains it, found through the complex's
    facet rows; MeshError if the field's triangles are not the
    complex's.  Used to verify the Whitney duality property.
    """
    if not np.array_equal(field.triangles, complex_.simplices.get(2)):
        raise MeshError("the field was not lifted on this complex")
    # Row 3t + k is edge k (01, 02, 12) of triangle t.
    rows = complex_.facets[2][:, ::-1].reshape(-1)
    table = complex_.simplices[1]
    # first[e] is the first row holding edge e, len(rows) if none does.
    first = np.full(len(table), len(rows))
    np.minimum.at(first, rows, np.arange(len(rows)))
    edges = np.flatnonzero(first < len(rows))
    first = first[edges]
    a, b = np.moveaxis(np.take(complex_.vertex_coords, table[edges], axis=0), 1, 0)
    vec = field.evaluate(first // 3, (a + b) / 2.0)
    out = np.zeros(len(table))
    out[edges] = (vec * (b - a)).sum(axis=1)
    return out


def relative_l2_per_triangle(predicted, reference, normalize="reference"):
    """Per-triangle relative vector error with summary statistics.

    normalize="reference" divides ||pred - ref|| by ||ref||;
    "predicted" divides by ||pred|| instead, which keeps the statistic
    meaningful when the discrete field dominates the analytic one.
    Triangles whose normalizer is at most 1e-12 are flagged, reported
    separately, and excluded from the summary.
    """
    predicted = np.asarray(predicted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if predicted.shape != reference.shape:
        raise ConfigError("predicted/reference shapes differ")
    if normalize not in ("reference", "predicted"):
        raise ConfigError(f"unknown normalization {normalize!r}")
    denom = np.linalg.norm(reference if normalize == "reference" else predicted,
                           axis=1)
    err = np.linalg.norm(predicted - reference, axis=1)
    flagged = denom <= 1e-12
    rel = np.where(flagged, np.nan, err / np.where(flagged, 1.0, denom))
    ok = rel[~flagged]
    summary = {
        "min": float(ok.min()) if ok.size else float("nan"),
        "max": float(ok.max()) if ok.size else float("nan"),
        "mean": float(ok.mean()) if ok.size else float("nan"),
        "flagged": int(flagged.sum()),
    }
    return rel, summary


def frac_derivative_1d(n_edges, family, config):
    """Fractional 1-cochain of a family's vertex samples on [0, 1]."""
    complex_ = mesh.generate_interval_mesh(0.0, 1.0, n_edges)
    alpha = mesh.Cochain(0, family.sample(complex_.vertex_coords[:, 0]))
    op = operator.build_frac_derivative(complex_, 0, config)
    return complex_, op.apply(alpha)


def _check_sides(family, config):
    """A two-sided family has no left-sided closed form to compare with."""
    if family.side == "two_sided" and config.sidedness == "left_sided":
        raise ConfigError(f"family {family.name} is two-sided; a left-sided "
                          "operator has no closed form to compare with")


def convergence_study(family, s, edge_counts, config=None, support="edge"):
    """Error table (n, error, ratio) for a 1D family.

    Two-sided families use the L2 norm of the piecewise-constant
    comparison; left-sided families use the Linf norm at edge
    barycenters against the left-sided closed form.  A two-sided family
    under a left-sided operator raises ConfigError.
    """
    if not edge_counts:
        raise ConfigError("edge_counts must be nonempty")
    if family.dim != 1:
        raise ConfigError("convergence studies are 1D only")
    config = replace(operator.FracConfig() if config is None else config, s=s)
    _check_sides(family, config)
    rows = []
    prev = None
    for n in edge_counts:
        complex_, deriv = frac_derivative_1d(n, family, config)
        if family.side == "left":
            bary = metric.barycenters(complex_, 1)[:, 0]
            err = linf_error(deriv.values,
                             family.reference(bary, s, config.right_sign))
        else:
            stairs = to_stairs(complex_, deriv, support=support)
            ref = lambda t: family.reference(t, s, config.right_sign)
            err = l2_error_stairs(stairs, ref)
        rows.append({"n": int(n), "error": err,
                     "ratio": err / prev if prev is not None else float("nan")})
        prev = err
    return rows


def s_sweep(family, s_values, edge_counts, config=None):
    """Linf error against the fractional order, at fixed mesh sizes."""
    if not s_values or not edge_counts:
        raise ConfigError("s_values and edge_counts must be nonempty")
    if family.dim != 1:
        raise ConfigError("s sweeps are 1D only")
    config = operator.FracConfig() if config is None else config
    _check_sides(family, config)
    rows = []
    for n in edge_counts:
        for s in s_values:
            cfg = replace(config, s=s)
            complex_, deriv = frac_derivative_1d(n, family, cfg)
            bary = metric.barycenters(complex_, 1)[:, 0]
            ref = family.reference(bary, s, cfg.right_sign)
            rows.append({"n": int(n), "s": float(s),
                         "linf_error": linf_error(deriv.values, ref)})
    return rows


def field_experiment_2d(n, family, config, normalize="reference"):
    """End-to-end 2D gradient-field experiment on the unit square.

    Samples the family at the vertices, applies the fractional
    derivative, reconstructs through the Whitney map, evaluates at
    triangle barycenters, and compares to the analytic fractional
    gradient.  Returns centers, predicted/reference vectors, the
    per-triangle relative errors and their summary.
    """
    if family.dim != 2:
        raise ConfigError("2D field experiments need a 2D family")
    complex_ = mesh.generate_unit_square_mesh(n)
    coords = complex_.vertex_coords
    alpha = mesh.Cochain(0, family.sample(coords[:, 0], coords[:, 1]))
    op = operator.build_frac_derivative(complex_, 0, config)
    deriv = op.apply(alpha)
    field = whitney_reconstruct(complex_, deriv)
    centers = metric.barycenters(complex_, 2)
    predicted = eval_at_barycenters(field, complex_)
    reference = family.reference(centers[:, 0], centers[:, 1], config.s,
                                 config.right_sign)
    rel, summary = relative_l2_per_triangle(predicted, reference,
                                            normalize=normalize)
    return {"complex": complex_, "centers": centers, "predicted": predicted,
            "reference": reference, "relative_errors": rel, "summary": summary}
