"""Reconstruction of 1-cochains and the error/convergence harness.

1D cochains are compared to reference functions as piecewise-constant
functions whose steps are the interval mesh's edges in order, the
convention that reproduces the reference L2 error table; see the
convergence study.  The 1D studies build each interval mesh, and sample
the family on it, once per size, for every order they are asked for.

2D cochains are lifted to piecewise-affine vector fields through the
Whitney map and evaluated at triangle barycenters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import mesh, metric, operator
from .errors import AccuracyError, ConfigError, GeometryError, MeshError

_L2_QUAD_TOL, _L2_QUAD_RTOL = 1e-10, 1e-10
# Halves of a failed piece may hold a kink or a jump, where the 24-point
# error is near the gap, not far below it as on smooth pieces.
_L2_PIECE_TOL = 1e-12
_L2_MAX_HALVINGS = 200
# A triangle whose corner sine is below this is degenerate.
_DEGENERATE_SINE = 1e-14


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


_FINE_X, _FINE_W = _graded_gauss_rule(24)
_COARSE_X, _COARSE_W = _graded_gauss_rule(16)


def quad(reference, lo, hi, values):
    """Integral of (values[i] - reference)^2 over [lo[i], hi[i]], per i.

    Each level integrates the live pieces by the graded 24- and 16-point
    rules in one reference call.  A piece whose gap |I24 - I16| is at most
    1e-10 + 1e-10 I24 (1e-12 + 1e-10 I24 once halved) goes into its step;
    the others are halved.  AccuracyError at once on a value or gap that is
    not finite, and when a step is halved over 200 times (QUADPACK's limit).
    """
    out, halvings = np.zeros(len(values)), np.zeros(len(values), dtype=np.int64)
    tol, step = _L2_QUAD_TOL, np.arange(len(values))
    while step.size:
        h = (hi - lo)[:, None]
        nodes = np.hstack([lo[:, None] + h * _FINE_X, lo[:, None] + h * _COARSE_X])
        ref = np.broadcast_to(np.asarray(reference(nodes), dtype=float), nodes.shape)
        sq = (values[step, None] - ref) ** 2
        fine = h[:, 0] * (sq[:, :len(_FINE_X)] @ _FINE_W)
        gap = np.abs(fine - h[:, 0] * (sq[:, len(_FINE_X):] @ _COARSE_W))
        # A value that is not finite leaves a gap that is not finite.
        if not np.all(np.isfinite(gap)):
            raise AccuracyError("the L2 integrand is not finite")
        ok = gap <= tol + _L2_QUAD_RTOL * fine
        np.add.at(out, step[ok], fine[ok])
        step, lo, hi = step[~ok], lo[~ok], hi[~ok]
        np.add.at(halvings, step, 1)
        if np.any(halvings > _L2_MAX_HALVINGS):
            raise AccuracyError(f"an L2 step is unresolved after {_L2_MAX_HALVINGS} halvings")
        tol, mid = _L2_PIECE_TOL, (lo + hi) / 2.0
        step, lo, hi = np.tile(step, 2), np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return out


def l2_error_stairs(breakpoints, values, reference):
    """sqrt of the integral of (stairs - reference)^2 over the support,
    where the stairs function is values[i] on [breakpoints[i],
    breakpoints[i + 1]].

    ConfigError unless there is one more breakpoint than values;
    MeshError unless the breakpoints strictly increase.  reference must
    accept an array of points and return values of the same shape (a
    scalar result is broadcast).  quad integrates the steps.
    """
    breakpoints = np.asarray(breakpoints, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(breakpoints) != len(values) + 1:
        raise ConfigError("need one more breakpoint than step values")
    if not np.all(np.diff(breakpoints) > 0):
        raise MeshError("breakpoints must be strictly increasing")
    return float(np.sqrt(quad(reference, breakpoints[:-1], breakpoints[1:], values).sum()))


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
        # np.take gathers whole rows, much faster than fancy indexing: one
        # row of six gradient components (grad lambda_0, 1, 2) per point.
        g = np.take(self.gradients.reshape(-1, 6), tri, axis=0)
        c = np.take(self.edge_values, tri, axis=0)
        c01, c02, c12 = c[..., 0], c[..., 1], c[..., 2]
        # Barycentric coordinates: lambda_k = grad lambda_k . (x - c_0)
        # for k = 1, 2, and lambda_0 = 1 - lambda_1 - lambda_2.
        d = np.asarray(point, dtype=float) - np.take(self.corners[:, 0], tri, axis=0)
        x, y = d[..., 0], d[..., 1]
        lam1 = g[..., 2] * x + g[..., 3] * y
        lam2 = g[..., 4] * x + g[..., 5] * y
        lam0 = 1.0 - (lam1 + lam2)
        # sum_e c_e (lambda_i grad lambda_j - lambda_j grad lambda_i),
        # gathered by vertex: the coefficient of grad lambda_v.
        coef0 = -c01 * lam1 - c02 * lam2
        coef1 = c01 * lam0 - c12 * lam2
        coef2 = c02 * lam0 + c12 * lam1
        out = np.empty(np.shape(coef0) + (2,))
        out[..., 0] = coef0 * g[..., 0] + coef1 * g[..., 2] + coef2 * g[..., 4]
        out[..., 1] = coef0 * g[..., 1] + coef1 * g[..., 3] + coef2 * g[..., 5]
        return out


def whitney_reconstruct(complex_, cochain):
    """Build the Whitney interpolant of a 1-cochain on a triangle mesh.

    A triangle is degenerate, and raises GeometryError, when the sine
    of its angle at its first vertex is at most 1e-14: |det| of its two
    edge vectors from that vertex against the product of their lengths,
    both taken after an exact power-of-two scaling, so at any scale.
    The gradients are the rows of the adjugate over det.
    """
    if complex_.dimension != 2 or np.shape(complex_.vertex_coords)[1:] != (2,):
        raise MeshError("Whitney reconstruction needs a triangle mesh in the plane")
    if cochain.degree != 1:
        raise ConfigError("Whitney reconstruction acts on 1-cochains")
    if len(cochain.values) != complex_.n_simplices(1):
        raise ConfigError(f"cochain has {len(cochain.values)} values for "
                          f"{complex_.n_simplices(1)} edges")
    tris = complex_.simplices[2]
    corners = np.take(complex_.vertex_coords, tris, axis=0)
    # e1x, e1y, e2x, e2y from vertex 0, times the 2^-k that brings each
    # triangle's largest into [0.5, 1): det and lengths cannot over- or underflow.
    vecs = np.array([np.subtract(corners[:, v, a], corners[:, 0, a], dtype=float)
                     for v in (1, 2) for a in (0, 1)])
    _, k = np.frexp(np.abs(vecs).max(axis=0))
    e1x, e1y, e2x, e2y = np.ldexp(vecs, -k)
    det = e1x * e2y - e2x * e1y
    # "<=" also flags coincident corners.
    if np.any(np.abs(det) <= _DEGENERATE_SINE * np.hypot(e1x, e1y) * np.hypot(e2x, e2y)):
        raise GeometryError("degenerate (zero-area) triangle")
    # The scaled adjugate over 2^k det; 0.0 - x negates without a -0.0.
    det = np.ldexp(det, k)
    grads = np.empty((len(tris), 3, 2))
    grads[:, 1, 0], grads[:, 1, 1] = e2y / det, (0.0 - e2x) / det
    grads[:, 2, 0], grads[:, 2, 1] = (0.0 - e1y) / det, e1x / det
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    # Edges (01, 02, 12) leave out vertex 2, 1, 0: facet slots reversed.
    return WhitneyField(tris.copy(), corners, grads,
                        np.take(cochain.values, complex_.facets[2])[:, ::-1].copy())


def eval_at_barycenters(field, complex_):
    """One field vector per triangle, evaluated at the barycenter.

    At the barycenter every barycentric coordinate is 1/3, so the
    evaluation reduces to (1/3) sum_e c_e (grad lambda_j - grad
    lambda_i), summed over the edges (01, 02, 12) in that order.
    """
    g0, g1, g2 = field.gradients[:, 0], field.gradients[:, 1], field.gradients[:, 2]
    c01, c02, c12 = (field.edge_values[:, k, None] for k in range(3))
    # Summed from 0.0, as numpy sums: a total of -0.0 terms is 0.0.
    return (0.0 + c01 * (g1 - g0) + c02 * (g2 - g0) + c12 * (g2 - g1)) / 3.0


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
    # a and b contiguous: arithmetic on strided (n, 2) views is slow.
    a, b = np.take(complex_.vertex_coords, np.take(table, edges, axis=0).T, axis=0)
    vec = field.evaluate(first // 3, (a + b) / 2.0)
    d = b - a
    out = np.zeros(len(table))
    # Summed from 0.0, as numpy sums: a total of -0.0 terms is 0.0.
    out[edges] = 0.0 + vec[:, 0] * d[:, 0] + vec[:, 1] * d[:, 1]
    return out


def relative_l2_per_triangle(predicted, reference, normalize="reference"):
    """Per-triangle relative vector error of (T, 2) arrays, with summary statistics.

    normalize="reference" divides ||pred - ref|| by ||ref||;
    "predicted" divides by ||pred|| instead, which keeps the statistic
    meaningful when the discrete field dominates the analytic one.
    Triangles whose normalizer is at most 1e-12 are flagged, reported
    separately, and excluded from the summary.
    """
    predicted = np.asarray(predicted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if predicted.shape != reference.shape or predicted.shape[1:] != (2,):
        raise ConfigError("predicted/reference must be (T, 2) arrays of one shape, "
                          f"not {predicted.shape} and {reference.shape}")
    if normalize not in ("reference", "predicted"):
        raise ConfigError(f"unknown normalization {normalize!r}")
    norm = reference if normalize == "reference" else predicted
    denom, err = (np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1])
                  for v in (norm, predicted - reference))
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


def _study_configs(family, s_values, edge_counts, config):
    """The checked config of every order of a 1D study, all built before
    any mesh, so a bad order fails first."""
    if not s_values or not edge_counts:
        raise ConfigError("s_values and edge_counts must be nonempty")
    config = operator.FracConfig() if config is None else config
    if family.side == "two_sided" and config.sidedness == "left_sided":
        raise ConfigError(f"family {family.name} is two-sided; a left-sided "
                          "operator has no closed form to compare with")
    return [replace(config, s=s) for s in s_values]


def _derivatives_1d(family, configs, edge_counts):
    """(n, config, complex, derivative) for every size, then every config:
    one interval mesh on [0, 1] and one vertex sample per size."""
    if family.dim != 1:
        raise ConfigError(f"1D derivatives need a 1D family, not {family.name}")
    for n in edge_counts:
        complex_ = mesh.generate_interval_mesh(0.0, 1.0, n)
        alpha = mesh.Cochain(0, family.sample(complex_.vertex_coords[:, 0]))
        for config in configs:
            op = operator.build_frac_derivative(complex_, 0, config)
            yield n, config, complex_, op.apply(alpha)


def _linf_at_barycenters(complex_, deriv, family, config):
    """Linf error of a 1D derivative against the family's closed form at
    the edge barycenters."""
    bary = metric.barycenters(complex_, 1)[:, 0]
    ref = family.reference(bary, config.s, config.right_sign)
    return float(np.max(np.abs(deriv.values - ref)))


def frac_derivative_1d(n_edges, family, config):
    """Fractional 1-cochain of a family's vertex samples on [0, 1]."""
    _, _, complex_, deriv = next(_derivatives_1d(family, [config], [n_edges]))
    return complex_, deriv


def convergence_study(family, s, edge_counts, config=None, support="edge"):
    """Error table (n, error, ratio) for a 1D family.

    Two-sided families use the L2 norm of the stairs comparison (support
    "edge", the only one); left-sided families use the Linf norm at edge
    barycenters against the left-sided closed form.  ConfigError: a
    two-sided family under a left-sided operator, or config.s != s.
    """
    if support != "edge":
        raise ConfigError(f"unknown stairs support {support!r}")
    if config is not None and config.s != s:
        raise ConfigError(f"order s = {s} differs from the config's s = {config.s}")
    configs = _study_configs(family, [s], edge_counts, config)
    rows = []
    prev = None
    for n, config, complex_, deriv in _derivatives_1d(family, configs, edge_counts):
        if family.side == "left":
            err = _linf_at_barycenters(complex_, deriv, family, config)
        else:
            ref = lambda t: family.reference(t, s, config.right_sign)
            # Edge i of the interval mesh is [x_i, x_(i+1)]: the steps.
            err = l2_error_stairs(complex_.vertex_coords[:, 0], deriv.values, ref)
        rows.append({"n": int(n), "error": err,
                     "ratio": err / prev if prev is not None else float("nan")})
        prev = err
    return rows


def s_sweep(family, s_values, edge_counts, config=None):
    """Linf error against the fractional order, at fixed mesh sizes."""
    configs = _study_configs(family, s_values, edge_counts, config)
    return [{"n": int(n), "s": float(config.s),
             "linf_error": _linf_at_barycenters(complex_, deriv, family, config)}
            for n, config, complex_, deriv in _derivatives_1d(family, configs, edge_counts)]


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
