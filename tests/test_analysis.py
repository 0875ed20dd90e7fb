"""Stairs comparison, Whitney reconstruction, and the study harness."""

import itertools

import numpy as np
import pytest
from scipy.integrate import quad

from fracdec import (
    Cochain,
    ConfigError,
    FracConfig,
    GeometryError,
    MeshError,
    SimplicialComplex,
    build_coboundary,
    convergence_study,
    field_experiment_2d,
    frac_derivative_1d,
    generate_interval_mesh,
    generate_unit_square_mesh,
    get_family,
    s_sweep,
)
from fracdec.analysis import (
    StairsFunction,
    edge_integrals,
    eval_at_barycenters,
    l2_error_stairs,
    linf_error,
    relative_l2_per_triangle,
    to_stairs,
    whitney_reconstruct,
)
from fracdec import analysis


def quad_oracle_l2(stairs, reference):
    """Per-step adaptive-quadrature L2 norm, the graded rule's oracle.

    The tolerance is tighter than a 1e-10 absolute step tolerance, at
    which the loop itself is 1.7e-10 relative off at s = 0.3, n = 1024.
    """
    total = 0.0
    for i, v in enumerate(stairs.values):
        val, _ = quad(lambda t: (v - reference(t)) ** 2,
                      stairs.breakpoints[i], stairs.breakpoints[i + 1],
                      epsabs=1e-14, epsrel=1e-12, limit=200)
        total += val
    return float(np.sqrt(total))


_EDGE_PAIRS = ((0, 1), (0, 2), (1, 2))


def oracle_whitney_loop(complex_, cochain):
    """The original per-triangle Whitney loop: (gradients, edge values)."""
    eidx = {tuple(row): i for i, row in enumerate(complex_.simplices[1])}
    tris = complex_.simplices[2]
    corners = complex_.vertex_coords[tris]
    grads = np.empty((len(tris), 3, 2))
    edge_values = np.empty((len(tris), 3))
    for t, tri in enumerate(tris):
        t_mat = np.stack([corners[t, 1] - corners[t, 0],
                          corners[t, 2] - corners[t, 0]], axis=1)
        g1, g2 = np.linalg.inv(t_mat)
        grads[t] = np.array([-g1 - g2, g1, g2])
        for k, (i, j) in enumerate(_EDGE_PAIRS):
            edge_values[t, k] = cochain.values[eidx[(tri[i], tri[j])]]
    return grads, edge_values


def oracle_evaluate(field, t, point):
    """The original single-point Whitney field evaluation."""
    corners = field.corners[t]
    grads = field.gradients[t]
    mat = np.column_stack([corners[1] - corners[0], corners[2] - corners[0]])
    ab = np.linalg.solve(mat, np.asarray(point, dtype=float) - corners[0])
    lam = np.array([1.0 - ab.sum(), ab[0], ab[1]])
    vec = np.zeros(2)
    for k, (i, j) in enumerate(_EDGE_PAIRS):
        vec += field.edge_values[t, k] * (lam[i] * grads[j] - lam[j] * grads[i])
    return vec


def oracle_edge_integrals(field, complex_):
    """The original per-edge loop over first-seen (triangle, edge) pairs."""
    eidx = {tuple(row): i for i, row in enumerate(complex_.simplices[1])}
    coords = complex_.vertex_coords
    out = np.zeros(complex_.n_simplices(1))
    seen = np.zeros(complex_.n_simplices(1), dtype=bool)
    for t, tri in enumerate(field.triangles):
        for (i, j) in _EDGE_PAIRS:
            e = eidx[(tri[i], tri[j])]
            if seen[e]:
                continue
            a, b = coords[tri[i]], coords[tri[j]]
            out[e] = oracle_evaluate(field, t, (a + b) / 2.0) @ (b - a)
            seen[e] = True
    return out


def oracle_rows_edge_integrals(field, complex_):
    """edge_integrals as it was when the field kept the edge rows found
    at lift time: each edge integrated in its first triangle.  The rows
    come from a dict over the edge table."""
    ends = field.triangles[:, _EDGE_PAIRS].reshape(-1, 2)
    index = {tuple(row): i for i, row in enumerate(complex_.simplices[1].tolist())}
    rows = np.array([index[tuple(e)] for e in ends.tolist()], dtype=np.int64)
    table = complex_.simplices[1]
    first = np.full(len(table), len(rows))
    np.minimum.at(first, rows, np.arange(len(rows)))
    edges = np.flatnonzero(first < len(rows))
    first = first[edges]
    a, b = np.moveaxis(np.take(complex_.vertex_coords, ends[first], axis=0), 1, 0)
    vec = field.evaluate(first // 3, (a + b) / 2.0)
    out = np.zeros(len(table))
    out[edges] = (vec * (b - a)).sum(axis=1)
    return out


@pytest.fixture
def quad_calls(monkeypatch):
    """Records the [lo, hi] of every fallback quad call in analysis."""
    calls = []

    def counting_quad(func, lo, hi, **kwargs):
        calls.append((lo, hi))
        return quad(func, lo, hi, **kwargs)
    monkeypatch.setattr(analysis, "quad", counting_quad)
    return calls


class TestStairsFunction:
    def test_step_lookup(self):
        f = StairsFunction([0.0, 1.0, 2.0], [10.0, 20.0])
        assert f(0.5) == 10.0
        assert f(1.5) == 20.0
        assert f(1.0) == 20.0  # right-continuous at breakpoints

    def test_clamps_outside_support(self):
        f = StairsFunction([0.0, 1.0, 2.0], [10.0, 20.0])
        assert f(-5.0) == 10.0 and f(5.0) == 20.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            StairsFunction([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(MeshError):
            StairsFunction([0.0, 0.0, 1.0], [1.0, 2.0])

    def test_vectorized(self):
        f = StairsFunction([0.0, 1.0, 2.0], [1.0, 2.0])
        np.testing.assert_array_equal(f(np.array([0.1, 1.7])), [1.0, 2.0])


class TestToStairs:
    def test_barycenter_support(self):
        cx = generate_interval_mesh(0.0, 1.0, 4)
        c = Cochain(1, np.arange(4.0))
        f = to_stairs(cx, c, support="barycenter")
        np.testing.assert_allclose(f.breakpoints, [0.125, 0.375, 0.625, 0.875, 1.0])
        np.testing.assert_array_equal(f.values, np.arange(4.0))

    def test_barycenter_support_large_n(self):
        n = 1024
        cx = generate_interval_mesh(0.0, 1.0, n)
        f = to_stairs(cx, Cochain(1, np.zeros(n)), support="barycenter")
        assert f.breakpoints[0] == pytest.approx(1.0 / 2048.0)
        assert f.breakpoints[-1] == pytest.approx(1.0)

    def test_edge_support(self):
        cx = generate_interval_mesh(0.0, 1.0, 4)
        f = to_stairs(cx, Cochain(1, np.arange(4.0)), support="edge")
        np.testing.assert_allclose(f.breakpoints, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_degree_check(self):
        cx = generate_interval_mesh(0.0, 1.0, 4)
        with pytest.raises(ConfigError):
            to_stairs(cx, Cochain(0, np.zeros(5)))

    def test_unknown_support(self):
        cx = generate_interval_mesh(0.0, 1.0, 4)
        with pytest.raises(ConfigError):
            to_stairs(cx, Cochain(1, np.zeros(4)), support="vertex")

    def test_needs_1d(self):
        cx = generate_unit_square_mesh(2)
        with pytest.raises(MeshError):
            to_stairs(cx, Cochain(1, np.zeros(cx.n_simplices(1))))

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_overlap_check_is_scale_free(self, scale):
        # Edge (0, 1) covers [0, 2], edge (1, 2) covers [1, 2]: an
        # overlap at every scale.  Edges that only meet are fine.
        c = Cochain(1, [1.0, 2.0])
        overlapping = SimplicialComplex.from_simplices(
            1, [(0, 1), (1, 2)], vertex_coords=np.array([[0.0], [2.0], [1.0]]) * scale)
        with pytest.raises(MeshError, match="edges overlap"):
            to_stairs(overlapping, c, support="edge")
        meeting = SimplicialComplex.from_simplices(
            1, [(0, 1), (1, 2)], vertex_coords=np.array([[0.0], [1.0], [3.0]]) * scale)
        f = to_stairs(meeting, c, support="edge")
        np.testing.assert_array_equal(f.breakpoints, np.array([0.0, 1.0, 3.0]) * scale)


class TestErrorNorms:
    def test_l2_constant_vs_zero(self):
        f = StairsFunction([0.0, 1.0], [3.0])
        assert l2_error_stairs(f, lambda t: 0.0) == pytest.approx(3.0, rel=1e-10)

    def test_l2_two_steps_analytic(self):
        # steps 1 on [0,1], 2 on [1,3] against reference t:
        # int_0^1 (1-t)^2 + int_1^3 (2-t)^2 = 1/3 + 2/3 = 1.
        f = StairsFunction([0.0, 1.0, 3.0], [1.0, 2.0])
        assert l2_error_stairs(f, lambda t: t) == pytest.approx(1.0, rel=1e-9)

    def test_l2_exact_match_is_zero(self):
        f = StairsFunction([0.0, 0.5, 1.0], [2.0, 2.0])
        assert l2_error_stairs(f, lambda t: 2.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 16, 1024])
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("right_sign", ["plus", "minus"])
    @pytest.mark.parametrize("support", ["edge", "barycenter"])
    def test_l2_matches_quad_oracle(self, n, s, right_sign, support):
        fam = get_family("poly_neg10x3_plus_10x2")
        cx, deriv = frac_derivative_1d(n, fam, FracConfig(s=s, right_sign=right_sign))
        stairs = to_stairs(cx, deriv, support=support)
        got = l2_error_stairs(stairs, lambda t: fam.reference(t, s, right_sign))
        want = quad_oracle_l2(stairs, lambda t: fam.reference(t, s, right_sign))
        assert got == pytest.approx(want, rel=1e-10)

    def test_l2_fine_mesh_needs_no_fallback(self, quad_calls):
        fam = get_family("poly_neg10x3_plus_10x2")
        convergence_study(fam, 0.5, [256, 1024])
        assert quad_calls == []

    def test_l2_large_step_needs_no_fallback(self, quad_calls):
        # s = 0.7, "minus", n = 4: the last step's estimate is 1.8e-10 on
        # a value of 10.61, inside the relative part of the threshold.
        # An absolute 1e-10 alone sent it to quad, whose conservative
        # error estimate then raised AccuracyError.
        fam = get_family("poly_neg10x3_plus_10x2")
        cfg = FracConfig(s=0.7, right_sign="minus")
        (row,) = convergence_study(fam, 0.7, [4], config=cfg, support="edge")
        assert quad_calls == []
        cx, deriv = frac_derivative_1d(4, fam, cfg)
        stairs = to_stairs(cx, deriv, support="edge")
        want = quad_oracle_l2(stairs, lambda t: fam.reference(t, 0.7, "minus"))
        assert row["error"] == pytest.approx(want, rel=1e-10)

    def test_l2_interior_kink_falls_back_to_quad(self, quad_calls):
        # sqrt|t - 0.3| has an unbounded derivative inside the second
        # step, which the graded rule cannot resolve; only that step
        # goes to adaptive quadrature.
        f = StairsFunction([0.0, 0.25, 0.5, 0.75, 1.0], [0.2, 0.4, 0.5, 0.6])
        ref = lambda t: np.sqrt(np.abs(t - 0.3))
        got = l2_error_stairs(f, ref)
        assert quad_calls == [(0.25, 0.5)]
        assert got == pytest.approx(quad_oracle_l2(f, ref), rel=1e-10)

    def test_linf_vectors(self):
        assert linf_error([1.0, 2.0], [1.5, 2.0]) == pytest.approx(0.5)

    def test_linf_validation(self):
        with pytest.raises(ConfigError):
            linf_error([1.0, 2.0], [1.0])
        with pytest.raises(ConfigError):
            linf_error([], [])


class TestWhitney:
    def test_duality_reference_triangle(self):
        cx = generate_unit_square_mesh(1)
        rng = np.random.default_rng(5)
        c = Cochain(1, rng.normal(size=cx.n_simplices(1)))
        field = whitney_reconstruct(cx, c)
        np.testing.assert_allclose(edge_integrals(field, cx), c.values, atol=1e-12)

    def test_duality_random_cochains(self):
        cx = generate_unit_square_mesh(3)
        rng = np.random.default_rng(17)
        field0 = whitney_reconstruct(cx, Cochain(1, np.zeros(cx.n_simplices(1))))
        for _ in range(25):
            c = Cochain(1, rng.normal(size=cx.n_simplices(1)))
            field = whitney_reconstruct(cx, c)
            np.testing.assert_allclose(edge_integrals(field, cx), c.values,
                                       atol=1e-12)

    def test_linear_exactness(self):
        # The coboundary of a linear vertex function reconstructs to its
        # (constant) gradient everywhere.
        cx = generate_unit_square_mesh(4)
        a, b, c0 = 2.0, -1.5, 0.3
        verts = cx.vertex_coords
        f = Cochain(0, a * verts[:, 0] + b * verts[:, 1] + c0)
        grad_c = Cochain(1, build_coboundary(cx, 0) @ f.values)
        # Face-sign convention: the edge value f_j - f_i equals the
        # tangential integral of grad f, so the lift is direct.
        field = whitney_reconstruct(cx, grad_c)
        vecs = eval_at_barycenters(field, cx)
        np.testing.assert_allclose(vecs, np.tile([a, b], (len(vecs), 1)),
                                   atol=1e-12)
        # Also exact away from barycenters.
        np.testing.assert_allclose(field.evaluate(0, [0.05, 0.02]), [a, b],
                                   atol=1e-12)

    def test_barycenter_evaluation_consistency(self):
        cx = generate_unit_square_mesh(2)
        rng = np.random.default_rng(23)
        c = Cochain(1, rng.normal(size=cx.n_simplices(1)))
        field = whitney_reconstruct(cx, c)
        vecs = eval_at_barycenters(field, cx)
        for t in range(cx.n_simplices(2)):
            bary = cx.vertex_coords[cx.simplices[2][t]].mean(axis=0)
            np.testing.assert_allclose(vecs[t], field.evaluate(t, bary), atol=1e-12)

    def test_requires_triangle_mesh(self):
        cx = generate_interval_mesh(0, 1, 4)
        with pytest.raises(MeshError):
            whitney_reconstruct(cx, Cochain(1, np.zeros(4)))


    def test_cochain_length_checked(self):
        cx = generate_unit_square_mesh(2)
        with pytest.raises(ConfigError):
            whitney_reconstruct(cx, Cochain(1, np.zeros(cx.n_simplices(1) - 1)))

    def test_degenerate_check_is_scale_free(self):
        # A small square is a good mesh; its gradients scale as 1 / h.
        base = generate_unit_square_mesh(4)
        rng = np.random.default_rng(3)
        c = Cochain(1, rng.normal(size=base.n_simplices(1)))
        for scale in (1e-7, 1e7):
            cx = SimplicialComplex.from_simplices(
                2, base.simplices[2], vertex_coords=base.vertex_coords * scale)
            field = whitney_reconstruct(cx, c)
            np.testing.assert_allclose(
                field.gradients * scale, whitney_reconstruct(base, c).gradients,
                rtol=1e-12)
            np.testing.assert_allclose(edge_integrals(field, cx), c.values,
                                       atol=1e-12)
        # A sliver whose corner sine is 2e-17 is degenerate at any size,
        # although its area, 0.05, is large.
        sliver = SimplicialComplex.from_simplices(
            2, [(0, 1, 2)], vertex_coords=[[0.0, 0.0], [1e8, 0.0], [5e7, 1e-9]])
        with pytest.raises(GeometryError, match="degenerate"):
            whitney_reconstruct(sliver, Cochain(1, np.zeros(3)))

    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_edge_integrals_match_rows_oracle_bitwise(self, n):
        cx = generate_unit_square_mesh(n)
        rng = np.random.default_rng(n)
        for values in (rng.normal(size=cx.n_simplices(1)),
                       np.zeros(cx.n_simplices(1)), -np.zeros(cx.n_simplices(1))):
            field = whitney_reconstruct(cx, Cochain(1, values))
            assert (edge_integrals(field, cx).tobytes()
                    == oracle_rows_edge_integrals(field, cx).tobytes())

    def test_edge_integrals_need_the_lifting_complex(self):
        # Each edge is found through the facet rows of the complex given,
        # whose triangles must be the field's.  The same mesh with the
        # other diagonal has as many edges, yet other ones.
        cx = generate_unit_square_mesh(3)
        field = whitney_reconstruct(cx, Cochain(1, np.ones(cx.n_simplices(1))))
        cells = [j * 4 + i for j in range(3) for i in range(3)]
        flipped = SimplicialComplex.from_simplices(
            2, [t for v in cells for t in ((v, v + 1, v + 4), (v + 1, v + 4, v + 5))],
            vertex_coords=cx.vertex_coords)
        assert flipped.n_simplices(1) == cx.n_simplices(1)
        for other in (generate_unit_square_mesh(2), generate_unit_square_mesh(4),
                      flipped):
            with pytest.raises(MeshError):
                edge_integrals(field, other)


class TestWhitneyOracles:
    @pytest.fixture
    def lifted(self, oracle_triangle_mesh):
        cx = oracle_triangle_mesh
        rng = np.random.default_rng(cx.n_simplices(1))
        c = Cochain(1, rng.normal(size=cx.n_simplices(1)))
        return cx, c, whitney_reconstruct(cx, c)

    def test_reconstruct_matches_triangle_loop(self, lifted):
        cx, c, field = lifted
        grads, edge_values = oracle_whitney_loop(cx, c)
        np.testing.assert_array_equal(field.gradients, grads)
        np.testing.assert_array_equal(field.edge_values, edge_values)

    def test_edge_integrals_match_edge_loop(self, lifted):
        cx, c, field = lifted
        got = edge_integrals(field, cx)
        np.testing.assert_allclose(got, oracle_edge_integrals(field, cx),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(got, c.values, rtol=0, atol=1e-12)

    def test_edge_integrals_match_rows_oracle_bitwise(self, lifted):
        cx, _, field = lifted
        assert (edge_integrals(field, cx).tobytes()
                == oracle_rows_edge_integrals(field, cx).tobytes())

    def test_batched_evaluate_matches_single_point(self, lifted):
        cx, _, field = lifted
        rng = np.random.default_rng(8)
        tris = rng.integers(0, cx.n_simplices(2), 20)
        lam = rng.dirichlet(np.ones(3), 20)
        points = np.einsum("tk,tkd->td", lam, field.corners[tris])
        batched = field.evaluate(tris, points)
        assert batched.shape == (20, 2)
        for k, t in enumerate(tris):
            single = field.evaluate(int(t), points[k])
            assert single.shape == (2,)
            np.testing.assert_array_equal(single, batched[k])
            np.testing.assert_allclose(single, oracle_evaluate(field, t, points[k]),
                                       rtol=0, atol=1e-13)


class TestRelativeErrors:
    def test_basic(self):
        pred = np.array([[1.0, 0.0], [0.0, 2.0]])
        ref = np.array([[2.0, 0.0], [0.0, 2.0]])
        rel, summary = relative_l2_per_triangle(pred, ref)
        np.testing.assert_allclose(rel, [0.5, 0.0])
        assert summary["flagged"] == 0
        assert summary["mean"] == pytest.approx(0.25)

    def test_zero_reference_flagged(self):
        pred = np.array([[1.0, 0.0], [1.0, 1.0]])
        ref = np.array([[0.0, 0.0], [1.0, 1.0]])
        rel, summary = relative_l2_per_triangle(pred, ref)
        assert np.isnan(rel[0]) and summary["flagged"] == 1
        assert summary["mean"] == pytest.approx(0.0)

    def test_predicted_normalization(self):
        pred = np.array([[2.0, 0.0]])
        ref = np.array([[1.0, 0.0]])
        rel, _ = relative_l2_per_triangle(pred, ref, normalize="predicted")
        np.testing.assert_allclose(rel, [0.5])

    def test_validation(self):
        with pytest.raises(ConfigError):
            relative_l2_per_triangle(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ConfigError):
            relative_l2_per_triangle(np.zeros((2, 2)), np.zeros((2, 2)),
                                     normalize="max")


class TestStudies:
    def test_first_rows_of_reference_table(self):
        fam = get_family("poly_neg10x3_plus_10x2")
        rows = convergence_study(fam, 0.5, [2, 4])
        assert rows[0]["error"] == pytest.approx(1.5619, abs=5e-4)
        assert rows[1]["error"] == pytest.approx(0.9933, abs=5e-4)
        assert rows[1]["ratio"] == pytest.approx(0.9933 / 1.5619, abs=1e-3)

    def test_left_sided_uses_linf(self):
        fam = get_family("exp_x")
        cfg = FracConfig(sidedness="left_sided")
        rows = convergence_study(fam, 0.5, [8, 16], config=cfg)
        assert rows[1]["error"] < rows[0]["error"]

    def test_field_experiment_at_any_order(self):
        # The 2D closed forms hold at every s in (0, 1).
        fam = get_family("saddle_2d")
        for mode, s in itertools.product(("geodesic", "euclidean"), (0.3, 0.7)):
            res = field_experiment_2d(8, fam, FracConfig(s=s, distance_mode=mode),
                                      normalize="predicted")
            c = res["centers"]
            np.testing.assert_array_equal(res["reference"],
                                          fam.reference(c[:, 0], c[:, 1], s))
            assert np.all(np.isfinite(res["predicted"]))
            assert 0.5 < res["summary"]["mean"] < 1.5

    def test_two_sided_family_needs_two_sided_operator(self):
        left = FracConfig(sidedness="left_sided")
        for name in ("cubic_x3", "constant"):
            with pytest.raises(ConfigError, match="two-sided"):
                convergence_study(get_family(name), 0.5, [4], config=left)
            with pytest.raises(ConfigError, match="two-sided"):
                s_sweep(get_family(name), [0.5], [4], config=left)
        # A left family under the default two-sided operator stays accepted.
        assert convergence_study(get_family("power"), 0.5, [4])[0]["error"] > 0
        assert s_sweep(get_family("exp_x"), [0.5], [4])[0]["linf_error"] > 0

    def test_dimension_guards(self):
        with pytest.raises(ConfigError):
            convergence_study(get_family("saddle_2d"), 0.5, [2])
        with pytest.raises(ConfigError):
            field_experiment_2d(2, get_family("exp_x"), FracConfig())
        with pytest.raises(ConfigError):
            convergence_study(get_family("power"), 0.5, [])
        for s_values, edge_counts in (([], [4]), ([0.5], [])):
            with pytest.raises(ConfigError, match="must be nonempty"):
                s_sweep(get_family("power"), s_values, edge_counts)

    def test_s_sweep_shape(self):
        rows = s_sweep(get_family("power"), [0.25, 0.5], [4, 8])
        assert len(rows) == 4
        assert {r["s"] for r in rows} == {0.25, 0.5}
        assert all(np.isfinite(r["linf_error"]) for r in rows)

    def test_frac_derivative_1d_shapes(self):
        cx, deriv = frac_derivative_1d(10, get_family("power"), FracConfig())
        assert cx.n_simplices(1) == 10
        assert deriv.degree == 1 and len(deriv.values) == 10

    def test_field_experiment_output(self):
        res = field_experiment_2d(2, get_family("saddle_2d"), FracConfig())
        assert res["predicted"].shape == (8, 2)
        assert res["reference"].shape == (8, 2)
        assert len(res["relative_errors"]) == 8
        assert set(res["summary"]) == {"min", "max", "mean", "flagged"}
