"""Stairs comparison, Whitney reconstruction, and the study harness."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from fracdec import (
    AccuracyError,
    Cochain,
    ConfigError,
    FracConfig,
    GeometryError,
    MeshError,
    SimplicialComplex,
    barycenters,
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
    _COARSE_W,
    _COARSE_X,
    _FINE_W,
    _FINE_X,
    _L2_BLOCK,
    _L2_MAX_HALVINGS,
    _L2_PIECE_TOL,
    _L2_QUAD_RTOL,
    _L2_QUAD_TOL,
    edge_integrals,
    eval_at_barycenters,
    l2_error_stairs,
    relative_l2_per_triangle,
    whitney_reconstruct,
)
import fracdec
from fracdec import analysis, mesh

from conftest import surface_mesh


def quad_oracle_l2(breakpoints, values, reference):
    """Per-step adaptive-quadrature L2 norm, the graded rule's oracle.

    The tolerance is tighter than a 1e-10 absolute step tolerance, at
    which the loop itself is 1.7e-10 relative off at s = 0.3, n = 1024.
    """
    total = 0.0
    for i, v in enumerate(values):
        val, _ = quad(lambda t: (v - reference(t)) ** 2,
                      breakpoints[i], breakpoints[i + 1],
                      epsabs=1e-14, epsrel=1e-12, limit=200)
        total += val
    return float(np.sqrt(total))


def oracle_quad(reference, lo, hi, values):
    """The unblocked quadrature loop that analysis.quad replaced: every
    step in one loop, the two rules' nodes stacked, a gather of the step
    values at every level."""
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


def oracle_l2(breakpoints, values, reference):
    """l2_error_stairs through oracle_quad."""
    bp, values = np.asarray(breakpoints, dtype=float), np.asarray(values, dtype=float)
    return float(np.sqrt(oracle_quad(reference, bp[:-1], bp[1:], values).sum()))


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


def half_signed_zeros(rng, n):
    """n normal values, about half of them replaced by 0.0 or -0.0: sums
    of products that are all -0.0 show whether a rewritten sum keeps
    numpy's sign of zero."""
    values = rng.normal(size=n)
    values[rng.random(n) < 0.5] = 0.0
    return np.where(rng.random(n) < 0.5, -values, values)


def recording(reference):
    """reference, and the list of node arrays it is called on: one row
    of nodes per quadrature piece, one call per level (per block of
    8192 pieces on a larger level)."""
    calls = []

    def recorded(t, *args, **kwargs):
        calls.append(np.array(t, dtype=float))
        return reference(t, *args, **kwargs)
    return recorded, calls


def recorded_family(name):
    """The family with a recording reference, and the list it records."""
    fam = get_family(name)
    reference, calls = recording(fam.reference)
    return dataclasses.replace(fam, reference=reference), calls


def pieces(nodes):
    """The sorted [lo, hi] of each row of nodes, to 6 digits: the graded
    rule's outer nodes lie within 1.2e-9 times the width of each end."""
    return sorted(map(tuple, np.round(np.c_[nodes.min(axis=1), nodes.max(axis=1)], 6)))


class TestToStairs:
    """The studies' stairs function: one step per interval edge."""

    def test_edge_support(self):
        # The steps are the edges in order: the vertex coordinates are
        # the breakpoints and the cochain's values are the steps.
        fam = get_family("poly_neg10x3_plus_10x2")
        cfg = FracConfig(s=0.3, right_sign="minus")
        (row,) = convergence_study(fam, 0.3, [4], config=cfg)
        cx, deriv = frac_derivative_1d(4, fam, cfg)
        np.testing.assert_array_equal(cx.vertex_coords[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
        want = l2_error_stairs(cx.vertex_coords[:, 0], deriv.values,
                               lambda t: fam.reference(t, 0.3, "minus"))
        assert row["error"] == want

    def test_unknown_support(self):
        # "edge" is the only stairs convention, for either kind of family.
        for name in ("poly_neg10x3_plus_10x2", "exp_x"):
            for support in ("vertex", "barycenter"):
                with pytest.raises(ConfigError, match="unknown stairs support"):
                    convergence_study(get_family(name), 0.5, [4], support=support)


class TestErrorNorms:
    def test_l2_validation(self):
        with pytest.raises(ConfigError, match="one more breakpoint"):
            l2_error_stairs([0.0, 1.0], [1.0, 2.0], lambda t: t)
        for breakpoints in ([0.0, 0.0, 1.0], [0.0, 2.0, 1.0], [0.0, np.nan, 1.0]):
            with pytest.raises(MeshError, match="strictly increasing"):
                l2_error_stairs(breakpoints, [1.0, 2.0], lambda t: t)

    def test_l2_constant_vs_zero(self):
        assert l2_error_stairs([0.0, 1.0], [3.0], lambda t: 0.0) == pytest.approx(3.0, rel=1e-10)

    def test_l2_two_steps_analytic(self):
        # steps 1 on [0,1], 2 on [1,3] against reference t:
        # int_0^1 (1-t)^2 + int_1^3 (2-t)^2 = 1/3 + 2/3 = 1.
        got = l2_error_stairs(np.array([0.0, 1.0, 3.0]), np.array([1.0, 2.0]), lambda t: t)
        assert got == pytest.approx(1.0, rel=1e-9)

    def test_l2_exact_match_is_zero(self):
        got = l2_error_stairs([0.0, 0.5, 1.0], [2.0, 2.0], lambda t: 2.0)
        assert got == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 16, 1024])
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("right_sign", ["plus", "minus"])
    @pytest.mark.parametrize("support", ["edge"])
    def test_l2_matches_quad_oracle(self, n, s, right_sign, support):
        # support is convergence_study's keyword; "edge" is its one value.
        fam = get_family("poly_neg10x3_plus_10x2")
        cfg = FracConfig(s=s, right_sign=right_sign)
        (row,) = convergence_study(fam, s, [n], config=cfg, support=support)
        cx, deriv = frac_derivative_1d(n, fam, cfg)
        want = quad_oracle_l2(cx.vertex_coords[:, 0], deriv.values,
                              lambda t: fam.reference(t, s, right_sign))
        assert row["error"] == pytest.approx(want, rel=1e-10)

    def test_l2_fine_mesh_needs_no_fallback(self):
        # Every step passes the first level: one reference call per norm.
        fam, calls = recorded_family("poly_neg10x3_plus_10x2")
        convergence_study(fam, 0.5, [256, 1024])
        assert [c.shape for c in calls] == [(256, 40), (1024, 40)]

    def test_l2_paper_n2_row_halves_both_steps(self):
        # The paper's n = 2 row: on both half-width steps the 24- and
        # 16-point rules disagree beyond the tolerance, so both are
        # halved; the quarters of [0.5, 1] pass, those of [0, 0.5] are
        # halved once more, and the eighths pass.
        fam, calls = recorded_family("poly_neg10x3_plus_10x2")
        (row,) = convergence_study(fam, 0.5, [2])
        assert [pieces(c) for c in calls] == [
            [(0.0, 0.5), (0.5, 1.0)],
            [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)],
            [(0.0, 0.125), (0.125, 0.25), (0.25, 0.375), (0.375, 0.5)]]
        assert f"{row['error']:.4f}" == "1.5619"

    def test_l2_large_step_needs_no_fallback(self):
        # s = 0.7, "minus", n = 4: the last step's estimate is 1.8e-10 on
        # a value of 10.61, inside the relative part of the threshold,
        # so no step is halved.
        fam, calls = recorded_family("poly_neg10x3_plus_10x2")
        cfg = FracConfig(s=0.7, right_sign="minus")
        (row,) = convergence_study(fam, 0.7, [4], config=cfg, support="edge")
        assert [c.shape for c in calls] == [(4, 40)]
        cx, deriv = frac_derivative_1d(4, fam, cfg)
        want = quad_oracle_l2(cx.vertex_coords[:, 0], deriv.values,
                              lambda t: fam.reference(t, 0.7, "minus"))
        assert row["error"] == pytest.approx(want, rel=1e-10)

    def test_l2_interior_kink_halves_only_its_step(self):
        # sqrt|t - 0.3| has an unbounded derivative inside the second
        # step, which the graded rule cannot resolve; only pieces of
        # that step are halved.
        stairs = ([0.0, 0.25, 0.5, 0.75, 1.0], [0.2, 0.4, 0.5, 0.6])
        ref, calls = recording(lambda t: np.sqrt(np.abs(t - 0.3)))
        got = l2_error_stairs(*stairs, ref)
        assert calls[0].shape == (4, 40) and len(calls) > 1
        for nodes in calls[1:]:
            assert 0.25 < nodes.min() and nodes.max() < 0.5
        assert got == pytest.approx(quad_oracle_l2(*stairs, ref), rel=1e-10)

    def test_l2_jump_matches_quad_oracle(self):
        # A jump inside the second step: its pieces are halved down to
        # the jump, and the rest pass at the first level.
        stairs = ([0.0, 0.25, 0.5, 0.75, 1.0], [0.2, 0.4, 0.5, 0.6])
        ref = lambda t: (t > 0.3) * 1.0
        got = l2_error_stairs(*stairs, ref)
        assert got == pytest.approx(quad_oracle_l2(*stairs, ref), rel=1e-10)

    def test_l2_nan_reference_raises_at_once(self):
        # A NaN never passes the estimate; halving would not end.
        ref, calls = recording(lambda t: np.full(np.shape(t), np.nan))
        with pytest.raises(AccuracyError, match="not finite"):
            l2_error_stairs([0.0, 0.5, 1.0], [1.0, 2.0], ref)
        assert len(calls) == 1

    def test_l2_unresolved_step_raises(self):
        # sin(1/(t - 0.3)) oscillates without end at 0.3: the step
        # around it runs out of its 200 halvings.
        with pytest.raises(AccuracyError, match="200 halvings"):
            l2_error_stairs([0.0, 0.25, 0.5, 0.75, 1.0], [0.2, 0.4, 0.5, 0.6],
                            lambda t: np.sin(1.0 / (t - 0.3)))

    def test_linf_vectors(self):
        # A left-sided study's error is max |derivative - closed form|
        # over the edge barycenters, bit for bit.
        fam = get_family("exp_x")
        cfg = FracConfig(sidedness="left_sided")
        (row,) = convergence_study(fam, 0.5, [4], config=cfg)
        cx, deriv = frac_derivative_1d(4, fam, cfg)
        bary = barycenters(cx, 1)[:, 0]
        np.testing.assert_array_equal(bary, [0.125, 0.375, 0.625, 0.875])
        assert row["error"] == float(np.max(np.abs(deriv.values - fam.reference(bary, 0.5))))


def random_stairs(n, seed):
    """n steps of normal values on sorted uniform breakpoints from 0 to 1."""
    rng = np.random.default_rng(seed)
    breakpoints = np.concatenate([[0.0], np.sort(rng.random(n - 1)), [1.0]])
    return breakpoints, rng.normal(size=n)


_PAPER = get_family("poly_neg10x3_plus_10x2")
# Seven sqrt kinks and six jumps spread over [0, 1], so the halved steps
# fall in several blocks; a scalar and a smooth reference halve none.
_REFERENCES = {
    "kink": lambda t: np.sqrt(np.abs(np.sin(20.0 * t))),
    "jump": lambda t: np.floor(7.0 * t) % 2.0,
    "scalar": lambda t: 0.25,
    "smooth": lambda t: _PAPER.reference(t, 0.5, "plus"),
}


def level_blocks(n):
    """The piece counts of quad's reference calls on a level of n pieces:
    blocks of _L2_BLOCK, a last single piece joining the block before."""
    sizes = [min(_L2_BLOCK, n - start) for start in range(0, n, _L2_BLOCK)]
    if len(sizes) > 1 and sizes[-1] == 1:
        sizes[-2:] = [_L2_BLOCK + 1]
    return sizes


def check_random_stairs(n, name):
    """quad and l2_error_stairs against oracle_quad on n random steps,
    bit for bit: the sums, the norm and the reference calls."""
    breakpoints, values = random_stairs(n, seed=n)
    (got_ref, got_calls), (want_ref, want_calls) = (recording(_REFERENCES[name])
                                                    for _ in range(2))
    got = analysis.quad(got_ref, breakpoints[:-1], breakpoints[1:], values)
    want = oracle_quad(want_ref, breakpoints[:-1], breakpoints[1:], values)
    assert got.tobytes() == want.tobytes()
    assert (l2_error_stairs(breakpoints, values, _REFERENCES[name]).hex()
            == float(np.sqrt(want.sum())).hex())
    # The first level goes in blocks of steps, which together are the
    # oracle's first call; every later level is the oracle's, node for node.
    blocks = len(level_blocks(n))
    assert [len(c) for c in got_calls[:blocks]] == level_blocks(n)
    assert np.concatenate(got_calls[:blocks]).tobytes() == want_calls[0].tobytes()
    assert len(got_calls) - blocks == len(want_calls) - 1
    assert all(g.tobytes() == w.tobytes()
               for g, w in zip(got_calls[blocks:], want_calls[1:]))
    if name in ("kink", "jump"):
        # Pieces are halved, in steps of more than one block where
        # there is more than one.
        steps = np.concatenate([np.searchsorted(breakpoints, c.mean(axis=1)) - 1
                                for c in want_calls[1:]])
        assert steps.size and (blocks == 1 or len(np.unique(steps // _L2_BLOCK)) > 1)


# Several blocks, and levels that end in a single step past a block.
_STAIRS_CASES = [(n, name) for n in (5_000, 20_000, 70_000, _L2_BLOCK + 1, 3 * _L2_BLOCK + 1)
                 for name in sorted(_REFERENCES)]

_ONE_THREAD_PROBE = """
import json, traceback
import test_analysis
failures = {}
for n, name in test_analysis._STAIRS_CASES:
    try:
        test_analysis.check_random_stairs(n, name)
    except AssertionError:
        failures[f"{n}-{name}"] = traceback.format_exc()
print(json.dumps(failures))
"""


@pytest.fixture(scope="module")
def one_thread_failures():
    """check_random_stairs on every case in a fresh interpreter whose BLAS
    has one thread, as the benchmark runs it: the traceback of each case
    that fails.  With several threads, OpenBLAS splits a long level into
    shares that blocks need not match, and a sum may move in its last bit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracdec.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests]),
           **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    proc = subprocess.run([sys.executable, "-c", _ONE_THREAD_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class TestQuadBlocks:
    """analysis.quad against the unblocked loop it replaced, bit for bit."""

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("right_sign", ["plus", "minus"])
    def test_paper_family_bits(self, s, right_sign):
        cfg = FracConfig(s=s, right_sign=right_sign)
        sizes = [2 ** k for k in range(1, 11)]
        rows = convergence_study(_PAPER, s, sizes, config=cfg)
        for n, row in zip(sizes, rows):
            cx, deriv = frac_derivative_1d(n, _PAPER, cfg)
            want = oracle_l2(cx.vertex_coords[:, 0], deriv.values,
                             lambda t: _PAPER.reference(t, s, right_sign))
            assert row["error"].hex() == want.hex(), n

    @pytest.mark.parametrize("n, name", _STAIRS_CASES)
    def test_random_stairs_bits(self, n, name, one_thread_failures):
        assert f"{n}-{name}" not in one_thread_failures, one_thread_failures[f"{n}-{name}"]

    def test_single_block_stairs_bits(self):
        # Up to one block and a piece, quad makes the oracle's calls, so
        # its bits hold under any number of BLAS threads.
        for name in sorted(_REFERENCES):
            check_random_stairs(_L2_BLOCK + 1, name)

    @pytest.mark.parametrize("which", ["n2", "n1024", "kink_block", "jump_block"])
    def test_reference_calls_are_the_oracles(self, which):
        # Up to one block of steps, quad calls the reference on the
        # oracle's nodes, call for call and bit for bit.
        if which.startswith("n"):
            cx, deriv = frac_derivative_1d(int(which[1:]), _PAPER, FracConfig(s=0.5))
            stairs, ref = (cx.vertex_coords[:, 0], deriv.values), _REFERENCES["smooth"]
        else:
            stairs, ref = random_stairs(_L2_BLOCK, seed=3), _REFERENCES[which[:4]]
        bp, values = stairs
        (got_ref, got), (want_ref, want) = recording(ref), recording(ref)
        analysis.quad(got_ref, bp[:-1], bp[1:], values)
        oracle_quad(want_ref, bp[:-1], bp[1:], values)
        assert (len(want) == 1) == (which == "n1024")
        assert [c.shape for c in got] == [c.shape for c in want]
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_one_quad_call_per_norm(self, monkeypatch):
        # Three blocks of steps are still one quad call, as the tracer counts.
        calls = []
        quad_ = analysis.quad
        monkeypatch.setattr(analysis, "quad",
                            lambda *args: calls.append(len(args[3])) or quad_(*args))
        l2_error_stairs(*random_stairs(2 * _L2_BLOCK + 1, seed=1), _REFERENCES["smooth"])
        assert calls == [2 * _L2_BLOCK + 1]

    def test_memory_is_bounded_by_a_block(self):
        # On 2^16 steps the unblocked loop held several (n, 40) float
        # arrays of 20 MiB each at once, 102 MiB traced in all; in blocks
        # of steps the peak is about 18 MiB, the reference's temporaries
        # on one block included, and no more on 2^18 steps.
        n = 2 ** 16
        breakpoints = np.linspace(0.0, 1.0, n + 1)
        values = _PAPER.sample(breakpoints[:-1] + 0.5 / n)
        tracemalloc.start()
        try:
            l2_error_stairs(breakpoints, values, _REFERENCES["smooth"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20


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

    def test_requires_triangle_mesh(self, tmp_path):
        cx = generate_interval_mesh(0, 1, 4)
        with pytest.raises(MeshError):
            whitney_reconstruct(cx, Cochain(1, np.zeros(4)))
        # A triangle mesh embedded in 3D has no planar Whitney lift.
        surface = surface_mesh(tmp_path)
        with pytest.raises(MeshError, match="in the plane"):
            whitney_reconstruct(surface, Cochain(1, np.zeros(surface.n_simplices(1))))

    def test_integer_coordinates_lift_as_floats(self):
        # The integer-coordinate complex of the mesh tests lifts to the
        # field of its float copy, bit for bit.
        g = generate_unit_square_mesh(2)
        coords = (3 * g.vertex_coords).astype(np.int64)
        c = Cochain(1, np.random.default_rng(2).normal(size=g.n_simplices(1)))
        lifted = []
        for xy in (coords, coords * 1.0):
            cx = SimplicialComplex(2, g.simplices, vertex_coords=xy)
            field = whitney_reconstruct(cx, c)
            lifted.append((field.gradients, field.edge_values,
                           eval_at_barycenters(field, cx), edge_integrals(field, cx),
                           field.evaluate(np.arange(3), [[0.5, 0.25]] * 3)))
        assert lifted[0][0].dtype == np.float64
        for got, want in zip(*lifted):
            assert got.tobytes() == want.tobytes()


    def test_cochain_length_checked(self):
        cx = generate_unit_square_mesh(2)
        with pytest.raises(ConfigError):
            whitney_reconstruct(cx, Cochain(1, np.zeros(cx.n_simplices(1) - 1)))

    def test_degenerate_check_is_scale_free(self):
        # A small square is a good mesh; its gradients scale as 1 / h.
        # Far from unit scale det and the edge lengths would under- or
        # overflow unless the triangle is scaled first (RuntimeWarning is
        # an error under pytest's filter).
        base = generate_unit_square_mesh(4)
        rng = np.random.default_rng(3)
        c = Cochain(1, rng.normal(size=base.n_simplices(1)))
        for scale in (1e-300, 1e-170, 1e-160, 1e-7, 1e7, 1e160, 1e300):
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
        for scale in (1e-300, 1e-170, 1e-160, 1.0, 1e160, 1e300):
            sliver = SimplicialComplex.from_simplices(
                2, [(0, 1, 2)],
                vertex_coords=np.array([[0.0, 0.0], [1e8, 0.0], [5e7, 1e-9]]) * scale)
            with pytest.raises(GeometryError, match="degenerate"):
                whitney_reconstruct(sliver, Cochain(1, np.zeros(3)))
        # Coincident corners, which edge lengths read from a file allow.
        for coords in ([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]], [[2.0, 1.0]] * 3):
            pinched = SimplicialComplex.from_simplices(
                2, [(0, 1, 2)], vertex_coords=coords,
                edge_lengths={(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
            with pytest.raises(GeometryError, match="degenerate"):
                whitney_reconstruct(pinched, Cochain(1, np.zeros(3)))

    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_edge_integrals_match_rows_oracle_bitwise(self, n):
        cx = generate_unit_square_mesh(n)
        rng = np.random.default_rng(n)
        for values in (rng.normal(size=cx.n_simplices(1)),
                       np.zeros(cx.n_simplices(1)), -np.zeros(cx.n_simplices(1)),
                       *(half_signed_zeros(rng, cx.n_simplices(1)) for _ in range(10))):
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
        # The adjugate over det rounds unlike LAPACK's inverse: each
        # gradient is held within 8 eps of its triangle's largest one.
        cx, c, field = lifted
        grads, edge_values = oracle_whitney_loop(cx, c)
        scale = np.abs(grads).max(axis=(1, 2))[:, None, None]
        assert np.all(np.abs(field.gradients - grads) <= 8 * np.finfo(float).eps * scale)
        np.testing.assert_array_equal(field.edge_values, edge_values)

    def test_barycenter_values_are_the_stacked_sum(self, lifted):
        # The written-out sum over the three edges is the stack-and-sum
        # form bit for bit, the signs of zeros included.
        cx, c, _ = lifted
        rng = np.random.default_rng(4)
        for values in (c.values, -np.zeros(len(c.values)),
                       half_signed_zeros(rng, len(c.values))):
            field = whitney_reconstruct(cx, Cochain(1, values))
            g = field.gradients
            diff = np.stack([g[:, 1] - g[:, 0], g[:, 2] - g[:, 0], g[:, 2] - g[:, 1]],
                            axis=1)
            want = (field.edge_values[:, :, None] * diff).sum(axis=1) / 3.0
            assert eval_at_barycenters(field, cx).tobytes() == want.tobytes()

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

    def test_matches_numpy_norm(self):
        # sqrt(x x + y y) is np.linalg.norm's bits, with flagged rows,
        # zero rows and -0.0 entries, under either normalization.
        rng = np.random.default_rng(9)
        pred, ref = rng.normal(size=(2, 40, 2)) * np.logspace(-14, 3, 40)[:, None]
        ref[3] = 0.0
        pred[5] = -0.0
        ref[7] = [-0.0, 1e-13]
        pred[11] = ref[11]
        for normalize, norm in (("reference", ref), ("predicted", pred)):
            rel, summary = relative_l2_per_triangle(pred, ref, normalize=normalize)
            denom = np.linalg.norm(norm, axis=1)
            flagged = denom <= 1e-12
            want = np.where(flagged, np.nan,
                            np.linalg.norm(pred - ref, axis=1) / np.where(flagged, 1.0, denom))
            assert rel.tobytes() == want.tobytes()
            assert summary["flagged"] == flagged.sum() > 0
            assert summary["mean"] == float(want[~flagged].mean())

    def test_validation(self):
        with pytest.raises(ConfigError, match="one shape"):
            relative_l2_per_triangle(np.zeros((2, 2)), np.zeros((3, 2)))
        for shape in ((4,), (4, 3), (2, 2, 2)):
            with pytest.raises(ConfigError, match=r"\(T, 2\) arrays"):
                relative_l2_per_triangle(np.zeros(shape), np.zeros(shape))
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

    def test_config_of_another_order_is_refused(self):
        # s and config.s both name the order; the config's was ignored.
        fam = get_family("poly_neg10x3_plus_10x2")
        with pytest.raises(ConfigError, match="s = 0.3 differs from the config's s = 0.7"):
            convergence_study(fam, 0.3, [4], config=FracConfig(s=0.7))
        (row,) = convergence_study(fam, 0.7, [4], config=FracConfig(s=0.7))
        assert row["error"] > 0

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

    def test_s_sweep_builds_one_mesh_per_size(self, monkeypatch):
        fam = get_family("power")
        built = []

        def counting(*args):
            built.append(args)
            return generate_interval_mesh(*args)
        monkeypatch.setattr(mesh, "generate_interval_mesh", counting)
        rows = s_sweep(fam, [0.25, 0.5, 0.75], [32, 64])
        assert built == [(0.0, 1.0, 32), (0.0, 1.0, 64)]
        monkeypatch.undo()
        want = []
        for n in (32, 64):
            for s in (0.25, 0.5, 0.75):
                cx, deriv = frac_derivative_1d(n, fam, FracConfig(s=s))
                bary = barycenters(cx, 1)[:, 0]
                want.append({"n": n, "s": s, "linf_error": float(
                    np.max(np.abs(deriv.values - fam.reference(bary, s))))})
        assert rows == want

    def test_bad_order_fails_before_any_mesh(self, monkeypatch):
        def no_mesh(*args):
            raise AssertionError("a mesh was built")
        monkeypatch.setattr(mesh, "generate_interval_mesh", no_mesh)
        with pytest.raises(ConfigError, match="fractional order"):
            s_sweep(get_family("power"), [0.5, 1.5], [4, 8])

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
