"""Distance tables: shortest paths, boundary offsets, simplex distances."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fracdec import (
    ConfigError,
    ConnectivityError,
    FracConfig,
    GeometryError,
    MeshError,
    SimplicialComplex,
    barycenters,
    build_frac_derivative,
    generate_interval_mesh,
    generate_unit_square_mesh,
)
from fracdec import metric
from fracdec.metric import (
    DistanceTable,
    all_pairs_vertex_distance,
    boundary_offsets,
    simplex_distance,
)

from fracdec.mesh import _norms

from conftest import nonuniform_interval_mesh, nudged_mesh, perturbed_square_mesh, surface_mesh


def _fake_vertex_distances(monkeypatch, entries):
    """Make simplex_distance see the given vertex distance table."""
    table = DistanceTable(p=0, mode="geodesic", entries=entries)
    monkeypatch.setattr(metric, "all_pairs_vertex_distance", lambda cx: table)


def _random_length_mesh(rng, n_edges):
    """Interval topology with random (non-Euclidean) edge lengths."""
    edges = [(i, i + 1) for i in range(n_edges)]
    lengths = {e: float(rng.uniform(0.2, 2.0)) for e in edges}
    return SimplicialComplex.from_simplices(1, edges, edge_lengths=lengths)


def _all_simple_path_distances(complex_):
    """Brute-force shortest path by enumerating every simple path."""
    n = complex_.n_simplices(0)
    adj = {v: [] for v in range(n)}
    for (u, v), w in zip(complex_.simplices[1], complex_.edge_lengths):
        adj[u].append((v, w))
        adj[v].append((u, w))
    best = np.full((n, n), np.inf)
    np.fill_diagonal(best, 0.0)

    def dfs(src, node, acc, visited):
        if acc < best[src, node]:
            best[src, node] = acc
        for nxt, w in adj[node]:
            if nxt not in visited:
                visited.add(nxt)
                dfs(src, nxt, acc + w, visited)
                visited.remove(nxt)

    for src in range(n):
        dfs(src, src, 0.0, {src})
    return best


def oracle_geodesic_table(complex_, p):
    """The original np.ix_ loop over vertex pairs, as the geodesic oracle."""
    dm = all_pairs_vertex_distance(complex_).entries
    simp = complex_.simplices[p]
    offs = boundary_offsets(complex_, p)
    n = len(simp)
    min_pair = np.full((n, n), np.inf)
    for i in range(p + 1):
        for j in range(p + 1):
            np.minimum(min_pair, dm[np.ix_(simp[:, i], simp[:, j])], out=min_pair)
    entries = min_pair + offs[:, None] + offs[None, :]
    entries = np.minimum(entries, entries.T)
    np.fill_diagonal(entries, 0.0)
    return entries


def oracle_euclidean_table(complex_, p):
    """The original broadcast barycenter table, as the euclidean oracle."""
    b = barycenters(complex_, p)
    diff = b[:, None, :] - b[None, :, :]
    entries = np.sqrt((diff ** 2).sum(axis=-1))
    return np.maximum(entries, entries.T)


class TestVertexDistances:
    def test_interval_distances(self):
        cx = generate_interval_mesh(0.0, 1.0, 8)
        d = all_pairs_vertex_distance(cx).entries
        i, j = np.meshgrid(np.arange(9), np.arange(9), indexing="ij")
        np.testing.assert_allclose(d, np.abs(i - j) / 8.0, atol=1e-15)

    def test_symmetry_and_zero_diagonal(self):
        cx = generate_unit_square_mesh(3)
        d = all_pairs_vertex_distance(cx).entries
        np.testing.assert_array_equal(d, d.T)
        np.testing.assert_array_equal(np.diag(d), 0.0)

    def test_matches_brute_force_on_small_square(self):
        cx = generate_unit_square_mesh(2)  # 9 vertices
        d = all_pairs_vertex_distance(cx).entries
        np.testing.assert_allclose(d, _all_simple_path_distances(cx), atol=1e-12)

    def test_dijkstra_vs_floyd_warshall(self, vertex_distance_oracle):
        rng = np.random.default_rng(7)
        meshes = [generate_unit_square_mesh(3), generate_interval_mesh(0, 1, 17),
                  _random_length_mesh(rng, 25)]
        for cx in meshes:
            a = all_pairs_vertex_distance(cx).entries
            b = vertex_distance_oracle(cx).entries
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_triangle_inequality_exhaustive(self):
        for cx in (generate_unit_square_mesh(5), generate_interval_mesh(0, 1, 30)):
            d = all_pairs_vertex_distance(cx).entries
            assert cx.n_simplices(0) <= 200
            # d(i,k) <= d(i,j) + d(j,k) for all triples.
            lhs = d[:, None, :]
            rhs = d[:, :, None] + d[None, :, :]
            assert np.all(lhs <= rhs + 1e-12)

    def test_disconnected_raises(self, vertex_distance_oracle):
        cx = SimplicialComplex.from_simplices(
            1, [(0, 1), (2, 3)],
            edge_lengths={(0, 1): 1.0, (2, 3): 1.0})
        with pytest.raises(ConnectivityError):
            all_pairs_vertex_distance(cx)
        with pytest.raises(ConnectivityError):
            vertex_distance_oracle(cx)

    def test_respects_overridden_lengths(self):
        cx = SimplicialComplex.from_simplices(
            1, [(0, 1), (1, 2), (0, 2)],
            edge_lengths={(0, 1): 1.0, (1, 2): 1.0, (0, 2): 5.0})
        d = all_pairs_vertex_distance(cx).entries
        assert d[0, 2] == pytest.approx(2.0)  # the detour beats the long edge


class TestBoundaryOffsets:
    def test_vertices_zero(self):
        cx = generate_interval_mesh(0, 1, 4)
        np.testing.assert_array_equal(boundary_offsets(cx, 0), 0.0)

    def test_edges_half_length(self):
        cx = generate_interval_mesh(0, 1, 4)
        np.testing.assert_allclose(boundary_offsets(cx, 1), 0.125)

    def test_triangle_offset_value(self):
        cx = SimplicialComplex.from_simplices(
            2, [(0, 1, 2)], vertex_coords=[[0, 0], [1, 0], [0, 1]])
        tri = cx.vertex_coords[cx.simplices[2][0]]
        bary = tri.mean(axis=0)
        mids = [(tri[0] + tri[1]) / 2, (tri[0] + tri[2]) / 2, (tri[1] + tri[2]) / 2]
        expected = np.mean([np.linalg.norm(m - bary) for m in mids])
        assert boundary_offsets(cx, 2)[0] == pytest.approx(expected, rel=1e-14)

    def test_triangle_offsets_are_the_plain_norm(self, oracle_triangle_mesh):
        # At unit scale the offsets are np.linalg.norm's, bit for bit.
        for cx in (oracle_triangle_mesh, generate_unit_square_mesh(5)):
            tris = cx.vertex_coords[cx.simplices[2]]
            bary = tris.mean(axis=1)
            mids = np.stack([(tris[:, 0] + tris[:, 1]) / 2, (tris[:, 0] + tris[:, 2]) / 2,
                             (tris[:, 1] + tris[:, 2]) / 2], axis=1)
            np.testing.assert_array_equal(
                boundary_offsets(cx, 2),
                np.linalg.norm(mids - bary[:, None, :], axis=2).mean(axis=1))

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_triangle_offsets_far_from_unit_scale(self, scale):
        # The squared gaps under- or overflow here; those are rescaled.
        unit = generate_unit_square_mesh(3)
        cx = SimplicialComplex.from_simplices(
            2, unit.simplices[2], vertex_coords=unit.vertex_coords * scale)
        np.testing.assert_allclose(boundary_offsets(cx, 2),
                                   scale * boundary_offsets(unit, 2), rtol=1e-14, atol=0)
        op = build_frac_derivative(cx, 1, FracConfig())
        off = ~np.eye(cx.n_simplices(2), dtype=bool)
        assert np.all(np.isfinite(op.weights)) and np.all(op.weights[off] > 0)

    def test_unknown_degree(self):
        cx = generate_unit_square_mesh(2)
        with pytest.raises(ConfigError):
            boundary_offsets(cx, 3)


class TestBarycenters:
    def test_written_out_sums_are_numpy_means(self, tmp_path):
        # Barycenters and triangle offsets add their columns in numpy's
        # order, so they are its means bit for bit: in 1D, 2D and 3D,
        # on a reflected square whose coordinates include -0.0, and far
        # from unit scale.
        square = generate_unit_square_mesh(5)
        meshes = [square, perturbed_square_mesh(6, seed=1),
                  nonuniform_interval_mesh(17, seed=3), surface_mesh(tmp_path)]
        for coords in (-square.vertex_coords, square.vertex_coords * 1e-160,
                       square.vertex_coords * 1e160):
            meshes.append(SimplicialComplex.from_simplices(
                2, square.simplices[2], vertex_coords=coords))
        assert np.signbit(meshes[4].vertex_coords).any()
        for cx in meshes:
            for p in range(cx.dimension + 1):
                want = cx.vertex_coords[cx.simplices[p]].mean(axis=1)
                assert barycenters(cx, p).tobytes() == want.tobytes()
            if cx.dimension == 2:
                tris = cx.vertex_coords[cx.simplices[2]]
                mids = np.stack([(tris[:, 0] + tris[:, 1]) / 2, (tris[:, 0] + tris[:, 2]) / 2,
                                 (tris[:, 1] + tris[:, 2]) / 2], axis=1)
                with np.errstate(over="ignore", under="ignore"):
                    want = _norms(mids, tris.mean(axis=1)[:, None, :]).mean(axis=1)
                assert boundary_offsets(cx, 2).tobytes() == want.tobytes()

    def test_integer_coordinates_are_read_as_floats(self):
        g = generate_unit_square_mesh(3)
        coords = (7 * g.vertex_coords).astype(np.int64)
        cx = SimplicialComplex(2, g.simplices, vertex_coords=coords)
        floats = SimplicialComplex(2, g.simplices, vertex_coords=coords * 1.0)
        for p in range(3):
            got = barycenters(cx, p)
            assert got.dtype == np.float64
            assert got.tobytes() == barycenters(floats, p).tobytes()


class TestSimplexDistances:
    def test_1d_edge_geodesic_equals_barycenter_gap(self):
        cx = generate_interval_mesh(0.0, 1.0, 16)
        geo = simplex_distance(cx, 1, "geodesic").entries
        b = barycenters(cx, 1)[:, 0]
        np.testing.assert_allclose(geo, np.abs(b[:, None] - b[None, :]), atol=1e-12)

    def test_euclidean_is_barycenter_distance(self):
        cx = generate_unit_square_mesh(3)
        d = simplex_distance(cx, 2, "euclidean").entries
        b = barycenters(cx, 2)
        expected = np.linalg.norm(b[:, None, :] - b[None, :, :], axis=-1)
        np.testing.assert_allclose(d, expected, atol=1e-14)

    def test_geodesic_structure(self):
        cx = generate_unit_square_mesh(3)
        for p in (0, 1, 2):
            d = simplex_distance(cx, p, "geodesic").entries
            np.testing.assert_array_equal(d, d.T)
            np.testing.assert_array_equal(np.diag(d), 0.0)
            off = d[~np.eye(len(d), dtype=bool)]
            assert np.all(off > 0)

    def test_geodesic_vertex_degree_matches_apsp(self):
        cx = generate_unit_square_mesh(2)
        d = simplex_distance(cx, 0, "geodesic").entries
        np.testing.assert_allclose(d, all_pairs_vertex_distance(cx).entries,
                                   atol=1e-14)

    def test_unknown_mode(self):
        cx = generate_interval_mesh(0, 1, 4)
        with pytest.raises(ConfigError):
            simplex_distance(cx, 1, "chebyshev")

    def test_euclidean_needs_embedding(self):
        cx = SimplicialComplex.from_simplices(
            1, [(0, 1), (1, 2)], edge_lengths={(0, 1): 1.0, (1, 2): 1.0})
        with pytest.raises(MeshError):
            simplex_distance(cx, 1, "euclidean")


_LATTICE_MESHES = [
    *(generate_unit_square_mesh(n) for n in (1, 2, 7, 64)),
    *(generate_interval_mesh(a, b, n) for a, b, n in (
        (1e-300, 2e-300, 5), (-1e300, 1e300, 7), (1e-300, 1e300, 64),
        (-3.0, 1e-300, 9), (0.0, 1.0, 64)))]


def _dijkstra_rows(complex_, sources):
    """Shortest-path distances from the sources only, by scipy's Dijkstra,
    so a large lattice needs no all-pairs table."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra
    edges, n = complex_.simplices[1], complex_.n_simplices(0)
    graph = csr_matrix((complex_.edge_lengths, (edges[:, 0], edges[:, 1])), shape=(n, n))
    return dijkstra(graph, directed=False, indices=sources)


def oracle_lattice_rows(complex_, sources):
    """The closed form evaluated entry by entry, for every (source,
    vertex) pair, as the oracle of the lag-table rows."""
    if len(complex_.lattice) == 1:
        x = complex_.vertex_coords[:, 0]
        return np.abs(x[sources, None] - x[None, :])
    m = complex_.lattice[0]
    y, x = np.divmod(np.arange(m * m), m)
    a = x[None, :] - x[sources, None]
    b = y[None, :] - y[sources, None]
    along, across = np.abs(a), np.abs(b)
    short = np.minimum(along, across)
    diagonal = math.sqrt(2.0) * short + np.abs(along - across)
    return np.where(a * b >= 0, diagonal, along + across) / (m - 1)


class TestLatticeDistances:
    """Closed-form vertex distances of generator meshes, against Dijkstra."""

    @pytest.mark.parametrize("cx", [*(generate_unit_square_mesh(n) for n in (1, 2, 7, 40)),
                                    generate_interval_mesh(-3.0, 5.0, 17)],
                             ids=lambda cx: str(cx.lattice))
    def test_lag_table_rows_are_the_closed_form(self, cx):
        # Bit for bit, from unsorted and repeated sources, corners included.
        n = cx.n_simplices(0)
        rng = np.random.default_rng(n)
        sources = np.r_[n - 1, rng.integers(0, n, 25), 0, n - 1, 0]
        got = metric._lattice_rows(cx, sources)(slice(None))
        want = oracle_lattice_rows(cx, sources)
        assert got.shape == (len(sources), n) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cx", _LATTICE_MESHES, ids=lambda cx: str(cx.lattice))
    def test_closed_form_matches_dijkstra(self, cx):
        n = cx.n_simplices(0)
        sources = np.unique(np.r_[np.arange(0, n, 1 + n // 100), n - 1])
        want = _dijkstra_rows(cx, sources)
        got = metric._lattice_rows(cx, sources)(slice(None))
        np.testing.assert_array_equal(got == 0, want == 0)
        np.testing.assert_allclose(got, want, rtol=4e-15, atol=0)

    def test_slabs_need_no_dijkstra(self, monkeypatch):
        # Whole tables and slabs of a lattice mesh are closed form, so
        # a slab is the table's rows bit for bit.
        monkeypatch.setattr(metric, "all_pairs_vertex_distance", None)
        for cx in (generate_unit_square_mesh(5), generate_interval_mesh(-1.0, 2.0, 12)):
            for p in range(cx.dimension + 1):
                whole = simplex_distance(cx, p).entries
                rows = np.array([len(whole) - 1, 0, len(whole) // 2])
                slab = simplex_distance(cx, p, rows=rows).entries
                np.testing.assert_array_equal(slab[np.arange(3), rows], 0.0)
                np.testing.assert_array_equal(slab, whole[rows])


class TestDistanceRows:
    """Rows of a distance table: checked, and on a lattice mesh made
    from lag-table windows with no table of whole vertex rows."""

    @pytest.mark.parametrize("mode", ["geodesic", "euclidean"])
    def test_rows_are_a_1d_integer_index_array(self, mode):
        square = generate_unit_square_mesh(3)
        e = square.n_simplices(1)
        for cx in (square, nudged_mesh(square)):
            for rows in ([], (), np.array([], dtype=np.int32)):
                assert simplex_distance(cx, 1, mode, rows=rows).entries.shape == (0, e)
            for rows in (np.array([e - 1, 0], dtype=np.uint8), np.array([3], dtype=np.int32)):
                np.testing.assert_array_equal(simplex_distance(cx, 1, mode, rows=rows).entries,
                                              simplex_distance(cx, 1, mode).entries[rows])
            for rows in (np.arange(-1, e), [e], np.ones(e, dtype=bool), np.zeros((2, 2), int),
                         [0.0], "0"):
                with pytest.raises(ConfigError, match=r"^rows must be a 1D array of integer "
                                   rf"indices in \[0, {e}\) of the degree-1 simplices$"):
                    simplex_distance(cx, 1, mode, rows=rows)

    def test_lattice_rows_gather_no_vertex_rows(self):
        # The rows the FFT build asks for on an N = 256 square: each edge at
        # lattice row 0 whose cell is at either end of its class's box.  The
        # peak beyond the table returned stays below the (row vertices) x V
        # table that gathering whole vertex rows would need.
        cx = generate_unit_square_mesh(256)
        m, (u, v) = 257, cx.simplices[1].T
        rows = np.flatnonzero((u < m) & ((u == 0) | (u == m - 1 - (v - u) % m)))
        assert len(rows) == 6
        gathered = 8 * len(np.unique(cx.simplices[1][rows])) * cx.n_simplices(0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            table = simplex_distance(cx, 1, "geodesic", rows=rows).entries
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak - table.nbytes < gathered


class TestSimplexDistanceOracles:
    @pytest.mark.parametrize("blocks", [100, metric._BLOCK_ENTRIES])
    def test_euclidean_is_cdist(self, oracle_mesh, monkeypatch, tmp_path, blocks):
        # The per-axis sum in row blocks is cdist's table, sha256 for sha256,
        # in 1D, 2D and 3D.
        from scipy.spatial.distance import cdist
        monkeypatch.setattr(metric, "_BLOCK_ENTRIES", blocks)
        for cx in (oracle_mesh, generate_unit_square_mesh(9),
                   generate_interval_mesh(-2.0, 5.0, 33), surface_mesh(tmp_path)):
            for p in range(cx.dimension + 1):
                b = barycenters(cx, p)
                rows = np.arange(len(b))[::-3]
                for picked, d in ((slice(None), simplex_distance(cx, p, "euclidean")),
                                  (rows, simplex_distance(cx, p, "euclidean", rows=rows))):
                    want = cdist(b[picked], b)
                    assert hashlib.sha256(d.entries).digest() == \
                        hashlib.sha256(want).digest()

    def test_euclidean_1d_keeps_tiny_and_huge_gaps(self):
        # |d| in 1D, where the square of d would underflow or overflow.
        for a, b in ((1e-300, 2e-300), (-1e300, 1e300)):
            cx = generate_interval_mesh(a, b, 4)
            x = barycenters(cx, 1)[:, 0]
            np.testing.assert_array_equal(simplex_distance(cx, 1, "euclidean").entries,
                                          np.abs(x[:, None] - x[None, :]))

    @pytest.mark.parametrize("blocks", [100, metric._BLOCK_ENTRIES])
    def test_euclidean_2d_keeps_tiny_and_huge_gaps(self, monkeypatch, blocks):
        # Far from unit scale the squared gaps under- or overflow; those
        # entries are rescaled, so every table is the scaled unit table.
        monkeypatch.setattr(metric, "_BLOCK_ENTRIES", blocks)
        unit = perturbed_square_mesh(3, seed=3)
        rows = np.array([5, 0, 15])
        for scale in (1e-160, 1e-170, 1e160):
            cx = SimplicialComplex.from_simplices(
                2, unit.simplices[2], vertex_coords=unit.vertex_coords * scale)
            for p in range(3):
                want = scale * simplex_distance(unit, p, "euclidean").entries
                got = simplex_distance(cx, p, "euclidean").entries
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
                np.testing.assert_allclose(
                    simplex_distance(cx, p, "euclidean", rows=rows).entries,
                    want[rows], rtol=1e-14, atol=0)
            op = build_frac_derivative(cx, 0, FracConfig(distance_mode="euclidean"))
            off = ~np.eye(cx.n_simplices(1), dtype=bool)
            assert np.all(np.isfinite(op.weights)) and np.all(op.weights[off] > 0)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_3d_lengths_far_from_unit_scale(self, tmp_path, scale):
        # The 3D surface scaled by 1e-160 or 1e160: its squared gaps under-
        # or overflow, so edge lengths, triangle offsets and Euclidean
        # tables are the unit ones, scaled, only through the rescale.
        unit, cx = surface_mesh(tmp_path), surface_mesh(tmp_path, scale)
        with np.errstate(over="ignore", under="ignore"):
            edges = cx.vertex_coords[cx.simplices[1]]
            assert not np.allclose(np.linalg.norm(edges[:, 1] - edges[:, 0], axis=1),
                                   scale * unit.edge_lengths, rtol=1e-3, atol=0)
        np.testing.assert_allclose(cx.edge_lengths, scale * unit.edge_lengths,
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(boundary_offsets(cx, 2), scale * boundary_offsets(unit, 2),
                                   rtol=1e-14, atol=0)
        for p in range(3):
            np.testing.assert_allclose(simplex_distance(cx, p, "euclidean").entries,
                                       scale * simplex_distance(unit, p, "euclidean").entries,
                                       rtol=1e-14, atol=0)
        op = build_frac_derivative(cx, 0, FracConfig(distance_mode="euclidean"))
        off = ~np.eye(cx.n_simplices(1), dtype=bool)
        assert np.all(np.isfinite(op.weights)) and np.all(op.weights[off] > 0)

    def test_euclidean_bit_identical(self, oracle_mesh):
        for p in range(oracle_mesh.dimension + 1):
            d = simplex_distance(oracle_mesh, p, "euclidean").entries
            assert d.flags.c_contiguous
            np.testing.assert_array_equal(d, oracle_euclidean_table(oracle_mesh, p))
            np.testing.assert_array_equal(d, d.T)

    def test_geodesic_matches_pair_loop(self, oracle_mesh):
        for p in range(oracle_mesh.dimension + 1):
            d = simplex_distance(oracle_mesh, p, "geodesic").entries
            want = oracle_geodesic_table(oracle_mesh, p)
            assert d.flags.c_contiguous
            assert np.linalg.norm(d - want) <= 1e-15 * np.linalg.norm(want)
            np.testing.assert_array_equal(d, d.T)
            np.testing.assert_array_equal(np.diag(d), 0.0)

    def test_row_slabs_match_the_table(self, oracle_mesh):
        for p in range(oracle_mesh.dimension + 1):
            n = oracle_mesh.n_simplices(p)
            rows = np.array([n - 1, 0, n // 2, 0])
            for mode in ("euclidean", "geodesic"):
                whole = simplex_distance(oracle_mesh, p, mode).entries
                slab = simplex_distance(oracle_mesh, p, mode, rows=rows).entries
                assert slab.shape == (4, n) and slab.flags.c_contiguous
                np.testing.assert_array_equal(slab[np.arange(4), rows], 0.0)
                # Geodesic rows come from the same all-pairs vertex table.
                np.testing.assert_array_equal(slab, whole[rows])
                np.testing.assert_array_equal(
                    simplex_distance(oracle_mesh, p, mode, rows=np.arange(n)).entries, whole)

    def test_slab_of_disconnected_complex_raises(self):
        cx = SimplicialComplex.from_simplices(
            1, [(0, 1), (2, 3)], vertex_coords=np.array([[0.0], [1.0], [2.0], [3.0]]))
        with pytest.raises(ConnectivityError, match="unreachable from vertex 0"):
            simplex_distance(cx, 1, "geodesic", rows=np.array([0]))

    def test_geodesic_blocks_do_not_change_the_table(self, monkeypatch):
        cx = generate_unit_square_mesh(4)
        whole = simplex_distance(cx, 1, "geodesic").entries
        monkeypatch.setattr(metric, "_BLOCK_ENTRIES", 100)
        np.testing.assert_array_equal(simplex_distance(cx, 1, "geodesic").entries,
                                      whole)

    def test_infinite_vertex_distance_raises(self, monkeypatch):
        cx = nudged_mesh(generate_interval_mesh(0.0, 1.0, 3))
        dm = all_pairs_vertex_distance(cx).entries.copy()
        # Edges (0, 1) and (2, 3) no longer reach each other.
        dm[:2, 2:] = dm[2:, :2] = np.inf
        _fake_vertex_distances(monkeypatch, dm)
        with pytest.raises(ConnectivityError):
            simplex_distance(cx, 1, "geodesic")

    def test_negative_vertex_distance_raises(self, monkeypatch):
        cx = nudged_mesh(generate_interval_mesh(0.0, 1.0, 3))
        dm = all_pairs_vertex_distance(cx).entries.copy()
        dm[0, 3] = dm[3, 0] = -1.0
        _fake_vertex_distances(monkeypatch, dm)
        with pytest.raises(GeometryError):
            simplex_distance(cx, 1, "geodesic")
