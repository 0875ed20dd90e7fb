"""Simplicial complex construction, coboundary, and file formats."""

import dataclasses
import hashlib
import itertools
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from fracdec import (
    Cochain,
    ConfigError,
    FormatError,
    GeometryError,
    MeshError,
    SimplicialComplex,
    build_coboundary,
    generate_interval_mesh,
    generate_unit_square_mesh,
    load_json,
    load_off,
    save_json,
    save_off,
)
from fracdec import mesh as mesh_module

from conftest import (
    dense_coboundary,
    nonuniform_interval_mesh,
    perturbed_square_mesh,
    surface_mesh,
)


class TestGenerators:
    def test_interval_counts_and_coords(self):
        cx = generate_interval_mesh(0.0, 1.0, 8)
        assert cx.dimension == 1
        assert cx.n_simplices(0) == 9 and cx.n_simplices(1) == 8
        np.testing.assert_allclose(cx.vertex_coords[:, 0], np.linspace(0, 1, 9))
        np.testing.assert_allclose(cx.edge_lengths, 0.125)

    def test_interval_arbitrary_domain(self):
        cx = generate_interval_mesh(-2.0, 3.0, 10)
        np.testing.assert_allclose(cx.edge_lengths, 0.5)

    def test_long_edges_do_not_overflow(self):
        # The squared differences of these edges overflow; their lengths do not.
        with np.errstate(over="raise"):
            cx = generate_interval_mesh(0.0, 1e308, 16)
            tilted = SimplicialComplex.from_simplices(
                1, [(0, 1), (1, 2)],
                vertex_coords=np.array([[0.0, 0.0], [3e200, -4e200], [3e200, -3e200]]))
        np.testing.assert_array_equal(cx.edge_lengths, np.diff(cx.vertex_coords[:, 0]))
        np.testing.assert_allclose(tilted.edge_lengths, [5e200, 1e200], rtol=1e-15)

    def test_short_edges_do_not_underflow(self):
        # The squared differences of these edges are subnormal or zero.
        with np.errstate(under="raise"):
            cx = generate_interval_mesh(1e-300, 2e-300, 5)
            tilted = SimplicialComplex.from_simplices(
                1, [(0, 1), (1, 2)],
                vertex_coords=np.array([[0.0, 0.0], [3e-200, -4e-200], [3e-200, -3e-200]]))
        np.testing.assert_array_equal(cx.edge_lengths, np.diff(cx.vertex_coords[:, 0]))
        np.testing.assert_allclose(cx.edge_lengths, 2e-301, rtol=1e-15)
        np.testing.assert_allclose(tilted.edge_lengths, [5e-200, 1e-200], rtol=1e-15)
        assert cx.lattice == (6,)

    def test_integer_coordinates_are_read_as_floats(self):
        # A complex built directly from integer coordinates has the edge
        # lengths of their float copy.
        g = generate_unit_square_mesh(2)
        coords = (3 * g.vertex_coords).astype(np.int64)
        got = SimplicialComplex(2, g.simplices, vertex_coords=coords).edge_lengths
        np.testing.assert_array_equal(
            got, SimplicialComplex(2, g.simplices, vertex_coords=coords * 1.0).edge_lengths)

    def test_edge_lengths_are_the_plain_norm(self, oracle_mesh, tmp_path):
        # Where the plain norm is finite, the lengths are it, bit for bit,
        # in 1D, 2D and 3D.
        for cx in (oracle_mesh, generate_interval_mesh(-2.0, 3.0, 7),
                   generate_unit_square_mesh(5), surface_mesh(tmp_path)):
            edges = cx.simplices[1]
            diff = cx.vertex_coords[edges[:, 1]] - cx.vertex_coords[edges[:, 0]]
            np.testing.assert_array_equal(cx._euclidean_edge_lengths(),
                                          np.linalg.norm(diff, axis=1))

    @pytest.mark.parametrize("coords, length", [
        ([[0, 0], [1, 0]], 1.0), ([[0, 0, 0], [0, 1, 0]], 1.0),
        ([[2e-300, 0, 0], [2e-300, 0, 1e-300]], 1e-300)])  # redone, scaled
    def test_one_edge_in_the_plane_and_in_space(self, coords, length):
        # A one-row edge table: its axis of length 1 is not broadcast.
        cx = SimplicialComplex.from_simplices(1, [[0, 1]], coords)
        np.testing.assert_array_equal(cx.edge_lengths, [length])

    @pytest.mark.parametrize("a, b", [
        (0.0, 1.0), (-1.0, 2.0), (0.1, 0.3), (-0.0, 1.0), (0, 1), (-3, 7),
        (1e-300, 2e-300), (-1e300, 1e300), (0.0, 1e308),
        # A step that underflows to 0, and a width that overflows.
        (0.0, 5e-324), (-5e-324, 5e-324), (-1.7e308, 1.7e308)])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1000])
    def test_interval_coordinates_are_linspace(self, a, b, n):
        # Written without np.linspace, but with its bits (nan included).
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.linspace(a, b, n + 1)
            got = mesh_module._generator_tables((n + 1,), a, b)[0]
        assert got.shape == (n + 1, 1) and got.dtype == np.float64
        assert got[:, 0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 2048])
    def test_interval_tables_as_from_tuples(self, n):
        # The numpy edge table gives the tables of the old tuple list.
        def digest(cx):
            return [hashlib.sha256(t.tobytes() + str((t.dtype, t.shape)).encode())
                    .hexdigest() for _, t in sorted(cx.simplices.items())]
        cx = generate_interval_mesh(0.0, 1.0, n)
        tuples = SimplicialComplex.from_simplices(
            1, [(i, i + 1) for i in range(n)],
            vertex_coords=np.linspace(0.0, 1.0, n + 1).reshape(-1, 1))
        assert digest(cx) == digest(tuples)

    def test_lattice_from_content(self, tmp_path):
        # A file, a rebuild or a copy of a generator mesh has its content,
        # so it is a lattice mesh too.
        line, square = generate_interval_mesh(-1.0, 2.0, 5), generate_unit_square_mesh(3)
        assert (line.lattice, square.lattice) == ((6,), (4, 4))
        save_json(line, tmp_path / "l.json")
        save_json(square, tmp_path / "s.json")
        save_off(square, tmp_path / "s.off")
        rebuilt = SimplicialComplex.from_simplices(
            2, square.simplices[2][::-1, ::-1], vertex_coords=square.vertex_coords)
        for cx, lattice in ((load_json(tmp_path / "l.json"), (6,)),
                            (load_json(tmp_path / "s.json"), (4, 4)),
                            (load_off(tmp_path / "s.off"), (4, 4)),
                            (rebuilt, (4, 4)), (dataclasses.replace(line), (6,))):
            assert cx.lattice == lattice

    def test_interval_validation(self):
        with pytest.raises(ConfigError):
            generate_interval_mesh(1.0, 0.0, 4)
        for a, b in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)):
            with pytest.raises(ConfigError, match="finite a < b"):
                generate_interval_mesh(a, b, 4)
        with pytest.raises(ConfigError):
            generate_interval_mesh(0.0, 1.0, 0)

    @pytest.mark.parametrize("a, b", [(-1.7e308, 1.7e308), (-1e308, 1e308)])
    def test_interval_width_must_be_finite(self, a, b):
        # Finite ends whose width b - a overflows are refused as well,
        # before any array is made and with no floating-point warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="overflows a float"):
                generate_interval_mesh(a, b, 3)

    @pytest.mark.parametrize("a, b", [(0, 10 ** 400), (-10 ** 400, 0),
                                      (10 ** 400, 10 ** 401), (-10 ** 401, -10 ** 400),
                                      (0.0, 2 ** 1024)],
                             ids=["b_1e400", "a_-1e400", "both_above", "both_below",
                                  "b_2^1024"])
    def test_interval_ends_past_the_float_range(self, a, b):
        # An int end compares exactly, so it passes the finite-ends check
        # however large; one no float can hold is refused in one line,
        # before any float arithmetic and with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="fit in a float") as err:
                generate_interval_mesh(a, b, 3)
        assert "\n" not in str(err.value)

    def test_int_ends_in_the_float_range_are_floats(self):
        # An int end that a float holds builds the mesh of its float.
        got = generate_interval_mesh(-3, 2 ** 1023, 4)
        want = generate_interval_mesh(-3.0, 2.0 ** 1023, 4)
        assert got.vertex_coords.tobytes() == want.vertex_coords.tobytes()

    def test_top_table_kept_as_given(self):
        # A C-contiguous int64 top table in key order is the complex's
        # own; any other is copied, and the caller's array is not sorted.
        edges = np.array([[0, 1], [1, 2], [2, 3]])
        assert np.shares_memory(SimplicialComplex.from_simplices(
            1, edges, vertex_coords=np.arange(4.0)[:, None]).simplices[1], edges)
        for tops in (edges[::-1], edges[:, ::-1], edges.astype(np.int32)):
            given = tops.copy()
            cx = SimplicialComplex.from_simplices(1, tops,
                                                  vertex_coords=np.arange(4.0)[:, None])
            assert not np.shares_memory(cx.simplices[1], tops)
            np.testing.assert_array_equal(tops, given)
            np.testing.assert_array_equal(cx.simplices[1], edges)

    def test_square_counts(self):
        n = 3
        cx = generate_unit_square_mesh(n)
        assert cx.dimension == 2
        assert cx.n_simplices(0) == (n + 1) ** 2
        assert cx.n_simplices(2) == 2 * n * n
        # Euler-consistent edge count for a disk-like triangulation.
        assert cx.n_simplices(1) == cx.n_simplices(0) + cx.n_simplices(2) - 1

    def test_simplices_sorted_and_increasing(self):
        cx = generate_unit_square_mesh(2)
        for p in (1, 2):
            t = cx.simplices[p]
            assert np.all(t[:, :-1] < t[:, 1:])
            assert all(tuple(t[i]) < tuple(t[i + 1]) for i in range(len(t) - 1))


def _bits(x):
    return x.shape, x.dtype, x.tobytes()


class TestGeneratorsMatchRebuild:
    """The generators' top tables are in key order, so from_simplices
    keeps them unsorted; the mesh is, field by field, the rebuild of its
    own tops listed in reverse, each reversed, which it must sort."""

    @staticmethod
    def check(cx, lattice):
        tops = cx.simplices[cx.dimension][::-1, ::-1]
        rebuilt = SimplicialComplex.from_simplices(
            cx.dimension, tops, vertex_coords=cx.vertex_coords)
        assert list(cx.simplices) == list(rebuilt.simplices) == \
            list(range(cx.dimension, -1, -1))
        for p, table in rebuilt.simplices.items():
            got = cx.simplices[p]
            assert got.dtype == np.int64 and got.flags.c_contiguous
            np.testing.assert_array_equal(got, table)
        assert list(cx.facets) == list(rebuilt.facets)
        for p, rows in rebuilt.facets.items():
            got = cx.facets[p]
            assert got.dtype == np.int64 and not got.flags.writeable
            np.testing.assert_array_equal(got, rows)
        assert _bits(cx.vertex_coords) == _bits(rebuilt.vertex_coords)
        assert _bits(cx.edge_lengths) == _bits(rebuilt.edge_lengths)
        assert cx.lattice == rebuilt.lattice == lattice
        assert not cx.lengths_overridden and not rebuilt.lengths_overridden

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1e300, 1e300), (1e-100, 2e-100)])
    @pytest.mark.parametrize("n", [1, 2, 3, 1024])
    def test_interval(self, a, b, n):
        self.check(generate_interval_mesh(a, b, n), (n + 1,))

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 32])
    def test_square(self, n):
        self.check(generate_unit_square_mesh(n), (n + 1, n + 1))


class TestGeneratorSizes:
    """A generator size is an integer of at least 1 whose top keys fit
    in an int64 and whose mesh fits in memory, checked before any table
    is made."""

    @pytest.mark.parametrize("build, size", [
        (lambda n: generate_interval_mesh(0.0, 1.0, n), 2.5),
        (lambda n: generate_interval_mesh(0.0, 1.0, n), 4.0),
        (lambda n: generate_interval_mesh(0.0, 1.0, n), True),
        (lambda n: generate_interval_mesh(0.0, 1.0, n), "3"),
        (generate_unit_square_mesh, 4.0), (generate_unit_square_mesh, True),
        (generate_unit_square_mesh, np.True_), (generate_unit_square_mesh, None),
        (generate_unit_square_mesh, np.float64(2.0))])
    def test_non_integer_sizes_refused(self, build, size):
        with pytest.raises(ConfigError, match=f"must be an integer, got {re.escape(repr(size))}"):
            build(size)

    def test_numpy_integers_accepted(self):
        for size in (np.int32(3), np.uint64(3), np.int64(3)):
            assert generate_unit_square_mesh(size).lattice == (4, 4)
            assert generate_interval_mesh(0.0, 1.0, size).lattice == (4,)

    def test_key_limit(self, monkeypatch):
        # Keys of the top simplices need V^(dim+1) < 2^63: a square of
        # N = 1447 passes the size check, N = 1448 does not.
        def no_tables(*args):
            raise AssertionError("a generator table was made")
        monkeypatch.setattr(mesh_module, "_generator_tables", no_tables)
        monkeypatch.setattr(mesh_module, "_memory_budget", lambda: None)
        with pytest.raises(AssertionError, match="table was made"):
            generate_unit_square_mesh(1447)
        with pytest.raises(ConfigError, match="2099601 vertices, too many to index "
                                              "degree-2 simplices"):
            generate_unit_square_mesh(1448)
        with pytest.raises(ConfigError, match="too many to index degree-1 simplices"):
            generate_interval_mesh(0.0, 1.0, 3037000500)

    @pytest.mark.parametrize("build, kept", [
        # 8 bytes for each of 2 V + 5 E entries (interval) or
        # 3 V + 5 E + 6 T (square): tables, facet rows, coordinates, lengths.
        (lambda: generate_interval_mesh(0.0, 1.0, 4), 8 * (2 * 5 + 5 * 4)),
        (lambda: generate_unit_square_mesh(2), 8 * (3 * 9 + 5 * 16 + 6 * 8))])
    def test_memory_refusal_threshold(self, monkeypatch, build, kept):
        # The guard counts the build's peak, below twice what the mesh keeps.
        need = 2 * kept
        monkeypatch.setattr(mesh_module, "_memory_budget", lambda: need)
        build()
        monkeypatch.setattr(mesh_module, "_memory_budget", lambda: need - 1)
        with pytest.raises(ConfigError, match="GiB to build its mesh, more than the"):
            build()

    @pytest.mark.parametrize("build", [lambda: generate_interval_mesh(0.0, 1.0, 2 ** 16),
                                       lambda: generate_unit_square_mesh(128)],
                             ids=["interval", "square"])
    def test_guard_counts_the_build_peak(self, monkeypatch, build):
        # A mesh the guard passes must not run out of memory in its build:
        # the bytes the guard counts cover the build's tracemalloc peak.
        counted = []
        check = mesh_module._check_memory

        def record(need, *args):
            counted.append(need)
            check(need, *args)
        monkeypatch.setattr(mesh_module, "_check_memory", record)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            build()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(counted) == 1
        assert peak <= counted[0]


def oracle_unique_faces(dimension, tops):
    """Every table and facet row of the complex spanned by these tops, by
    np.unique on facet rows: table p - 1 is the distinct rows of table
    p's facets (row r, slot k: row r without its vertex k), and the
    facet rows are np.unique's inverse."""
    tables = {dimension: np.unique(np.sort(tops, axis=1), axis=0)}
    facets = {}
    for p in range(dimension, 0, -1):
        rows = np.stack([np.delete(tables[p], k, axis=1) for k in range(p + 1)], axis=1)
        tables[p - 1], inverse = np.unique(rows.reshape(-1, p), axis=0, return_inverse=True)
        facets[p] = inverse.reshape(-1, p + 1)
    return tables, facets


def kuhn_cube_mesh(n):
    """Vertex coordinates and tetrahedra of [0, 1]^3 cut into n^3 cubes,
    each split into the 6 tetrahedra that run from its lower corner to
    its upper one along the axes in some order (Kuhn's triangulation)."""
    ticks = np.arange(n + 1) / n
    coords = np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"), -1).reshape(-1, 3)
    step = np.array([(n + 1) ** 2, n + 1, 1])
    tets = []
    for corner in itertools.product(range(n), repeat=3):
        for order in itertools.permutations(range(3)):
            at = np.array(corner)
            path = [at @ step]
            for axis in order:
                at = at + np.eye(3, dtype=int)[axis]
                path.append(at @ step)
            tets.append(path)
    return coords, np.array(tets)


class TestFacesMatchUniqueOracle:
    """from_simplices derives its lower tables and facet rows from one
    sort of the facet keys; np.unique on the facet rows must give the
    same tables and rows, for complexes relabelled and shuffled."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["interval", "square", "moved square", "cubes"])
    def test_shuffled_relabelled(self, name, seed):
        if name == "cubes":
            coords, tops = kuhn_cube_mesh(2)
        else:
            cx = {"interval": lambda: generate_interval_mesh(0.0, 1.0, 13),
                  "square": lambda: generate_unit_square_mesh(6),
                  "moved square": lambda: perturbed_square_mesh(5, seed=seed)}[name]()
            coords, tops = cx.vertex_coords, cx.simplices[cx.dimension]
        dimension = tops.shape[1] - 1
        rng = np.random.default_rng(seed)
        label = rng.permutation(len(coords))
        relabelled = rng.permuted(label[tops[rng.permutation(len(tops))]], axis=1)
        moved = np.empty_like(coords)
        moved[label] = coords
        got = SimplicialComplex.from_simplices(dimension, relabelled, vertex_coords=moved)
        tables, facets = oracle_unique_faces(dimension, relabelled)
        assert got.dimension == dimension
        assert sorted(got.simplices) == sorted(tables) == list(range(dimension + 1))
        for p, table in tables.items():
            assert got.simplices[p].dtype == np.int64
            np.testing.assert_array_equal(got.simplices[p], table)
        assert sorted(got.facets) == sorted(facets)
        for p, rows in facets.items():
            np.testing.assert_array_equal(got.facets[p], rows)


def oracle_faces(simplex):
    """All proper faces of a vertex tuple, as sorted tuples."""
    out = []
    for k in range(1, len(simplex)):
        out.extend(itertools.combinations(simplex, k))
    return out


def oracle_check_closure(simplices):
    """The original tuple-set closure check of a complex's tables."""
    known = {tuple(row) for table in simplices.values() for row in table}
    for table in simplices.values():
        for row in table:
            for face in oracle_faces(tuple(row)):
                if face not in known:
                    raise MeshError(f"face {face} of {tuple(row)} is missing")


def oracle_simplex_tables(dimension, top_simplices, n_vertices):
    """The original tuple-and-set construction of every simplex table."""
    tables = {dimension: sorted({tuple(sorted(s)) for s in top_simplices})}
    for p in range(dimension - 1, 0, -1):
        faces = {f for s in tables[p + 1] for f in itertools.combinations(s, p + 1)}
        tables[p] = sorted(faces)
    tables[0] = [(v,) for v in range(n_vertices)]
    return {p: np.asarray(t, dtype=int).reshape(len(t), p + 1)
            for p, t in tables.items()}


def assert_oracle_tables(cx, top_simplices):
    """cx's tables equal the oracle's for these tops: values, int64, C order."""
    want = oracle_simplex_tables(cx.dimension, top_simplices, cx.n_simplices(0))
    assert list(cx.simplices) == list(want)
    for p, table in want.items():
        got = cx.simplices[p]
        assert got.dtype == np.int64 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, table)


def _square_with(cx, tops=None, coords=None):
    """A copy of a square mesh with other top simplices or coordinates."""
    return SimplicialComplex.from_simplices(
        2, cx.simplices[2] if tops is None else tops,
        vertex_coords=cx.vertex_coords if coords is None else coords)


class TestLatticeRecognition:
    """lattice is set exactly for the generators' content, bit for bit."""

    @pytest.mark.parametrize("a, b, n", [
        (0.0, 1.0, 1), (-0.0, 1.0, 3), (-1.0, 2.0, 7), (0.1, 0.3, 1000),
        (1e-100, 2e-100, 5), (-1e300, 1e300, 4), (0.0, 1e308, 16)])
    def test_generated_intervals(self, a, b, n):
        assert generate_interval_mesh(a, b, n).lattice == (n + 1,)

    @pytest.mark.parametrize("direction", [-np.inf, np.inf])
    def test_one_ulp_off_is_dense(self, direction):
        line = generate_interval_mesh(-1.0, 2.0, 7)
        for v in range(1, 7):
            coords = line.vertex_coords.copy()
            coords[v, 0] = np.nextafter(coords[v, 0], direction)
            moved = SimplicialComplex.from_simplices(1, line.simplices[1],
                                                     vertex_coords=coords)
            assert moved.lattice is None
        square = generate_unit_square_mesh(3)
        for v, axis in itertools.product(range(16), range(2)):
            coords = square.vertex_coords.copy()
            coords[v, axis] = np.nextafter(coords[v, axis], direction)
            assert _square_with(square, coords=coords).lattice is None

    def test_flipped_diagonal_is_dense(self):
        # Cell 4 of a 3-by-3 square split along its other diagonal.
        square = generate_unit_square_mesh(3)
        ll, n = 5, 3
        tops = square.simplices[2].copy()
        tops[8:10] = [[ll, ll + 1, ll + n + 1], [ll + 1, ll + n + 1, ll + n + 2]]
        flipped = _square_with(square, tops=tops)
        assert flipped.n_simplices(1) == square.n_simplices(1)
        assert flipped.lattice is None

    def test_explicit_edge_lengths_are_dense(self, tmp_path):
        # The generator's own lengths, but given in the file.
        line = generate_interval_mesh(0.0, 1.0, 6)
        save_json(line, tmp_path / "l.json")
        doc = json.loads((tmp_path / "l.json").read_text())
        doc["edge_lengths"] = {f"{i},{j}": float(length) for (i, j), length
                               in zip(line.simplices[1].tolist(), line.edge_lengths)}
        (tmp_path / "l.json").write_text(json.dumps(doc))
        loaded = load_json(tmp_path / "l.json")
        assert loaded.lengths_overridden
        np.testing.assert_array_equal(loaded.edge_lengths, line.edge_lengths)
        assert loaded.lattice is None

    def test_supplied_lengths_one_ulp_off_are_dense(self):
        # Within the embedding tolerance, so accepted, but not the bits.
        square = generate_unit_square_mesh(2)
        assert dataclasses.replace(square).lattice == (3, 3)
        off = dataclasses.replace(
            square, edge_lengths=np.nextafter(square.edge_lengths, np.inf))
        assert not off.lengths_overridden and off.lattice is None

    def test_relabelled_vertices_are_dense(self):
        # The same geometry under other vertex labels.
        for cx in (generate_interval_mesh(0.0, 1.0, 6), generate_unit_square_mesh(3)):
            n = cx.n_simplices(0)
            relabel = np.random.default_rng(n).permutation(n)
            coords = np.empty_like(cx.vertex_coords)
            coords[relabel] = cx.vertex_coords
            moved = SimplicialComplex.from_simplices(
                cx.dimension, relabel[cx.simplices[cx.dimension]], vertex_coords=coords)
            assert moved.lattice is None

    def test_width_past_the_largest_float_is_dense(self):
        # generate_interval_mesh refuses these ends, so no mesh on them is
        # its mesh; recognition says so without a floating-point warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide = SimplicialComplex.from_simplices(
                1, [[0, 1], [1, 2]], vertex_coords=[[-1e308], [0.0], [1e308]])
        assert wide.lattice is None

    def test_nonzero_z_is_dense(self, tmp_path):
        square = generate_unit_square_mesh(3)
        save_off(square, tmp_path / "s.off")
        lines = (tmp_path / "s.off").read_text().splitlines()
        for i in range(2, 2 + square.n_simplices(0)):
            lines[i] = lines[i].rsplit(" ", 1)[0] + " 0.5"
        (tmp_path / "s.off").write_text("\n".join(lines) + "\n")
        lifted = load_off(tmp_path / "s.off")
        assert lifted.vertex_coords.shape == (16, 3) and lifted.lattice is None


class TestTablesMatchOracle:
    def test_oracle_meshes(self, oracle_mesh):
        top = oracle_mesh.simplices[oracle_mesh.dimension]
        assert_oracle_tables(oracle_mesh, top.tolist())

    @pytest.mark.parametrize("n", [1, 2, 1024, 2048])
    def test_interval(self, n):
        cx = generate_interval_mesh(0.0, 1.0, n)
        assert_oracle_tables(cx, [(i, i + 1) for i in range(n)])

    @pytest.mark.parametrize("n", [1, 8, 32])
    def test_square(self, n):
        cx = generate_unit_square_mesh(n)
        # Each top listed in reverse, in reverse table order.
        tops = cx.simplices[2][::-1, ::-1].tolist()
        assert_oracle_tables(cx, tops)
        again = SimplicialComplex.from_simplices(2, tops, vertex_coords=cx.vertex_coords)
        assert_oracle_tables(again, tops)


class TestValidation:
    def test_missing_face_rejected(self):
        simplices = {
            0: np.array([[0], [1], [2]]),
            1: np.array([[0, 1], [0, 2]]),  # edge (1,2) missing
            2: np.array([[0, 1, 2]]),
        }
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="not in the complex"):
            SimplicialComplex(2, simplices, vertex_coords=coords)

    @pytest.mark.parametrize("missing", [None, (1, 2), (0, 1), (2,), (0,)])
    def test_closure_matches_oracle(self, missing):
        full = {0: [[0], [1], [2], [3]], 1: [[0, 1], [0, 2], [1, 2], [2, 3]],
                2: [[0, 1, 2]]}
        simplices = {p: np.array([r for r in t if tuple(r) != missing])
                     for p, t in full.items()}
        lengths = np.ones(len(simplices[1]))
        if missing is None:
            oracle_check_closure(simplices)
            SimplicialComplex(2, simplices, edge_lengths=lengths)
            return
        with pytest.raises(MeshError, match="is missing"):
            oracle_check_closure(simplices)
        # Without a vertex, the vertex table itself is refused.
        message = r"vertex table must be 0, 1, \.\.\., 2" if len(missing) == 1 \
            else "not in the complex"
        with pytest.raises(MeshError, match=message):
            SimplicialComplex(2, simplices, edge_lengths=lengths)

    # Direct construction checks the table invariant: vertices 0..n-1,
    # every table strictly increasing in its row keys, one coordinate
    # row per vertex.
    @pytest.mark.parametrize("vertices, edges, coords, message", [
        ([0, 1, 2], [[1, 2], [0, 1]], 3, "degree-1 table must be sorted"),
        ([0, 1, 2], [[0, 1], [0, 1], [1, 2]], 3, "degree-1 table must be sorted"),
        ([2, 0, 1], [[0, 1], [1, 2]], 3, "degree-0 table must be sorted"),
        ([0, 1, 1, 2], [[0, 1], [1, 2]], 4, "degree-0 table must be sorted"),
        ([0, 1, 3], [[0, 1], [1, 3]], 3, r"vertex table must be 0, 1, \.\.\., 2"),
        ([1, 2, 3], [[1, 2], [2, 3]], 3, r"vertex table must be 0, 1, \.\.\., 2"),
        ([0, 1, 2], [[0, 1], [1, 5]], 3, r"\(5,\) is not in the complex"),
        ([0, 1, 2], [[0, 1], [1, 2]], 2, "2 vertex coordinates for 3 vertices"),
        ([0, 1, 2], [[0, 1], [1, 2]], 4, "4 vertex coordinates for 3 vertices"),
    ], ids=["unsorted", "duplicate-row", "permuted-vertices", "duplicate-vertex",
            "vertex-gap", "vertices-from-1", "edge-beyond-vertices",
            "too-few-coords", "too-many-coords"])
    def test_table_invariant_enforced(self, vertices, edges, coords, message):
        simplices = {0: np.array(vertices).reshape(-1, 1), 1: np.array(edges)}
        xs = np.arange(coords, dtype=float).reshape(-1, 1)
        with pytest.raises(MeshError, match=message):
            SimplicialComplex(1, simplices, vertex_coords=xs)
        with pytest.raises(MeshError, match=message):
            SimplicialComplex(1, simplices, vertex_coords=xs,
                              edge_lengths=np.ones(len(edges)))

    @pytest.mark.parametrize("edges", [np.array([[0.5, 1.0]]), np.empty((0, 2)),
                                       np.array([[0, 1, 2]])])
    def test_table_of_wrong_type_or_width_rejected(self, edges):
        simplices = {0: np.array([[0], [1]]), 1: edges}
        with pytest.raises(MeshError, match="degree-1 table must be integers in 2 columns"):
            SimplicialComplex(1, simplices, edge_lengths=np.ones(len(edges)))

    def test_unsorted_table(self):
        # Tables are kept in key order, so the facet search never sorts;
        # a complex built with a table out of order is rejected instead.
        simplices = {0: np.array([[0], [1], [2]]),
                     1: np.array([[1, 2], [0, 1], [0, 2]]),
                     2: np.array([[0, 1, 2]])}
        with pytest.raises(MeshError, match="degree-1 table must be sorted"):
            SimplicialComplex(2, simplices,
                              vertex_coords=np.array([[0.0, 0.0], [1.0, 0.0],
                                                      [0.0, 1.0]]))

    # An edge with a vertex outside 0..8 of a 9-vertex interval; (0, 11)
    # has the same base-9 key as the edge (1, 2).
    @pytest.mark.parametrize("row", [(-1, 0), (2, 9), (0, 11)])
    def test_edge_beyond_the_vertex_table(self, row):
        cx = generate_interval_mesh(0.0, 1.0, 8)
        simplices = {0: cx.simplices[0], 1: np.vstack([cx.simplices[1], row])}
        with pytest.raises(MeshError, match="is not in the complex"):
            SimplicialComplex(1, simplices, vertex_coords=cx.vertex_coords)

    # Plain base-4 keys 11, 7 and 1 of the facets (1, 7), (0, 7) and
    # (0, 1) of the triangle (0, 1, 7) are the keys of the edges (2, 3),
    # (1, 3) and (0, 1): only the range check refuses it.
    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
    def test_triangle_whose_facet_keys_alias_edges(self, dtype):
        simplices = {0: np.arange(4)[:, None],
                     1: np.array([[0, 1], [1, 3], [2, 3]], dtype=dtype),
                     2: np.array([[0, 1, 7]], dtype=dtype)}
        with pytest.raises(MeshError, match=r"simplex \(7,\) is not in the complex"):
            SimplicialComplex(2, simplices, edge_lengths=np.ones(3))

    def test_nonincreasing_simplex_rejected(self):
        simplices = {0: np.array([[0], [1]]), 1: np.array([[1, 0]])}
        with pytest.raises(MeshError):
            SimplicialComplex(1, simplices, edge_lengths=np.array([1.0]))

    @pytest.mark.parametrize("coords, lengths, message", [
        ([[0.0], [np.nan], [2.0]], {(0, 1): 1.0, (1, 2): 1.0}, "must be finite"),
        ([[0.0, 0.0], [1.0, np.inf], [2.0, 0.0]], {(0, 1): 1.0, (1, 2): 1.0},
         "must be finite"),
        ([[0.0], [np.inf], [2.0]], None, "must be finite"),
        ([[], [], []], None, r"d >= 1, not of shape \(3, 0\)"),
        ([0.0, 1.0, 2.0], None, r"d >= 1, not of shape \(3,\)"),
        ([[[0.0]], [[1.0]], [[2.0]]], None, r"d >= 1, not of shape \(3, 1, 1\)"),
        (5.0, None, r"d >= 1, not of shape \(\)"),
    ], ids=["nan-with-lengths", "inf-with-lengths", "inf", "no-columns", "flat", "3d-array",
            "scalar"])
    def test_vertex_coords_must_be_finite_rows(self, coords, lengths, message):
        # Refused before any length is derived or checked against them.
        with pytest.raises(MeshError, match=message):
            SimplicialComplex.from_simplices(1, [[0, 1], [1, 2]], coords,
                                             edge_lengths=lengths)
        simplices = {0: np.arange(3).reshape(-1, 1), 1: np.array([[0, 1], [1, 2]])}
        with pytest.raises(MeshError, match=message):
            SimplicialComplex(1, simplices, vertex_coords=np.array(coords),
                              edge_lengths=np.ones(2))

    def test_nonpositive_length_rejected(self):
        simplices = {0: np.array([[0], [1]]), 1: np.array([[0, 1]])}
        with pytest.raises(GeometryError):
            SimplicialComplex(1, simplices, edge_lengths=np.array([0.0]))

    def test_length_embedding_mismatch_rejected(self):
        cx = generate_interval_mesh(0.0, 1.0, 2)
        with pytest.raises(MeshError, match="disagree with the embedding"):
            SimplicialComplex(1, cx.simplices, vertex_coords=cx.vertex_coords,
                              edge_lengths=np.array([0.5, 0.9]))
        matching = SimplicialComplex(1, cx.simplices, vertex_coords=cx.vertex_coords,
                                     edge_lengths=np.array([0.5, 0.5]))
        assert not matching.lengths_overridden

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_length_check_is_scale_free(self, scale):
        # The tolerance is relative at every scale: a moved copy keeps
        # stale lengths, which disagree, and an unmoved one stays a lattice.
        cx = generate_interval_mesh(0.0, 4.0 * scale, 4)
        assert dataclasses.replace(cx).lattice == (5,)
        with pytest.raises(MeshError, match="disagree with the embedding"):
            dataclasses.replace(cx, vertex_coords=2 * cx.vertex_coords)

    def test_overridden_lengths_accepted(self):
        edges = [(0, 1), (1, 2)]
        cx = SimplicialComplex.from_simplices(
            1, edges, vertex_coords=[[0.0], [1.0], [2.0]],
            edge_lengths={(0, 1): 7.0, (1, 2): 3.0})
        assert cx.lengths_overridden
        np.testing.assert_allclose(cx.edge_lengths, [7.0, 3.0])

    def test_duplicate_top_simplex_rejected(self):
        with pytest.raises(MeshError, match="duplicate top simplex"):
            SimplicialComplex.from_simplices(
                2, [(0, 1, 2), (2, 1, 0)],
                vertex_coords=[[0, 0], [1, 0], [0, 1]])

    @pytest.mark.parametrize("tops", [[(0, 1, 7)], [(-1, 0, 1)], [(0, 1.5, 2)]])
    def test_vertex_index_out_of_range(self, tops):
        with pytest.raises(MeshError, match="is not an integer in"):
            SimplicialComplex.from_simplices(
                2, tops, vertex_coords=[[0, 0], [1, 0], [0, 1]])

    # Whole floats, strings, None and indices beyond 64 bits are not
    # integers in range either; the message names the offending entry.
    @pytest.mark.parametrize("tops, index", [
        ([(0, 1.0, 2)], "1.0"), ([("0", "1", "2")], "'0'"),
        ([(0, 1, 2), (1, 2, 2 ** 70)], str(2 ** 70)), ([(0, 1, 2 ** 70)], str(2 ** 70)),
        ([(0, None, 2)], "None"), ([(0, 1, 2), (0, "x", 3)], "'x'"),
        # Bools too, alone or in a list numpy makes an integer array of.
        ([[False, True, 2]], "False"), ([[0, True, 2]], "True"),
        ([[False, True, True]], "False"), ([(0, 1, 2), (0, np.True_, 2)], "np.True_")])
    def test_non_integer_vertex_index(self, tops, index):
        with pytest.raises(MeshError, match=f"index {index} is not an integer in"):
            SimplicialComplex.from_simplices(
                2, tops, vertex_coords=[[0, 0], [1, 0], [0, 1]])

    def test_vertex_index_beyond_vertex_count(self):
        with pytest.raises(MeshError, match="is not an integer in"):
            SimplicialComplex.from_simplices(
                1, [(0, 1), (1, 5)], vertex_coords=[[0.0], [1.0], [2.0]],
                edge_lengths={(0, 1): 1.0, (1, 5): 1.0})

    def test_missing_edge_length(self):
        with pytest.raises(MeshError, match="no length"):
            SimplicialComplex.from_simplices(
                1, [(0, 1), (1, 2)], edge_lengths={(0, 1): 1.0})

    @pytest.mark.parametrize("extra", [(5, 6), (1, 2, 3), (2, 1), (0, 2)])
    def test_length_for_a_non_edge(self, extra):
        lengths = {(0, 1): 1.0, extra: 2.0, (1, 2): 1.0}
        with pytest.raises(MeshError, match=rf"length given for {re.escape(str(extra))}, "
                                            "which is not an edge"):
            SimplicialComplex.from_simplices(1, [(0, 1), (1, 2)],
                                             edge_lengths=lengths)

    def test_no_simplices_without_vertex_count(self):
        with pytest.raises(MeshError, match="no top simplices and no vertex coordinates"):
            SimplicialComplex.from_simplices(1, [], edge_lengths={})

    @pytest.mark.parametrize("dimension, tops", [
        (2, [(0, 1, 2), (0, 1)]), (1, [(0, 1, 2)]), (1, [0, 1]), (2, [[(0, 1), 2]])])
    def test_wrong_width_rejected(self, dimension, tops):
        with pytest.raises(MeshError, match=f"needs {dimension + 1} vertices"):
            SimplicialComplex.from_simplices(dimension, tops)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(MeshError, match="repeated vertices"):
            SimplicialComplex.from_simplices(2, [(0, 1, 1)],
                                             vertex_coords=[[0, 0], [1, 0]])


def oracle_facet_rows(cx, p):
    """Row k of each p-simplex's facets in the degree-(p-1) table, by a
    dict over that table: slot k is the facet without vertex k."""
    index = {tuple(row): i for i, row in enumerate(cx.simplices[p - 1].tolist())}
    return np.array([[index[tuple(row[:k] + row[k + 1:])] for k in range(p + 1)]
                     for row in cx.simplices[p].tolist()],
                    dtype=np.int64).reshape(-1, p + 1)


class TestFacets:
    """The facet rows kept from validation are the dict oracle's rows,
    and every coboundary is a view of them."""

    @staticmethod
    def check(cx):
        assert sorted(cx.facets) == list(range(1, cx.dimension + 1))
        for p, rows in cx.facets.items():
            np.testing.assert_array_equal(rows, oracle_facet_rows(cx, p))
            assert rows.dtype == np.int64 and not rows.flags.writeable
        for p in range(cx.dimension):
            d = build_coboundary(cx, p)
            assert d.facets is cx.facets[p + 1]
            with pytest.raises(ValueError):
                d.facets[0, 0] = 0

    def test_oracle_meshes(self, oracle_mesh):
        self.check(oracle_mesh)

    @pytest.mark.parametrize("cx", [generate_interval_mesh(0.0, 1.0, 1),
                                    generate_interval_mesh(-3.0, 2.0, 64),
                                    generate_unit_square_mesh(1),
                                    generate_unit_square_mesh(9)],
                             ids=["interval1", "interval64", "square1", "square9"])
    def test_generator_meshes(self, cx):
        self.check(cx)

    def test_empty_tables(self):
        cx = SimplicialComplex(1, {0: np.arange(3).reshape(-1, 1),
                                   1: np.empty((0, 2), dtype=np.int64)},
                               edge_lengths=np.empty(0))
        assert cx.facets[1].shape == (0, 2)
        assert build_coboundary(cx, 0).shape == (0, 3)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64])
    def test_edge_facets_by_index_of_any_integer_type(self, oracle_mesh, dtype):
        # An edge's facet rows are its own vertices, reversed: int64 and
        # read-only whatever the table's integer type.
        for cx in (oracle_mesh, generate_unit_square_mesh(3)):
            typed = SimplicialComplex(
                cx.dimension, {p: t.astype(dtype) for p, t in cx.simplices.items()},
                cx.vertex_coords, cx.edge_lengths, cx.lengths_overridden)
            self.check(typed)
            for p in typed.facets:
                np.testing.assert_array_equal(typed.facets[p], cx.facets[p])

    def test_vertex_table_of_uint64_not_from_0(self):
        simplices = {0: np.array([[0], [1], [3]], dtype=np.uint64),
                     1: np.array([[0, 1], [1, 3]], dtype=np.uint64)}
        with pytest.raises(MeshError, match=r"vertex table must be 0, 1, \.\.\., 2"):
            SimplicialComplex(1, simplices, edge_lengths=np.ones(2))

    # Both ends outside 0..8 of a 9-vertex interval: slot 0, the edge
    # without its first vertex, is named.
    @pytest.mark.parametrize("dtype, row, named", [
        (np.int64, (9, 11), 11), (np.int32, (-3, -1), -1), (np.int64, (-5, 9), 9),
        (np.uint64, (2 ** 63, 2 ** 64 - 1), 2 ** 64 - 1), (np.uint64, (9, 2 ** 63), 2 ** 63)])
    def test_edge_with_both_ends_out_of_range(self, dtype, row, named):
        cx = generate_interval_mesh(0.0, 1.0, 8)
        edges = np.vstack([cx.simplices[1].astype(dtype), np.array([row], dtype=dtype)])
        simplices = {0: cx.simplices[0], 1: edges}
        with pytest.raises(MeshError) as exc:
            SimplicialComplex(1, simplices, vertex_coords=cx.vertex_coords)
        assert str(exc.value) == f"simplex ({named},) is not in the complex"


def _as_array(d):
    """Every entry of a Coboundary, as d @ the identity."""
    return d @ np.eye(d.shape[1], dtype=np.int64)


class TestCoboundary:
    def test_matches_dict_loop(self, oracle_mesh):
        for p in range(oracle_mesh.dimension):
            got = build_coboundary(oracle_mesh, p)
            want = dense_coboundary(oracle_mesh, p)
            assert got.shape == want.shape and got.nnz == want.nnz
            got = _as_array(got)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want.toarray())

    def test_d0_path_graph(self):
        cx = generate_interval_mesh(0.0, 1.0, 3)
        expected = np.array([[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1]])
        # Edge (i, i+1): +1 on the face omitting the smaller vertex (k=0).
        np.testing.assert_array_equal(dense_coboundary(cx, 0).toarray(), expected)
        np.testing.assert_array_equal(_as_array(build_coboundary(cx, 0)), expected)

    def test_row_structure(self):
        cx = generate_unit_square_mesh(3)
        for p in (0, 1):
            arr = dense_coboundary(cx, p).toarray()
            np.testing.assert_array_equal(_as_array(build_coboundary(cx, p)), arr)
            assert set(np.unique(arr)) <= {-1, 0, 1}
            assert np.all((arr != 0).sum(axis=1) == p + 2)

    def test_dd_zero(self):
        cx = generate_unit_square_mesh(4)
        d0, d1 = (dense_coboundary(cx, p) for p in (0, 1))
        assert (d1 @ d0).count_nonzero() == 0
        d0, d1 = (build_coboundary(cx, p) for p in (0, 1))
        assert not np.any(d1 @ _as_array(d0))

    def test_product_matches_csr_bitwise(self):
        # Sums run from 0.0 in the CSR's column order: signed zeros,
        # 1e+-300 and subnormals come out bit for bit, on the conftest
        # meshes and on generator meshes.
        rng = np.random.default_rng(8)
        special = np.array([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300,
                            5e-324, -5e-324, 1.0, -3.5])
        meshes = [perturbed_square_mesh(3, seed=3), perturbed_square_mesh(8, seed=8),
                  nonuniform_interval_mesh(40, seed=2),
                  generate_interval_mesh(-2.0, 7.0, 9), generate_unit_square_mesh(5)]
        for cx in meshes:
            for p in range(cx.dimension):
                d, want = build_coboundary(cx, p), dense_coboundary(cx, p)
                n = cx.n_simplices(p)
                for v in (rng.choice(special, n), np.full(n, -0.0),
                          rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)):
                    got, want_v = d @ v, want @ v
                    assert got.dtype == want_v.dtype == np.float64
                    assert hashlib.sha256(got).digest() == hashlib.sha256(want_v).digest()

    def test_degree_out_of_range(self):
        cx = generate_interval_mesh(0.0, 1.0, 4)
        with pytest.raises(ConfigError):
            build_coboundary(cx, 1)

    def test_apply_checks_length(self):
        cx = generate_interval_mesh(0.0, 1.0, 4)
        d0 = build_coboundary(cx, 0)
        with pytest.raises(ConfigError, match="cochain length 3 does not match 5 columns"):
            d0 @ np.zeros(3)

    def test_gradient_of_linear_function(self):
        cx = generate_interval_mesh(0.0, 1.0, 5)
        d0 = build_coboundary(cx, 0)
        f = Cochain(0, 2.0 * cx.vertex_coords[:, 0] + 1.0)
        # D_0 f on edge (i, i+1) is f_{i+1} - f_i under the face-sign rule.
        np.testing.assert_allclose(d0 @ f.values, 2.0 / 5.0)


class TestCochain:
    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            Cochain(0, np.array([1.0, np.nan]))

    def test_flat_only(self):
        with pytest.raises(ConfigError):
            Cochain(0, np.zeros((2, 2)))


class TestOffFormat:
    def test_round_trip(self, tmp_path):
        cx = generate_unit_square_mesh(2)
        path = tmp_path / "m.off"
        save_off(cx, path)
        back = load_off(path)
        np.testing.assert_array_equal(back.simplices[2], cx.simplices[2])
        np.testing.assert_array_equal(back.simplices[1], cx.simplices[1])
        np.testing.assert_allclose(back.vertex_coords, cx.vertex_coords)

    def test_counts_line_order(self, tmp_path):
        cx = generate_unit_square_mesh(2)
        path = tmp_path / "m.off"
        save_off(cx, path)
        counts = path.read_text().splitlines()[1].split()
        assert counts == [str(cx.n_simplices(0)), str(cx.n_simplices(1)),
                          str(cx.n_simplices(2))]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFX\n3 3 1\n")
        with pytest.raises(FormatError) as exc:
            load_off(path)
        assert exc.value.line == 1

    def test_bad_counts(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFF\nthree 3 1\n")
        with pytest.raises(FormatError) as exc:
            load_off(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("counts", ["-1 0 1", "3 0 -1", "3 -1 1"])
    def test_negative_counts(self, tmp_path, counts):
        path = tmp_path / "bad.off"
        path.write_text(f"OFF\n{counts}\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        with pytest.raises(FormatError, match="expected 'V E F' counts") as exc:
            load_off(path)
        assert exc.value.line == 2

    def test_non_triangle_face(self, tmp_path):
        path = tmp_path / "quad.off"
        path.write_text("OFF\n4 4 1\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
        with pytest.raises(MeshError):
            load_off(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "short.off"
        path.write_text("OFF\n3 3 1\n0 0 0\n1 0 0\n")
        with pytest.raises(FormatError):
            load_off(path)

    def test_face_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFF\n3 3 1\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n")
        with pytest.raises(MeshError, match="index 7 is not an integer"):
            load_off(path)

    def test_duplicate_face(self, tmp_path):
        path = tmp_path / "dup.off"
        path.write_text("OFF\n3 3 2\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 1 2 0\n")
        with pytest.raises(MeshError, match="duplicate top simplex"):
            load_off(path)

    @pytest.mark.parametrize("body, line", [
        ("0 0 0\n1 0\n0 1 0\n3 0 1 2\n", 4),
        ("0 0\n1 0\n0 1\n3 0 1 2\n", 3),
        ("0 0 0\n1 0 0\n0 1 0 0\n0 x 0\n3 0 1 2\n", 6),
    ])
    def test_bad_vertex_line(self, tmp_path, body, line):
        path = tmp_path / "bad.off"
        path.write_text(f"OFF\n{body.count(chr(10)) - 1} 3 1\n{body}")
        with pytest.raises(FormatError, match="bad vertex coordinates") as exc:
            load_off(path)
        assert exc.value.line == line

    @pytest.mark.parametrize("faces, error, match, line", [
        ("3 0 1 2\n3 0 x 2\n", FormatError, "bad face line", 8),
        ("3 0 1 2\n4 0 1 2 3\n3 0 x 2\n", MeshError, "4-gon face at line 8", None),
        ("3 0 1 2\n3 x 1 2\n4 0 1 2 3\n", FormatError, "bad face line", 8),
        ("3 0 1 2\n3 0 1\n", MeshError, "every top simplex needs 3", None),
        ("3 0 1 2\n3 0 1 99999999999999999999\n", MeshError,
         "index 99999999999999999999 is not an integer", None),
    ])
    def test_bad_face_line_named(self, tmp_path, faces, error, match, line):
        # The first bad line is the one reported, as in a line-by-line read.
        path = tmp_path / "bad.off"
        nf = faces.count("\n")
        path.write_text(f"OFF\n4 5 {nf}\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n{faces}")
        with pytest.raises(error, match=match) as exc:
            load_off(path)
        if line is not None:
            assert exc.value.line == line

    def test_extra_tokens_ignored(self, tmp_path):
        plain, extra = tmp_path / "plain.off", tmp_path / "extra.off"
        plain.write_text("OFF\n4 5 2\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n3 0 1 2\n3 1 2 3\n")
        extra.write_text("OFF\n4 5 2\n0 0 0 1 1\n1 0 0 red\n0 1 0\n1 1 0 0.5\n"
                         "3 0 1 2 255 0 0\n3 1 2 3 0.5\n")
        a, b = load_off(plain), load_off(extra)
        np.testing.assert_array_equal(a.vertex_coords, b.vertex_coords)
        np.testing.assert_array_equal(a.simplices[2], b.simplices[2])
        assert a.vertex_coords.shape == (4, 2)

    def test_header_only(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFF\n")
        with pytest.raises(FormatError, match="'V E F' counts"):
            load_off(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.off"
        path.write_text("# a comment\nOFF\n\n3 3 1\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        cx = load_off(path)
        assert cx.n_simplices(2) == 1


class TestJsonFormat:
    def test_round_trip_embedded(self, tmp_path):
        cx = generate_unit_square_mesh(2)
        path = tmp_path / "m.json"
        save_json(cx, path)
        back = load_json(path)
        np.testing.assert_array_equal(back.simplices[2], cx.simplices[2])
        np.testing.assert_allclose(back.vertex_coords, cx.vertex_coords)
        np.testing.assert_allclose(back.edge_lengths, cx.edge_lengths)

    def test_round_trip_abstract_lengths(self, tmp_path):
        cx = SimplicialComplex.from_simplices(
            1, [(0, 1), (1, 2)], edge_lengths={(0, 1): 2.0, (1, 2): 5.0})
        path = tmp_path / "a.json"
        save_json(cx, path)
        back = load_json(path)
        np.testing.assert_allclose(back.edge_lengths, [2.0, 5.0])
        assert back.vertex_coords is None

    @pytest.mark.parametrize("load, body", [
        (load_json, b'{"dimension": 1, "simplices": {"1": [[0, 1]]}, "x\xff": 1}'),
        (load_off, b"OFF\n# caf\xe9\n3 3 1\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"),
    ], ids=["json", "off"])
    def test_not_utf8_rejected(self, tmp_path, load, body):
        path = tmp_path / "latin1.mesh"
        path.write_bytes(body)
        with pytest.raises(FormatError, match="not UTF-8 text: 'utf-8' codec can't decode"):
            load(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_json(path)

    def test_missing_dimension(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"simplices": {"1": [[0, 1]]}}')
        with pytest.raises(FormatError):
            load_json(path)

    def test_simplex_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": 2,
                                    "vertices": [[0, 0], [1, 0], [0, 1]],
                                    "simplices": {"2": [[0, 1, 3]]}}))
        with pytest.raises(MeshError, match="index 3 is not an integer"):
            load_json(path)

    @pytest.mark.parametrize("extra", ["5,6", "1,2,3", "2,1"])
    def test_length_for_a_non_edge(self, tmp_path, extra):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"dimension": 1, "vertices": None,
                                    "simplices": {"1": [[0, 1], [1, 2]]},
                                    "edge_lengths": {"0,1": 1.0, extra: 2.0,
                                                     "1,2": 1.5}}))
        with pytest.raises(MeshError, match=rf"\({extra.replace(',', ', ')}\)"
                                            ", which is not an edge"):
            load_json(path)

    def test_round_trip_keeps_every_table(self, tmp_path):
        # save_json writes every table of degree 1..dimension; load_json
        # checks the lower ones against the faces of the top one.
        square = generate_unit_square_mesh(3)
        lengths = SimplicialComplex.from_simplices(
            2, [(0, 1, 2), (1, 2, 3)], vertex_coords=[[0, 0], [1, 0], [0, 1], [1, 1]],
            edge_lengths={(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.5, (1, 3): 1.0, (2, 3): 1.0})
        for cx in (square, lengths):
            path = tmp_path / "m.json"
            save_json(cx, path)
            back = load_json(path)
            assert back.simplices.keys() == cx.simplices.keys()
            for p, table in cx.simplices.items():
                np.testing.assert_array_equal(back.simplices[p], table)
            np.testing.assert_array_equal(back.vertex_coords, cx.vertex_coords)
            np.testing.assert_array_equal(back.edge_lengths, cx.edge_lengths)
            assert back.lengths_overridden == cx.lengths_overridden
            assert back.lattice == cx.lattice

    def test_lower_table_in_any_order(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1]],
                                    "simplices": {"2": [[0, 1, 2]],
                                                  "1": [[2, 1], [0, 1], [2, 0]]}}))
        np.testing.assert_array_equal(load_json(path).simplices[1],
                                      [[0, 1], [0, 2], [1, 2]])

    @pytest.mark.parametrize("dimension", [1.7, True, "1"])
    def test_dimension_must_be_an_integer(self, tmp_path, dimension):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": dimension, "vertices": [[0], [1]],
                                    "simplices": {"1": [[0, 1]]}}))
        with pytest.raises(FormatError, match="'dimension' must be an integer"):
            load_json(path)

    @pytest.mark.parametrize("tables, message", [
        # An edge missing, one too many, a repeated one, a wrong width.
        ({"2": [[0, 1, 2]], "1": [[0, 1], [1, 2]]}, "table 1 is not"),
        ({"2": [[0, 1, 2]], "1": [[0, 1], [0, 2], [1, 2], [0, 3]]}, "table 1 is not"),
        ({"2": [[0, 1, 2]], "1": [[0, 1], [0, 2], [1, 2], [1, 0]]}, "table 1 is not"),
        ({"2": [[0, 1, 2]], "1": [[0, 1, 2]]}, "table 1 is not"),
        ({"2": [[0, 1, 2]], "1": [[0, 1], [0, 2], [1, 2.5]]}, "table 1 is not"),
        ({"2": [[0, 1, 2]], "1": "edges"}, "table 1 is not"),
        # Degrees outside 1..dimension.
        ({"2": [[0, 1, 2]], "3": [[0, 1, 2, 3]]}, "table '3' outside"),
        ({"2": [[0, 1, 2]], "0": [[0], [1], [2]]}, "table '0' outside"),
    ])
    def test_lower_tables_must_match_the_top(self, tmp_path, tables, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": 2, "simplices": tables,
                                    "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
        with pytest.raises(FormatError, match=message):
            load_json(path)

    def test_top_table_of_a_higher_degree(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": 1, "vertices": [[0], [1], [2]],
                                    "simplices": {"1": [[0, 1], [1, 2]],
                                                  "2": [[0, 1, 2]]}}))
        with pytest.raises(FormatError, match="table '2' outside degrees 1..1"):
            load_json(path)

    @pytest.mark.parametrize("extra, message", [
        ({"edge_length": {"0,1": 3.0, "1,2": 1.0}}, "unknown key 'edge_length'"),
        ({"edge_lengths": []}, "'edge_lengths' must be an object, got \\[\\]"),
        ({"edge_lengths": None}, "'edge_lengths' must be an object, got None"),
        ({"edge_lengths": {"0,1": True, "1,2": 1.0}}, "JSON true or false"),
        ({"vertices": [[0], [1], [False]]}, "JSON true or false"),
        ({"simplices": {"1": [[False, True], [True, 2]]}}, "JSON true or false"),
        ({"simplices": {"1": [[0, 1], True]}}, "JSON true or false"),
        ({"vertices": [["0"], ["0.5"], ["1"]]}, "a JSON string is not a number"),
        ({"vertices": [[0], "1", [5]]}, "a JSON string is not a number"),
        ({"edge_lengths": {"0,1": "2.5", "1,2": "1"}}, "a JSON string is not a number"),
    ])
    def test_nothing_is_read_silently(self, tmp_path, extra, message):
        # Each of these once loaded as the 3-vertex interval, or ignored
        # the key; the CLI reads them as exit 3.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": 1, "vertices": [[0], [1], [5]],
                                    "simplices": {"1": [[0, 1], [1, 2]]}, **extra}))
        with pytest.raises(FormatError, match=message):
            load_json(path)

    def test_empty_lengths_are_read_as_given(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"dimension": 1, "vertices": [[0], [1], [5]],
                                    "simplices": {"1": [[0, 1], [1, 2]]},
                                    "edge_lengths": {}}))
        with pytest.raises(MeshError, match="no length given for edge"):
            load_json(path)

    def test_duplicate_simplex(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"dimension": 1, "vertices": [[0], [1]],
                                    "simplices": {"1": [[0, 1], [1, 0]]}}))
        with pytest.raises(MeshError, match="duplicate top simplex"):
            load_json(path)
