"""Simplicial complex construction, coboundary, and file formats."""

import itertools
import json

import numpy as np
import pytest
import scipy.sparse as sp

from fracdec import (
    Cochain,
    ConfigError,
    FormatError,
    GeometryError,
    MeshError,
    SimplicialComplex,
    apply_coboundary,
    build_coboundary,
    generate_interval_mesh,
    generate_unit_square_mesh,
    load_json,
    load_off,
    save_json,
    save_off,
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

    def test_interval_validation(self):
        with pytest.raises(ConfigError):
            generate_interval_mesh(1.0, 0.0, 4)
        with pytest.raises(ConfigError):
            generate_interval_mesh(0.0, 1.0, 0)

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
        with pytest.raises(MeshError, match="not in the complex"):
            SimplicialComplex(2, simplices, edge_lengths=lengths)

    def test_nonincreasing_simplex_rejected(self):
        simplices = {0: np.array([[0], [1]]), 1: np.array([[1, 0]])}
        with pytest.raises(MeshError):
            SimplicialComplex(1, simplices, edge_lengths=np.array([1.0]))

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
        ([(0, None, 2)], "None"), ([(0, 1, 2), (0, "x", 3)], "'x'")])
    def test_non_integer_vertex_index(self, tops, index):
        with pytest.raises(MeshError, match=f"index {index} is not an integer in"):
            SimplicialComplex.from_simplices(
                2, tops, vertex_coords=[[0, 0], [1, 0], [0, 1]])

    def test_vertex_index_beyond_vertex_count(self):
        with pytest.raises(MeshError, match="is not an integer in"):
            SimplicialComplex.from_simplices(
                1, [(0, 1), (1, 5)], edge_lengths={(0, 1): 1.0, (1, 5): 1.0},
                n_vertices=3)

    def test_missing_edge_length(self):
        with pytest.raises(MeshError, match="no length"):
            SimplicialComplex.from_simplices(
                1, [(0, 1), (1, 2)], edge_lengths={(0, 1): 1.0}, n_vertices=3)

    def test_no_simplices_without_vertex_count(self):
        with pytest.raises(MeshError):
            SimplicialComplex.from_simplices(1, [], edge_lengths={})

    @pytest.mark.parametrize("dimension, tops", [
        (2, [(0, 1, 2), (0, 1)]), (1, [(0, 1, 2)]), (1, [0, 1]), (2, [[(0, 1), 2]])])
    def test_wrong_width_rejected(self, dimension, tops):
        with pytest.raises(MeshError, match=f"needs {dimension + 1} vertices"):
            SimplicialComplex.from_simplices(dimension, tops, n_vertices=3)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(MeshError, match="repeated vertices"):
            SimplicialComplex.from_simplices(2, [(0, 1, 1)],
                                             vertex_coords=[[0, 0], [1, 0]])


def oracle_coboundary(complex_, p):
    """The original dict-lookup loop, as the coboundary oracle."""
    face_index = {tuple(row): i for i, row in enumerate(complex_.simplices[p])}
    rows, cols, vals = [], [], []
    for r, simplex in enumerate(complex_.simplices[p + 1]):
        s = tuple(simplex)
        for k in range(p + 2):
            rows.append(r)
            cols.append(face_index[s[:k] + s[k + 1:]])
            vals.append((-1) ** k)
    shape = (complex_.n_simplices(p + 1), complex_.n_simplices(p))
    return sp.csr_matrix((vals, (rows, cols)), shape=shape, dtype=np.int64)


class TestLocate:
    def test_every_simplex_finds_its_row(self, oracle_mesh):
        for p in range(oracle_mesh.dimension + 1):
            table = oracle_mesh.simplices[p]
            np.testing.assert_array_equal(oracle_mesh.locate(p, table),
                                          np.arange(len(table)))
            rev = table[::-1]
            np.testing.assert_array_equal(oracle_mesh.locate(p, rev[None]),
                                          np.arange(len(table))[::-1][None])

    def test_unsorted_table(self):
        simplices = {0: np.array([[0], [1], [2]]),
                     1: np.array([[1, 2], [0, 1], [0, 2]]),
                     2: np.array([[0, 1, 2]])}
        cx = SimplicialComplex(2, simplices,
                               vertex_coords=np.array([[0.0, 0.0], [1.0, 0.0],
                                                       [0.0, 1.0]]))
        np.testing.assert_array_equal(cx.locate(1, [[0, 1], [0, 2], [1, 2]]),
                                      [1, 2, 0])

    # (0, 11) has the same base-9 digits key as the edge (1, 2).
    @pytest.mark.parametrize("row", [(0, 4), (1, 3), (-1, 0), (2, 9), (1, 0),
                                     (0, 11)])
    def test_miss_raises(self, row):
        cx = generate_interval_mesh(0.0, 1.0, 8)
        with pytest.raises(MeshError, match="not in the complex"):
            cx.locate(1, [[0, 1], row])


class TestCoboundary:
    def test_matches_dict_loop(self, oracle_mesh):
        for p in range(oracle_mesh.dimension):
            got = build_coboundary(oracle_mesh, p)
            want = oracle_coboundary(oracle_mesh, p)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.data, want.data)

    def test_d0_path_graph(self):
        cx = generate_interval_mesh(0.0, 1.0, 3)
        d0 = build_coboundary(cx, 0).toarray()
        expected = np.array([[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1]])
        # Edge (i, i+1): +1 on the face omitting the smaller vertex (k=0).
        np.testing.assert_array_equal(d0, expected)

    def test_row_structure(self):
        cx = generate_unit_square_mesh(3)
        for p in (0, 1):
            d = build_coboundary(cx, p)
            arr = d.toarray()
            assert set(np.unique(arr)) <= {-1, 0, 1}
            assert np.all((arr != 0).sum(axis=1) == p + 2)

    def test_dd_zero(self):
        cx = generate_unit_square_mesh(4)
        d0 = build_coboundary(cx, 0)
        d1 = build_coboundary(cx, 1)
        assert (d1 @ d0).nnz == 0 or not np.any((d1 @ d0).toarray())

    def test_degree_out_of_range(self):
        cx = generate_interval_mesh(0.0, 1.0, 4)
        with pytest.raises(ConfigError):
            build_coboundary(cx, 1)

    def test_apply_checks_length(self):
        cx = generate_interval_mesh(0.0, 1.0, 4)
        d0 = build_coboundary(cx, 0)
        with pytest.raises(ConfigError):
            apply_coboundary(d0, Cochain(0, np.zeros(3)))

    def test_gradient_of_linear_function(self):
        cx = generate_interval_mesh(0.0, 1.0, 5)
        d0 = build_coboundary(cx, 0)
        f = Cochain(0, 2.0 * cx.vertex_coords[:, 0] + 1.0)
        out = apply_coboundary(d0, f)
        assert out.degree == 1
        # D_0 f on edge (i, i+1) is f_{i+1} - f_i under the face-sign rule.
        np.testing.assert_allclose(out.values, 2.0 / 5.0)


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
            1, [(0, 1), (1, 2)], edge_lengths={(0, 1): 2.0, (1, 2): 5.0},
            n_vertices=3)
        path = tmp_path / "a.json"
        save_json(cx, path)
        back = load_json(path)
        np.testing.assert_allclose(back.edge_lengths, [2.0, 5.0])
        assert back.vertex_coords is None

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

    def test_duplicate_simplex(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"dimension": 1, "vertices": [[0], [1]],
                                    "simplices": {"1": [[0, 1], [1, 0]]}}))
        with pytest.raises(MeshError, match="duplicate top simplex"):
            load_json(path)
