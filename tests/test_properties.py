"""Property tests of the operator and the mesh files on random meshes."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracdec import (
    Cochain,
    FracConfig,
    MeshError,
    SimplicialComplex,
    build_frac_derivative,
    generate_interval_mesh,
    generate_unit_square_mesh,
    load_json,
    load_off,
    save_json,
    save_off,
)
from fracdec.mesh import _facets, _keys
from fracdec.operator import _LatticeWeights, _weight_rows

from conftest import dense_coboundary
from test_mesh import assert_oracle_tables

PROPERTY = settings(max_examples=12, derandomize=True, deadline=None)
ORDERS = st.sampled_from([0.3, 0.5, 0.7])
# The (sidedness, right_sign) pairs FracConfig accepts; 2D takes the first.
PAIRS_1D = [("two_sided", "plus"), ("two_sided", "minus"), ("left_sided", "plus")]


@st.composite
def interval_meshes(draw):
    """Interval [0, 1] cut into 2..24 edges of random relative lengths."""
    n = draw(st.integers(2, 24))
    gaps = draw(arrays(float, n, elements=st.floats(0.1, 1.0)))
    x = np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum()
    edges = [(i, i + 1) for i in range(n)]
    return SimplicialComplex.from_simplices(1, edges, vertex_coords=x[:, None])


@st.composite
def square_meshes(draw):
    """Unit square with n cells a side and jittered interior vertices."""
    n = draw(st.integers(1, 4))
    base = generate_unit_square_mesh(n)
    coords = base.vertex_coords.copy()
    interior = np.all((coords > 0.0) & (coords < 1.0), axis=1)
    jitter = draw(arrays(float, (int(interior.sum()), 2),
                         elements=st.floats(-0.25, 0.25)))
    coords[interior] += jitter / n
    return SimplicialComplex.from_simplices(2, base.simplices[2].tolist(),
                                            vertex_coords=coords)


@st.composite
def generator_meshes(draw, max_edges=24, max_cells=4):
    """A mesh from one of the two generators, so a lattice mesh: an
    interval whose ends and length run from 1e-300 to 1e300 in
    magnitude, or the unit square."""
    if draw(st.booleans()):
        scale = 10.0 ** draw(st.integers(-300, 300))
        a = draw(st.floats(-2.0, 2.0)) * scale
        width = draw(st.floats(0.01, 2.0)) * scale
        return generate_interval_mesh(a, a + width, draw(st.integers(2, max_edges)))
    return generate_unit_square_mesh(draw(st.integers(1, max_cells)))


def _config(draw, cx, s, c_s=None):
    """A FracConfig for cx: any allowed side pair in 1D, either mode."""
    pair = draw(st.sampled_from(PAIRS_1D)) if cx.dimension == 1 else PAIRS_1D[0]
    return FracConfig(s=s, c_s=c_s, sidedness=pair[0], right_sign=pair[1],
                      distance_mode=draw(st.sampled_from(["geodesic", "euclidean"])))


@st.composite
def operator_cases(draw):
    """(complex, p, config) over both dimensions, every allowed pair,
    and both backends: random meshes are dense, generator meshes FFT."""
    cx = draw(st.one_of(interval_meshes(), square_meshes(), generator_meshes()))
    p = draw(st.integers(0, cx.dimension - 1))
    return cx, p, _config(draw, cx, draw(ORDERS))


def _values(draw, n):
    return draw(arrays(float, n, elements=st.floats(-10.0, 10.0)))


@PROPERTY
@given(st.data())
def test_linearity(data):
    cx, p, config = data.draw(operator_cases())
    op = build_frac_derivative(cx, p, config)
    n = cx.n_simplices(p)
    a, b = _values(data.draw, n), _values(data.draw, n)
    alpha, beta = data.draw(st.floats(-3.0, 3.0)), data.draw(st.floats(-3.0, 3.0))
    lhs = op.apply(Cochain(p, alpha * a + beta * b)).values
    ra, rb = op.apply(Cochain(p, a)).values, op.apply(Cochain(p, b)).values
    rhs = alpha * ra + beta * rb
    scale = 1.0 + np.abs(alpha * ra).max() + np.abs(beta * rb).max()
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * scale)


@PROPERTY
@given(st.data())
def test_constants_annihilated_exactly(data):
    cx, _, config = data.draw(operator_cases())
    c = data.draw(st.floats(-1e3, 1e3))
    out = build_frac_derivative(cx, 0, config).apply(
        Cochain(0, np.full(cx.n_simplices(0), c))).values
    assert np.array_equal(out, np.zeros(cx.n_simplices(1)))


@PROPERTY
@given(st.data())
def test_integer_order_is_plain_coboundary(data):
    cx, p, config = data.draw(operator_cases())
    op = build_frac_derivative(cx, p, FracConfig(
        s=1.0, sidedness=config.sidedness, right_sign=config.right_sign))
    assert op.weights is None
    v = _values(data.draw, cx.n_simplices(p))
    assert np.array_equal(op.apply(Cochain(p, v)).values,
                          dense_coboundary(cx, p) @ v)


@PROPERTY
@given(st.data())
def test_fft_path_matches_dense(data):
    cx = data.draw(generator_meshes(max_edges=300, max_cells=16))
    p = data.draw(st.integers(0, cx.dimension - 1))
    config = _config(data.draw, cx, data.draw(st.floats(0.05, 0.95)),
                     data.draw(st.one_of(st.none(), st.floats(0.01, 100.0))))
    op = build_frac_derivative(cx, p, config)
    assert isinstance(op.weights, _LatticeWeights)
    v = _values(data.draw, cx.n_simplices(p))
    want = op.scale * (_weight_rows(cx, p, config) @ (dense_coboundary(cx, p) @ v))
    np.testing.assert_allclose(op.apply(Cochain(p, v)).values, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())


@PROPERTY
@given(square_meshes(), st.data())
def test_d1_d0_is_zero(cx, data):
    d0, d1 = (build_frac_derivative(cx, p, FracConfig(s=1.0)) for p in (0, 1))
    assert (dense_coboundary(cx, 1) @ dense_coboundary(cx, 0)).count_nonzero() == 0
    # Integer values keep every difference exact.
    v = data.draw(arrays(np.int64, cx.n_simplices(0),
                         elements=st.integers(-1000, 1000)))
    out = d1.apply(d0.apply(Cochain(0, v))).values
    assert np.array_equal(out, np.zeros(cx.n_simplices(2)))


def _assert_same_complex(a, b):
    assert_oracle_tables(a, b.simplices[b.dimension][::-1, ::-1].tolist())
    assert a.dimension == b.dimension
    for p in range(a.dimension + 1):
        np.testing.assert_array_equal(a.simplices[p], b.simplices[p])
    np.testing.assert_array_equal(a.vertex_coords, b.vertex_coords)
    np.testing.assert_array_equal(a.edge_lengths, b.edge_lengths)
    assert a.lattice == b.lattice


@PROPERTY
@given(st.one_of(interval_meshes(), square_meshes()))
def test_mesh_file_round_trips(cx):
    assert_oracle_tables(cx, cx.simplices[cx.dimension].tolist())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.json")
        save_json(cx, path)
        back = load_json(path)
        _assert_same_complex(back, cx)
        if cx.dimension == 2:
            path = os.path.join(tmp, "mesh.off")
            save_off(cx, path)
            _assert_same_complex(load_off(path), cx)
    v = Cochain(0, np.linspace(-1.0, 2.0, cx.n_simplices(0)))
    a, b = (build_frac_derivative(m, 0, FracConfig()).apply(v).values
            for m in (back, cx))
    assert np.array_equal(a, b)


@PROPERTY
@given(st.floats(-1e6, 1e6), st.floats(1e-3, 1e6), st.integers(1, 64))
def test_generated_intervals_are_lattices(a, width, n):
    # Any ends give a lattice mesh, and its file is one too.
    cx = generate_interval_mesh(a, a + width, n)
    assert cx.lattice == (n + 1,)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.json")
        save_json(cx, path)
        _assert_same_complex(load_json(path), cx)


@PROPERTY
@given(st.one_of(interval_meshes(), square_meshes()), st.data())
def test_tables_kept_in_key_order(cx, data):
    # Relabel the vertices, shuffle the top list and reverse every top:
    # from_simplices still builds the oracle's sorted tables.
    n = cx.n_simplices(0)
    relabel = np.array(data.draw(st.permutations(range(n))))
    tops = data.draw(st.permutations(relabel[cx.simplices[cx.dimension]].tolist()))
    tops = [top[::-1] for top in tops]
    coords = np.empty_like(cx.vertex_coords)
    coords[relabel] = cx.vertex_coords
    built = SimplicialComplex.from_simplices(cx.dimension, tops, vertex_coords=coords)
    assert_oracle_tables(built, tops)
    # A row-shuffled copy of any table breaks the invariant.
    p = data.draw(st.integers(0, cx.dimension))
    table = built.simplices[p]
    order = data.draw(st.permutations(range(len(table)))
                      .filter(lambda o: o != sorted(o)))
    shuffled = {**built.simplices, p: table[order]}
    with pytest.raises(MeshError, match=f"degree-{p} table must be sorted"):
        SimplicialComplex(cx.dimension, shuffled, vertex_coords=coords)


def oracle_keys(rows, base):
    """Row keys by the original matmul with the place values."""
    rows = np.asarray(rows, dtype=np.int64)
    place = base ** np.arange(rows.shape[-1] - 1, -1, -1, dtype=np.int64)
    return rows @ place


def oracle_facets(table):
    """Facet stack by the original np.delete of each column."""
    return np.stack([np.delete(table, k, axis=1) for k in range(table.shape[1])],
                    axis=1)


@PROPERTY
@given(st.data())
def test_keys_and_facets_match_oracles(data):
    # Rows of 1..4 vertices in base 1..2^15, every entry in [0, base),
    # the range callers check, in one or two leading dimensions.
    base = data.draw(st.integers(1, 2 ** 15))
    q = data.draw(st.integers(1, 4))
    shape = data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=2))
    rows = data.draw(arrays(np.int64, (*shape, q), elements=st.integers(0, base - 1)))
    got = _keys(rows, base)
    assert got.shape == rows.shape[:-1]
    np.testing.assert_array_equal(got, oracle_keys(rows, base))
    # Strided and single-row inputs key the same.
    np.testing.assert_array_equal(_keys(rows[..., ::-1], base),
                                  oracle_keys(rows[..., ::-1], base))
    table = rows.reshape(-1, q)
    if len(table):
        assert _keys(table[0], base) == oracle_keys(table[0], base)
    np.testing.assert_array_equal(_facets(table), oracle_facets(table))


def test_keys_refuse_keys_past_int64():
    # base^q must stay below 2^63, so every key fits in an int64.
    with pytest.raises(MeshError, match="too many vertices"):
        _keys(np.zeros((2, 3), dtype=np.int64), 2 ** 21)
    base = 2 ** 21 - 1
    assert _keys(np.array([[base - 1] * 3]), base).tolist() == [base ** 3 - 1]
