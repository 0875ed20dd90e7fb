"""Meshes and reference implementations shared by the oracle tests."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from fracdec import (
    ConnectivityError,
    SimplicialComplex,
    generate_unit_square_mesh,
    load_json,
    load_off,
    save_json,
    save_off,
)
from fracdec.metric import DistanceTable


def floyd_warshall_vertex_distance(complex_):
    """Independent O(V^3) all-pairs shortest path, the Dijkstra oracle."""
    n = complex_.n_simplices(0)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for (i, j), w in zip(complex_.simplices[1], complex_.edge_lengths):
        dist[i, j] = dist[j, i] = min(dist[i, j], w)
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    if np.any(np.isinf(dist)):
        i, j = np.argwhere(np.isinf(dist))[0]
        raise ConnectivityError(f"vertex {j} is unreachable from vertex {i}")
    return DistanceTable(p=0, mode="geodesic", entries=np.minimum(dist, dist.T))


def dense_coboundary(complex_, p):
    """D_p as a scipy CSR matrix, built from the simplex tables by a
    dict lookup of every facet: the coboundary oracle.  Its product
    sums each row in increasing column order from 0.0."""
    face_index = {tuple(row): i for i, row in enumerate(complex_.simplices[p].tolist())}
    rows, cols, vals = [], [], []
    for r, simplex in enumerate(complex_.simplices[p + 1].tolist()):
        for k in range(p + 2):
            rows.append(r)
            cols.append(face_index[tuple(simplex[:k] + simplex[k + 1:])])
            vals.append((-1) ** k)
    shape = (complex_.n_simplices(p + 1), complex_.n_simplices(p))
    return sp.csr_matrix((vals, (rows, cols)), shape=shape, dtype=np.int64)


@pytest.fixture(scope="session")
def vertex_distance_oracle():
    return floyd_warshall_vertex_distance


def perturbed_square_mesh(n, seed):
    """Unit square with n cells a side and jittered interior vertices."""
    base = generate_unit_square_mesh(n)
    coords = base.vertex_coords.copy()
    interior = np.all((coords > 0.0) & (coords < 1.0), axis=1)
    rng = np.random.default_rng(seed)
    coords[interior] += rng.uniform(-0.25, 0.25, (interior.sum(), 2)) / n
    return SimplicialComplex.from_simplices(2, base.simplices[2].tolist(),
                                            vertex_coords=coords)


def surface_mesh(tmp_path, scale=1.0):
    """A jittered square lifted onto a saddle and scaled, read back from
    an OFF file: a triangle mesh embedded in 3D (every z nonzero)."""
    base = perturbed_square_mesh(5, seed=5)
    x, y = base.vertex_coords.T
    coords = np.column_stack([x, y, 0.3 * (x * x - y * y) + 0.1]) * scale
    path = tmp_path / f"surface{scale:g}.off"
    save_off(SimplicialComplex.from_simplices(2, base.simplices[2], vertex_coords=coords), path)
    loaded = load_off(path)
    assert loaded.vertex_coords.shape == (36, 3) and np.all(loaded.vertex_coords[:, 2] != 0)
    return loaded


def nudged_mesh(cx):
    """The same tables with one interior vertex moved off the lattice:
    a mesh that takes the dense path and the all-pairs vertex table."""
    coords = cx.vertex_coords.copy()
    coords[len(coords) // 2] += 1e-3
    moved = dataclasses.replace(cx, vertex_coords=coords, edge_lengths=None)
    assert moved.lattice is None
    return moved


def nonuniform_interval_mesh(n_edges, seed):
    rng = np.random.default_rng(seed)
    x = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.05, 0.95, n_edges - 1)]))
    edges = [(i, i + 1) for i in range(n_edges)]
    return SimplicialComplex.from_simplices(1, edges, vertex_coords=x[:, None])


def json_overridden_lengths_mesh(tmp_path, seed):
    """Square mesh whose edge lengths are not the embedded ones, via JSON."""
    base = perturbed_square_mesh(4, seed)
    rng = np.random.default_rng(seed)
    lengths = {tuple(e): float(l * rng.uniform(0.8, 1.5))
               for e, l in zip(base.simplices[1].tolist(), base.edge_lengths)}
    cx = SimplicialComplex.from_simplices(2, base.simplices[2].tolist(),
                                          vertex_coords=base.vertex_coords,
                                          edge_lengths=lengths)
    path = tmp_path / "lengths.json"
    save_json(cx, path)
    loaded = load_json(path)
    assert loaded.lengths_overridden
    return loaded


def _oracle_mesh(name, tmp_path):
    if name.startswith("square"):
        n = int(name[len("square"):])
        return perturbed_square_mesh(n, seed=n)
    if name == "interval_nonuniform":
        return nonuniform_interval_mesh(40, seed=2)
    return json_overridden_lengths_mesh(tmp_path, seed=4)


_TRIANGLE_MESHES = ["square3", "square8", "square17", "json_lengths"]


@pytest.fixture(params=_TRIANGLE_MESHES + ["interval_nonuniform"])
def oracle_mesh(request, tmp_path):
    return _oracle_mesh(request.param, tmp_path)


@pytest.fixture(params=_TRIANGLE_MESHES)
def oracle_triangle_mesh(request, tmp_path):
    return _oracle_mesh(request.param, tmp_path)


@pytest.fixture
def oracle_interval_mesh(tmp_path):
    return _oracle_mesh("interval_nonuniform", tmp_path)
