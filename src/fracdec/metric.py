"""Distances between simplices under the local metric.

Vertex-to-vertex distances come from shortest edge paths (Dijkstra from
each source).  Simplex-to-simplex distances extend the vertex distances
by the barycenter-to-boundary offsets l(sigma), or use Euclidean
barycenter distances when an embedding is available.  A table can be
asked for a few rows only; then Dijkstra runs from those rows'
vertices alone and nothing of size E^2 or V^2 is allocated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import cdist

from .errors import ConfigError, ConnectivityError, GeometryError, MeshError

DISTANCE_MODES = ("geodesic", "euclidean")
# The geodesic table is built in row blocks of about this many entries,
# so its temporaries stay small (and in cache) next to the table itself.
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class DistanceTable:
    """Inter-simplex distances for one degree: the dense symmetric
    table, or the slab of its rows that was asked for."""

    p: int
    mode: str
    entries: np.ndarray


def _memory_budget():
    """Physical memory in bytes, or None where sysconf cannot tell."""
    try:
        budget = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None
    return budget if budget > 0 else None


def _check_dense_memory(complex_, p):
    """Refuse a dense table whose E^2 + V^2 floats exceed physical memory."""
    need = 8 * (complex_.n_simplices(p) ** 2 + complex_.n_simplices(0) ** 2)
    budget = _memory_budget()
    if budget is not None and need > budget:
        raise ConfigError(
            f"dense distances over {complex_.n_simplices(p)} degree-{p} simplices "
            f"need {need / 2 ** 30:.1f} GiB, more than the {budget / 2 ** 30:.1f} GiB "
            f"of memory; meshes from generate_interval_mesh or "
            f"generate_unit_square_mesh (--interval or --square, or a mesh file "
            f"written by gen-mesh) need no dense table")


def _vertex_distance(complex_, sources=None):
    """Shortest-path distances from the source vertices (all when None)
    to every vertex, one row per source."""
    edges = complex_.simplices[1]
    n = complex_.n_simplices(0)
    w = complex_.edge_lengths
    graph = sp.csr_matrix((w, (edges[:, 0], edges[:, 1])), shape=(n, n))
    dist = dijkstra(graph, directed=False, indices=sources)
    if np.any(np.isinf(dist)):
        i, j = np.argwhere(np.isinf(dist))[0]
        i = i if sources is None else sources[i]
        raise ConnectivityError(f"vertex {j} is unreachable from vertex {i}")
    return dist


def all_pairs_vertex_distance(complex_):
    """Shortest-path distance d_m between every pair of vertices."""
    dist = _vertex_distance(complex_)
    # Dijkstra per source is symmetric up to roundoff; assemble exactly.
    dist = np.minimum(dist, dist.T)
    return DistanceTable(p=0, mode="geodesic", entries=dist)


def barycenters(complex_, p):
    """Vertex-coordinate average of every p-simplex."""
    if complex_.vertex_coords is None:
        raise MeshError("barycenters require an embedded complex")
    return complex_.vertex_coords[complex_.simplices[p]].mean(axis=1)


def boundary_offsets(complex_, p):
    """Barycenter-to-boundary length l(sigma) for every p-simplex.

    l is 0 for vertices and half the edge length for edges.  For a
    triangle the boundary distance depends on direction, so we use the
    average of the three barycenter-to-edge-midpoint distances.
    """
    if p == 0:
        return np.zeros(complex_.n_simplices(0))
    if p == 1:
        return complex_.edge_lengths / 2.0
    if p == 2:
        if complex_.vertex_coords is None:
            raise MeshError("triangle boundary offsets require an embedding")
        tris = complex_.vertex_coords[complex_.simplices[2]]
        bary = tris.mean(axis=1)
        mids = np.stack([
            (tris[:, 0] + tris[:, 1]) / 2,
            (tris[:, 0] + tris[:, 2]) / 2,
            (tris[:, 1] + tris[:, 2]) / 2,
        ], axis=1)
        return np.linalg.norm(mids - bary[:, None, :], axis=2).mean(axis=1)
    raise ConfigError(f"boundary offsets not defined for degree {p}")


def simplex_distance(complex_, p, mode="geodesic", rows=None):
    """Distance table between the p-simplices, or rows of it.

    geodesic: min over vertex pairs of d_m(u, v) + l(sigma) + l(eta),
    zero on the diagonal.  euclidean: distance between barycenters.
    rows=None gives the dense symmetric table, after a check that it
    fits in memory; an index array gives just those rows, in that order.
    """
    if mode not in DISTANCE_MODES:
        raise ConfigError(f"unknown distance mode {mode!r}")
    if rows is None:
        _check_dense_memory(complex_, p)
    simp = complex_.simplices[p]
    picked = np.arange(len(simp)) if rows is None else np.asarray(rows)
    if mode == "euclidean":
        b = barycenters(complex_, p)
        return DistanceTable(p=p, mode=mode, entries=cdist(b[picked], b))

    if rows is None:
        dm, src = all_pairs_vertex_distance(complex_).entries, simp
    else:
        # Dijkstra from the rows' vertices only; src indexes dm's rows.
        sources, src = np.unique(simp[picked], return_inverse=True)
        dm, src = _vertex_distance(complex_, sources), src.reshape(-1, p + 1)
    offs = boundary_offsets(complex_, p)
    entries = np.empty((len(picked), len(simp)))
    step = max(1, _BLOCK_ENTRIES // max(len(simp), dm.shape[1], 1))
    for start in range(0, len(picked), step):
        block = slice(start, start + step)
        # near[a, v]: distance from the nearest vertex of simplex a to v.
        near = dm[src[block, 0]]
        for i in range(1, p + 1):
            np.minimum(near, dm[src[block, i]], out=near)
        # np.take keeps C order; near[:, idx] would be Fortran-ordered.
        out = np.take(near, simp[:, 0], axis=1)
        for j in range(1, p + 1):
            np.minimum(out, np.take(near, simp[:, j], axis=1), out=out)
        # l_a + l_b is summed first so the table is exactly symmetric.
        out += offs[picked[block], None] + offs[None, :]
        entries[block] = out
    entries[np.arange(len(picked)), picked] = 0.0
    lo, hi = entries.min(initial=0.0), entries.max(initial=0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConnectivityError("disconnected complex: infinite simplex distance")
    if lo < 0:
        raise GeometryError("negative simplex distance")
    return DistanceTable(p=p, mode=mode, entries=entries)
