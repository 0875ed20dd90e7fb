"""Distances between simplices under the local metric.

Vertex-to-vertex distances come from shortest edge paths (Dijkstra from
each source).  Simplex-to-simplex distances extend the vertex distances
by the barycenter-to-boundary offsets l(sigma), or use Euclidean
barycenter distances when an embedding is available.
"""

from __future__ import annotations

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
    """Dense symmetric inter-simplex distances for one degree."""

    p: int
    mode: str
    entries: np.ndarray


def all_pairs_vertex_distance(complex_):
    """Shortest-path distance d_m between every pair of vertices."""
    edges = complex_.simplices[1]
    n = complex_.n_simplices(0)
    w = complex_.edge_lengths
    graph = sp.csr_matrix((w, (edges[:, 0], edges[:, 1])), shape=(n, n))
    dist = dijkstra(graph, directed=False)
    if np.any(np.isinf(dist)):
        i, j = np.argwhere(np.isinf(dist))[0]
        raise ConnectivityError(f"vertex {j} is unreachable from vertex {i}")
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


def simplex_distance(complex_, p, mode="geodesic"):
    """Dense symmetric distance table between the p-simplices.

    geodesic: min over vertex pairs of d_m(u, v) + l(sigma) + l(eta),
    zero on the diagonal.  euclidean: distance between barycenters.
    """
    if mode not in DISTANCE_MODES:
        raise ConfigError(f"unknown distance mode {mode!r}")
    if mode == "euclidean":
        b = barycenters(complex_, p)
        return DistanceTable(p=p, mode=mode, entries=cdist(b, b))

    dm = all_pairs_vertex_distance(complex_).entries
    simp = complex_.simplices[p]
    offs = boundary_offsets(complex_, p)
    n = len(simp)
    entries = np.empty((n, n))
    step = max(1, _BLOCK_ENTRIES // max(n, len(dm), 1))
    for start in range(0, n, step):
        block = slice(start, start + step)
        # near[a, v]: distance from the nearest vertex of simplex a to v.
        near = dm[simp[block, 0]]
        for i in range(1, p + 1):
            np.minimum(near, dm[simp[block, i]], out=near)
        # np.take keeps C order; near[:, idx] would be Fortran-ordered.
        out = np.take(near, simp[:, 0], axis=1)
        for j in range(1, p + 1):
            np.minimum(out, np.take(near, simp[:, j], axis=1), out=out)
        # l_a + l_b is summed first so the table is exactly symmetric.
        out += offs[block, None] + offs[None, :]
        entries[block] = out
    np.fill_diagonal(entries, 0.0)
    lo, hi = entries.min(initial=0.0), entries.max(initial=0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConnectivityError("disconnected complex: infinite simplex distance")
    if lo < 0:
        raise GeometryError("negative simplex distance")
    return DistanceTable(p=p, mode=mode, entries=entries)
