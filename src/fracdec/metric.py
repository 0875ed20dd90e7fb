"""Distances between simplices under the local metric.

Vertex-to-vertex distances are shortest edge paths.  Simplex-to-simplex
distances extend the vertex distances by the barycenter-to-boundary
offsets l(sigma), or use Euclidean barycenter distances, accumulated
axis by axis, when an embedding is available.  A table can be asked for
a few rows only.  On a generator mesh (its lattice is set) those rows'
vertex distances are closed-form lattice path lengths, and nothing of
size E^2 or V^2 is allocated; on any other complex, and for the whole
table, they are rows of the all-pairs table from Dijkstra (scipy,
imported at first use).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConnectivityError, GeometryError, MeshError
from .mesh import _SQRT_TINY, _row_norms

DISTANCE_MODES = ("geodesic", "euclidean")
# Distance tables are built in row blocks of about this many entries,
# so their temporaries stay small (and in cache) next to the table itself.
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


def _check_dense_memory(complex_, p, n_rows):
    """Refuse n_rows rows of a table over E p-simplices, with the V x V
    vertex table, when their n_rows E + V^2 floats exceed physical memory."""
    need = 8 * (n_rows * complex_.n_simplices(p) + complex_.n_simplices(0) ** 2)
    budget = _memory_budget()
    if budget is not None and need > budget:
        raise ConfigError(
            f"dense distances over {complex_.n_simplices(p)} degree-{p} simplices "
            f"need {need / 2 ** 30:.1f} GiB, more than the {budget / 2 ** 30:.1f} GiB "
            f"of memory; meshes from generate_interval_mesh or "
            f"generate_unit_square_mesh (--interval or --square, or a mesh file "
            f"written by gen-mesh) need no dense table")


def _lattice_vertex_distance(complex_, sources):
    """Shortest-path distances from the source vertices to every vertex
    of a generator mesh, in closed form.

    In 1D it is |x_i - x_j|.  On the unit square with cell size h, a
    vertex a cells along x and b along y away is h (sqrt(2) min(|a|, |b|)
    + ||a| - |b||) away when a b >= 0, since the diagonals run from
    lower left to upper right, and h (|a| + |b|) otherwise.
    """
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


def all_pairs_vertex_distance(complex_):
    """Shortest-path distance d_m between every pair of vertices, by Dijkstra."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    edges = complex_.simplices[1]
    n = complex_.n_simplices(0)
    w = complex_.edge_lengths
    graph = csr_matrix((w, (edges[:, 0], edges[:, 1])), shape=(n, n))
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
        gaps = (mids - bary[:, None, :]).reshape(-1, tris.shape[2])
        return _row_norms(gaps).reshape(-1, 3).mean(axis=1)
    raise ConfigError(f"boundary offsets not defined for degree {p}")


def _rescale_euclidean(block, here, b):
    """Redo, in place, the entries of a block of Euclidean distances
    (rows from the points here to the points b) whose sum of squares
    overflowed or underflowed, scaling each by its largest gap."""
    i, j = np.nonzero(~((block >= _SQRT_TINY) & (block < np.inf)))
    block[i, j] = _row_norms(here[i] - b[j])


def simplex_distance(complex_, p, mode="geodesic", rows=None):
    """Distance table between the p-simplices, or rows of it.

    geodesic: min over vertex pairs of d_m(u, v) + l(sigma) + l(eta),
    zero on the diagonal.  euclidean: distance between barycenters.
    rows=None gives the dense symmetric table, after a check that it
    fits in memory; an index array gives just those rows, in that order.
    Geodesic rows are closed-form on a lattice mesh and otherwise rows of
    the table built from all-pairs vertex distances, after the same check.
    """
    if mode not in DISTANCE_MODES:
        raise ConfigError(f"unknown distance mode {mode!r}")
    simp = complex_.simplices[p]
    picked = np.arange(len(simp)) if rows is None else np.asarray(rows)
    closed_form = rows is not None and complex_.lattice is not None
    if rows is None or (mode == "geodesic" and not closed_form):
        _check_dense_memory(complex_, p, len(picked))
    step = max(1, _BLOCK_ENTRIES // max(len(simp), complex_.n_simplices(0), 1))
    if mode == "euclidean":
        b = barycenters(complex_, p)
        entries = np.empty((len(picked), len(simp)))
        # Squares summed axis by axis in row blocks, as cdist sums them,
        # so the table is cdist's bit for bit unless a sum over- or
        # underflows.  A block holding an inf, or besides each row's own
        # 0 a distance below sqrt(tiny), has those entries redone, each
        # scaled by its largest gap.  In 1D the table is |d|.
        with np.errstate(over="ignore", under="ignore"):
            for start in range(0, len(picked), step):
                block = entries[start:start + step]
                here = b[picked[start:start + step]]
                d = here[:, 0, None] - b[None, :, 0]
                if b.shape[1] == 1:
                    np.abs(d, out=block)
                    continue
                np.multiply(d, d, out=block)
                for axis in range(1, b.shape[1]):
                    d = here[:, axis, None] - b[None, :, axis]
                    block += d * d
                np.sqrt(block, out=block)
                if np.count_nonzero(block < _SQRT_TINY) > len(block) \
                        or block.max(initial=0.0) == np.inf:
                    _rescale_euclidean(block, here, b)
        return DistanceTable(p=p, mode=mode, entries=entries)

    if closed_form:
        # Distances from the rows' vertices only; src indexes dm's rows.
        sources, src = np.unique(simp[picked], return_inverse=True)
        dm, src = _lattice_vertex_distance(complex_, sources), src.reshape(-1, p + 1)
    else:
        dm, src = all_pairs_vertex_distance(complex_).entries, simp[picked]
    offs = boundary_offsets(complex_, p)
    entries = np.empty((len(picked), len(simp)))
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
