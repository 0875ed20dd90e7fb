"""Distances between simplices under the local metric.

Vertex-to-vertex distances are shortest edge paths.  Simplex-to-simplex
distances extend them by the barycenter-to-boundary offsets l(sigma), or
are Euclidean barycenter distances when an embedding is available; every
Euclidean length (offsets included) is mesh._norms's.  A table can be
asked for a few rows only; the whole table is its rows 0..E-1.  The mesh
alone picks the vertex distances: closed-form lattice path lengths from
the rows' vertices on a generator mesh (its lattice is set), so a few
rows allocate nothing of size E^2 or V^2; else the all-pairs table of
Dijkstra (scipy, imported at first use).  On the square the closed form
fills one lag table per call, over the lags the rows' vertices see (at
most (2m - 1)^2 entries), of which each vertex's row is a window; a row
block's nearest-vertex rows are minima of its vertex slots' windows, so
no table of whole vertex rows is gathered, and the columns go in blocks
too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConnectivityError, GeometryError, MeshError
from .mesh import _check_degree, _check_memory, _norms

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


def _lattice_rows(complex_, src):
    """Shortest-path distances from the vertices in src to every vertex
    of a generator mesh, in closed form: rows(k) is the (len, V) block
    of rows from the vertices src[k], for any index k into src.

    In 1D it is |x_i - x_j|.  On the unit square with cell size h, a
    vertex a cells along x and b along y away is h (sqrt(2) min(|a|, |b|)
    + ||a| - |b||) away when a b >= 0, since the diagonals run from
    lower left to upper right, and h (|a| + |b|) otherwise.  That
    depends on the lag (b, a) alone, so it fills one lag table, over the
    lags that src's vertices see, and a vertex's row is the m-by-m
    window of it that its own lattice coordinates pick.
    """
    if len(complex_.lattice) == 1:
        x = complex_.vertex_coords[:, 0]

        def rows(k):
            d = np.subtract(x[src[k], None], x[None, :])
            return np.abs(d, out=d)
        return rows
    m = complex_.lattice[0]
    y, x = np.divmod(src, m)
    top, left = y.max(), x.max()
    across, along = np.abs(np.arange(-top, m - y.min())), np.abs(np.arange(-left, m - x.min()))
    # Built in place: ||a| - |b|| + sqrt(2) min(|a|, |b|), then the
    # quadrants where a and b differ in sign, which are blocks.
    table = np.subtract.outer(across, along, dtype=float)
    np.abs(table, out=table)
    short = np.minimum.outer(across, along, dtype=float)
    short *= math.sqrt(2.0)
    table += short
    del short
    np.add.outer(across[:top], along[left + 1:], out=table[:top, left + 1:])
    np.add.outer(across[top + 1:], along[:left], out=table[top + 1:, :left])
    table /= m - 1
    # windows[i, j] is table[i:i + m, j:j + m]; vertex (y, x) of the
    # window at (top - y_s, left - x_s) is at lag (y - y_s, x - x_s).
    row, col = table.strides
    windows = np.lib.stride_tricks.as_strided(
        table, (len(across) - m + 1, len(along) - m + 1, m, m), (row, col, row, col),
        writeable=False)
    return lambda k: windows[top - y[k], left - x[k]].reshape(-1, m * m)


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


def _table(complex_, p):
    """The degree-p table; ConfigError for a degree that is not an
    integer in 0..dimension."""
    _check_degree(p, complex_.dimension, complex_.dimension)
    return complex_.simplices[p]


def barycenters(complex_, p):
    """Vertex-coordinate average of every p-simplex, as floats: the sum
    of its p+1 vertices' coordinates, in vertex order, over p+1."""
    return _centers(complex_, _table(complex_, p))


def _centers(complex_, simp):
    """barycenters of the simplices whose vertex rows are simp."""
    if complex_.vertex_coords is None:
        raise MeshError("barycenters require an embedded complex")
    # Summed from 0.0, as numpy sums (a total of -0.0 terms is 0.0), in float.
    return sum((np.take(complex_.vertex_coords, simp[:, k], axis=0)
                for k in range(simp.shape[1])), 0.0) / simp.shape[1]


def boundary_offsets(complex_, p, picked=slice(None)):
    """Barycenter-to-boundary length l(sigma) for every p-simplex, or
    for the simplices picked by an index or slice.

    l is 0 for vertices and half the edge length for edges.  For a
    triangle the boundary distance depends on direction, so we use the
    average of the three barycenter-to-edge-midpoint distances.
    """
    if p == 0:
        return np.zeros(len(complex_.simplices[0][picked]))
    if p == 1:
        return complex_.edge_lengths[picked] / 2.0
    if p == 2:
        simp = complex_.simplices[2][picked]
        bary = _centers(complex_, simp)
        tris = complex_.vertex_coords[simp]
        mids = np.stack([
            (tris[:, 0] + tris[:, 1]) / 2,
            (tris[:, 0] + tris[:, 2]) / 2,
            (tris[:, 1] + tris[:, 2]) / 2,
        ], axis=1)
        with np.errstate(over="ignore", under="ignore"):
            gaps = _norms(mids, bary[:, None, :])
        return (gaps[:, 0] + gaps[:, 1] + gaps[:, 2]) / 3
    raise ConfigError(f"boundary offsets not defined for degree {p}")


def simplex_distance(complex_, p, mode="geodesic", rows=None):
    """Distance table between the p-simplices, or rows of it.

    geodesic: min over vertex pairs of d_m(u, v) + l(sigma) + l(eta),
    zero on the diagonal.  euclidean: distance between barycenters.
    A 1D integer index array gives just those rows, in that order (an
    empty one a table of no rows); rows=None is rows 0..E-1, the dense
    symmetric table.  Either is refused first if it does not fit in
    memory, with the all-pairs vertex table that geodesic rows need off
    a lattice mesh.  On a lattice, geodesic rows need besides the table
    one lag table (fewer than 4 V entries) and temporaries of a block of
    rows and columns.
    """
    if mode not in DISTANCE_MODES:
        raise ConfigError(f"unknown distance mode {mode!r}")
    simp = _table(complex_, p)
    if rows is None:
        picked = np.arange(len(simp))
    else:
        picked = np.asarray(rows)
        if picked.ndim != 1 or picked.size and (
                picked.dtype.kind not in "iu" or picked.min() < 0 or picked.max() >= len(simp)):
            raise ConfigError(f"rows must be a 1D array of integer indices in "
                              f"[0, {len(simp)}) of the degree-{p} simplices")
        picked = picked.astype(np.intp, copy=False)
    closed_form = complex_.lattice is not None
    vertex_table = mode == "geodesic" and not closed_form
    _check_memory(8 * (len(picked) * len(simp) + vertex_table * complex_.n_simplices(0) ** 2),
                  f"dense distances over {len(simp)} degree-{p} simplices need {{:.1f}} GiB",
                  "; meshes from generate_interval_mesh or generate_unit_square_mesh "
                  "(--interval or --square, or a mesh file written by gen-mesh) "
                  "need no dense table")
    entries = np.empty((len(picked), len(simp)))
    if not len(picked):
        return DistanceTable(p=p, mode=mode, entries=entries)
    step = max(1, _BLOCK_ENTRIES // max(len(simp), complex_.n_simplices(0), 1))
    if mode == "euclidean":
        b = barycenters(complex_, p)
        with np.errstate(over="ignore", under="ignore"):
            for i in range(0, len(picked), step):
                _norms(b[picked[i:i + step], None], b[None], out=entries[i:i + step])
        return DistanceTable(p=p, mode=mode, entries=entries)

    # vertex_rows(k): the rows of d_m from the vertices src[k].
    src = simp[picked]
    if closed_form:
        vertex_rows = _lattice_rows(complex_, src)
    else:
        dm = all_pairs_vertex_distance(complex_).entries

        def vertex_rows(k):
            return dm[src[k]]
    own = boundary_offsets(complex_, p, picked)
    # Row j of slots holds vertex slot j's column indices.  One column
    # block's are made contiguous once, since np.take copies a strided
    # index array on every call, and its offsets are made once; more
    # blocks mean rows longer than a block, each a row block of its own,
    # and a contiguous copy of every block would cost a table's bytes.
    slots, whole = simp.T, None
    if len(simp) <= _BLOCK_ENTRIES:
        slots, whole = slots.copy(), boundary_offsets(complex_, p)
    for start in range(0, len(picked), step):
        block = slice(start, start + step)
        # near[a, v]: distance from the nearest vertex of simplex a to v.
        near = vertex_rows((block, 0))
        for i in range(1, p + 1):
            np.minimum(near, vertex_rows((block, i)), out=near)
        for first in range(0, len(simp), _BLOCK_ENTRIES):
            cols = slice(first, first + _BLOCK_ENTRIES)
            # Straight into the block's rows: np.take keeps C order, where
            # near[:, idx] would be Fortran-ordered, and "clip" mode writes
            # to out unbuffered (every index is in range).
            out = entries[block, cols]
            np.take(near, slots[0, cols], axis=1, out=out, mode="clip")
            for j in range(1, p + 1):
                np.minimum(out, np.take(near, slots[j, cols], axis=1, mode="clip"), out=out)
            # l_a + l_b is summed first so the table is exactly symmetric.
            out += own[block, None] + (
                boundary_offsets(complex_, p, cols) if whole is None else whole)
    entries[np.arange(len(picked)), picked] = 0.0
    lo, hi = entries.min(initial=0.0), entries.max(initial=0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConnectivityError("disconnected complex: infinite simplex distance")
    if lo < 0:
        raise GeometryError("negative simplex distance")
    return DistanceTable(p=p, mode=mode, entries=entries)
