"""Simplicial complexes, cochains, and the signed coboundary operator.

Simplices are stored with strictly increasing vertex indices; the
orientation of every simplex is the one implied by the global vertex
ordering.  Every simplex table is kept in strictly increasing key order
(sorted, no duplicate rows), where a row's key is its digits in base
n_vertices; the complex checks this on construction, so row and column
indices of the operators are reproducible across runs and file
round-trips.  An edge's facets are its own vertices, since vertex v is
row v; higher facets are found by a binary search of their keys.
from_simplices sorts only what is out of order, so the generators' top
tables, written in key order, pass through unsorted.  The coboundary is
kept as each coface's table of facet rows and applied as a signed
gather.  Every Euclidean length (edges here, offsets and tables in
metric) comes from one kernel, _norms.  The module needs numpy alone.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import _text
from .errors import ConfigError, FormatError, GeometryError, MeshError

_EDGE_LENGTH_RTOL = 1e-12
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)  # a shorter length's square is subnormal


def _facets(table):
    """The (n, q+1, q) facets of an (n, q+1) simplex table: row r, slot k
    is simplex r without its vertex k (still increasing)."""
    width = table.shape[1]
    # Row k of the column table is 0, 1, ..., width - 1 without k.
    cols = np.arange(width - 1)
    return table[:, cols + (cols >= np.arange(width)[:, None])]


def _keys(rows, base):
    """Key of each row of an (..., q) integer array: its digits in base
    `base`, so key order is lexicographic row order.  A row with an
    entry outside [0, base) gets key -1, which no valid row has."""
    rows = np.asarray(rows, dtype=np.int64)
    q = rows.shape[-1]
    if int(base) ** q >= 2 ** 63:
        raise MeshError(f"too many vertices to index degree-{q - 1} simplices")
    # Horner over the columns; as unsigned, a negative entry is >= base.
    unsigned = rows.view(np.uint64)
    keys = rows[..., 0].copy()
    out_of_range = unsigned[..., 0] >= base
    for k in range(1, q):
        keys *= base
        keys += rows[..., k]
        out_of_range |= unsigned[..., k] >= base
    keys[out_of_range] = -1
    return keys


def _increasing(table):
    """True when every row of an (n, q) table is strictly increasing;
    one column pair at a time, which beats comparing strided views."""
    return all(np.all(table[:, k] < table[:, k + 1]) for k in range(table.shape[1] - 1))


def _check_dimension(dimension):
    if dimension < 1:
        raise MeshError("complex must contain at least edges (dimension >= 1)")


def _check_coords_shape(coords):
    if np.ndim(coords) != 2 or not np.shape(coords)[1]:
        raise MeshError("vertex coordinates must be an (n_vertices, d) array "
                        f"with d >= 1, not of shape {np.shape(coords)}")


@dataclass(frozen=True)
class SimplicialComplex:
    """An oriented simplicial complex with a local metric on its edges.

    Construction checks the table invariant and raises MeshError where
    it fails: every table is an integer array; the vertex table is
    0, 1, ..., n_0 - 1; every row is strictly increasing; every table
    is strictly increasing in its row keys, so sorted and free of
    duplicate rows; every facet of a simplex is in the complex; and
    vertex_coords, if given, is a finite (n_0, d) array with d >= 1.

    Attributes:
        dimension: top dimension N of the complex.
        simplices: map p -> (n_p, p+1) integer array of p-simplices,
            each row strictly increasing, rows sorted lexicographically
            without duplicates.
        vertex_coords: optional (n_0, d) embedding of the vertices.
        edge_lengths: positive edge lengths aligned with simplices[1].
        lengths_overridden: True when edge_lengths were supplied
            explicitly instead of being derived from the embedding.
        lattice: the vertex grid shape, (n+1,) or (n+1, n+1), when the
            complex is, bit for bit, the mesh that
            generate_interval_mesh(c[0], c[-1], n) or
            generate_unit_square_mesh(n) builds: the same top table,
            vertex coordinates (c) and edge lengths, with
            lengths_overridden False.  Vertex v then sits at
            np.unravel_index(v, lattice), and the operator applies W by
            FFT.  Otherwise None.  It is read from the content, not
            passed in, so a mesh file written from a generator mesh, a
            from_simplices rebuild and a dataclasses.replace copy get
            it too, and a moved copy does not.
        facets: map p -> (n_p, p+1) read-only array, p = 1..N: row r,
            slot k is the row, in the degree-(p-1) table, of simplex r
            without its vertex k.  Kept from validation.
    """

    dimension: int
    simplices: dict[int, np.ndarray]
    vertex_coords: np.ndarray | None = None
    edge_lengths: np.ndarray = field(default=None)  # type: ignore[assignment]
    lengths_overridden: bool = False
    lattice: tuple[int, ...] | None = field(default=None, init=False, compare=False)
    facets: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._validate()
        lengths = self.edge_lengths
        supplied = lengths is not None
        if not supplied:
            if self.vertex_coords is None:
                raise MeshError("edge lengths required when there is no embedding")
            lengths = self._euclidean_edge_lengths()
        object.__setattr__(self, "edge_lengths", np.asarray(lengths, dtype=float))
        euclid = self._validate_lengths(supplied)
        object.__setattr__(self, "lattice", self._generator_lattice(euclid))

    def _generator_lattice(self, euclid):
        """The vertex grid of the generator mesh that this complex is,
        bit for bit, or None; shapes are compared first.  Lengths
        derived from the embedding are the generator's once coordinates
        and tables are; supplied ones must equal euclid, the derived
        lengths."""
        coords, dim = self.vertex_coords, self.dimension
        if self.lengths_overridden or coords is None or dim > 2 \
                or coords.shape[1:] != (dim,) or coords.dtype != np.float64:
            return None
        m = round(len(coords) ** (1 / dim))
        n = m - 1
        counts = (n, n) if dim == 1 else (n * (3 * n + 2), 2 * n * n)
        if n < 1 or m ** dim != len(coords) \
                or (self.n_simplices(1), self.n_simplices(dim)) != counts:
            return None
        # The top table's facets are all in the edge table, so equal
        # top tables and edge counts make every table equal.
        ends = (coords[0, 0], coords[-1, 0]) if dim == 1 else ()
        if ends and not -np.inf < ends[0] < ends[1] < np.inf:
            return None
        lattice = (m,) * dim
        want_coords, want_tops = _generator_tables(lattice, *ends)
        if not (_same_bits(coords, want_coords)
                and np.array_equal(self.simplices[dim], want_tops)):
            return None
        if euclid is not None and not _same_bits(self.edge_lengths, euclid):
            return None
        return lattice

    def _euclidean_edge_lengths(self):
        ends = np.take(self.vertex_coords, self.simplices[1], axis=0)
        with np.errstate(over="ignore", under="ignore"):
            return _norms(ends[:, 1], ends[:, 0])

    def _validate(self):
        _check_dimension(self.dimension)
        for p in range(self.dimension + 1):
            if p not in self.simplices:
                raise MeshError(f"missing simplex table for degree {p}")
        for p, table in self.simplices.items():
            if table.ndim != 2 or table.shape[1] != p + 1 or table.dtype.kind not in "iu":
                raise MeshError(f"degree-{p} table must be integers in {p + 1} columns")
            if p > 0 and not _increasing(table):
                raise MeshError("simplex vertex indices must be strictly increasing")
        # The vertex table first: below, vertex v is row v.
        n = self.n_simplices(0)
        vertices = self.simplices[0][:, 0]
        if np.any(vertices[1:] <= vertices[:-1]):
            raise MeshError("degree-0 table must be sorted, without duplicates")
        if not np.array_equal(vertices, np.arange(n)):
            raise MeshError(f"vertex table must be 0, 1, ..., {n - 1}")
        # Degree by degree: facets present at every degree means, by
        # induction, every face is, and then every key is in range.
        facets = {}
        for p in range(1, self.dimension + 1):
            if p == 1:
                # Slot k of edge (u, v) drops vertex k: rows v, u.
                rows = self.simplices[1][:, ::-1, None]
                found = np.ascontiguousarray(rows[..., 0], dtype=np.intp)
                # As unsigned, a negative entry is >= n (a uint64 past 2^63 casts to one).
                miss = found.view(np.uint64) >= n
            else:
                rows = _facets(self.simplices[p])
                query = _keys(rows, n)
                # Misses land on a wrong key or on the sentinel, which no key reaches.
                keys = np.append(keys, np.iinfo(np.int64).max)
                found = np.searchsorted(keys, query)
                miss = keys[found] != query
            if np.any(miss):
                raise MeshError(f"simplex {tuple(rows[miss][0].tolist())} "
                                f"is not in the complex")
            found.flags.writeable = False
            facets[p] = found
            keys = _keys(self.simplices[p], n)
            if np.any(keys[1:] <= keys[:-1]):
                raise MeshError(f"degree-{p} table must be sorted, without duplicates")
        coords = self.vertex_coords
        if coords is not None:
            _check_coords_shape(coords)
            if len(coords) != n:
                raise MeshError(f"{len(coords)} vertex coordinates for {n} vertices")
            if not np.all(np.isfinite(coords)):
                raise MeshError("vertex coordinates must be finite")
        object.__setattr__(self, "facets", facets)

    def _validate_lengths(self, lengths_supplied):
        """Check the edge lengths; return the lengths derived from the
        embedding when they were computed for the check, else None."""
        if len(self.edge_lengths) != len(self.simplices[1]):
            raise MeshError("edge_lengths must align with the edge table")
        if not np.all(np.isfinite(self.edge_lengths)) or np.any(self.edge_lengths <= 0):
            raise GeometryError("edge lengths must be strictly positive and finite")
        # Lengths derived from the embedding agree with it by construction.
        if lengths_supplied and self.vertex_coords is not None \
                and not self.lengths_overridden:
            euclid = self._euclidean_edge_lengths()
            if np.any(np.abs(self.edge_lengths - euclid) > _EDGE_LENGTH_RTOL * euclid):
                raise MeshError("edge lengths disagree with the embedding")
            return euclid
        return None

    def n_simplices(self, p):
        return len(self.simplices[p])

    @classmethod
    def from_simplices(cls, dimension, top_simplices, vertex_coords=None,
                       edge_lengths=None):
        """Build a complex from its top-dimensional simplices.

        Lower-degree faces are induced automatically so the closure
        property holds by construction.  ``edge_lengths``, if given, is a
        map from increasing vertex pairs to lengths (overriding any
        embedding).  There are len(vertex_coords) vertices, or without
        coordinates the largest index + 1.  A ragged or wrong-width list,
        a vertex index that is not an integer in [0, n_vertices), repeated
        vertices, a duplicate top simplex, an edge without a length or a
        length for a key that is not an edge raises MeshError before any
        geometry is computed, as do a dimension below 1, coordinates that
        are not an (n_vertices, d) array, and no top simplices and no
        coordinates.
        """
        _check_dimension(dimension)
        try:
            tops = np.reshape(top_simplices, (len(top_simplices), dimension + 1))
        except (TypeError, ValueError):  # ragged, or rows of another width
            raise MeshError(f"every top simplex needs {dimension + 1} vertices") from None
        n_vertices = None
        if vertex_coords is not None:
            vertex_coords = np.asarray(vertex_coords, dtype=float)
            _check_coords_shape(vertex_coords)
            n_vertices = len(vertex_coords)
        elif not len(tops):
            raise MeshError("no top simplices and no vertex coordinates")

        def bad_index(v):
            span = "n_vertices" if n_vertices is None else n_vertices
            return MeshError(f"vertex index {v!r} is not an integer in [0, {span})")
        # Integer-typed indices only (1.0 and True fail too): name the entry
        # numpy made no integer array of, or a bool a list hid in one.
        if tops.dtype.kind not in "iu" or not isinstance(top_simplices, np.ndarray) and not \
                {bool, np.bool_}.isdisjoint(map(type, chain.from_iterable(top_simplices))):
            for v in np.array(top_simplices, dtype=object).ravel():
                if type(v) is bool or not isinstance(v, (int, np.integer)) \
                        or not 0 <= v < 2 ** 63:
                    raise bad_index(v)
        if n_vertices is None:
            n_vertices = int(tops.max()) + 1
        bad = (tops < 0) | (tops >= n_vertices)
        if np.any(bad):
            raise bad_index(tops[bad].tolist()[0])
        # Rows, then the table, are sorted unless already in order.
        tops = tops.astype(np.int64)
        if not _increasing(tops):
            tops.sort(axis=1)
            if np.any(tops[:, 1:] == tops[:, :-1]):
                raise MeshError("top simplex with repeated vertices")
        keys = _keys(tops, n_vertices)
        if np.any(keys[1:] <= keys[:-1]):
            first = np.unique(keys, return_index=True)[1]
            if len(first) < len(tops):
                dup = tuple(np.delete(tops, first, axis=0)[0].tolist())
                raise MeshError(f"duplicate top simplex {dup}")
            tops = tops[first]
        simplices = {dimension: tops}
        for p in range(dimension - 1, 0, -1):
            faces = _facets(simplices[p + 1]).reshape(-1, p + 1)
            simplices[p] = faces[np.unique(_keys(faces, n_vertices), return_index=True)[1]]
        simplices[0] = np.arange(n_vertices, dtype=np.int64).reshape(-1, 1)
        lengths = None
        if edge_lengths is not None:
            edges = dict.fromkeys(map(tuple, simplices[1].tolist()))
            for key in edge_lengths:
                if key not in edges:
                    raise MeshError(f"length given for {key}, which is not an edge")
            try:
                lengths = np.array([edge_lengths[e] for e in edges], dtype=float)
            except KeyError as exc:
                raise MeshError(f"no length given for edge {exc.args[0]}") from None
        return cls(dimension, simplices, vertex_coords, lengths,
                   lengths_overridden=lengths is not None and vertex_coords is not None)


@dataclass(frozen=True)
class Cochain:
    """A discrete p-form: one real value per p-simplex."""

    degree: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1:
            raise ConfigError("cochain values must be a flat vector")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("cochain values must be finite")


@dataclass(frozen=True)
class Coboundary:
    """The signed incidence matrix D_p, kept as its facet table.

    Row r of facets holds, in slot k, the row index of the p-simplex
    that coface r has without its vertex k; that entry of D_p is
    (-1)^k and every other entry of row r is 0.
    """

    facets: np.ndarray  # (n_{p+1}, p+2) row indices into the degree-p table
    n_columns: int

    @property
    def shape(self):
        return (len(self.facets), self.n_columns)

    @property
    def nnz(self):
        return self.facets.size

    def __matmul__(self, values):
        """D_p @ values, for values of shape (n_columns,) or (n_columns, m).

        Each row is summed from 0.0 in increasing column order, which is
        decreasing slot order (dropping a later vertex leaves an earlier
        facet), as a CSR product sums; the results match it bit for bit,
        signed zeros included.
        """
        values = np.asarray(values)
        if len(values) != self.n_columns:
            raise ConfigError(f"cochain length {len(values)} does not match "
                              f"{self.n_columns} columns")
        out = np.zeros((len(self.facets),) + values.shape[1:],
                       dtype=np.result_type(values, np.int64))
        for k in range(self.facets.shape[1] - 1, -1, -1):
            term = np.take(values, self.facets[:, k], axis=0)
            if k % 2:
                out -= term
            else:
                out += term
        return out


def _check_degree(p, top, dimension):
    """ConfigError unless the degree p is an integer (a bool is not one)
    in 0..top, for a complex of the given dimension."""
    if type(p) is bool or not isinstance(p, (int, np.integer)):
        raise ConfigError(f"degree must be an integer, got {p!r}")
    if not 0 <= p <= top:
        raise ConfigError(f"degree {p} out of range for dimension {dimension}")


def build_coboundary(complex_, p):
    """Signed incidence matrix D_p sending p-cochains to (p+1)-cochains.

    Row r, for the (p+1)-simplex [v_0..v_{p+1}], carries (-1)^k on the
    face omitting v_k; every entry is 0 or +-1 and each row has exactly
    p+2 nonzeros.
    """
    _check_degree(p, complex_.dimension - 1, complex_.dimension)
    return Coboundary(complex_.facets[p + 1], complex_.n_simplices(p))


def _norms(a, b, out=None):
    """|a - b| over the last axis of two point arrays of as many axes,
    broadcast against each other, into out if given: |d| in 1D, else the
    squares summed axis by axis, as in numpy's norm and in cdist, so with
    their bits.  Entries whose sum over- or underflowed (norm above
    ~1e154 or below ~1e-154) are redone scaled by their largest gap,
    unless it is 0 or not finite.  Callers ignore over- and underflow."""
    out = np.subtract(a[..., 0], b[..., 0], out=out, dtype=float)
    if a.shape[-1] == 1:
        return np.abs(out, out=out)
    out *= out
    for k in range(1, a.shape[-1]):
        d = np.subtract(a[..., k], b[..., k], dtype=float)
        d *= d
        out += d
    np.sqrt(out, out=out)
    odd = out < _SQRT_TINY
    if out.max(initial=0.0) == np.inf:
        odd |= out == np.inf
    # flatnonzero: np.nonzero or a boolean index scans a 2D mask ~40x slower.
    at = np.unravel_index(np.flatnonzero(odd), out.shape)
    # Those entries' own points, (m, d), from views broadcast to out's shape.
    gap = np.subtract(*(x[at] for x in np.broadcast_arrays(a, b)))
    scale = np.abs(gap).max(axis=1)
    ok = (scale > 0) & (scale < np.inf)
    gap = gap[ok] / scale[ok, None]
    out[tuple(i[ok] for i in at)] = scale[ok] * np.sqrt(np.sum(gap * gap, axis=1))
    return out


def _same_bits(x, y):
    """Whether two float64 arrays have the same shape and bits."""
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def _generator_tables(lattice, a=0.0, b=1.0):
    """Vertex coordinates and top table, already in key order, of the
    generator mesh on a vertex grid: (n+1,) is the interval [a, b] with
    n edges, (n+1, n+1) the unit square with n-by-n cells."""
    n = lattice[0] - 1
    if len(lattice) == 1:
        return (np.linspace(a, b, n + 1).reshape(-1, 1),
                np.arange(n, dtype=np.int64)[:, None] + np.arange(2))
    ticks = np.arange(n + 1) / n
    coords = np.column_stack([np.tile(ticks, n + 1), np.repeat(ticks, n + 1)])
    # Vertex (i, j) is j (n+1) + i; ll is each cell's lower-left vertex,
    # and its cell's two triangles meet on the diagonal from ll to ur.
    ll = (np.arange(n, dtype=np.int64)[:, None] * (n + 1) + np.arange(n)).ravel()
    ur = ll + n + 2
    return coords, np.column_stack([ll, ll + 1, ur, ll, ll + n + 1, ur]).reshape(-1, 3)


@functools.cache
def _memory_budget():
    """Physical memory in bytes, or None where sysconf cannot tell; read
    once, since every generator mesh and dense table is checked."""
    try:
        budget = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None
    return budget if budget > 0 else None


def _check_memory(need, message, hint=""):
    """The one memory guard, of generator meshes and dense distance
    tables: ConfigError when need bytes exceed physical memory, in one
    line of message (its {} filled with need in GiB), the budget, hint."""
    budget = _memory_budget()
    if budget is not None and need > budget:
        raise ConfigError(f"{message.format(need / 2 ** 30)}, more than the "
                          f"{budget / 2 ** 30:.1f} GiB of memory{hint}")


def _generator_size(name, n, dimension):
    """n as an int, checked before any array is made: ConfigError unless
    it is an integer (a bool is not one) of at least 1 whose top
    simplices have int64 keys (see _keys) and whose mesh passes
    _check_memory.  The mesh keeps 8 bytes for each entry of its
    tables, facet rows, coordinates and edge lengths."""
    if type(n) is bool or not isinstance(n, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {n!r}")
    n = int(n)
    if n < 1:
        raise ConfigError(f"{name} must be >= 1")
    n_vertices = (n + 1) ** dimension
    if n_vertices ** (dimension + 1) >= 2 ** 63:
        raise ConfigError(f"{name} = {n} gives {n_vertices} vertices, too many "
                          f"to index degree-{dimension} simplices")
    n_edges, n_triangles = (n, 0) if dimension == 1 else (n * (3 * n + 2), 2 * n * n)
    _check_memory(8 * ((1 + dimension) * n_vertices + 5 * n_edges + 6 * n_triangles),
                  f"{name} = {n} needs {{:.1f}} GiB of mesh tables")
    return n


def generate_interval_mesh(a, b, n_edges):
    """Uniform 1D mesh: n_edges+1 equally spaced vertices on [a, b]."""
    if not -np.inf < a < b < np.inf:
        raise ConfigError(f"need finite a < b, got [{a}, {b}]")
    n_edges = _generator_size("n_edges", n_edges, 1)
    coords, edges = _generator_tables((n_edges + 1,), a, b)
    return SimplicialComplex.from_simplices(1, edges, vertex_coords=coords)


def generate_unit_square_mesh(n):
    """Triangulated [0,1]^2 with an n-by-n grid of cells.

    Every cell is split along its lower-left-to-upper-right diagonal,
    giving (n+1)^2 vertices and 2 n^2 triangles.
    """
    n = _generator_size("n", n, 2)
    coords, tris = _generator_tables((n + 1, n + 1))
    return SimplicialComplex.from_simplices(2, tris, vertex_coords=coords)


def load_off(path):
    """Read an ASCII OFF triangle mesh into a complex.

    Faces must be triangles; lower-degree simplices are induced.  Each
    table is parsed by one numpy call; only a table that call rejects is
    read again line by line, to name the line of the bad entry.
    """
    lines = list(map(str.strip, _read_text(path).split("\n")))
    # Line numbers of the lines that are neither blank nor comments.
    numbers = [no for no, ln in enumerate(lines, 1) if ln and ln[0] != "#"]
    content = [lines[no - 1] for no in numbers]
    if not content or content[0] != "OFF":
        raise FormatError("expected 'OFF' header", line=numbers[0] if content else 1)
    counts_line = numbers[1] if len(numbers) > 1 else len(lines)
    try:
        nv, ne, nf = (int(tok) for tok in content[1].split()[:3])
        if min(nv, ne, nf) < 0:
            raise ValueError("negative count")
    except (ValueError, IndexError):
        raise FormatError("expected 'V E F' counts", line=counts_line) from None
    if len(content) - 2 < nv + nf:
        raise FormatError(f"expected {nv} vertex and {nf} face lines", line=counts_line)
    body, body_numbers = content[2:], numbers[2:]
    # Tokens past the third coordinate, or past a face's indices, are ignored.
    rows = list(map(str.split, body[:nv]))
    coords = _numeric_table(rows, float)
    if coords is None or coords.shape[1] < 3:
        coords = np.array([_off_vertex(no, toks) for no, toks
                           in zip(body_numbers[:nv], rows)], dtype=float).reshape(-1, 3)
    coords = coords[:, :3]
    rows = list(map(str.split, body[nv:nv + nf]))
    faces = _numeric_table(rows, np.int64)
    if faces is None or faces.shape[1] < 4 or np.any(faces[:, 0] != 3):
        faces = [_off_face(no, toks) for no, toks in zip(body_numbers[nv:nv + nf], rows)]
    else:
        faces = faces[:, 1:4]
    if np.all(coords[:, 2] == 0.0):
        coords = coords[:, :2]
    return SimplicialComplex.from_simplices(2, faces, vertex_coords=coords)


def _read_text(path):
    """The text of a mesh file, which must be UTF-8 (FormatError if not)."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8 text: {exc}") from None


def _numeric_table(rows, dtype):
    """The token rows as one 2D array of dtype, or None where they are
    ragged or hold a token that is not a number of that type."""
    try:
        table = np.array(rows, dtype=dtype)
    except (ValueError, OverflowError):
        return None
    return table if table.ndim == 2 else None


def _off_vertex(no, toks):
    """The three coordinates that start OFF line `no`."""
    try:
        xyz = [float(tok) for tok in toks[:3]]
    except ValueError:
        xyz = []
    if len(xyz) < 3:
        raise FormatError("bad vertex coordinates", line=no)
    return xyz


def _off_face(no, toks):
    """The vertex indices of the triangle on OFF line `no`."""
    try:
        cnt = int(toks[0])
        idx = [int(t) for t in toks[1:1 + cnt]]
    except (ValueError, IndexError):
        raise FormatError("bad face line", line=no) from None
    if cnt != 3:
        raise MeshError(f"unsupported {cnt}-gon face at line {no}: only triangles")
    return idx


def save_off(complex_, path):
    """Write a 2D embedded complex as ASCII OFF (z padded with 0)."""
    if complex_.dimension != 2 or complex_.vertex_coords is None:
        raise MeshError("OFF output requires an embedded triangle mesh")
    coords = np.asarray(complex_.vertex_coords, dtype=float)
    columns = list(coords.T)
    if len(columns) == 2:
        columns.append(np.zeros(len(coords)))
    tris = complex_.simplices[2]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(coords)} {complex_.n_simplices(1)} {len(tris)}\n")
        fh.writelines(_text.blocks(" ".join(["%s"] * len(columns)) + "\n", columns))
        fh.writelines(_text.blocks("3 %s %s %s\n", list(tris.T)))


def save_json(complex_, path):
    """Write a complex in the JSON mesh format: the text of
    json.dump(doc, indent=1, sort_keys=True), written a block of rows at
    a time."""
    coords = complex_.vertex_coords
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "dimension": {complex_.dimension},')
        if complex_.lengths_overridden or coords is None:
            # Keyed "i,j" and, like every JSON object here, in key order.
            keys = np.array(list(map("%d,%d".__mod__,
                                     map(tuple, complex_.simplices[1].tolist()))))
            order = np.argsort(keys)
            fh.write('\n "edge_lengths": ')
            _text.write_json(fh, "%s: %s", [keys[order], complex_.edge_lengths[order]],
                             1, "{}")
            fh.write(",")
        fh.write('\n "simplices": {')
        for i, p in enumerate(sorted(map(str, range(1, complex_.dimension + 1)))):
            table = complex_.simplices[int(p)]
            fh.write(f'{"," if i else ""}\n  "{p}": ')
            _text.write_json(fh, _text.json_item(2, table.shape[1]), list(table.T), 2)
        fh.write('\n },\n "vertices": ')
        if coords is None:
            fh.write("null")
        else:
            _text.write_json(fh, _text.json_item(1, coords.shape[1]), list(coords.T), 1)
        fh.write("\n}\n")


def _item_types(value):
    """The types of a JSON value, or of its items and their items."""
    items = value if type(value) is list else (value,)
    return set(map(type, chain.from_iterable(v if type(v) is list else (v,) for v in items)))


def load_json(path):
    """Read a complex from the JSON mesh format.

    "dimension" must be a JSON integer.  "simplices" holds the top table
    and may hold any table of degree 1..dimension below it, which must
    list exactly the faces the top table induces, in any row order.
    "vertices" and "edge_lengths" (an object, read as given even when
    empty) are optional, and no other key is read, so none may appear.
    A JSON true or false is not a number anywhere, nor is a string in
    "vertices" or as a length.
    """
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(str(exc), line=exc.lineno) from None
    try:
        dim, tables = doc["dimension"], doc["simplices"]
    except (KeyError, TypeError):
        raise FormatError("missing 'dimension' or 'simplices'") from None
    unknown = set(doc) - {"dimension", "simplices", "vertices", "edge_lengths"}
    if unknown:
        raise FormatError(f"unknown key {min(unknown)!r}")
    if type(dim) is not int:
        raise FormatError(f"'dimension' must be an integer, got {dim!r}")
    try:
        tops = tables[str(dim)]
    except (KeyError, TypeError):
        raise FormatError(f"'simplices' has no degree-{dim} table") from None
    coords, lengths = doc.get("vertices"), doc.get("edge_lengths")
    if "edge_lengths" in doc and type(lengths) is not dict:
        raise FormatError(f"'edge_lengths' must be an object, got {lengths!r}")
    types = {key: _item_types(table) for key, table in tables.items()}
    numbers = _item_types(coords) | _item_types(list((lengths or {}).values()))
    if bool in numbers.union(*types.values()):
        raise FormatError("a JSON true or false stands where a number belongs")
    if str in numbers:
        raise FormatError("bad 'vertices' or 'edge_lengths': a JSON string is not a number")
    with suppress(ValueError):  # scanned, so passed as an array; a ragged list stays
        tops = np.array(tops) if types[str(dim)] == {int} else tops
    try:
        if coords is not None:
            coords = np.array(coords, dtype=float)
            if coords.ndim != 2:
                raise ValueError("expected a list of coordinate rows")
        if lengths is not None:
            lengths = {tuple(int(t) for t in k.split(",")): float(v)
                       for k, v in lengths.items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"bad 'vertices' or 'edge_lengths': {exc}") from None
    complex_ = SimplicialComplex.from_simplices(dim, tops, vertex_coords=coords,
                                                edge_lengths=lengths)
    degrees = [str(p) for p in range(1, dim + 1)]
    for key in tables:
        if key not in degrees:
            raise FormatError(f"'simplices' has a table {key!r} outside degrees 1..{dim}")
        # from_simplices has checked the top table itself.
        if key != degrees[-1] and not _lists_faces(tables[key], complex_.simplices[int(key)]):
            raise FormatError(f"'simplices' table {key} is not the degree-{key} faces "
                              f"of the degree-{dim} table")
    return complex_


def _lists_faces(table, faces):
    """Whether a JSON table lists exactly these faces (a sorted table of
    increasing rows), in any row and vertex order."""
    try:
        rows = np.reshape(table, (len(table), faces.shape[1]))
    except (TypeError, ValueError):
        return False
    if len(rows) and rows.dtype.kind not in "iu":
        return False
    rows = np.sort(rows, axis=1)
    return np.array_equal(rows[np.lexsort(rows.T[::-1])], faces)
