"""Simplicial complexes, cochains, and the signed coboundary operator.

Simplices are stored with strictly increasing vertex indices; the
orientation of every simplex is the one implied by the global vertex
ordering.  Every simplex table is kept in strictly increasing key
order (sorted, no duplicate rows), where a row's key is its digits in
base n_vertices; the complex checks this on construction, so row and
column indices of the operators are reproducible across runs and file
round-trips, and lookups are binary searches.  The coboundary is kept
as each coface's table of facet rows and applied as a signed gather, so
the module needs numpy alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import _text
from .errors import ConfigError, FormatError, GeometryError, MeshError

_EDGE_LENGTH_RTOL = 1e-12
# Below this length an edge's squared length is subnormal.
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)


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


@dataclass(frozen=True)
class SimplicialComplex:
    """An oriented simplicial complex with a local metric on its edges.

    Construction checks the table invariant and raises MeshError where
    it fails: every table is an integer array; the vertex table is
    0, 1, ..., n_0 - 1; every row is strictly increasing; every table
    is strictly increasing in its row keys, so sorted and free of
    duplicate rows; every facet of a simplex is in the complex; and
    vertex_coords, if given, has n_0 rows.

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
        return _row_norms(ends[:, 1] - ends[:, 0])

    def _validate(self):
        if self.dimension < 1:
            raise MeshError("complex must contain at least edges (dimension >= 1)")
        for p in range(self.dimension + 1):
            if p not in self.simplices:
                raise MeshError(f"missing simplex table for degree {p}")
        for p, table in self.simplices.items():
            if table.ndim != 2 or table.shape[1] != p + 1 or table.dtype.kind not in "iu":
                raise MeshError(f"degree-{p} table must be integers in {p + 1} columns")
            if p > 0 and not np.all(table[:, :-1] < table[:, 1:]):
                raise MeshError("simplex vertex indices must be strictly increasing")
        # Degree by degree: facets present at every degree means, by
        # induction, every face is, and then every key is in range.
        base = int(self.simplices[0].max(initial=-1)) + 1
        facets = {}
        for p in range(self.dimension + 1):
            if p:
                rows = _facets(self.simplices[p])
                query = _keys(rows, base)
                # Misses land on a wrong key or on the sentinel, which no key reaches.
                keys = np.append(keys, np.iinfo(np.int64).max)
                found = np.searchsorted(keys, query)
                miss = keys[found] != query
                if np.any(miss):
                    raise MeshError(f"simplex {tuple(rows[miss][0].tolist())} "
                                    f"is not in the complex")
                found.flags.writeable = False
                facets[p] = found
            keys = _keys(self.simplices[p], base)
            if np.any(keys[1:] <= keys[:-1]):
                raise MeshError(f"degree-{p} table must be sorted, without duplicates")
        n = self.n_simplices(0)
        if not np.array_equal(self.simplices[0][:, 0], np.arange(n)):
            raise MeshError(f"vertex table must be 0, 1, ..., {n - 1}")
        if self.vertex_coords is not None and len(self.vertex_coords) != n:
            raise MeshError(f"{len(self.vertex_coords)} vertex coordinates for {n} vertices")
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
        geometry is computed, as do no top simplices and no coordinates.
        """
        try:
            tops = np.reshape(top_simplices, (len(top_simplices), dimension + 1))
        except (TypeError, ValueError):  # ragged, or rows of another width
            raise MeshError(f"every top simplex needs {dimension + 1} vertices") from None
        n_vertices = None
        if vertex_coords is not None:
            vertex_coords = np.asarray(vertex_coords, dtype=float)
            n_vertices = len(vertex_coords)
        elif not len(tops):
            raise MeshError("no top simplices and no vertex coordinates")

        def bad_index(v):
            span = "n_vertices" if n_vertices is None else n_vertices
            return MeshError(f"vertex index {v!r} is not an integer in [0, {span})")
        # Integer-typed indices only (1.0 fails too).  When numpy could not
        # make an integer array, name the entry that stopped it.
        if tops.dtype.kind not in "iu":
            for v in np.array(top_simplices, dtype=object).ravel():
                if not isinstance(v, (int, np.integer)) or not 0 <= v < 2 ** 63:
                    raise bad_index(v)
        if n_vertices is None:
            n_vertices = int(tops.max()) + 1
        bad = (tops < 0) | (tops >= n_vertices)
        if np.any(bad):
            raise bad_index(tops[bad].tolist()[0])
        tops = np.sort(tops.astype(np.int64), axis=1)
        if np.any(tops[:, 1:] == tops[:, :-1]):
            raise MeshError("top simplex with repeated vertices")
        first = np.unique(_keys(tops, n_vertices), return_index=True)[1]
        if len(first) < len(tops):
            dup = tuple(np.delete(tops, first, axis=0)[0].tolist())
            raise MeshError(f"duplicate top simplex {dup}")
        simplices = {dimension: tops[first]}
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


def build_coboundary(complex_, p):
    """Signed incidence matrix D_p sending p-cochains to (p+1)-cochains.

    Row r, for the (p+1)-simplex [v_0..v_{p+1}], carries (-1)^k on the
    face omitting v_k; every entry is 0 or +-1 and each row has exactly
    p+2 nonzeros.
    """
    if not 0 <= p < complex_.dimension:
        raise ConfigError(f"degree {p} out of range for dimension {complex_.dimension}")
    return Coboundary(complex_.facets[p + 1], complex_.n_simplices(p))


def _row_norms(diff):
    """Euclidean norm of each row of an (n, d) array.  Only rows whose
    sum of squares overflows (norm above ~1e154) or is subnormal (below
    ~1e-154) are rescaled by their largest component, so every other
    norm is np.linalg.norm's bit for bit."""
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(diff, axis=1)
    odd = np.isinf(norms) | (norms < _SQRT_TINY)
    if odd.any():
        odd &= np.isfinite(diff).all(axis=1) & diff.any(axis=1)
        scale = np.abs(diff[odd]).max(axis=1)
        norms[odd] = scale * np.linalg.norm(diff[odd] / scale[:, None], axis=1)
    return norms


def _same_bits(x, y):
    """Whether two float64 arrays have the same shape and bits."""
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def _generator_tables(lattice, a=0.0, b=1.0):
    """Vertex coordinates and top table, already in key order, of the
    generator mesh on a vertex grid: (n+1,) is the interval [a, b] with
    n edges, (n+1, n+1) the unit square with n-by-n cells."""
    n = lattice[0] - 1
    if len(lattice) == 1:
        first = np.arange(n, dtype=np.int64)
        return (np.linspace(a, b, n + 1).reshape(-1, 1),
                np.column_stack([first, first + 1]))
    ticks = np.arange(n + 1) / n
    coords = np.column_stack([np.tile(ticks, n + 1), np.repeat(ticks, n + 1)])
    # Vertex (i, j) is j (n+1) + i; ll is each cell's lower-left vertex,
    # and its cell's two triangles meet on the diagonal from ll to ur.
    ll = (np.arange(n, dtype=np.int64)[:, None] * (n + 1) + np.arange(n)).ravel()
    ur = ll + n + 2
    return coords, np.column_stack([ll, ll + 1, ur, ll, ll + n + 1, ur]).reshape(-1, 3)


def generate_interval_mesh(a, b, n_edges):
    """Uniform 1D mesh: n_edges+1 equally spaced vertices on [a, b]."""
    if not -np.inf < a < b < np.inf:
        raise ConfigError(f"need finite a < b, got [{a}, {b}]")
    if n_edges < 1:
        raise ConfigError("n_edges must be >= 1")
    coords, edges = _generator_tables((n_edges + 1,), a, b)
    return SimplicialComplex.from_simplices(1, edges, vertex_coords=coords)


def generate_unit_square_mesh(n):
    """Triangulated [0,1]^2 with an n-by-n grid of cells.

    Every cell is split along its lower-left-to-upper-right diagonal,
    giving (n+1)^2 vertices and 2 n^2 triangles.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    coords, tris = _generator_tables((n + 1, n + 1))
    return SimplicialComplex.from_simplices(2, tris, vertex_coords=coords)


def load_off(path):
    """Read an ASCII OFF triangle mesh into a complex.

    Faces must be triangles; lower-degree simplices are induced.  Each
    table is parsed by one numpy call; only a table that call rejects is
    read again line by line, to name the line of the bad entry.
    """
    with open(path) as fh:
        lines = list(map(str.strip, fh.read().split("\n")))
    # Line numbers of the lines that are neither blank nor comments.
    numbers = [no for no, ln in enumerate(lines, 1) if ln and ln[0] != "#"]
    content = [lines[no - 1] for no in numbers]
    if not content or content[0] != "OFF":
        raise FormatError("expected 'OFF' header", line=numbers[0] if content else 1)
    counts_line = numbers[1] if len(numbers) > 1 else len(lines)
    try:
        nv, _, nf = (int(tok) for tok in content[1].split()[:3])
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
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(coords)} {complex_.n_simplices(1)} {len(tris)}\n")
        fh.writelines(_text.blocks(" ".join(["%s"] * len(columns)) + "\n", columns))
        fh.writelines(_text.blocks("3 %s %s %s\n", list(tris.T)))


def save_json(complex_, path):
    """Write a complex in the JSON mesh format: the text of
    json.dump(doc, indent=1, sort_keys=True), written a block of rows at
    a time."""
    coords = complex_.vertex_coords
    with open(path, "w") as fh:
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


def load_json(path):
    """Read a complex from the JSON mesh format."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(str(exc), line=exc.lineno) from None
    try:
        dim = int(doc["dimension"])
        tops = doc["simplices"][str(dim)]
    except (KeyError, TypeError, ValueError):
        raise FormatError("missing 'dimension' or top-simplex table") from None
    coords = doc.get("vertices")
    lengths = None
    try:
        if coords is not None:
            coords = np.array(coords, dtype=float)
            if coords.ndim != 2:
                raise ValueError("expected a list of coordinate rows")
        if doc.get("edge_lengths"):
            lengths = {tuple(int(t) for t in k.split(",")): float(v)
                       for k, v in doc["edge_lengths"].items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"bad 'vertices' or 'edge_lengths': {exc}") from None
    return SimplicialComplex.from_simplices(dim, tops, vertex_coords=coords,
                                            edge_lengths=lengths)
