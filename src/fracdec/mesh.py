"""Simplicial complexes, cochains, and the signed coboundary operator.

Simplices are stored with strictly increasing vertex indices; the
orientation of every simplex is the one implied by the global vertex
ordering.  Simplex tables are sorted lexicographically so that row and
column indices of the operators are reproducible across runs and file
round-trips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, FormatError, GeometryError, MeshError

_EDGE_LENGTH_RTOL = 1e-12


def _facets(table):
    """The (n, q+1, q) facets of an (n, q+1) simplex table: row r, slot k
    is simplex r without its vertex k (still increasing)."""
    return np.stack([np.delete(table, k, axis=1) for k in range(table.shape[1])],
                    axis=1)


@dataclass(frozen=True)
class SimplicialComplex:
    """An oriented simplicial complex with a local metric on its edges.

    Attributes:
        dimension: top dimension N of the complex.
        simplices: map p -> (n_p, p+1) integer array of p-simplices,
            each row strictly increasing, rows sorted lexicographically.
        vertex_coords: optional (n_0, d) embedding of the vertices.
        edge_lengths: positive edge lengths aligned with simplices[1].
        lengths_overridden: True when edge_lengths were supplied
            explicitly instead of being derived from the embedding.
    """

    dimension: int
    simplices: dict[int, np.ndarray]
    vertex_coords: np.ndarray | None = None
    edge_lengths: np.ndarray = field(default=None)  # type: ignore[assignment]
    lengths_overridden: bool = False

    def __post_init__(self):
        if self.dimension < 1:
            raise MeshError("complex must contain at least edges (dimension >= 1)")
        for p in range(self.dimension + 1):
            if p not in self.simplices:
                raise MeshError(f"missing simplex table for degree {p}")
        lengths = self.edge_lengths
        supplied = lengths is not None
        if not supplied:
            if self.vertex_coords is None:
                raise MeshError("edge lengths required when there is no embedding")
            lengths = self._euclidean_edge_lengths()
        object.__setattr__(self, "edge_lengths", np.asarray(lengths, dtype=float))
        self._validate(supplied)

    def _euclidean_edge_lengths(self):
        edges = self.simplices[1]
        diff = self.vertex_coords[edges[:, 1]] - self.vertex_coords[edges[:, 0]]
        return np.linalg.norm(diff, axis=1)

    def _validate(self, lengths_supplied):
        for p, table in self.simplices.items():
            if table.ndim != 2 or table.shape[1] != p + 1:
                raise MeshError(f"degree-{p} table must have {p + 1} columns")
            if p > 0 and not np.all(table[:, :-1] < table[:, 1:]):
                raise MeshError("simplex vertex indices must be strictly increasing")
        # Facets present at every degree means, by induction, every face is.
        for p in range(1, self.dimension + 1):
            self.locate(p - 1, _facets(self.simplices[p]))
        if len(self.edge_lengths) != len(self.simplices[1]):
            raise MeshError("edge_lengths must align with the edge table")
        if not np.all(np.isfinite(self.edge_lengths)) or np.any(self.edge_lengths <= 0):
            raise GeometryError("edge lengths must be strictly positive and finite")
        # Lengths derived from the embedding agree with it by construction.
        if lengths_supplied and self.vertex_coords is not None \
                and not self.lengths_overridden:
            euclid = self._euclidean_edge_lengths()
            if np.any(np.abs(self.edge_lengths - euclid) > _EDGE_LENGTH_RTOL * np.maximum(euclid, 1.0)):
                raise MeshError("edge lengths disagree with the embedding")

    def n_simplices(self, p):
        return len(self.simplices[p])

    def locate(self, p, rows):
        """Row indices in the degree-p table of the given p-simplices.

        rows is an (..., p+1) integer array of increasing vertex tuples;
        the result has shape rows.shape[:-1].  Raises MeshError if any
        of them is not in the table.
        """
        table = self.simplices[p]
        rows = np.asarray(rows, dtype=np.int64)
        base = int(self.simplices[0].max(initial=-1)) + 1
        if base ** (p + 1) >= 2 ** 63:
            raise MeshError(f"too many vertices to index degree-{p} simplices")
        # Lexicographic key of a row: its digits in base n_vertices.  The
        # sentinel key -1 (row n) is what misses land on, even when the
        # table is empty; out-of-range queries get key -2.
        place = base ** np.arange(p, -1, -1, dtype=np.int64)
        keys = np.append(table @ place, -1)
        order = np.argsort(keys)
        in_range = np.all((rows >= 0) & (rows < base), axis=-1)
        query = np.where(in_range, rows @ place, -2)
        pos = np.searchsorted(keys, query, sorter=order).clip(max=len(table))
        found = order[pos]
        miss = keys[found] != query
        if np.any(miss):
            bad = tuple(int(v) for v in rows[miss][0])
            raise MeshError(f"simplex {bad} is not in the complex")
        return found

    @classmethod
    def from_simplices(cls, dimension, top_simplices, vertex_coords=None,
                       edge_lengths=None, n_vertices=None):
        """Build a complex from its top-dimensional simplices.

        Lower-degree faces are induced automatically so the closure
        property holds by construction.  ``edge_lengths``, if given, is a
        map from increasing vertex pairs to lengths (overriding any
        embedding).  A ragged or wrong-width list, a vertex index that is
        not an integer in [0, n_vertices), repeated vertices, a duplicate
        top simplex or an edge without a length raises MeshError before
        any geometry is computed.
        """
        try:
            tops = np.array(top_simplices)
            tops = tops.reshape(len(tops), dimension + 1)
        except (TypeError, ValueError):  # ragged, or rows of another width
            raise MeshError(f"every top simplex needs {dimension + 1} vertices") from None
        if vertex_coords is not None:
            vertex_coords = np.asarray(vertex_coords, dtype=float)
            n_vertices = len(vertex_coords)
        if n_vertices is None and not len(tops):
            raise MeshError("no top simplices and no vertex count")

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
        top_table, counts = np.unique(tops, axis=0, return_counts=True)
        if np.any(counts > 1):
            dup = tuple(top_table[counts > 1][0].tolist())
            raise MeshError(f"duplicate top simplex {dup}")
        simplices = {dimension: top_table}
        for p in range(dimension - 1, 0, -1):
            simplices[p] = np.unique(_facets(simplices[p + 1]).reshape(-1, p + 1), axis=0)
        simplices[0] = np.arange(n_vertices, dtype=np.int64).reshape(-1, 1)
        lengths = None
        overridden = False
        if edge_lengths is not None:
            try:
                lengths = np.array([edge_lengths[tuple(e)]
                                    for e in simplices[1].tolist()], dtype=float)
            except KeyError as exc:
                raise MeshError(f"no length given for edge {exc.args[0]}") from None
            overridden = vertex_coords is not None
        return cls(dimension, simplices, vertex_coords, lengths, overridden)


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


def build_coboundary(complex_, p):
    """Signed incidence matrix D_p sending p-cochains to (p+1)-cochains.

    Row r, for the (p+1)-simplex [v_0..v_{p+1}], carries (-1)^k on the
    face omitting v_k; every entry is 0 or +-1 and each row has exactly
    p+2 nonzeros.
    """
    if not 0 <= p < complex_.dimension:
        raise ConfigError(f"degree {p} out of range for dimension {complex_.dimension}")
    cofaces = complex_.simplices[p + 1]
    n = len(cofaces)
    rows = np.repeat(np.arange(n), p + 2)
    cols = complex_.locate(p, _facets(cofaces)).ravel()
    vals = np.tile((-1) ** np.arange(p + 2), n)
    shape = (n, complex_.n_simplices(p))
    return sp.csr_matrix((vals, (rows, cols)), shape=shape, dtype=np.int64)


def apply_coboundary(matrix, cochain):
    """Matrix-vector product lifting a cochain one degree."""
    if matrix.shape[1] != len(cochain.values):
        raise ConfigError(
            f"cochain length {len(cochain.values)} does not match {matrix.shape[1]} columns"
        )
    return Cochain(cochain.degree + 1, matrix @ cochain.values)


def generate_interval_mesh(a, b, n_edges):
    """Uniform 1D mesh: n_edges+1 equally spaced vertices on [a, b]."""
    if not a < b:
        raise ConfigError(f"need a < b, got [{a}, {b}]")
    if n_edges < 1:
        raise ConfigError("n_edges must be >= 1")
    coords = np.linspace(a, b, n_edges + 1).reshape(-1, 1)
    edges = [(i, i + 1) for i in range(n_edges)]
    return SimplicialComplex.from_simplices(1, edges, vertex_coords=coords)


def generate_unit_square_mesh(n):
    """Triangulated [0,1]^2 with an n-by-n grid of cells.

    Every cell is split along its lower-left-to-upper-right diagonal,
    giving (n+1)^2 vertices and 2 n^2 triangles.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    ticks = np.arange(n + 1) / n
    coords = np.column_stack([np.tile(ticks, n + 1), np.repeat(ticks, n + 1)])
    # Vertex (i, j) is j (n+1) + i; ll is each cell's lower-left vertex.
    ll = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    ur = ll + n + 2
    tris = np.column_stack([ll, ll + 1, ur, ll, ur, ll + n + 1]).reshape(-1, 3)
    return SimplicialComplex.from_simplices(2, tris, vertex_coords=coords)


def load_off(path):
    """Read an ASCII OFF triangle mesh into a complex.

    Faces must be triangles; lower-degree simplices are induced.
    """
    with open(path) as fh:
        lines = [(i + 1, ln.strip()) for i, ln in enumerate(fh)]
    content = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not content or content[0][1] != "OFF":
        raise FormatError("expected 'OFF' header", line=content[0][0] if content else 1)
    try:
        nv, _, nf = (int(tok) for tok in content[1][1].split()[:3])
    except (ValueError, IndexError):
        raise FormatError("expected 'V E F' counts", line=content[1][0]) from None
    body = content[2:]
    if len(body) < nv + nf:
        raise FormatError(f"expected {nv} vertex and {nf} face lines", line=content[1][0])
    coords = []
    for no, ln in body[:nv]:
        try:
            coords.append([float(tok) for tok in ln.split()[:3]])
        except ValueError:
            raise FormatError("bad vertex coordinates", line=no) from None
    faces = []
    for no, ln in body[nv:nv + nf]:
        toks = ln.split()
        try:
            cnt = int(toks[0])
            idx = [int(t) for t in toks[1:1 + cnt]]
        except (ValueError, IndexError):
            raise FormatError("bad face line", line=no) from None
        if cnt != 3:
            raise MeshError(f"unsupported {cnt}-gon face at line {no}: only triangles")
        faces.append(idx)
    coords = np.asarray(coords, dtype=float)
    if coords.shape[1] == 3 and np.all(coords[:, 2] == 0.0):
        coords = coords[:, :2]
    return SimplicialComplex.from_simplices(2, faces, vertex_coords=coords)


def save_off(complex_, path):
    """Write a 2D embedded complex as ASCII OFF (z padded with 0)."""
    if complex_.dimension != 2 or complex_.vertex_coords is None:
        raise MeshError("OFF output requires an embedded triangle mesh")
    coords = complex_.vertex_coords
    if coords.shape[1] == 2:
        coords = np.hstack([coords, np.zeros((len(coords), 1))])
    tris = complex_.simplices[2]
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(coords)} {complex_.n_simplices(1)} {len(tris)}\n")
        for xyz in coords:
            fh.write(" ".join(repr(float(c)) for c in xyz) + "\n")
        for t in tris:
            fh.write("3 " + " ".join(str(int(v)) for v in t) + "\n")


def save_json(complex_, path):
    """Write a complex in the JSON mesh format."""
    doc = {
        "dimension": complex_.dimension,
        "vertices": None if complex_.vertex_coords is None
        else complex_.vertex_coords.tolist(),
        "simplices": {
            str(p): complex_.simplices[p].tolist()
            for p in range(1, complex_.dimension + 1)
        },
    }
    if complex_.lengths_overridden or complex_.vertex_coords is None:
        doc["edge_lengths"] = {
            ",".join(map(str, e)): float(l)
            for e, l in zip(complex_.simplices[1].tolist(), complex_.edge_lengths)
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


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
    n_vertices = len(coords) if coords is not None else None
    return SimplicialComplex.from_simplices(
        dim, tops, vertex_coords=coords, edge_lengths=lengths, n_vertices=n_vertices
    )
