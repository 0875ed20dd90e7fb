"""Weight matrix assembly and the fractional discrete exterior derivative.

The operator on p-cochains is (1 / Gamma(1 - s)) * W * D_p, where D_p
is the signed coboundary and W is the matrix of inverse
distance-to-the-s weights between (p+1)-simplices.  Rows of W index the
target simplex, columns the source simplex.  In 1D the sidedness and the
right-side sign are folded into W when it is built.  W is a dense array,
the rows 0..E-1, except on meshes from the two generators, where it is
a multi-level Toeplitz operator applied by numpy.fft; the dense path is
its oracle.  There half the corner rows (cell 0 on the first lattice
axis, either end of the class's box on the others), whose distances are
closed form, go unfolded into one table by a single flat assignment at
their class pair and cell lag modulo the grid.  W is symmetric, so the
other half-space of lags follows as table[k, l, -L] = table[l, k, L],
and in 1D the sides fold onto the table by lag sign.  The diagonal is
the rows' own (C_s times the largest weight they hold), and the table
is scaled in place by a power of two, the exponent of their largest
weight, before its transform.  At s = 1 the operator is the plain
coboundary, bit-exactly (Kronecker branch).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import mesh, metric
from .errors import ConfigError, GeometryError, MeshError
from .special import gamma

SIDEDNESS = ("two_sided", "left_sided")
RIGHT_SIGNS = ("plus", "minus")


@dataclass(frozen=True)
class FracConfig:
    """Parameters of the fractional derivative.

    c_s defaults to 2s / (1 - s); at s = 1 there is no diagonal, so an
    explicit c_s is refused.  right_sign chooses the sign applied
    to contributions from sources to the right of the target in 1D
    two-sided mode: "plus" sums both sides, "minus" subtracts the right
    side.  "plus" is the convention under which the 1D convergence
    study exhibits clean order-1/2 behaviour.  Left-sided mode has no
    right side, so it takes "plus" only.
    """

    s: float = 0.5
    c_s: float | None = None
    sidedness: str = "two_sided"
    right_sign: str = "plus"
    distance_mode: str = "geodesic"

    def __post_init__(self):
        if not 0.0 < self.s <= 1.0:
            raise ConfigError(f"fractional order s must be in (0, 1], got {self.s}")
        if self.c_s is not None and not (math.isfinite(self.c_s) and self.c_s > 0):
            raise ConfigError(f"c_s must be finite and positive, got {self.c_s}")
        if self.c_s is not None and self.s >= 1.0:
            raise ConfigError("c_s has no effect at s = 1, where the operator "
                              "is the plain coboundary")
        if self.sidedness not in SIDEDNESS:
            raise ConfigError(f"unknown sidedness {self.sidedness!r}")
        if self.right_sign not in RIGHT_SIGNS:
            raise ConfigError(f"unknown right_sign {self.right_sign!r}")
        if self.sidedness == "left_sided" and self.right_sign != "plus":
            raise ConfigError(f"right_sign={self.right_sign!r} needs two-sided "
                              f"mode: left_sided has no right side")
        if self.distance_mode not in metric.DISTANCE_MODES:
            raise ConfigError(f"unknown distance mode {self.distance_mode!r}")

    @property
    def diagonal_constant(self):
        """Resolved C_s: the explicit value or the 2s/(1-s) default."""
        if self.c_s is not None:
            return self.c_s
        if self.s >= 1.0:
            raise ConfigError("default c_s = 2s/(1-s) is undefined at s = 1")
        return 2.0 * self.s / (1.0 - self.s)


def _weight_rows(complex_, p, config, rows=None):
    """Rows of the weight matrix W over the (p+1)-simplices, in the
    order given (all of W, rows 0..E-1, when rows is None).

    Off-diagonal entry (i, j) is distance(i, j)^(-s); every diagonal
    entry is C_s times the largest off-diagonal weight of the rows, and
    in 1D the sidedness and right-side sign are folded in row by row.
    Only valid for s in (0, 1); s = 1 takes the Kronecker branch in the
    operator.
    """
    rows = np.arange(complex_.n_simplices(p + 1)) if rows is None else rows
    # The distance table is ours alone, so the weights overwrite it.
    w = metric.simplex_distance(complex_, p + 1, config.distance_mode,
                                rows=rows).entries
    if w.shape[1] < 2:
        raise MeshError("weight matrix needs at least two simplices")
    diagonal = (np.arange(len(w)), rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.power(w, -config.s, out=w)
    w[diagonal] = 0.0
    # A zero off-diagonal distance gives inf, a negative one NaN.
    top = w.max()
    if not np.isfinite(top):
        raise GeometryError("zero distance between distinct simplices")
    w[diagonal] = config.diagonal_constant * top
    if (config.sidedness, config.right_sign) != ("two_sided", "plus"):
        _fold_sides(w, complex_, p + 1, config, rows)
    return w


def _fold_sides(w, complex_, q, config, rows):
    """Fold the 1D sidedness and right-side sign into the given rows
    of W over q-simplices.

    left_sided keeps source j for target t iff barycenter_x(j) <
    barycenter_x(t); the strict comparison zeroes the diagonal as well,
    which is what reproduces the left-sided undershoot behaviour seen in
    the 1D exp experiment.  right_sign "minus" negates the sources
    strictly to the right of the target.  w is changed in place.
    """
    x = metric.barycenters(complex_, q)[:, 0]
    if config.sidedness == "left_sided":
        np.multiply(w, x[None, :] < x[rows, None], out=w)
    else:
        np.negative(w, out=w, where=x[None, :] > x[rows, None])


@functools.lru_cache(maxsize=256)
def _fast_len(n):
    """The smallest 5-smooth integer >= n (a product of 2s, 3s and 5s,
    lengths that numpy.fft's real transforms handle fastest)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # The smallest p35 * 2^k >= n.
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@dataclass(frozen=True)
class _LatticeWeights:
    """W on a generator mesh, applied by FFT without forming it.

    A simplex's class is its vertex offsets from its lowest vertex on
    the lattice, its cell that vertex's lattice coordinates.  Between
    two classes W depends only on the difference of the cells, so each
    class pair is a multi-level Toeplitz block.  Its symbol sits in a
    circulant of `grid` points per axis (at least 2m - 1 on an axis of m
    lattice points, so no lag wraps onto another), kept as its rfftn.
    """

    grid: tuple[int, ...]
    slots: np.ndarray     # table index -> flat (class, cell) position
    symbols: np.ndarray   # (classes, classes, *rfft shape of grid)
    exponent: int         # W is 2^exponent times the symbols' matrix

    @classmethod
    def build(cls, complex_, p, config):
        """Take the symbols from half the corner rows of each class, and
        the other half-space of lags from W's symmetry.

        Every class has a simplex at vertex 0, whose other vertices are
        its offsets, and those simplices lead the key-ordered table in
        key order.  Along every axis a class's box of cells starts at 0
        and ends at m - 1 minus its largest offset, so boxes differ in
        size by at most one cell.  The rows are the cells at 0 on the
        first axis and at either end of the box on the others (one row
        per class in 1D, up to two in 2D), so they see every lag to any
        other box whose first component is >= 0 from the source's side.
        They
        come unfolded (two-sided, "plus") from one _weight_rows call, so
        the diagonal is C_s times the largest weight they hold.  As W is
        symmetric, row r's weight to source e is W[e, r], which goes to
        (class_e, class_r, cell_e - cell_r) by one flat assignment, the
        lag taken modulo the grid; where rows see the same lag, their
        weights agree to rounding and the last in C order is kept.  The
        lags < 0 on the first axis are then filled as
        table[k, l, -L] = table[l, k, L], by one ufunc per slice, with
        no copy of the table.  In 1D the sides fold onto the table by
        lag sign: left_sided leaves lags < 0 empty and zeroes lag 0, and
        "minus" fills lags < 0 negated.  The table is then scaled in
        place by 2^-exponent, exponent being that of the rows' largest
        weight (none is negative); the transform writes the symbols in place.
        mesh._check_memory refuses the peak before the rows are made.
        """
        simp, lattice = complex_.simplices[p + 1], complex_.lattice
        kinds = int(simp[:, 0].searchsorted(1))
        key = mesh._keys(simp[:, 1:] - simp[:, :1], complex_.n_simplices(0))
        kind = key[:kinds].searchsorted(key)
        del key
        # A vertex's flat index is its lattice coordinates in C order, so
        # the simplices at cell 0 on the first axis lead the table.
        cells = np.unravel_index(simp[:, 0], lattice)
        reach = np.unravel_index(simp[:kinds], lattice)
        head = int(simp[:, 0].searchsorted(math.prod(lattice[1:])))
        corner = np.ones(head, dtype=bool)
        for c, m, r in zip(cells[1:], lattice[1:], reach[1:]):
            corner &= (c[:head] == 0) | (c[:head] == (m - 1 - r.max(axis=1))[kind[:head]])
        rows = np.flatnonzero(corner)
        grid = tuple(_fast_len(2 * m - 1) for m in lattice)
        size, spectrum = math.prod(grid), (kinds, kinds, *grid[:-1], grid[-1] // 2 + 1)
        # The peak: the table and len(grid) + 3 integers per simplex, with
        # either the rows, their flat indices and a wrap mask (17 bytes an
        # entry) or the symbols; one more integer per simplex covers the
        # small arrays and the transform's own buffers.
        mesh._check_memory(
            8 * (kinds * kinds * size + (len(grid) + 4) * len(simp))
            + max(17 * len(rows) * len(simp), 16 * math.prod(spectrum)),
            f"FFT weights over {len(simp)} degree-{p + 1} simplices need {{:.1f}} GiB")
        flat = np.ravel_multi_index(cells, grid)
        slots = kind * size + flat
        w = _weight_rows(complex_, p, replace(config, sidedness="two_sided", right_sign="plus"),
                         rows)
        # The symbols are kept over 2^exponent, which brings the largest
        # weight into [0.5, 1) exactly, so the transform cannot overflow
        # where W @ x would not (say at a huge C_s).
        exponent = int(np.frexp(w.max())[1])
        # Row r, source e: (kind_e, kind_r, cell_e - cell_r), which is >= 0
        # on the first axis, plus a whole grid on every other axis where
        # it is negative.
        at = np.add.outer(kind[rows] * size - flat[rows], kind * (kinds * size) + flat)
        for a in range(1, len(grid)):
            np.add(at, math.prod(grid[a:]), out=at,
                   where=np.greater.outer(cells[a][rows], cells[a]))
        table = np.zeros((kinds, kinds, *grid))
        table.reshape(-1)[at] = w
        del w, at
        if config.sidedness == "left_sided":
            # Only lags > 0 stay: those < 0 were never filled.
            table[:, :, 0] = 0.0
        else:
            # Lags 1..m-1 on the first axis to their negatives, the pair
            # transposed; on a second axis lag 0 stays and the rest reverse.
            m, n = lattice[0], grid[0]
            fold = np.negative if config.right_sign == "minus" else np.positive
            half, mirror = table[:, :, m - 1:0:-1].swapaxes(0, 1), table[:, :, n - m + 1:]
            if len(grid) == 1:
                fold(half, out=mirror)
            else:
                fold(half[..., :1], out=mirror[..., :1])
                fold(half[..., :0:-1], out=mirror[..., 1:])
        np.ldexp(table, -exponent, out=table)
        symbols = np.fft.rfftn(table, axes=tuple(range(2, 2 + len(grid))),
                               out=np.empty(spectrum, dtype=complex))
        return cls(grid, slots, symbols, exponent)

    @property
    def shape(self):
        return (len(self.slots), len(self.slots))

    @property
    def nbytes(self):
        return self.slots.nbytes + self.symbols.nbytes

    def __matmul__(self, values):
        axes = tuple(range(1, 1 + len(self.grid)))
        x = np.zeros((len(self.symbols), *self.grid))
        x.reshape(-1)[self.slots] = values
        spectra = np.fft.rfftn(x, axes=axes)
        mixed = np.einsum("ij...,j...->i...", self.symbols, spectra)
        y = np.fft.irfftn(mixed, s=self.grid, axes=axes)
        return np.ldexp(y.reshape(-1)[self.slots], self.exponent)


@dataclass(frozen=True)
class FracOperator:
    """Assembled fractional discrete exterior derivative D_p^s.

    apply maps alpha to scale * W * (D_p alpha).  weights is the dense
    array, or on a generator mesh the FFT-applied _LatticeWeights; it is
    None only in the integer branch, where apply is the plain coboundary.
    """

    p: int
    config: FracConfig
    coboundary: mesh.Coboundary
    weights: np.ndarray | _LatticeWeights | None = None
    scale: float = 1.0

    def apply(self, cochain):
        """Map a degree-p cochain to a degree-(p+1) cochain."""
        if cochain.degree != self.p:
            raise ConfigError(f"expected a degree-{self.p} cochain")
        out = self.coboundary @ cochain.values
        if self.weights is not None:
            out = self.scale * (self.weights @ out)
        return mesh.Cochain(self.p + 1, out)


def build_frac_derivative(complex_, p, config):
    """Assemble D_p^s for a complex.

    At s = 1 the weight matrix is skipped entirely so that applying the
    operator is bit-identical to the plain coboundary.  left_sided and
    right_sign "minus" compare first coordinates, so they are rejected,
    at any s, off 1D complexes whose other coordinates are constant.  A
    complex from a mesh generator (its lattice is set) gets the
    FFT-applied weights, any other the dense matrix.
    """
    coords = complex_.vertex_coords
    for name, default in (("sidedness", "two_sided"), ("right_sign", "plus")):
        value = getattr(config, name)
        if value != default and complex_.dimension != 1:
            raise ConfigError(f"{name}={value!r} is defined for 1D complexes "
                              f"only, not dimension {complex_.dimension}")
        if value != default and coords is not None and np.any(coords[:, 1:] != coords[:1, 1:]):
            raise ConfigError(f"{name}={value!r} compares first coordinates, so the "
                              f"other coordinates of the 1D complex must be constant")
    d = mesh.build_coboundary(complex_, p)
    if config.s >= 1.0:
        return FracOperator(p=p, config=config, coboundary=d)
    if complex_.lattice is None:
        w = _weight_rows(complex_, p, config)
    else:
        w = _LatticeWeights.build(complex_, p, config)
    scale = 1.0 / gamma(1.0 - config.s)
    return FracOperator(p=p, config=config, coboundary=d, weights=w, scale=scale)
