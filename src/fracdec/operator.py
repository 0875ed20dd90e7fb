"""Weight matrix assembly and the fractional discrete exterior derivative.

The operator on p-cochains is (1 / Gamma(1 - s)) * W * D_p, where D_p
is the signed coboundary and W is the matrix of inverse
distance-to-the-s weights between (p+1)-simplices.  Rows of W index the
target simplex, columns the source simplex.  In 1D the sidedness and the
right-side sign are folded into W when it is built.  W is a dense array,
the rows 0..E-1, except on meshes from the two generators, where it is
a multi-level Toeplitz operator: a few rows, whose distances are closed
form, scattered at their per-axis cell lags into symbols that numpy.fft
applies; the dense path is its oracle.  At s = 1 the operator is the
plain coboundary, bit-exactly (Kronecker branch).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
    if config.sidedness == "two_sided" and config.right_sign == "plus":
        return
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
        """Take the symbols from the rows of each class's corner cells.

        Along every axis the class boxes differ in size by at most one
        cell, so the lags seen from a box's two ends cover every lag to
        any other box.  The rows share the dense path's weights, so the
        diagonal is C_s times the largest weight they hold, and in 1D
        left_sided leaves a lower-triangular symbol and "minus" a
        negated upper part.  Where rows see the same lag, their weights
        agree to rounding and the last in C order is kept.
        """
        simp, lattice = complex_.simplices[p + 1], complex_.lattice
        # A vertex's flat index is its lattice coordinates in C order,
        # so flat offsets from the lowest vertex key the classes.
        cells = np.unravel_index(simp[:, 0], lattice)
        _, kind = np.unique(mesh._keys(simp[:, 1:] - simp[:, :1], complex_.n_simplices(0)),
                            return_inverse=True)
        kinds = kind.max() + 1
        grid = tuple(_fast_len(2 * m - 1) for m in lattice)
        slots = np.ravel_multi_index((kind, *cells), (kinds, *grid))
        # Corner rows: cells at their class's lowest or highest on every axis.
        corner = True
        for c, m in zip(cells, lattice):
            lo, hi = np.full(kinds, m), np.zeros(kinds, dtype=np.intp)
            np.minimum.at(lo, kind, c)
            np.maximum.at(hi, kind, c)
            corner = corner & ((c == lo[kind]) | (c == hi[kind]))
        rows = np.flatnonzero(corner)
        w = _weight_rows(complex_, p, config, rows)
        # The symbols are kept over 2^exponent, which brings the largest
        # weight into [0.5, 1) exactly, so the transform cannot overflow
        # where W @ x would not (say at a huge C_s).
        exponent = int(np.frexp(np.abs(w).max())[1])
        # Each row's weights go to its class pair and, per axis, the cell
        # difference, whose negative values index from the end: the lag.
        table = np.zeros((kinds, kinds, *grid))
        table[(kind[rows, None], kind, *(c[rows, None] - c for c in cells))] = \
            np.ldexp(w, -exponent)
        symbols = np.fft.rfftn(table, axes=tuple(range(2, 2 + len(grid))))
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
