"""Fractional discrete exterior calculus on simplicial complexes.

Builds weighted, signed coboundary operators whose action on cochains
generalizes the discrete exterior derivative to fractional order, plus
the meshes, metrics, special functions, analytic ground truths, and
reconstruction tools needed to validate it.  The package exports what
the command line, the demos and the experiments use; every other
function is imported from its module (fracdec.metric, fracdec.special,
fracdec.analysis, ...).
"""

from .errors import (
    AccuracyError,
    ConfigError,
    ConnectivityError,
    FormatError,
    GeometryError,
    MeshError,
    SeriesConvergenceError,
)
from .mesh import (
    Cochain,
    SimplicialComplex,
    build_coboundary,
    generate_interval_mesh,
    generate_unit_square_mesh,
    load_json,
    load_off,
    save_json,
    save_off,
)
from .metric import barycenters
from .operator import FracConfig, FracOperator, build_frac_derivative
from .oracles import get_family
from .analysis import (
    convergence_study,
    field_experiment_2d,
    frac_derivative_1d,
    s_sweep,
)

__version__ = "1.0.0"

__all__ = [
    "AccuracyError", "ConfigError", "ConnectivityError", "FormatError",
    "GeometryError", "MeshError", "SeriesConvergenceError",
    "Cochain", "SimplicialComplex", "build_coboundary",
    "generate_interval_mesh", "generate_unit_square_mesh",
    "load_json", "load_off", "save_json", "save_off",
    "barycenters",
    "FracConfig", "FracOperator", "build_frac_derivative",
    "get_family",
    "convergence_study", "field_experiment_2d", "frac_derivative_1d", "s_sweep",
]
