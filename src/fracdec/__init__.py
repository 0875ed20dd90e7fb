"""Fractional discrete exterior calculus on simplicial complexes.

Builds weighted, signed coboundary operators whose action on cochains
generalizes the discrete exterior derivative to fractional order, plus
the meshes, metrics, special functions, analytic ground truths, and
reconstruction tools needed to validate it.
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
    apply_coboundary,
    build_coboundary,
    generate_interval_mesh,
    generate_unit_square_mesh,
    load_json,
    load_off,
    save_json,
    save_off,
)
from .metric import (
    DISTANCE_MODES,
    DistanceTable,
    all_pairs_vertex_distance,
    barycenters,
    boundary_offsets,
    simplex_distance,
)
from .special import gamma, mittag_leffler
from .operator import (
    FracConfig,
    FracOperator,
    build_frac_derivative,
    build_weight_matrix,
)
from .oracles import (
    ClosedFormFamily,
    QuadratureSpec,
    caputo_power,
    caputo_quadrature,
    family_names,
    frac_gradient_saddle,
    frac_gradient_shifted_min,
    get_family,
    left_caputo_exp,
    two_sided_cubic,
    two_sided_poly,
    two_sided_quadratic,
)
from .analysis import (
    StairsFunction,
    WhitneyField,
    convergence_study,
    edge_integrals,
    eval_at_barycenters,
    field_experiment_2d,
    frac_derivative_1d,
    l2_error_stairs,
    linf_error,
    relative_l2_per_triangle,
    s_sweep,
    to_stairs,
    whitney_reconstruct,
)

__version__ = "1.0.0"

__all__ = [
    "AccuracyError", "ConfigError", "ConnectivityError", "FormatError",
    "GeometryError", "MeshError", "SeriesConvergenceError",
    "Cochain", "SimplicialComplex", "apply_coboundary", "build_coboundary",
    "generate_interval_mesh", "generate_unit_square_mesh",
    "load_json", "load_off", "save_json", "save_off",
    "DISTANCE_MODES", "DistanceTable", "all_pairs_vertex_distance",
    "barycenters", "boundary_offsets", "simplex_distance",
    "gamma", "mittag_leffler",
    "FracConfig", "FracOperator", "build_frac_derivative", "build_weight_matrix",
    "ClosedFormFamily", "QuadratureSpec", "caputo_power", "caputo_quadrature",
    "family_names", "frac_gradient_saddle", "frac_gradient_shifted_min",
    "get_family", "left_caputo_exp", "two_sided_cubic", "two_sided_poly",
    "two_sided_quadratic",
    "StairsFunction", "WhitneyField", "convergence_study", "edge_integrals",
    "eval_at_barycenters", "field_experiment_2d", "frac_derivative_1d",
    "l2_error_stairs", "linf_error", "relative_l2_per_triangle", "s_sweep",
    "to_stairs", "whitney_reconstruct",
]
