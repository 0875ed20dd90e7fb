"""Public entry points refuse bad input with the package's own errors.

A family of the wrong dimension, a degree that is not an integer in
0..dimension (a float or a bool), distance rows that are not a 1D
integer index array in range (a float, a negative or too large index,
a 2D array or a boolean mask) and a sidedness the mesh cannot take
each end in ConfigError or MeshError (exit 2 or 3 on the command line),
never in a TypeError, KeyError, IndexError or ValueError.
"""

import pytest

from fracdec import (
    ConfigError,
    FracConfig,
    MeshError,
    SimplicialComplex,
    build_frac_derivative,
    convergence_study,
    field_experiment_2d,
    frac_derivative_1d,
    generate_interval_mesh,
    generate_unit_square_mesh,
    get_family,
    s_sweep,
)
from fracdec import metric

_EDGES = [(0, 1), (1, 2), (2, 3)]


def _vertical_line():
    return SimplicialComplex.from_simplices(
        1, _EDGES, vertex_coords=[(0, 0), (0, 1), (0, 2), (0, 3)])


def _abstract_line():
    return SimplicialComplex.from_simplices(1, _EDGES, edge_lengths=dict.fromkeys(_EDGES, 1.0))


def _distance_rows(mode, rows):
    """Rows of the 4-edge interval's edge distances, as a call."""
    return lambda: metric.simplex_distance(generate_interval_mesh(0, 1, 4), 1, mode, rows=rows)


_LEFT, _MINUS = FracConfig(sidedness="left_sided"), FracConfig(right_sign="minus")

CASES = {
    "frac_derivative_1d-2d-family":
        lambda: frac_derivative_1d(4, get_family("saddle_2d"), FracConfig()),
    "convergence_study-2d-family":
        lambda: convergence_study(get_family("saddle_2d"), 0.5, [4]),
    "s_sweep-2d-family": lambda: s_sweep(get_family("saddle_2d"), [0.5], [4]),
    "field_experiment_2d-1d-family":
        lambda: field_experiment_2d(2, get_family("exp_x"), FracConfig()),
    "field_experiment_2d-left": lambda: field_experiment_2d(2, get_family("saddle_2d"), _LEFT),
    "field_experiment_2d-minus":
        lambda: field_experiment_2d(2, get_family("saddle_2d"), _MINUS),
    "build_frac_derivative-degree1-interval":
        lambda: build_frac_derivative(generate_interval_mesh(0, 1, 4), 1, FracConfig()),
    "build_frac_derivative-degree2-square":
        lambda: build_frac_derivative(generate_unit_square_mesh(2), 2, FracConfig()),
    "build_frac_derivative-degree-1":
        lambda: build_frac_derivative(generate_unit_square_mesh(2), -1, FracConfig()),
    "build_frac_derivative-left-square":
        lambda: build_frac_derivative(generate_unit_square_mesh(2), 0, _LEFT),
    "build_frac_derivative-left-vertical":
        lambda: build_frac_derivative(_vertical_line(), 0, _LEFT),
    "build_frac_derivative-minus-vertical":
        lambda: build_frac_derivative(_vertical_line(), 0, _MINUS),
    "build_frac_derivative-left-abstract":
        lambda: build_frac_derivative(_abstract_line(), 0, _LEFT),
    "simplex_distance-degree3-square":
        lambda: metric.simplex_distance(generate_unit_square_mesh(2), 3),
    "simplex_distance-degree2-interval":
        lambda: metric.simplex_distance(generate_interval_mesh(0, 1, 4), 2, "euclidean"),
    "simplex_distance-degree-1":
        lambda: metric.simplex_distance(generate_unit_square_mesh(2), -1),
    "barycenters-degree3-square": lambda: metric.barycenters(generate_unit_square_mesh(2), 3),
    "barycenters-degree2-interval":
        lambda: metric.barycenters(generate_interval_mesh(0, 1, 4), 2),
    "barycenters-degree-1": lambda: metric.barycenters(generate_unit_square_mesh(2), -1),
    "simplex_distance-degree1.5":
        lambda: metric.simplex_distance(generate_unit_square_mesh(2), 1.5),
    "build_frac_derivative-degree0.5":
        lambda: build_frac_derivative(generate_unit_square_mesh(2), 0.5, FracConfig()),
    "barycenters-degree1.0": lambda: metric.barycenters(generate_unit_square_mesh(2), 1.0),
    "build_frac_derivative-degree-True":
        lambda: build_frac_derivative(generate_unit_square_mesh(2), True, FracConfig()),
    **{f"simplex_distance-{mode}-rows{name}": _distance_rows(mode, rows)
       for mode in ("geodesic", "euclidean")
       for name, rows in (("1.5", [1.5]), ("5", [5]), ("-1", [-1]), ("2d", [[0, 1]]),
                          ("mask", [True, False, True, False]))},
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_bad_input_raises_a_package_error(call):
    with pytest.raises((ConfigError, MeshError)):
        call()
