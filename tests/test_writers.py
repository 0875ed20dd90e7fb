"""The block writers against the value-at-a-time writers they replace.

The three oracles below are the earlier ``cli._write_rows``,
``mesh.save_off`` and ``mesh.save_json``, which formatted one value at a
time; the block writers must write the same bytes.
"""

import json

import numpy as np
import pytest

from fracdec import (
    SimplicialComplex,
    _text,
    generate_interval_mesh,
    generate_unit_square_mesh,
    save_json,
    save_off,
)
from fracdec.cli import _write_rows

from conftest import json_overridden_lengths_mesh, perturbed_square_mesh


def oracle_write_rows(path, header, columns, rows, fmt):
    with open(path, "w") as fh:
        fh.write(header)
        if fmt == "json":
            json.dump([dict(zip(columns, r)) for r in rows], fh, indent=1)
            fh.write("\n")
        else:
            fh.write(",".join(columns) + "\n")
            for r in rows:
                fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                                  for v in r) + "\n")


def oracle_save_off(complex_, path):
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


def oracle_save_json(complex_, path):
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


_LONG = 2 * _text.BLOCK_ROWS + 3
_rng = np.random.default_rng(0)
_TABLES = {
    "ints": {"a": [0, -1, 7, 2 ** 62, -2 ** 63], "b": [3, -40, 0, 1, -2]},
    "floats": {"x": [-0.0, 5e-324, 1e300, float("nan"), float("inf"), -float("inf"),
                     0.1, 1.0 / 3.0],
               "i": list(range(8))},
    "none_first": {"n": [2, 4, 8], "error": [1.5, 0.25, 0.125],
                   "ratio": [None, 0.1666, 0.5]},
    "strings": {"family": ['say "hi"', "back\\slash", "naïve", "日本", "a, b", "%s %d%%"],
                'key "%s" ü': [0.5] * 6},
    "empty": {"simplex_index": [], "value": []},
    "long_lists": {"i": list(range(-5, _LONG - 5)),
                   "v": _rng.standard_normal(_LONG).tolist(),
                   "name": ["p:dx", "p:dy"] * (_LONG // 2) + ["p:dx"]},
    "long_arrays": {"i": np.arange(_LONG), "v": _rng.standard_normal(_LONG) * 1e-300,
                    "w": np.ones(_LONG) / 7},
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(_TABLES))
def test_rows_match_value_at_a_time_writer(tmp_path, name, fmt):
    table = _TABLES[name]
    header = '# config: {"command": "test"}\n'
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
    want, got = tmp_path / "want", tmp_path / "got"
    oracle_write_rows(want, header, list(table), list(zip(*columns)), fmt)
    _write_rows(got, header, table, fmt)
    assert got.read_bytes() == want.read_bytes()


def _odd_values_mesh():
    coords = [[-0.0, 5e-324], [1e300, 0.0], [0.0, 1e300], [1e300, 1e300]]
    return SimplicialComplex.from_simplices(2, [(0, 1, 2), (1, 2, 3)],
                                            vertex_coords=coords)


def _abstract_mesh(n):
    # More than ten vertices, so key order ("0,10" < "0,2") is not edge order.
    edges = [(i, j) for i in range(n) for j in range(i + 1, min(i + 4, n))]
    return SimplicialComplex.from_simplices(
        1, edges, edge_lengths={e: 0.5 + e[0] / 3 + e[1] for e in edges})


_MESHES = {
    "interval": lambda tmp: generate_interval_mesh(-3.0, 1e300, 10),
    "interval_long": lambda tmp: generate_interval_mesh(0.0, 1.0, _LONG),
    "square": lambda tmp: generate_unit_square_mesh(4),
    "square_long": lambda tmp: generate_unit_square_mesh(48),
    "perturbed_square": lambda tmp: perturbed_square_mesh(5, seed=1),
    "odd_values": lambda tmp: _odd_values_mesh(),
    "3d_square": lambda tmp: SimplicialComplex.from_simplices(
        2, generate_unit_square_mesh(3).simplices[2],
        vertex_coords=np.column_stack([generate_unit_square_mesh(3).vertex_coords,
                                       np.linspace(0.0, 1.0, 16)])),
    "abstract": lambda tmp: _abstract_mesh(13),
    "abstract_empty": lambda tmp: SimplicialComplex(
        1, {0: np.arange(3).reshape(-1, 1), 1: np.empty((0, 2), dtype=np.int64)},
        edge_lengths=np.empty(0)),
    "overridden_lengths": lambda tmp: json_overridden_lengths_mesh(tmp, seed=4),
}


@pytest.mark.parametrize("name", list(_MESHES))
def test_mesh_files_match_value_at_a_time_writers(tmp_path, name):
    cx = _MESHES[name](tmp_path)
    writers = [(save_json, oracle_save_json)]
    if cx.dimension == 2:
        writers.append((save_off, oracle_save_off))
    for new, old in writers:
        got, want = tmp_path / "got", tmp_path / "want"
        new(cx, got)
        old(cx, want)
        assert got.read_bytes() == want.read_bytes(), new.__name__


@pytest.mark.parametrize("values", [[], [1.5], ["a, b", "c"], ["x", None, 2, 0.5],
                                    ["ü", '"', "\\", "\n"]])
def test_json_text_is_the_encoders(values):
    assert _text.json_text(values) == [json.dumps(v) for v in values]
