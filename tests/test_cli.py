"""Command-line interface: subcommands, exit codes, determinism."""

import itertools
import json
import os
import subprocess
import sys
import warnings

import pytest

from caputo_oracle import caputo_quadrature, derivative
import numpy as np

import fracdec
from fracdec import analysis
from fracdec import (
    AccuracyError,
    Cochain,
    FracConfig,
    build_frac_derivative,
    generate_interval_mesh,
    generate_unit_square_mesh,
    get_family,
    load_json,
    load_off,
)
from fracdec.cli import main


def run(*argv):
    return main(list(argv))


class TestGenMesh:
    def test_interval_json(self, tmp_path):
        out = tmp_path / "m.json"
        assert run("gen-mesh", "interval", "--edges", "8", "-o", str(out)) == 0
        cx = load_json(out)
        assert cx.n_simplices(1) == 8

    def test_square_off(self, tmp_path):
        out = tmp_path / "m.off"
        assert run("gen-mesh", "square", "--n", "3", "-o", str(out)) == 0
        cx = load_off(out)
        assert cx.n_simplices(2) == 18

    def test_square_requires_n(self, tmp_path):
        out = tmp_path / "m.off"
        assert run("gen-mesh", "square", "-o", str(out)) == 2

    @pytest.mark.parametrize("kind, option", [
        ("square", ("--edges", "4")), ("square", ("--a", "0.5")),
        ("square", ("--b", "2")), ("interval", ("--n", "3"))])
    def test_option_of_other_kind_exit_2(self, tmp_path, capsys, kind, option):
        # Square meshes take only --n, interval meshes only --a, --b, --edges.
        out = tmp_path / "m.json"
        size = ("--n", "2") if kind == "square" else ()
        assert run("gen-mesh", kind, *size, *option, "-o", str(out)) == 2
        assert f"{option[0]} cannot be used with {kind}" in capsys.readouterr().err
        assert not out.exists()

    def test_interval_ends_and_default_size(self, tmp_path):
        out = tmp_path / "m.json"
        assert run("gen-mesh", "interval", "--a", "-1", "--b", "3",
                   "-o", str(out)) == 0
        x = load_json(out).vertex_coords[:, 0]
        assert len(x) == 17 and (x[0], x[-1]) == (-1.0, 3.0)

    def test_missing_output_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("gen-mesh", "interval")
        assert exc.value.code == 2

    def test_short_edges(self, tmp_path):
        # Squared edge lengths of 2e-301 underflow; the lengths must not.
        out, deriv = tmp_path / "m.json", tmp_path / "d.csv"
        assert run("gen-mesh", "interval", "--a", "1e-300", "--b", "2e-300",
                   "--edges", "5", "-o", str(out)) == 0
        cx = load_json(out)
        np.testing.assert_allclose(cx.edge_lengths, (2e-300 - 1e-300) / 5, rtol=1e-15)
        assert cx.lattice == (6,)
        for source in (("--interval", "4", "--a", "1e-300", "--b", "2e-300"),
                       ("--mesh", str(out))):
            assert run("frac-deriv", *source, "--family", "power",
                       "-o", str(deriv)) == 0


class TestFracDeriv:
    def test_from_generated_interval(self, tmp_path):
        out = tmp_path / "d.csv"
        code = run("frac-deriv", "--interval", "8", "--family", "power",
                   "-o", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "simplex_index,value"
        assert len(lines) == 2 + 8

    def test_from_mesh_file(self, tmp_path):
        mesh_path = tmp_path / "m.json"
        run("gen-mesh", "interval", "--edges", "4", "-o", str(mesh_path))
        out = tmp_path / "d.json"
        code = run("frac-deriv", "--mesh", str(mesh_path), "--family", "cubic_x3",
                   "--format", "json", "-o", str(out))
        assert code == 0
        body = out.read_text().splitlines()
        rows = json.loads("\n".join(body[1:]))
        assert len(rows) == 4 and "value" in rows[0]

    def test_unknown_family_exit_2(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run("frac-deriv", "--interval", "4", "--family", "nope",
                   "-o", str(out)) == 2

    def test_no_mesh_source_exit_2(self, tmp_path):
        out = tmp_path / "d.csv"
        with pytest.raises(SystemExit) as exc:
            run("frac-deriv", "--family", "power", "-o", str(out))
        assert exc.value.code == 2

    def test_two_mesh_sources_exit_2(self, tmp_path):
        # --mesh, --interval and --square are one mutually exclusive group.
        mesh_path = tmp_path / "m.json"
        run("gen-mesh", "interval", "--edges", "4", "-o", str(mesh_path))
        out = tmp_path / "d.csv"
        for source in (("--mesh", str(mesh_path), "--square", "5"),
                       ("--interval", "4", "--square", "5")):
            with pytest.raises(SystemExit) as exc:
                run("frac-deriv", *source, "--family", "power", "-o", str(out))
            assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("source", [("--square", "2"), ("--mesh", "m.json")])
    @pytest.mark.parametrize("option", [("--a", "0.5"), ("--b", "2")])
    def test_interval_ends_need_interval_exit_2(self, tmp_path, capsys, source,
                                                option):
        mesh_path = tmp_path / "m.json"
        run("gen-mesh", "interval", "--edges", "4", "-o", str(mesh_path))
        if source[0] == "--mesh":
            source = ("--mesh", str(mesh_path))
        out = tmp_path / "d.csv"
        assert run("frac-deriv", *source, "--family", "saddle_2d", *option,
                   "-o", str(out)) == 2
        assert "cannot be used with --mesh or --square" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [("gen-mesh", "interval", "--edges", "3"),
                                         ("frac-deriv", "--interval", "3",
                                          "--family", "power")])
    def test_interval_width_past_the_largest_float_exit_2(self, tmp_path, capsys,
                                                           command):
        out = tmp_path / "m.json"
        assert run(*command, "--a=-1e308", "--b=1e308", "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "overflows a float" in err
        assert not out.exists()

    def test_header_records_only_read_options(self, tmp_path):
        def header(*argv):
            out = tmp_path / "d.csv"
            assert run("frac-deriv", *argv, "-o", str(out)) == 0
            return json.loads(out.read_text().splitlines()[0][len("# config: "):])
        interval = header("--interval", "4", "--family", "power")
        assert (interval["a"], interval["b"]) == (0.0, 1.0)
        square = header("--square", "2", "--family", "saddle_2d")
        assert not {"a", "b", "p", "mesh", "interval"} & set(square)

    def test_2d_family_on_1d_mesh_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("frac-deriv", "--interval", "4", "--family", "saddle_2d",
                   "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "embedded in 1D" in err
        assert not out.exists()

    def test_power_left_of_zero_exit_2(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run("frac-deriv", "--interval", "4", "--a", "-1", "--family",
                   "power", "--q", "0.5", "-o", str(out)) == 2
        assert "x >= 0" in capsys.readouterr().err
        assert not out.exists()
        # An integer power is defined there.
        assert run("frac-deriv", "--interval", "4", "--a", "-1", "--family",
                   "power", "--q", "2", "-o", str(out)) == 0

    def test_source_degree_option_removed(self, tmp_path):
        # Vertex samples are a 0-cochain, so there is no -p.
        with pytest.raises(SystemExit) as exc:
            run("frac-deriv", "--interval", "4", "--family", "power", "-p", "0",
                "-o", str(tmp_path / "d.csv"))
        assert exc.value.code == 2

    def test_corrupt_mesh_exit_3(self, tmp_path):
        bad = tmp_path / "bad.off"
        bad.write_text("not an off file\n")
        out = tmp_path / "d.csv"
        assert run("frac-deriv", "--mesh", str(bad), "--family", "power",
                   "-o", str(out)) == 3

    def test_missing_mesh_file_exit_3(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run("frac-deriv", "--mesh", str(tmp_path / "missing.json"),
                   "--family", "exp_x", "-o", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("name, body, message", [
        ("bad.off", "OFF\n3 3 1\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n",
         "vertex index 7 is not an integer in"),
        ("dup.off", "OFF\n3 3 2\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 2 1\n",
         "duplicate top simplex"),
        ("short.off", "OFF\n3 3 1\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n",
         "line 4: bad vertex coordinates"),
        ("bad.json", '{"dimension": 1, "simplices": {"1": [[0, 1], [1, -2]]}}',
         "vertex index -2 is not an integer in"),
        ("dup.json", '{"dimension": 1, "simplices": {"1": [[0, 1], [0, 1]]}}',
         "duplicate top simplex"),
        ("frac.json", '{"dimension": 1, "simplices": {"1": [[0, 1], [1, 1.5]]}}',
         "vertex index 1.5 is not an integer in"),
    ])
    def test_bad_mesh_topology_exit_3(self, tmp_path, capsys, name, body, message):
        path = tmp_path / name
        path.write_text(body)
        out = tmp_path / "d.csv"
        assert run("frac-deriv", "--mesh", str(path), "--family", "exp_x",
                   "-o", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("mesh error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("name, body, message", [
        # A negative count would slice the file from its end.
        ("nv.off", "OFF\n-1 0 1\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
         "line 2: expected 'V E F' counts"),
        ("nf.off", "OFF\n3 0 -1\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
         "line 2: expected 'V E F' counts"),
        ("float.json", '{"dimension": 1.7, "simplices": {"1": [[0, 1]]}}',
         "'dimension' must be an integer, got 1.7"),
        ("bool.json", '{"dimension": true, "simplices": {"1": [[0, 1]]}}',
         "'dimension' must be an integer, got True"),
        ("faces.json", '{"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1]], '
         '"simplices": {"2": [[0, 1, 2]], "1": [[0, 1], [1, 2]]}}',
         "'simplices' table 1 is not the degree-1 faces of the degree-2 table"),
        ("degree.json", '{"dimension": 1, "vertices": [[0], [1], [2]], '
         '"simplices": {"1": [[0, 1], [1, 2]], "2": [[0, 1, 2]]}}',
         "'simplices' has a table '2' outside degrees 1..1"),
        # A one-edge complex is built in any embedding, then refused.
        ("edge2d.json", '{"dimension": 1, "vertices": [[0, 0], [1, 0]], '
         '"simplices": {"1": [[0, 1]]}}', "weight matrix needs at least two simplices"),
        ("edge3d.json", '{"dimension": 1, "vertices": [[0, 0, 0], [0, 0, 1]], '
         '"simplices": {"1": [[0, 1]]}}', "weight matrix needs at least two simplices"),
        ("nan.json", '{"dimension": 2, "vertices": [[0, 0], [1, NaN], [0, 1]], '
         '"simplices": {"2": [[0, 1, 2]]}, '
         '"edge_lengths": {"0,1": 1, "0,2": 1, "1,2": 1.5}}',
         "vertex coordinates must be finite"),
        ("empty.json", '{"dimension": 1, "vertices": [[], []], "simplices": {"1": [[0, 1]]}}',
         "vertex coordinates must be an (n_vertices, d) array with d >= 1, "
         "not of shape (2, 0)"),
        ("flat.json", '{"dimension": 1, "vertices": [0, 1], "simplices": {"1": [[0, 1]]}}',
         "bad 'vertices' or 'edge_lengths': expected a list of coordinate rows"),
        ("latin1.json", b'{"dimension": 1, "simplices": {"1": [[0, 1]]}, "caf\xe9": 1}',
         "not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 51: "
         "invalid continuation byte"),
        ("latin1.off", b"OFF\n3 3 1\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n\xff\n",
         "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 36: "
         "invalid start byte"),
        # Refused before a table of rows of width dimension + 1 <= 0 is read.
        ("dim0.json", '{"dimension": 0, "simplices": {"0": [[0], [1]]}}',
         "complex must contain at least edges (dimension >= 1)"),
        ("dim-1.json", '{"dimension": -1, "vertices": [[0], [1]], "simplices": {"-1": [[]]}}',
         "complex must contain at least edges (dimension >= 1)"),
        ("dim-2.json", '{"dimension": -2, "simplices": {"-2": [[]]}}',
         "complex must contain at least edges (dimension >= 1)"),
        ("lengths.json", '{"dimension": 1, "edge_lengths": {"0,1": 1, "1,2": 2}, '
         '"simplices": {"1": [[0, 1], [1, 2]]}}',
         "the mesh must be embedded to sample a function"),
        ("bare.json", '{"dimension": 1, "simplices": {"1": [[0, 1], [1, 2]]}}',
         "edge lengths required when there is no embedding"),
        ("list.json", '{"dimension": 1, "simplices": [[0, 1], [1, 2]]}',
         "'simplices' has no degree-1 table"),
    ])
    def test_bad_mesh_file_exit_3(self, tmp_path, capsys, name, body, message):
        path = tmp_path / name
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body)
        out = tmp_path / "d.csv"
        assert run("frac-deriv", "--mesh", str(path), "--family", "exp_x",
                   "-o", str(out)) == 3
        err = capsys.readouterr().err
        assert err == f"mesh error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("extra", ["5,6", "1,2,3", "2,1"])
    def test_length_for_a_non_edge_exit_3(self, tmp_path, capsys, extra):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"dimension": 1, "vertices": [[0], [1], [3]],
                                    "simplices": {"1": [[0, 1], [1, 2]]},
                                    "edge_lengths": {"0,1": 1.0, "1,2": 2.0,
                                                     extra: 1.0}}))
        out = tmp_path / "d.csv"
        assert run("frac-deriv", "--mesh", str(path), "--family", "exp_x",
                   "-o", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("mesh error: length given for (")
        assert "which is not an edge" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("name, doc", [
        ("ragged.json", {"dimension": 2, "vertices": [[0, 0], [1, 0], [0]],
                         "simplices": {"2": [[0, 1, 2]]}}),
        ("length.json", {"dimension": 1, "vertices": [[0], [1], [2]],
                         "simplices": {"1": [[0, 1], [1, 2]]},
                         "edge_lengths": {"0,1": "x", "1,2": 1.0}}),
    ])
    def test_bad_json_values_exit_3(self, tmp_path, capsys, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        out = tmp_path / "d.csv"
        assert run("frac-deriv", "--mesh", str(path), "--family", "exp_x",
                   "-o", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("mesh error: bad 'vertices' or 'edge_lengths'")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_left_sided_minus_exit_2(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run("frac-deriv", "--interval", "4", "--family", "exp_x",
                   "--sidedness", "left", "--right-sign", "minus",
                   "-o", str(out)) == 2
        assert "two-sided" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("s", ["0.5", "1"])
    def test_left_sided_2d_exit_2(self, tmp_path, capsys, s):
        out = tmp_path / "d.csv"
        assert run("frac-deriv", "--square", "2", "--family", "saddle_2d",
                   "--s", s, "--sidedness", "left", "-o", str(out)) == 2
        assert "1D" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_option_removed(self, tmp_path):
        # Nothing in the package is random, so there is no --seed.
        with pytest.raises(SystemExit) as exc:
            run("frac-deriv", "--interval", "4", "--family", "exp_x",
                "--seed", "3", "-o", str(tmp_path / "d.csv"))
        assert exc.value.code == 2

    def test_unwritable_output_exit_3(self, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "d.csv"
        assert run("frac-deriv", "--interval", "4", "--family", "exp_x",
                   "-o", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and err.count("\n") == 1

    def test_infinite_cs_exit_2(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run("frac-deriv", "--interval", "4", "--family", "power",
                   "--cs", "inf", "-o", str(out)) == 2
        assert "c_s must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_dense_memory_guard_exit_2(self, tmp_path, capsys, monkeypatch):
        # A mesh file off the generator lattice (one interior vertex
        # nudged) takes the dense path; the guard stops it before
        # allocating, in one line that points at the generators.
        mesh_path = tmp_path / "m.json"
        assert run("gen-mesh", "interval", "--edges", "64", "-o", str(mesh_path)) == 0
        capsys.readouterr()
        doc = json.loads(mesh_path.read_text())
        doc["vertices"][32][0] += 1e-3
        nudged = tmp_path / "nudged.json"
        nudged.write_text(json.dumps(doc))
        monkeypatch.setattr(fracdec.mesh, "_memory_budget", lambda: 2 ** 15)
        out = tmp_path / "d.csv"
        assert run("frac-deriv", "--mesh", str(nudged), "--family", "exp_x",
                   "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dense distances over 64 ")
        assert "--interval or --square, or a mesh file written by gen-mesh" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err and not out.exists()
        # The generated mesh, and the file written from it, need no dense table.
        for source in (("--interval", "64"), ("--mesh", str(mesh_path))):
            assert run("frac-deriv", *source, "--family", "exp_x",
                       "-o", str(out)) == 0

    def test_fft_memory_guard_exit_2(self, tmp_path, capsys, monkeypatch):
        # An N = 3 square's tables fit in 8 KiB, its FFT build does not:
        # refused before the build allocates, in one line.
        monkeypatch.setattr(fracdec.mesh, "_memory_budget", lambda: 2 ** 13)
        out = tmp_path / "d.csv"
        assert run("frac-deriv", "--square", "3", "--family", "saddle_2d",
                   "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err == ("error: FFT weights over 33 degree-1 simplices need 0.0 GiB, "
                       "more than the 0.0 GiB of memory\n")
        assert not out.exists()
        monkeypatch.setattr(fracdec.mesh, "_memory_budget", lambda: 2 ** 14)
        assert run("frac-deriv", "--square", "3", "--family", "saddle_2d",
                   "-o", str(out)) == 0

    def test_sidedness_off_the_x_axis_exit_2(self, tmp_path, capsys):
        # A 1D mesh along y has one first coordinate: sidedness is refused.
        for column, code in ((1, 2), (0, 0)):
            vertices = [[0, 0] for _ in range(4)]
            for i, row in enumerate(vertices):
                row[column] = i
            mesh_path = tmp_path / f"line{column}.json"
            mesh_path.write_text(json.dumps({"dimension": 1, "vertices": vertices,
                                             "simplices": {"1": [[0, 1], [1, 2], [2, 3]]}}))
            for option in (("--sidedness", "left"), ("--right-sign", "minus")):
                out = tmp_path / "d.csv"
                assert run("frac-deriv", "--mesh", str(mesh_path), "--family", "exp_x",
                           *option, "-o", str(out)) == code
                if code:
                    err = capsys.readouterr().err
                    assert err.startswith("error: ")
                    assert err.endswith("other coordinates of the 1D complex must be constant\n")
                    assert err.count("\n") == 1 and "Traceback" not in err
                    assert not out.exists()
                else:
                    out.unlink()

    # Sizes past int64 keys (V^(dim+1) >= 2^63: N >= 1448 for a square)
    # or past a 1 GiB memory budget.
    @pytest.mark.parametrize("argv, tail", [
        (("frac-deriv", "--interval", "100000000", "--family", "power"), "GiB of memory"),
        (("frac-deriv", "--interval", "100000000000", "--family", "power"),
         "too many to index degree-1 simplices"),
        (("gen-mesh", "square", "--n", "1500"), "too many to index degree-2 simplices"),
        (("gen-mesh", "square", "--n", "3000000"), "too many to index degree-2 simplices"),
        (("field2d", "--family", "saddle_2d", "--n", "3000000"),
         "too many to index degree-2 simplices"),
        (("convergence", "--family", "power", "--edge-counts", "100000000000"),
         "too many to index degree-1 simplices")])
    def test_generator_mesh_beyond_memory_exit_2(self, tmp_path, capsys, monkeypatch,
                                                 argv, tail):
        # Refused from the size alone, before any table is made, in one line.
        def no_tables(*args):
            raise AssertionError("a generator table was made")
        monkeypatch.setattr(fracdec.mesh, "_generator_tables", no_tables)
        monkeypatch.setattr(fracdec.mesh, "_memory_budget", lambda: 2 ** 30)
        assert run(*argv, "-o", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n") and err.endswith(tail + "\n")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not os.listdir(tmp_path)

    def test_bad_s_exit_2(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run("frac-deriv", "--interval", "4", "--family", "power",
                   "--s", "1.5", "-o", str(out)) == 2


# kind -> gen-mesh arguments, file name, the frac-deriv source that
# generates the same mesh, and a family on it.
_GENERATED = {
    "interval": (("interval", "--a", "-1", "--b", "2", "--edges", "50"), "m.json",
                 ("--interval", "50", "--a", "-1", "--b", "2"), "poly_neg10x3_plus_10x2"),
    "square": (("square", "--n", "6"), "m.off", ("--square", "6"), "saddle_2d"),
}


def _gen_mesh_file(tmp_path, kind):
    gen, name, _, _ = _GENERATED[kind]
    path = tmp_path / name
    assert run("gen-mesh", *gen, "-o", str(path)) == 0
    return path


class TestMeshFileLattice:
    """A gen-mesh file is the generator's mesh, so it takes the FFT path."""

    @pytest.mark.parametrize("kind", _GENERATED)
    def test_file_loads_as_lattice(self, tmp_path, kind):
        path = _gen_mesh_file(tmp_path, kind)
        if kind == "interval":
            loaded, want = load_json(path), generate_interval_mesh(-1.0, 2.0, 50)
        else:
            loaded, want = load_off(path), generate_unit_square_mesh(6)
        assert loaded.lattice == want.lattice is not None
        configs = [FracConfig(s=0.3), FracConfig(s=0.7, distance_mode="euclidean")]
        if kind == "interval":
            configs += [FracConfig(s=0.4, sidedness="left_sided"),
                        FracConfig(s=0.6, right_sign="minus")]
        for cfg, p in itertools.product(configs, range(want.dimension)):
            v = Cochain(p, np.sin(np.arange(want.n_simplices(p))))
            a, b = (build_frac_derivative(cx, p, cfg) for cx in (loaded, want))
            assert not isinstance(a.weights, np.ndarray)
            assert np.array_equal(a.apply(v).values, b.apply(v).values)

    @pytest.mark.parametrize("options", [(), ("--s", "0.3", "--distance", "euclidean"),
                                         ("--format", "json")])
    @pytest.mark.parametrize("kind", _GENERATED)
    def test_rows_match_generator(self, tmp_path, kind, options):
        # Byte-identical data rows; the # config: header names the source.
        path = _gen_mesh_file(tmp_path, kind)
        _, _, source, family = _GENERATED[kind]
        outs = []
        for i, src in enumerate((("--mesh", str(path)), source)):
            out = tmp_path / f"d{i}.out"
            assert run("frac-deriv", *src, "--family", family, *options,
                       "-o", str(out)) == 0
            outs.append(out.read_bytes().split(b"\n", 1))
        assert outs[0][0].startswith(b"# config: ") and outs[0][0] != outs[1][0]
        assert outs[0][1] == outs[1][1]


class TestConvergence:
    def test_error_table(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run("convergence", "--family", "poly_neg10x3_plus_10x2",
                   "--edge-counts", "2,4", "-o", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "n,error,ratio"
        first = lines[2].split(",")
        assert first[0] == "2"
        assert float(first[1]) == pytest.approx(1.5619, abs=5e-4)

    def test_s_sweep_mode(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run("convergence", "--family", "power", "--edge-counts", "4,8",
                   "--s-values", "0.25,0.75", "-o", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "n,s,linf_error"
        assert len(lines) == 2 + 4

    def test_s_with_s_values_exit_2(self, tmp_path, capsys):
        # A sweep reads its orders from --s-values alone.
        out = tmp_path / "sweep.csv"
        assert run("convergence", "--family", "power", "--edge-counts", "8",
                   "--s", "0.3", "--s-values", "0.5", "-o", str(out)) == 2
        assert capsys.readouterr().err == "error: --s cannot be used with --s-values\n"
        assert not out.exists()

    def test_sweep_header_records_no_s(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("convergence", "--family", "power", "--edge-counts", "8",
                   "--s-values", "0.5", "-o", str(out)) == 0
        cfg = json.loads(out.read_text().splitlines()[0][len("# config: "):])
        assert "s" not in cfg and cfg["s_values"] == "0.5"
        table = tmp_path / "table.csv"
        assert run("convergence", "--family", "power", "--edge-counts", "8",
                   "-o", str(table)) == 0
        assert json.loads(table.read_text().splitlines()[0][len("# config: "):])["s"] == 0.5

    def test_empty_counts_exit_2(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run("convergence", "--family", "power", "--edge-counts", ",",
                   "-o", str(out)) == 2

    @pytest.mark.parametrize("s_values", [",", ""])
    def test_empty_s_values_exit_2(self, tmp_path, capsys, s_values):
        # An empty list is not the L2 table and not an empty sweep.
        out = tmp_path / "c.csv"
        assert run("convergence", "--family", "power", "--edge-counts", "4",
                   "--s-values", s_values, "-o", str(out)) == 2
        assert capsys.readouterr().err == \
            "error: --s-values must list at least one order\n"
        assert not out.exists()

    @pytest.mark.parametrize("args, option, token", [
        (("--edge-counts", "4,x"), "--edge-counts", "'x'"),
        (("--edge-counts", "2.5"), "--edge-counts", "'2.5'"),
        (("--edge-counts", "4", "--s-values", "0.5,y"), "--s-values", "'y'")])
    def test_bad_list_token_exit_2(self, tmp_path, capsys, args, option, token):
        out = tmp_path / "c.csv"
        assert run("convergence", "--family", "power", *args, "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option}: ") and err.rstrip().endswith(token)
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("sweep", [(), ("--s-values", "0.5")])
    def test_two_sided_family_left_sided_exit_2(self, tmp_path, capsys, sweep):
        out = tmp_path / "c.csv"
        assert run("convergence", "--family", "cubic_x3", "--sidedness", "left",
                   "--edge-counts", "2,4", *sweep, "-o", str(out)) == 2
        assert "is two-sided" in capsys.readouterr().err
        assert not out.exists()

    def test_exponent_for_other_family_exit_2(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run("convergence", "--family", "exp_x", "--q", "7",
                   "--edge-counts", "4", "-o", str(out)) == 2
        assert "takes no exponent q" in capsys.readouterr().err
        assert not out.exists()

    def test_accuracy_error_exit_4(self, tmp_path, monkeypatch):
        import fracdec.cli as cli_mod

        def boom(*a, **k):
            raise AccuracyError("requested tolerance unreachable")

        monkeypatch.setattr(cli_mod.analysis, "convergence_study", boom)
        out = tmp_path / "c.csv"
        assert run("convergence", "--family", "power", "--edge-counts", "2",
                   "-o", str(out)) == 4


class TestField2d:
    def test_outputs(self, tmp_path):
        base = tmp_path / "exp"
        code = run("field2d", "--family", "saddle_2d", "--n", "2",
                   "--normalize", "predicted", "-o", str(base))
        assert code == 0
        field_lines = (tmp_path / "exp_field.csv").read_text().splitlines()
        err_lines = (tmp_path / "exp_errors.csv").read_text().splitlines()
        assert field_lines[1].startswith("tri_index,")
        assert err_lines[1] == "triangle_index,rel_error"
        assert len(field_lines) == 2 + 8 and len(err_lines) == 2 + 8

    def test_cells_are_plain_floats(self, tmp_path):
        # Every data cell is the float's repr, not a numpy scalar's.
        base = tmp_path / "e"
        assert run("field2d", "--family", "saddle_2d", "--n", "2",
                   "--normalize", "predicted", "-o", str(base)) == 0
        result = analysis.field_experiment_2d(2, get_family("saddle_2d"), FracConfig(),
                                              normalize="predicted")
        field, errors = ([line.split(",") for line in
                          (tmp_path / name).read_text().splitlines()[2:]]
                         for name in ("e_field.csv", "e_errors.csv"))
        want = np.hstack([result["centers"], result["predicted"], result["reference"]])
        assert [int(row[0]) for row in field] == list(range(len(want)))
        got = np.array([[float(cell) for cell in row[1:]] for row in field])
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        got = np.array([float(row[1]) for row in errors])
        np.testing.assert_array_equal(got.view(np.int64),
                                      result["relative_errors"].view(np.int64))

    def test_right_sign_minus_exit_2(self, tmp_path, capsys):
        base = tmp_path / "exp"
        assert run("field2d", "--family", "saddle_2d", "--n", "2",
                   "--right-sign", "minus", "-o", str(base)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "1D" in err
        assert not list(tmp_path.iterdir())

    def test_left_sided_exit_2(self, tmp_path, capsys):
        base = tmp_path / "exp"
        assert run("field2d", "--family", "saddle_2d", "--n", "2",
                   "--sidedness", "left", "-o", str(base)) == 2
        assert "1D" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_1d_family_rejected(self, tmp_path):
        assert run("field2d", "--family", "power", "--n", "2",
                   "-o", str(tmp_path / "x")) == 2

    def test_format_option_removed(self, tmp_path):
        # field2d always writes two CSV files.
        with pytest.raises(SystemExit) as exc:
            run("field2d", "--family", "saddle_2d", "--n", "2", "--format", "json",
                "-o", str(tmp_path / "exp"))
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())


class TestOracleSample:
    def test_1d(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run("oracle-sample", "--family", "exp_x", "--points", "5",
                   "-o", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "x,family,s,value"
        assert len(lines) == 2 + 5

    def test_2d(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run("oracle-sample", "--family", "saddle_2d", "--points", "3",
                   "-o", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "x,y,family,s,value"
        assert len(lines) == 2 + 3 * 3 * 2  # two components per grid point
        # x outer, y inner, dx before dy, as the per-point loop wrote them.
        pts = [0.25, 0.5, 0.75]
        rows = [line.split(",") for line in lines[2:]]
        assert [(float(r[0]), float(r[1]), r[2]) for r in rows] == [
            (x, y, f"saddle_2d:{axis}") for x in pts for y in pts
            for axis in ("dx", "dy")]
        ref = get_family("saddle_2d").reference
        for r in rows:
            axis = 0 if r[2].endswith("dx") else 1
            assert float(r[4]) == pytest.approx(ref(float(r[0]), float(r[1]), 0.5)[axis],
                                                rel=1e-13)

    @pytest.mark.parametrize("option", [("--sidedness", "left"),
                                        ("--distance", "euclidean"),
                                        ("--cs", "3")])
    def test_operator_options_removed(self, tmp_path, option):
        # Sampling a closed form builds no operator.
        with pytest.raises(SystemExit) as exc:
            run("oracle-sample", "--family", "exp_x", "--points", "5", *option,
                "-o", str(tmp_path / "o.csv"))
        assert exc.value.code == 2

    @pytest.mark.parametrize("family", ["exp_x", "power"])
    def test_minus_on_one_sided_family_exit_2(self, tmp_path, capsys, family):
        out = tmp_path / "o.csv"
        assert run("oracle-sample", "--family", family, "--points", "5",
                   "--right-sign", "minus", "-o", str(out)) == 2
        assert "one-sided" in capsys.readouterr().err
        assert not out.exists()

    def test_minus_on_two_sided_family(self, tmp_path):
        a, b = tmp_path / "plus.csv", tmp_path / "minus.csv"
        for sign, out in (("plus", a), ("minus", b)):
            assert run("oracle-sample", "--family", "cubic_x3", "--points", "3",
                       "--right-sign", sign, "-o", str(out)) == 0
        assert a.read_text().splitlines()[2:] != b.read_text().splitlines()[2:]

    @pytest.mark.parametrize("family", ["cubic_x3", "poly_neg10x3_plus_10x2",
                                        "constant"])
    @pytest.mark.parametrize("s", ["1.5", "1", "0", "-0.5"])
    def test_order_outside_unit_interval_exit_2(self, tmp_path, capsys, family, s):
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy divide warning before the exit
            assert run("oracle-sample", "--family", family, "--points", "3",
                       f"--s={s}", "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "s in (0, 1)" in err
        assert not out.exists()

    def test_2d_family_at_any_order(self, tmp_path):
        # The 2D closed forms hold at every s in (0, 1), not only at 1/2.
        fam = get_family("saddle_2d")
        for s in (0.1, 0.3, 0.7, 0.9):
            out = tmp_path / f"o{s}.csv"
            assert run("oracle-sample", "--family", "saddle_2d", "--points", "3",
                       "--s", str(s), "-o", str(out)) == 0
            rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
            assert len(rows) == 3 * 3 * 2
            for x, y, name, s_col, value in rows:
                axis = 0 if name.endswith("dx") else 1
                t = float(x) if axis == 0 else float(y)
                want = caputo_quadrature(derivative(fam, axis), 0, 1, t, s,
                                         side="two_sided", right_sign="plus")
                assert float(s_col) == s
                assert abs(float(value) - want) <= 1e-8


class TestIntegerOrder:
    @pytest.mark.parametrize("command", [
        ("frac-deriv", "--interval", "4", "--family", "power", "--s", "1"),
        ("convergence", "--family", "power", "--edge-counts", "4", "--s", "1"),
        ("convergence", "--family", "power", "--edge-counts", "4",
         "--s-values", "0.5,1"),
        ("field2d", "--family", "saddle_2d", "--n", "2", "--s", "1")],
        ids=["frac-deriv", "convergence", "convergence-sweep", "field2d"])
    def test_cs_at_s_one_exit_2(self, tmp_path, capsys, command):
        # At s = 1 the operator is the plain coboundary: --cs is unread.
        code = run(*command, "--cs", "5", "-o", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: c_s has no effect at s = 1, where the operator " \
                      "is the plain coboundary\n"


class TestDeterminism:
    def test_parser_is_built_once(self, tmp_path, monkeypatch, capsys):
        # Later commands in a process reuse the parser: no add_argument
        # call, and the same file, output, messages and exit codes.
        import argparse

        def commands(name):
            with pytest.raises(SystemExit) as usage:
                run("gen-mesh")
            codes = (run("oracle-sample", "--family", "exp_x", "--points", "3",
                         "-o", str(tmp_path / name)), usage.value.code,
                     run("frac-deriv", "--interval", "2", "--family", "exp_x", "--s", "2",
                         "-o", str(tmp_path / "x.csv")))
            return codes, capsys.readouterr()
        first = commands("a.csv")
        calls = []
        real = argparse._ActionsContainer.add_argument
        monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                            lambda self, *a, **k: calls.append(a) or real(self, *a, **k))
        again = commands("b.csv")
        assert calls == []
        assert first[0] == again[0] == (0, 2, 2)
        assert first[1].err == again[1].err and "usage: fracdec gen-mesh" in again[1].err
        assert first[1].out.replace("a.csv", "b.csv") == again[1].out
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_reruns_are_byte_identical(self, tmp_path):
        cases = [
            ("convergence", "--family", "poly_neg10x3_plus_10x2",
             "--edge-counts", "2,4"),
            ("frac-deriv", "--interval", "8", "--family", "power"),
            ("oracle-sample", "--family", "cubic_x3", "--points", "7"),
        ]
        for i, case in enumerate(cases):
            a, b = tmp_path / f"a{i}.csv", tmp_path / f"b{i}.csv"
            assert run(*case, "-o", str(a)) == 0
            assert run(*case, "-o", str(b)) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_header_records_config(self, tmp_path):
        out = tmp_path / "c.csv"
        run("convergence", "--family", "power", "--edge-counts", "4",
            "--s", "0.3", "--right-sign", "minus", "-o", str(out))
        header = out.read_text().splitlines()[0]
        cfg = json.loads(header[len("# config: "):])
        assert cfg["s"] == 0.3
        assert cfg["right_sign"] == "minus"
        assert cfg["command"] == "convergence"
        assert "seed" not in cfg


_FLOATS = ["nan", "inf", "-inf", "0", "-1", "1e308"]
_INTS = ["0", "-1"]  # no run may allocate a huge mesh
# (subcommand and the arguments it needs, numeric option, its values):
# every numeric option of every subcommand.
_NUMERIC_OPTIONS = [
    (("gen-mesh", "interval"), "--a", _FLOATS),
    (("gen-mesh", "interval"), "--b", _FLOATS),
    (("gen-mesh", "interval"), "--edges", _INTS),
    (("gen-mesh", "square"), "--n", _INTS),
    (("frac-deriv", "--interval", "4", "--family", "power"), "--a", _FLOATS),
    (("frac-deriv", "--interval", "4", "--family", "power"), "--b", _FLOATS),
    (("frac-deriv", "--family", "power"), "--interval", _INTS),
    (("frac-deriv", "--family", "saddle_2d"), "--square", _INTS),
    (("frac-deriv", "--interval", "4", "--family", "power"), "--q", _FLOATS),
    (("frac-deriv", "--interval", "4", "--family", "power"), "--s", _FLOATS),
    (("frac-deriv", "--interval", "4", "--family", "power"), "--cs", _FLOATS),
    (("convergence", "--family", "power", "--edge-counts", "2,4"), "--q", _FLOATS),
    (("convergence", "--family", "power", "--edge-counts", "2,4"), "--s", _FLOATS),
    (("convergence", "--family", "power", "--edge-counts", "2,4"), "--cs", _FLOATS),
    (("convergence", "--family", "power"), "--edge-counts", _INTS),
    (("convergence", "--family", "power", "--edge-counts", "2,4"), "--s-values",
     _FLOATS),
    (("convergence", "--family", "power", "--edge-counts", "2,4", "--s-values",
      "0.5"), "--q", _FLOATS),
    (("field2d", "--family", "saddle_2d", "--n", "2"), "--s", _FLOATS),
    (("field2d", "--family", "saddle_2d", "--n", "2"), "--cs", _FLOATS),
    (("field2d", "--family", "saddle_2d"), "--n", _INTS),
    (("oracle-sample", "--family", "power"), "--q", _FLOATS),
    (("oracle-sample", "--family", "exp_x"), "--s", _FLOATS),
    (("oracle-sample", "--family", "exp_x"), "--points", _INTS),
]
# The holes that once ended in a traceback or wrote non-finite tables.
_EXPECTED_EXIT = {
    **{(cmd, "--q", q): 2 for cmd in ("frac-deriv", "convergence", "oracle-sample")
       for q in ("nan", "inf", "-inf", "0", "-1")},
    # Gamma(q + 1) overflows in the power rule.
    **{(cmd, "--q", q): 2 for cmd in ("convergence", "oracle-sample")
       for q in ("1e308", "200")},
    ("oracle-sample", "--points", "0"): 2,
    ("oracle-sample", "--points", "-1"): 2,
    ("field2d", "--cs", "1e308"): 4,
}
_CASES = [(base, opt, v) for base, opt, values in _NUMERIC_OPTIONS for v in values]
_CASES += [(base, "--q", "200") for base, opt, _ in _NUMERIC_OPTIONS
           if opt == "--q" and base[0] != "frac-deriv"]
_CASE_IDS = [f"{base[0]}{'-sweep' if '--s-values' in base else ''}{opt}={v}"
             for base, opt, v in _CASES]


class TestNumericOptions:
    @pytest.mark.parametrize("base, option, value", _CASES, ids=_CASE_IDS)
    def test_extreme_value_ends_in_documented_exit(self, tmp_path, capsys, base,
                                                   option, value):
        out = tmp_path / ("m.off" if "square" in base else "out")
        code = run(*base, f"{option}={value}", "-o", str(out))
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        if code:
            assert err.count("\n") == 1
        want = _EXPECTED_EXIT.get((base[0], option, value))
        if want is not None:
            assert code == want, err


# Runs CLI commands in one fresh interpreter and prints, after the import
# and after each command, its exit code and the scipy modules loaded.
_SCIPY_PROBE = """
import json, sys
from fracdec.cli import main
def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
report = [["import fracdec", 0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    report.append([" ".join(argv), code, scipy_modules()])
print(json.dumps(report))
"""


def test_generator_meshes_load_no_scipy(tmp_path):
    # scipy is needed for Dijkstra on meshes that are not lattice meshes
    # only; the generator-mesh commands, README's convergence tables and
    # field experiment included, run on numpy alone.
    commands = [
        ["convergence", "--family", "poly_neg10x3_plus_10x2", "--edge-counts", "2,4,8,16",
         "-o", "table.csv"],
        ["convergence", "--family", "power", "--edge-counts", "32,64",
         "--s-values", "0.25,0.5,0.75", "-o", "sweep.csv"],
        ["convergence", "--family", "exp_x", "--sidedness", "left",
         "--edge-counts", "1048576", "-o", "big_sweep.csv"],
        ["field2d", "--family", "saddle_2d", "--n", "8", "--normalize", "predicted",
         "-o", "experiment"],
        ["gen-mesh", "interval", "--edges", "8", "-o", "m.json"],
        ["gen-mesh", "square", "--n", "4", "-o", "m.off"],
        ["frac-deriv", "--interval", "16", "--family", "power", "-o", "a.csv"],
        ["frac-deriv", "--square", "4", "--family", "saddle_2d", "-o", "b.csv"],
        ["frac-deriv", "--mesh", "m.off", "--family", "saddle_2d", "-o", "c.csv"],
        ["frac-deriv", "--mesh", "m.json", "--family", "exp_x", "--sidedness", "left",
         "-o", "d.csv"],
        ["oracle-sample", "--family", "exp_x", "--points", "9", "-o", "e.csv"],
        ["oracle-sample", "--family", "saddle_2d", "--points", "5", "-o", "f.csv"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracdec.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert len(report) == len(commands) + 1
    for step, code, loaded in report:
        assert (step, code, loaded) == (step, 0, [])
