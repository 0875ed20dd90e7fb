"""Command-line interface: subcommands, exit codes, determinism."""

import json
import warnings

import pytest

from fracdec import AccuracyError, get_family, load_json, load_off
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

    def test_missing_output_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("gen-mesh", "interval")
        assert exc.value.code == 2


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
        assert run("frac-deriv", "--family", "power", "-o", str(out)) == 2

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

    def test_bad_s_exit_2(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run("frac-deriv", "--interval", "4", "--family", "power",
                   "--s", "1.5", "-o", str(out)) == 2


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

    def test_empty_counts_exit_2(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run("convergence", "--family", "power", "--edge-counts", ",",
                   "-o", str(out)) == 2

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
            assert float(r[4]) == pytest.approx(ref(float(r[0]), float(r[1]))[axis],
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

    def test_order_of_2d_family_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert run("oracle-sample", "--family", "saddle_2d", "--points", "3",
                   "--s", "0.3", "-o", str(out)) == 2
        assert "only at s = 0.5" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
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
