"""The benchmark's workloads: fixed lists of operations and their gates.

An operation is one table row, one (n, s) row, one 2D field item or
one CLI command.  ``run_op`` returns the operation's output;
``check`` takes the outputs of a whole pass (``None`` where an
operation raised) and returns one pass/fail flag per operation;
``fingerprint`` reduces an output to bytes that every pass must
reproduce exactly.  All fracdec calls go through module attributes
(``analysis.convergence_study``, ``oracles.get_family``, ...) so that
the tracer's wrappers see them.

Every workload is deterministic.  The seed only draws the extra random
1-cochains that ``field2d`` checks for Whitney duality.

``calibration`` is the workload's calibration-kernel mix (see
``worker.calibrate``): quadrature calls, numpy power passes, gather
passes and Dijkstra sources.  At nominal speed the default is about
half quadrature, 40 % array work and 10 % Dijkstra; ``conv1d``, which
is almost all quadrature, uses about 75 %, 17 % and 8 %.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil

import numpy as np

from fracdec import analysis, cli, mesh, operator, oracles

# The paper's L2 error table (two-sided, s = 1/2, edge stairs).
PAPER_L2 = {2: "1.5619", 4: "0.9933", 8: "0.6778", 16: "0.4759",
            32: "0.3363", 64: "0.2378", 128: "0.1681", 256: "0.1188",
            512: "0.0839", 1024: "0.0593"}
RATIO_RANGE = (0.69, 0.72)     # order-1/2 ratios for n >= 128
DUALITY_TOL = 1e-12
MIXED_CALIBRATION = (20, 1, 1, 10)


def _float_bytes(values):
    return np.asarray(values, dtype=float).tobytes()


class Conv1d:
    """The paper's L2 convergence table, one row per mesh size."""

    name = "conv1d"
    calibration = (32, 1, 0, 10)

    def __init__(self, sizes=tuple(2 ** k for k in range(1, 11))):
        self.sizes = list(sizes)
        self.config = operator.FracConfig(s=0.5, right_sign="plus")

    def op_names(self):
        return [f"n={n}" for n in self.sizes]

    def warm_up(self):
        self._row(2)

    def run_op(self, i):
        return self._row(self.sizes[i])

    def _row(self, n):
        family = oracles.get_family("poly_neg10x3_plus_10x2")
        rows = analysis.convergence_study(family, 0.5, [n], config=self.config,
                                          support="edge")
        return rows[0]["error"]

    def check(self, errors):
        flags = []
        for i, (n, err) in enumerate(zip(self.sizes, errors)):
            ok = err is not None and math.isfinite(err) and err > 0
            if ok and n in PAPER_L2:
                ok = f"{err:.4f}" == PAPER_L2[n]
            prev = errors[i - 1] if i else None
            if ok and prev is not None:
                ok = err < prev
                if n >= 128:
                    ok = ok and RATIO_RANGE[0] <= err / prev <= RATIO_RANGE[1]
            flags.append(bool(ok))
        return flags

    def fingerprint(self, err):
        return _float_bytes(err)

    def close(self):
        pass


class Sweep1dLeft:
    """Left-sided e^x: Linf error over the order s at two mesh sizes."""

    name = "sweep1d_left"
    calibration = MIXED_CALIBRATION

    def __init__(self, sizes=(1024, 2048),
                 s_values=tuple(round(0.1 * k, 1) for k in range(1, 10))):
        self.items = [(n, s) for n in sizes for s in s_values]

    def op_names(self):
        return [f"n={n},s={s}" for n, s in self.items]

    def warm_up(self):
        self._row(8, 0.5)

    def run_op(self, i):
        return self._row(*self.items[i])

    def _row(self, n, s):
        family = oracles.get_family("exp_x")
        config = operator.FracConfig(s=s, sidedness="left_sided")
        rows = analysis.s_sweep(family, [s], [n], config=config)
        return rows[0]["linf_error"]

    def check(self, errors):
        coarser = {}
        flags = []
        for (n, s), err in zip(self.items, errors):
            ok = err is not None and math.isfinite(err) and err > 0
            prev = coarser.get(s)
            if ok and prev is not None:
                ok = err < prev
            coarser[s] = err
            flags.append(bool(ok))
        return flags

    def fingerprint(self, err):
        return _float_bytes(err)

    def close(self):
        pass


class Field2d:
    """2D gradient-field experiments with a Whitney duality check."""

    name = "field2d"
    calibration = MIXED_CALIBRATION

    def __init__(self, seed, sizes=(8, 16, 24, 32),
                 families=("saddle_2d", "shifted_min_2d"),
                 modes=("geodesic", "euclidean")):
        self.items = [(f, m, n) for f in families for m in modes for n in sizes]
        rng = np.random.default_rng(seed)
        # One random 1-cochain per item; a square mesh with n cells per
        # side has 3n^2 + 2n edges.
        self.random_cochains = [rng.standard_normal(3 * n * n + 2 * n)
                                for _, _, n in self.items]

    def op_names(self):
        return [f"{f},{m},N={n}" for f, m, n in self.items]

    def warm_up(self):
        self._item("saddle_2d", "euclidean", 2, np.zeros(16))

    def run_op(self, i):
        return self._item(*self.items[i], self.random_cochains[i])

    def _item(self, family_name, mode, n, random_values):
        family = oracles.get_family(family_name)
        config = operator.FracConfig(s=0.5, distance_mode=mode)
        lifted = []
        reconstruct = analysis.whitney_reconstruct

        def capture(complex_, cochain):
            field = reconstruct(complex_, cochain)
            lifted.append((cochain.values, field))
            return field
        analysis.whitney_reconstruct = capture
        try:
            result = analysis.field_experiment_2d(n, family, config,
                                                  normalize="predicted")
        finally:
            analysis.whitney_reconstruct = reconstruct
        complex_ = result["complex"]
        (computed, field), = lifted
        random_field = analysis.whitney_reconstruct(
            complex_, mesh.Cochain(1, random_values))
        return {
            "summary": result["summary"],
            "arrays": (result["predicted"], result["reference"],
                       result["relative_errors"]),
            "duality": (
                float(np.max(np.abs(analysis.edge_integrals(field, complex_)
                                    - computed))),
                float(np.max(np.abs(analysis.edge_integrals(random_field, complex_)
                                    - random_values))),
            ),
        }

    def check(self, outputs):
        flags = []
        for out in outputs:
            ok = out is not None
            if ok:
                summary = out["summary"]
                ok = (all(math.isfinite(summary[k]) for k in ("min", "max", "mean"))
                      and max(out["duality"]) <= DUALITY_TOL)
            flags.append(bool(ok))
        return flags

    def fingerprint(self, out):
        s = out["summary"]
        parts = [_float_bytes(a) for a in out["arrays"]]
        parts.append(_float_bytes([s["min"], s["max"], s["mean"], s["flagged"]]))
        return b"".join(parts)

    def close(self):
        pass


class Cli:
    """README-style commands run in-process through ``fracdec.cli.main``."""

    name = "cli"
    calibration = MIXED_CALIBRATION

    def __init__(self, tracer, workdir, square_n=32, interval_edges=2048,
                 table_edges="2,4,8,16,32,64,128,256", sweep_edges="512",
                 field_n=16, exp_points=199, grid_points=39):
        self.tracer = tracer
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        fam1d = "poly_neg10x3_plus_10x2"
        # (argv, output files)
        self.commands = [
            (["gen-mesh", "square", "--n", str(square_n), "-o", "square.off"],
             ["square.off"]),
            (["gen-mesh", "interval", "--edges", str(interval_edges),
              "-o", "interval.json"], ["interval.json"]),
            (["frac-deriv", "--mesh", "square.off", "--family", "saddle_2d",
              "-o", "deriv_square.csv"], ["deriv_square.csv"]),
            (["frac-deriv", "--mesh", "interval.json", "--family", fam1d,
              "--format", "json", "-o", "deriv_interval.json"],
             ["deriv_interval.json"]),
            (["convergence", "--family", fam1d, "--edge-counts", table_edges,
              "-o", "table.csv"], ["table.csv"]),
            (["convergence", "--family", "power", "--edge-counts", sweep_edges,
              "--s-values", "0.25,0.5,0.75", "-o", "sweep.csv"], ["sweep.csv"]),
            (["field2d", "--family", "saddle_2d", "--n", str(field_n),
              "--normalize", "predicted", "-o", "experiment"],
             ["experiment_field.csv", "experiment_errors.csv"]),
            (["oracle-sample", "--family", "exp_x", "--points", str(exp_points),
              "-o", "exp.csv"], ["exp.csv"]),
            (["oracle-sample", "--family", "saddle_2d", "--points",
              str(grid_points), "-o", "saddle.csv"], ["saddle.csv"]),
        ]

    def op_names(self):
        return [" ".join(argv[:2]) + f" -> {outs[0]}" for argv, outs in self.commands]

    def warm_up(self):
        self._run(["oracle-sample", "--family", "power", "--points", "3",
                   "-o", "warm_up.csv"], ["warm_up.csv"])

    def run_op(self, i):
        return self._run(*self.commands[i])

    def _run(self, argv, outputs):
        """Run one command inside the workdir, so that the file names it
        records in its output headers are the same in every run."""
        paths = [os.path.join(self.workdir, name) for name in outputs]
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
        digest = hashlib.sha256()
        for path in paths:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
                self.tracer.add("cli.output_bytes", len(data))
                digest.update(data)
            else:
                digest.update(b"<missing>")
        return {"code": code, "digest": digest.digest()}

    def check(self, outputs):
        return [out is not None and out["code"] == 0 for out in outputs]

    def fingerprint(self, out):
        return out["digest"]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = ("conv1d", "sweep1d_left", "field2d", "cli")


def make(name, seed, tracer, workdir):
    """The named workload with the benchmark's sizes."""
    if name == "conv1d":
        return Conv1d()
    if name == "sweep1d_left":
        return Sweep1dLeft()
    if name == "field2d":
        return Field2d(seed)
    if name == "cli":
        return Cli(tracer, workdir)
    raise ValueError(f"unknown workload {name!r}")
