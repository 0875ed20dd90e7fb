"""Self-tests of the benchmark's gates and tracer.

Run from the repository root:

    python3 perfbench/selftest.py

They use small versions of the workloads and take a few seconds.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402  (puts the repository's src/ on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402

import fracdec  # noqa: E402

ROOT = worker.ROOT
TMP = os.path.join(ROOT, ".perfbench_tmp", f"selftest-{os.getpid()}")

# The paper's table.
TABLE = [float(workloads.PAPER_L2[n]) for n in sorted(workloads.PAPER_L2)]


def small_workloads(tracer):
    return [
        workloads.Conv1d(sizes=(2, 4, 8, 16, 32)),
        workloads.Sweep1dLeft(sizes=(64, 128), s_values=(0.3, 0.7)),
        workloads.Field2d(1, sizes=(3, 5)),
        workloads.Cli(tracer, os.path.join(TMP, "cli"), square_n=4,
                      interval_edges=16, table_edges="2,4,8", sweep_edges="16",
                      field_n=4, exp_points=5, grid_points=3),
    ]


class TestGates(unittest.TestCase):
    """A perturbed result is reported as a failed operation."""

    def gate_failures(self, workload, *passes):
        gate = worker.Gate(workload)
        for k, outputs in enumerate(passes):
            gate.record(outputs, f"pass {k}")
        return gate.failed, gate.failures

    def test_paper_table_passes(self):
        conv = workloads.Conv1d()
        self.assertEqual(len(conv.sizes), len(TABLE))
        self.assertEqual(self.gate_failures(conv, TABLE)[0], 0)

    def test_fourth_digit_change_fails_its_row(self):
        conv = workloads.Conv1d()
        rows = list(TABLE)
        rows[5] += 1e-4                       # n = 64: 0.2378 -> 0.2379
        failed, failures = self.gate_failures(conv, rows)
        self.assertEqual(failed, 1)
        self.assertIn("n=64", failures[0])

    def test_ratio_out_of_range_fails(self):
        conv = workloads.Conv1d()
        rows = list(TABLE)
        rows[-1] = rows[-2] * 0.75            # n = 1024 ratio 0.75
        self.assertEqual(self.gate_failures(conv, rows)[0], 1)

    def test_raised_operation_fails(self):
        conv = workloads.Conv1d()
        rows = list(TABLE)
        rows[0] = None
        self.assertEqual(self.gate_failures(conv, rows)[0], 1)

    def test_sweep_error_must_decrease(self):
        sweep = workloads.Sweep1dLeft(sizes=(8, 16), s_values=(0.2, 0.4))
        self.assertEqual(self.gate_failures(sweep, [0.5, 0.4, 0.3, 0.2])[0], 0)
        self.assertEqual(self.gate_failures(sweep, [0.5, 0.4, 0.5, 0.2])[0], 1)

    def test_field_duality_and_summary(self):
        field = workloads.Field2d(1, sizes=(2,), families=("saddle_2d",),
                                  modes=("euclidean",))
        good = {"summary": {"min": 0.5, "max": 1.5, "mean": 1.0, "flagged": 0},
                "arrays": (), "duality": (1e-15, 2e-15)}
        loose = dict(good, duality=(1e-15, 1e-9))
        nan = dict(good, summary=dict(good["summary"], mean=float("nan")))
        self.assertEqual(self.gate_failures(field, [good])[0], 0)
        self.assertEqual(self.gate_failures(field, [loose])[0], 1)
        self.assertEqual(self.gate_failures(field, [nan])[0], 1)

    def test_cli_exit_code_and_changed_bytes(self):
        cli = workloads.Cli(tracing.Tracer(), os.path.join(TMP, "gate"))
        n = len(cli.commands)
        ok = [{"code": 0, "digest": bytes([k])} for k in range(n)]
        bad_code = list(ok)
        bad_code[2] = {"code": 3, "digest": bytes([2])}
        changed = list(ok)
        changed[4] = {"code": 0, "digest": b"other"}
        self.assertEqual(self.gate_failures(cli, ok, ok)[0], 0)
        self.assertEqual(self.gate_failures(cli, bad_code)[0], 1)
        failed, failures = self.gate_failures(cli, ok, changed)
        self.assertEqual(failed, 1)
        self.assertIn("differs", failures[0])


class TestTracing(unittest.TestCase):
    """Traced passes give the untraced outputs, and their self times
    account for the traced wall time."""

    @classmethod
    def setUpClass(cls):
        cls.results = []
        tracer = tracing.Tracer()
        for workload in small_workloads(tracer):
            try:
                _, _, plain, errors = worker.run_pass(workload, tracer)
                tracer.reset()
                tracer.install(fracdec)
                try:
                    wall, _, traced, more = worker.run_pass(workload, tracer)
                finally:
                    tracer.uninstall()
                layers = worker.layer_metrics(tracer, wall)
            finally:
                workload.close()
            cls.results.append((workload, plain, traced, errors + more, layers))

    def test_no_operation_fails(self):
        for workload, plain, traced, errors, _ in self.results:
            self.assertEqual(errors, [], workload.name)
            self.assertTrue(all(workload.check(plain)), workload.name)

    def test_traced_outputs_identical(self):
        for workload, plain, traced, _, _ in self.results:
            self.assertEqual([workload.fingerprint(o) for o in plain],
                             [workload.fingerprint(o) for o in traced],
                             workload.name)

    def test_uninstall_restores_fracdec(self):
        tracer = tracing.Tracer()
        before = (fracdec.metric.simplex_distance, fracdec.analysis.quad,
                  fracdec.mesh.SimplicialComplex.__dict__["from_simplices"])
        tracer.install(fracdec)
        tracer.uninstall()
        after = (fracdec.metric.simplex_distance, fracdec.analysis.quad,
                 fracdec.mesh.SimplicialComplex.__dict__["from_simplices"])
        self.assertEqual(before, after)

    def test_self_times_account_for_wall(self):
        for workload, _, _, _, layers in self.results:
            wall = layers["trace.wall_s"]
            self.assertAlmostEqual(layers["trace.self_total_s"], wall,
                                   delta=0.02 * wall, msg=workload.name)
            self.assertGreaterEqual(layers["trace.remainder_s"], 0.0)
            self.assertLess(layers["trace.remainder_s"], 0.2 * wall, workload.name)

    def test_layers_seen(self):
        by_name = {w.name: layers for w, _, _, _, layers in self.results}
        self.assertGreater(by_name["conv1d"]["analysis.quad_calls"], 0)
        self.assertGreater(by_name["conv1d"]["analysis.ref_evals"],
                           by_name["conv1d"]["analysis.quad_calls"])
        self.assertGreater(by_name["sweep1d_left"]["special.ml_calls"], 0)
        self.assertEqual(by_name["sweep1d_left"]["metric.dist_useful_ratio"], 0.5)
        self.assertGreater(by_name["field2d"]["analysis.edge_integrals_s"], 0.0)
        self.assertEqual(by_name["cli"]["cli.commands"], 9)
        self.assertGreater(by_name["cli"]["mesh.io_bytes"], 0)
        for layers in by_name.values():
            self.assertGreater(layers["operator.build_calls"], 0)
            self.assertGreater(layers["metric.simplex_dist_calls"], 0)


class TestRunner(unittest.TestCase):
    def test_fails_without_sources(self):
        """In a directory holding only the benchmark, the run fails
        without printing a result."""
        bare = os.path.join(TMP, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_benchmark_json_matches_runner(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, list(workloads.WORKLOADS))
        self.assertEqual(names, list(run.WORKLOADS))
        names = {m["name"] for m in spec["per_layer"]}
        layers = tracing.Tracer().layer_metrics()
        expected = set(layers) | {"trace.wall_s", "trace.remainder_s",
                                  "trace.self_total_s", "trace.overhead_s"}
        self.assertEqual(names, expected)


def tearDownModule():
    shutil.rmtree(TMP, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
