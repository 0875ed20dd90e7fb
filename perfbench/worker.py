"""One measured process of the benchmark; ``run.py`` starts it.

Roles:

* ``setup``: import fracdec, build the workload's inputs and run one
  small warm-up operation, then report how long that took.
* ``work``: do the same set-up, then run the workload's operations in
  a closed loop, one pass after another, until ``--seconds`` is spent
  (at least one pass).  With ``--trace 1`` untraced and traced passes
  alternate, and the traced ones also report per-layer metrics.

The result is one JSON object on the last line of standard output.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse  # noqa: E402
from scipy.integrate import quad  # noqa: E402
from scipy.sparse.csgraph import dijkstra  # noqa: E402

import fracdec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "fracdec": fracdec.__version__,
    }


# The host's effective CPU speed drifts by tens of percent within
# seconds.  A fixed calibration kernel is timed before and after every
# operation, and each operation's time is scaled by
# CAL_REF_S / (mean of the two kernel times): times are reported at the
# speed where the kernel takes CAL_REF_S.  The kernel does not call
# fracdec.  It mixes the kinds of work the workloads do, in proportions
# each workload sets (``calibration``): adaptive quadrature of a Python
# integrand built from numpy scalar arithmetic and a Lanczos Gamma, a
# memory-bound numpy power and gather, and Dijkstra.  Kinds of work slow
# down by different factors when the host is busy, so a kernel whose mix
# differs from the workload's under- or over-corrects.
CAL_REF_S = 0.020
_CAL_RNG = np.random.default_rng(0)
_CAL_VALUES = _CAL_RNG.random(1 << 20) + 0.5
_CAL_INDEX = _CAL_RNG.integers(0, 1 << 20, 1 << 20)
_CAL_GRAPH = scipy.sparse.random(400, 400, density=0.02, random_state=0,
                                 format="csr")
_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)


def _cal_gamma(z):
    z -= 1.0
    x = _LANCZOS[0]
    for i in range(1, 9):
        x += _LANCZOS[i] / (z + i)
    t = z + 7.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * x


def _cal_integrand(t):
    x = np.asarray(t, dtype=float)
    acc = np.zeros_like(x)
    for k in range(3):
        acc = acc + math.comb(2, k) * x ** (2 - k) * (1.0 - x) ** (k + 0.5) / (k + 0.5)
    return float((acc - x ** 2.5 / _cal_gamma(3.5)) ** 2)


def calibrate(mix):
    """Time one run of the calibration kernel.

    ``mix`` is the workload's ``calibration``: the number of quadrature
    calls, numpy power passes and gather passes over the 8 MB array,
    and Dijkstra sources.
    """
    quad_calls, powers, gathers, sources = mix
    t = time.perf_counter()
    for k in range(quad_calls):
        quad(_cal_integrand, 0.0, 0.5 + 0.02 * (k % 20), epsabs=1e-10, limit=200)
    for _ in range(powers):
        np.power(_CAL_VALUES, -0.5)
    for _ in range(gathers):
        _CAL_VALUES[_CAL_INDEX].sum()
    dijkstra(_CAL_GRAPH, directed=False, indices=range(sources))
    return time.perf_counter() - t


def run_pass(workload, tracer):
    """Run every operation once.

    Returns the pass's wall time (operations only, calibration
    excluded), the same at reference speed, the outputs and the error
    messages of operations that raised.
    """
    outputs, errors = [], []
    wall = scaled = 0.0
    cal = calibrate(workload.calibration)
    for i, name in enumerate(workload.op_names()):
        t = time.perf_counter()
        try:
            with tracer.span("item"):
                out = workload.run_op(i)
        except Exception as exc:  # an operation that raises has failed
            out = None
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t
        outputs.append(out)
        cal_after = calibrate(workload.calibration)
        wall += dt
        scaled += dt * CAL_REF_S / (0.5 * (cal + cal_after))
        cal = cal_after
    return wall, scaled, outputs, errors


class Gate:
    """Counts attempted and failed operations over all passes.

    An operation fails if it raised, if the workload's check rejects
    it, or if its fingerprint differs from the first pass's.
    """

    def __init__(self, workload):
        self.workload = workload
        self.names = workload.op_names()
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, outputs, label):
        flags = self.workload.check(outputs)
        prints = [None if out is None else self.workload.fingerprint(out)
                  for out in outputs]
        if self.reference is None:
            self.reference = prints
        for name, ok, fp, ref in zip(self.names, flags, prints, self.reference):
            self.attempted += 1
            if not ok or fp is None or fp != ref:
                self.failed += 1
                why = "check failed" if not ok else "output differs from first pass"
                self.failures.append(f"{label} {name}: {why}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "work"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    if not os.path.abspath(fracdec.__file__).startswith(os.path.join(ROOT, "src")):
        sys.exit(f"fracdec was imported from {fracdec.__file__}, not from {ROOT}/src")

    tracer = tracing.Tracer()
    workload = workloads.make(args.workload, args.seed, tracer, args.workdir)
    try:
        workload.warm_up()
        setup_raw = time.perf_counter() - START
        cal = statistics.median(calibrate(workload.calibration) for _ in range(3))
        result = {"setup_s": setup_raw * CAL_REF_S / cal}
        if args.role == "work":
            result.update(measure(workload, tracer, args))
            result["env"] = environment()
    finally:
        workload.close()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


def measure(workload, tracer, args):
    """Run passes for ``args.seconds``; with tracing, in untraced/traced pairs."""
    gate = Gate(workload)
    result = {"pass_s": [], "pass_raw_s": [], "errors": []}
    if args.trace:
        result.update(traced_pass_s=[], layers=[], per_item=None)
    t_start = time.perf_counter()
    rounds = 0
    while True:
        rounds += 1
        wall, scaled, outputs, errors = run_pass(workload, tracer)
        result["pass_raw_s"].append(wall)
        result["pass_s"].append(scaled)
        result["errors"] += errors
        gate.record(outputs, f"pass {rounds}")
        if args.trace:
            tracer.reset()
            tracer.install(fracdec)
            try:
                wall, scaled, outputs, errors = run_pass(workload, tracer)
            finally:
                tracer.uninstall()
            result["traced_pass_s"].append(scaled)
            result["errors"] += errors
            gate.record(outputs, f"traced pass {rounds}")
            result["layers"].append(layer_metrics(tracer, wall))
            if result["per_item"] is None:
                result["per_item"] = item_breakdown(tracer, workload.op_names())
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / rounds > args.seconds:
            break
    result.update(attempted=gate.attempted, failed=gate.failed,
                  failures=gate.failures[:20])
    result["errors"] = result["errors"][:20]
    return result


def layer_metrics(tracer, traced_wall):
    """Per-layer metrics of one traced pass, with the accounting check.

    Times are raw (not scaled): they are shares of ``trace.wall_s``.
    """
    out = tracer.layer_metrics()
    selfs = tracer.self_times()
    out["trace.wall_s"] = traced_wall
    out["trace.remainder_s"] = selfs.get("item", 0.0)
    out["trace.self_total_s"] = sum(selfs.values())
    return out


def item_breakdown(tracer, names):
    """Self time per layer inside each operation of a traced pass."""
    rows, row_of = [], {}
    for i, ((name, start, end, parent), own) in enumerate(
            zip(tracer.spans, tracer.span_self_times())):
        if parent is None:
            row_of[i] = len(rows)
            rows.append({"op": names[len(rows)], "wall_s": end - start, "self_s": {}})
        else:
            row_of[i] = row_of[parent]
        self_s = rows[row_of[i]]["self_s"]
        self_s[name] = self_s.get(name, 0.0) + own
    return rows


if __name__ == "__main__":
    main()
