"""fracdec benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload conv1d --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

The load is a closed loop: one process, one caller, each operation
starting when the previous one ends.  BLAS runs on one thread.  A run
starts a few short processes that each import fracdec and set the
workload up (``setup_s`` is their median), then one process that runs
whole passes over the workload for ``--seconds`` (``wall_s`` is the
median pass time, ``peak_rss_mb`` that process's high-water mark).
With ``--trace 1`` untraced and traced passes alternate in one process
and the run reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("conv1d", "sweep1d_left", "field2d", "cli")
SETUP_PROCESSES = 3
BLAS_THREADS = "1"
TIMEOUT_S = 170.0


class RunError(Exception):
    """A worker process failed; the run has no result."""


def worker(role, args, workdir, deadline):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"{role} process of {args.workload} ran out of time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{role} process of {args.workload} exited with "
                       f"{proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def high_percentile(samples):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 20:
        return None
    return round(100.0 * (n - 10) / n), sorted(samples)[n - 11]


def run_workload(args):
    workdir = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    deadline = time.monotonic() + TIMEOUT_S
    try:
        if args.trace:
            work = worker("work", args, workdir, deadline)
            setups = []
        else:
            setups = [worker("setup", args, workdir, deadline)["setup_s"]
                      for _ in range(SETUP_PROCESSES)]
            work = worker("work", args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return setups, work


def end_to_end(setups, work):
    passes = work["pass_s"]
    return {
        "wall_s": {"value": median(passes), "unit": "s"},
        "setup_s": {"value": median(setups), "unit": "s"},
        "peak_rss_mb": {"value": work["peak_rss_mb"], "unit": "MB"},
        "ok_ratio": {"value": 1.0 - work["failed"] / work["attempted"],
                     "unit": "ratio"},
    }


def per_layer(work):
    layers = work["layers"]
    out = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name.endswith("_s"):
            out[name] = {"value": median(values), "unit": "s"}
        elif name.endswith("_ratio"):
            out[name] = {"value": values[0], "unit": "ratio"}
        else:
            out[name] = {"value": values[0],
                         "unit": "bytes" if name.endswith("_bytes") else "count"}
    out["trace.overhead_s"] = {
        "value": median(work["traced_pass_s"]) - median(work["pass_s"]),
        "unit": "s"}
    return out


def report(name, args, setups, work):
    """Human-readable lines for one workload, then its metrics."""
    print(f"# workload {name}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={args.trace}")
    print(f"# env {json.dumps(work['env'], sort_keys=True)}")
    for line in work["failures"] + work["errors"]:
        print(f"# FAILED {line}")
    passes = work["pass_s"]
    if args.trace:
        metrics = per_layer(work)
        for item in work["per_item"]:
            top = sorted(item["self_s"].items(), key=lambda kv: -kv[1])[:4]
            print(f"#   {item['op']:<34} {item['wall_s']:8.4f} s  " + ", ".join(
                f"{k} {v:.4f}" for k, v in top))
    else:
        metrics = end_to_end(setups, work)
        pct = high_percentile(passes)
        tail = (f"p{pct[0]} {pct[1]:.4f} s" if pct else
                "no percentile above the median has ten samples beyond it")
        print(f"wall_s       {metrics['wall_s']['value']:10.4f} s   "
              f"median of {len(passes)} passes at reference speed "
              f"(raw {median(work['pass_raw_s']):.4f} s); {tail}")
        print("# pass_s " + " ".join(f"{t:.4f}" for t in passes)
              + "  raw " + " ".join(f"{t:.4f}" for t in work["pass_raw_s"]))
        print(f"setup_s      {metrics['setup_s']['value']:10.4f} s   "
              f"median of {len(setups)} set-ups at reference speed")
        print(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:10.1f} MB")
        print(f"fail_ratio   {work['failed'] / work['attempted']:10.4f}     "
              f"{work['failed']} of {work['attempted']} operations failed")
    if args.trace:
        for key, m in metrics.items():
            print(f"{key:<28} {m['value']:>16.6g} {m['unit']}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fracdec", "__init__.py")):
        print(f"error: no fracdec sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            args.workload = name
            setups, work = run_workload(args)
            wl_metrics = report(name, args, setups, work)
            attempted += work["attempted"]
            failed += work["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in wl_metrics.items()})
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
