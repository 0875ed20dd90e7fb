"""Command-line front end for reproducible experiments.

Every output file starts with a header line that records the exact
experiment configuration; re-running with the same arguments produces a
byte-identical file.  Exit codes: 0 success, 2 usage/config error,
3 mesh, data or file I/O error, 4 numerical-accuracy error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, mesh, operator, oracles
from .errors import AccuracyError, ConfigError, MeshError

USAGE_ERROR, DATA_ERROR, ACCURACY_ERROR = 2, 3, 4


def _config_from_args(args):
    return operator.FracConfig(
        s=args.s, c_s=args.cs,
        sidedness={"two": "two_sided", "left": "left_sided"}[args.sidedness],
        right_sign=args.right_sign, distance_mode=args.distance,
    )


def _header(command, args, skip=("output", "func")):
    payload = {k: v for k, v in sorted(vars(args).items())
               if k not in skip and v is not None and k != "command"}
    payload["command"] = command
    return "# config: " + json.dumps(payload, sort_keys=True) + "\n"


def _write_rows(path, header, columns, rows, fmt):
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


def _add_operator(parser):
    parser.add_argument("--s", type=float, default=0.5, help="fractional order")
    parser.add_argument("--cs", type=float, default=None,
                        help="diagonal constant (default 2s/(1-s))")
    parser.add_argument("--sidedness", choices=("two", "left"), default="two")
    parser.add_argument("--right-sign", choices=("plus", "minus"), default="plus")
    parser.add_argument("--distance", choices=("geodesic", "euclidean"),
                        default="geodesic")


def _add_table_output(parser):
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("-o", "--output", required=True)


def _load_mesh(args):
    if args.mesh is not None:
        if args.mesh.endswith(".off"):
            return mesh.load_off(args.mesh)
        return mesh.load_json(args.mesh)
    if args.interval is not None:
        return mesh.generate_interval_mesh(args.a, args.b, args.interval)
    if args.square is not None:
        return mesh.generate_unit_square_mesh(args.square)
    raise ConfigError("one of --mesh/--interval/--square is required")


def cmd_gen_mesh(args):
    if args.kind == "interval":
        cx = mesh.generate_interval_mesh(args.a, args.b, args.edges)
    else:
        if args.n is None:
            raise ConfigError("square meshes need --n")
        cx = mesh.generate_unit_square_mesh(args.n)
    if args.output.endswith(".off"):
        mesh.save_off(cx, args.output)
    else:
        mesh.save_json(cx, args.output)
    counts = " ".join(f"{cx.n_simplices(p)} {p}-simplices"
                      for p in range(cx.dimension + 1))
    print(f"wrote {args.output}: {counts}")
    return 0


def cmd_frac_deriv(args):
    cx = _load_mesh(args)
    config = _config_from_args(args)
    family = oracles.get_family(args.family, q=args.q)
    coords = cx.vertex_coords
    if coords is None:
        raise MeshError("the mesh must be embedded to sample a function")
    if family.dim == 1:
        alpha = mesh.Cochain(0, family.sample(coords[:, 0]))
    else:
        alpha = mesh.Cochain(0, family.sample(coords[:, 0], coords[:, 1]))
    op = operator.build_frac_derivative(cx, args.p, config)
    deriv = op.apply(alpha)
    rows = [(i, float(v)) for i, v in enumerate(deriv.values)]
    _write_rows(args.output, _header("frac-deriv", args),
                ["simplex_index", "value"], rows, args.format)
    print(f"wrote {args.output}: {len(rows)} degree-{args.p + 1} values")
    return 0


def cmd_convergence(args):
    family = oracles.get_family(args.family, q=args.q)
    config = _config_from_args(args)
    edge_counts = [int(t) for t in args.edge_counts.split(",") if t]
    if not edge_counts:
        raise ConfigError("--edge-counts must list at least one mesh size")
    if args.s_values:
        s_values = [float(t) for t in args.s_values.split(",") if t]
        rows = analysis.s_sweep(family, s_values, edge_counts, config=config)
        out = [(r["n"], r["s"], r["linf_error"]) for r in rows]
        _write_rows(args.output, _header("convergence", args),
                    ["n", "s", "linf_error"], out, args.format)
    else:
        rows = analysis.convergence_study(family, args.s, edge_counts,
                                          config=config)
        out = [(r["n"], r["error"], r["ratio"]) for r in rows]
        _write_rows(args.output, _header("convergence", args),
                    ["n", "error", "ratio"], out, args.format)
    print(f"wrote {args.output}: {len(out)} rows")
    return 0


def cmd_field2d(args):
    family = oracles.get_family(args.family)
    config = _config_from_args(args)
    result = analysis.field_experiment_2d(args.n, family, config,
                                          normalize=args.normalize)
    header = _header("field2d", args)
    field_rows = [
        (i, c[0], c[1], p[0], p[1], r[0], r[1])
        for i, (c, p, r) in enumerate(zip(result["centers"],
                                          result["predicted"],
                                          result["reference"]))
    ]
    _write_rows(args.output + "_field.csv", header,
                ["tri_index", "cx", "cy", "vx_pred", "vy_pred", "vx_ref", "vy_ref"],
                field_rows, "csv")
    err_rows = [(i, float(e)) for i, e in enumerate(result["relative_errors"])]
    _write_rows(args.output + "_errors.csv", header,
                ["triangle_index", "rel_error"], err_rows, "csv")
    s = result["summary"]
    print(f"relative error: min {s['min']:.4f} max {s['max']:.4f} "
          f"mean {s['mean']:.4f} ({s['flagged']} zero-reference triangles flagged)")
    return 0


def cmd_oracle_sample(args):
    family = oracles.get_family(args.family, q=args.q)
    if family.side == "left" and args.right_sign == "minus":
        raise ConfigError(f"family {family.name} is one-sided; "
                          "--right-sign minus does not apply")
    family.check_order(args.s)
    pts = np.round(np.arange(1, args.points + 1) / (args.points + 1), 12)
    if family.dim == 1:
        vals = family.reference(pts, args.s, args.right_sign).tolist()
        rows = [(x, family.name, args.s, v) for x, v in zip(pts.tolist(), vals)]
        cols = ["x", "family", "s", "value"]
    else:
        x, y = (a.ravel() for a in np.meshgrid(pts, pts, indexing="ij"))
        vecs = family.reference(x, y, args.s, args.right_sign).tolist()
        rows = [(xi, yi, f"{family.name}:{axis}", args.s, v)
                for xi, yi, vec in zip(x.tolist(), y.tolist(), vecs)
                for axis, v in zip(("dx", "dy"), vec)]
        cols = ["x", "y", "family", "s", "value"]
    _write_rows(args.output, _header("oracle-sample", args), cols, rows,
                args.format)
    print(f"wrote {args.output}: {len(rows)} samples")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracdec",
        description="Fractional discrete exterior derivative experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-mesh", help="generate a mesh file")
    p.add_argument("kind", choices=("interval", "square"))
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--edges", type=int, default=16)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen_mesh)

    p = sub.add_parser("frac-deriv", help="fractional derivative of a sampled function")
    p.add_argument("--mesh", default=None, help="mesh file (.json or .off)")
    p.add_argument("--interval", type=int, default=None, metavar="N")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--square", type=int, default=None, metavar="N")
    p.add_argument("--family", required=True, help="built-in function family")
    p.add_argument("--q", type=float, default=None, help="exponent for power family")
    p.add_argument("-p", type=int, default=0, help="source cochain degree")
    _add_operator(p)
    _add_table_output(p)
    p.set_defaults(func=cmd_frac_deriv)

    p = sub.add_parser("convergence", help="error tables and s sweeps")
    p.add_argument("--family", required=True)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--edge-counts", required=True,
                   help="comma-separated mesh sizes")
    p.add_argument("--s-values", default=None,
                   help="comma-separated s values (Linf sweep mode)")
    _add_operator(p)
    _add_table_output(p)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("field2d", help="2D gradient-field experiment")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True, help="grid subdivisions")
    p.add_argument("--normalize", choices=("reference", "predicted"),
                   default="reference")
    _add_operator(p)
    p.add_argument("-o", "--output", required=True, help="prefix of two CSV files")
    p.set_defaults(func=cmd_field2d)

    p = sub.add_parser("oracle-sample", help="sample the analytic ground truths")
    p.add_argument("--family", required=True)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--points", type=int, default=19,
                   help="number of interior sample points per axis")
    p.add_argument("--s", type=float, default=0.5, help="order of the closed form")
    p.add_argument("--right-sign", choices=("plus", "minus"), default="plus")
    _add_table_output(p)
    p.set_defaults(func=cmd_oracle_sample)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MeshError as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return ACCURACY_ERROR


if __name__ == "__main__":
    sys.exit(main())
