"""Command-line front end for reproducible experiments.

Every output file starts with a header line that records the exact
experiment configuration; re-running with the same arguments produces a
byte-identical file.  Exit codes: 0 success, 2 usage/config error,
3 mesh, data or file I/O error, 4 numerical-accuracy error, which
includes a floating-point overflow, division by zero or invalid
operation anywhere in a command.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import _text, analysis, mesh, operator, oracles
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


def _write_rows(path, header, table, fmt):
    """Write the header line and a table, given as a dict of named
    columns (lists or arrays of equal length), as CSV or as a JSON list
    of row objects; cells are str of the Python value, so a float is
    its repr."""
    names, columns = list(table), list(table.values())
    with open(path, "w") as fh:
        fh.write(header)
        if fmt == "json":
            _text.write_json(fh, _text.json_item(0, len(names), names), columns, 0)
            fh.write("\n")
        else:
            fh.write(",".join(names) + "\n")
            fh.writelines(_text.blocks(",".join(["%s"] * len(names)) + "\n", columns))


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


def _reject_unread(args, names, use):
    """Reject the named options that were given but are not read for use."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise ConfigError(f"{', '.join(given)} cannot be used with {use}")


def _list_option(name, text, kind):
    """The values of comma-separated option --name, empty tokens skipped."""
    try:
        return [kind(token) for token in text.split(",") if token]
    except ValueError as exc:  # its message quotes the token
        raise ConfigError(f"--{name}: {exc}") from None


def _interval_mesh(args, n_edges):
    """Interval mesh on [--a, --b], by default [0, 1]; the ends are
    stored back on args so that the header records them."""
    args.a = 0.0 if args.a is None else args.a
    args.b = 1.0 if args.b is None else args.b
    return mesh.generate_interval_mesh(args.a, args.b, n_edges)


def _load_mesh(args):
    if args.interval is not None:
        return _interval_mesh(args, args.interval)
    _reject_unread(args, ("a", "b"), "--mesh or --square")
    if args.square is not None:
        return mesh.generate_unit_square_mesh(args.square)
    if args.mesh.endswith(".off"):
        return mesh.load_off(args.mesh)
    return mesh.load_json(args.mesh)


def cmd_gen_mesh(args):
    if args.kind == "interval":
        _reject_unread(args, ("n",), "interval meshes; they take --edges")
        cx = _interval_mesh(args, 16 if args.edges is None else args.edges)
    else:
        _reject_unread(args, ("edges", "a", "b"), "square meshes; they take --n")
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
    if family.dim > coords.shape[1]:
        raise ConfigError(f"family {family.name} is {family.dim}D; the mesh is "
                          f"embedded in {coords.shape[1]}D")
    alpha = mesh.Cochain(0, family.sample(*coords.T[:family.dim]))
    op = operator.build_frac_derivative(cx, 0, config)
    deriv = op.apply(alpha)
    n = len(deriv.values)
    _write_rows(args.output, _header("frac-deriv", args),
                {"simplex_index": np.arange(n), "value": deriv.values}, args.format)
    print(f"wrote {args.output}: {n} degree-1 values")
    return 0


def cmd_convergence(args):
    family = oracles.get_family(args.family, q=args.q)
    config = _config_from_args(args)
    edge_counts = _list_option("edge-counts", args.edge_counts, int)
    if not edge_counts:
        raise ConfigError("--edge-counts must list at least one mesh size")
    if args.s_values is not None:
        s_values = _list_option("s-values", args.s_values, float)
        if not s_values:
            raise ConfigError("--s-values must list at least one order")
        rows = analysis.s_sweep(family, s_values, edge_counts, config=config)
        names = ["n", "s", "linf_error"]
    else:
        rows = analysis.convergence_study(family, args.s, edge_counts,
                                          config=config)
        names = ["n", "error", "ratio"]
    _write_rows(args.output, _header("convergence", args),
                {name: [r[name] for r in rows] for name in names}, args.format)
    print(f"wrote {args.output}: {len(rows)} rows")
    return 0


def cmd_field2d(args):
    family = oracles.get_family(args.family)
    config = _config_from_args(args)
    result = analysis.field_experiment_2d(args.n, family, config,
                                          normalize=args.normalize)
    header = _header("field2d", args)
    centers, pred, ref = result["centers"], result["predicted"], result["reference"]
    index = np.arange(len(centers))
    _write_rows(args.output + "_field.csv", header,
                {"tri_index": index, "cx": centers[:, 0], "cy": centers[:, 1],
                 "vx_pred": pred[:, 0], "vy_pred": pred[:, 1],
                 "vx_ref": ref[:, 0], "vy_ref": ref[:, 1]}, "csv")
    _write_rows(args.output + "_errors.csv", header,
                {"triangle_index": index, "rel_error": result["relative_errors"]}, "csv")
    s = result["summary"]
    print(f"relative error: min {s['min']:.4f} max {s['max']:.4f} "
          f"mean {s['mean']:.4f} ({s['flagged']} zero-reference triangles flagged)")
    return 0


def cmd_oracle_sample(args):
    family = oracles.get_family(args.family, q=args.q)
    if family.side == "left" and args.right_sign == "minus":
        raise ConfigError(f"family {family.name} is one-sided; "
                          "--right-sign minus does not apply")
    if args.points < 1:
        raise ConfigError(f"--points must be >= 1, got {args.points}")
    pts = np.round(np.arange(1, args.points + 1) / (args.points + 1), 12)
    if family.dim == 1:
        values = family.reference(pts, args.s, args.right_sign)
        table = {"x": pts, "family": [family.name] * len(pts)}
    else:
        x, y = (a.ravel() for a in np.meshgrid(pts, pts, indexing="ij"))
        # Two rows per grid point, dx then dy.
        values = np.ravel(family.reference(x, y, args.s, args.right_sign))
        table = {"x": np.repeat(x, 2), "y": np.repeat(y, 2),
                 "family": [f"{family.name}:dx", f"{family.name}:dy"] * len(x)}
    table.update(s=[args.s] * len(values), value=values)
    _write_rows(args.output, _header("oracle-sample", args), table, args.format)
    print(f"wrote {args.output}: {len(values)} samples")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracdec",
        description="Fractional discrete exterior derivative experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-mesh", help="generate a mesh file")
    p.add_argument("kind", choices=("interval", "square"))
    p.add_argument("--a", type=float, default=None, help="interval start (default 0)")
    p.add_argument("--b", type=float, default=None, help="interval end (default 1)")
    p.add_argument("--edges", type=int, default=None, help="interval edges (default 16)")
    p.add_argument("--n", type=int, default=None, help="square cells per side")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen_mesh)

    p = sub.add_parser("frac-deriv", help="fractional derivative of a sampled function")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--mesh", default=None, help="mesh file (.json or .off)")
    source.add_argument("--interval", type=int, default=None, metavar="N")
    source.add_argument("--square", type=int, default=None, metavar="N")
    p.add_argument("--a", type=float, default=None, help="--interval start (default 0)")
    p.add_argument("--b", type=float, default=None, help="--interval end (default 1)")
    p.add_argument("--family", required=True, help="built-in function family")
    p.add_argument("--q", type=float, default=None, help="exponent for power family")
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
        with np.errstate(over="raise", divide="raise", invalid="raise"):
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
    except FloatingPointError as exc:
        print(f"floating-point error: {exc}", file=sys.stderr)
        return ACCURACY_ERROR


if __name__ == "__main__":
    sys.exit(main())
