"""Command-line front end.

Subcommands compute curvature maps, umbilic scans, inversion profiles,
flux-decay ladders, and the convex-body pipeline, writing CSV (and
optionally SVG) with deterministic formatting. Exit codes: 0 success,
1 usage error, 2 numerical non-convergence, 3 a mathematical check failed.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import convexbody, quad, scan, transform
from .errors import (ConvexityError, DomainError, GraphConditionError,
                     NonConvergenceError, RegularityError)
from .families import list_families, parse_field_spec
from .field import Direction, decay_profile
from .output import format_float, svg_contours, svg_heatmap, write_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONCONVERGENCE = 2
EXIT_CHECK_FAILED = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_floats(text):
    vals = [float(v) for v in text.split(",") if v.strip()]
    if not vals:
        raise UsageError(f"empty list '{text}'")
    return vals


def _parse_region(vals):
    x0, y0, x1, y1 = (float(v) for v in vals)
    if x1 <= x0 or y1 <= y0:
        raise UsageError(f"degenerate region {vals}")
    return x0, y0, x1, y1


def _positive(name, value):
    if value <= 0:
        raise UsageError(f"{name} must be positive, got {value}")
    return value


def _increasing(name, vals):
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise UsageError(f"{name} must be strictly increasing")
    return vals


def _parse_body(text):
    name, _, tail = text.partition(":")
    params = {}
    for item in tail.split(","):
        if not item.strip():
            continue
        k, _, v = item.partition("=")
        params[k.strip()] = float(v)
    name = name.strip()
    if name == "sphere":
        return convexbody.SupportBody(c0=params.get("R", 1.0), name="sphere")
    if name == "zonal":
        eps = params.get("eps", 0.05)
        q = ((-eps, 0.0, 0.0), (0.0, -eps, 0.0), (0.0, 0.0, 2.0 * eps))
        return convexbody.SupportBody(1.0, (0.0, 0.0, 0.0), q, name=f"zonal(eps={eps})")
    if name == "triaxial":
        q = ((params.get("ax", 0.02), 0.0, 0.0),
             (0.0, params.get("ay", 0.05), 0.0),
             (0.0, 0.0, params.get("az", 0.08)))
        return convexbody.SupportBody(1.0, (0.0, 0.0, 0.0), q, name="triaxial")
    if name == "shifted":
        lin = (params.get("cx", 0.0), params.get("cy", 0.0), params.get("cz", 0.0))
        return convexbody.SupportBody(1.0, lin, name="shifted")
    if name == "quartic":
        a = (params.get("qx", 0.0), params.get("qy", 0.0), params.get("qz", 0.0))
        return convexbody.SupportBody(1.0, quartic=a, name="quartic")
    raise UsageError(f"unknown body '{name}' (sphere, zonal, triaxial, shifted, quartic)")


def build_parser() -> _Parser:
    p = _Parser(prog="umbilic", description=__doc__)
    p.add_argument("--config", help="key=value defaults file; flags override")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fields", help="field registry")
    fsub = f.add_subparsers(dest="sub", required=True)
    flist = fsub.add_parser("list", help="list registered field families")
    flist.add_argument("--out", help="optional CSV path")

    c = sub.add_parser("curvature", help="curvature maps")
    csub = c.add_subparsers(dest="sub", required=True)
    cmap = csub.add_parser("map", help="sample a curvature quantity on a grid")
    cmap.add_argument("--field", required=True)
    cmap.add_argument("--quantity", default="H",
                      choices=scan.CURVATURE_NAMES + scan.RESIDUAL_NAMES)
    cmap.add_argument("--region", nargs=4, type=float, default=(-2.0, -2.0, 2.0, 2.0),
                      metavar=("X0", "Y0", "X1", "Y1"))
    cmap.add_argument("--n", type=int, default=101)
    cmap.add_argument("--m", type=int, default=101)
    cmap.add_argument("--X", type=float, default=0.0)
    cmap.add_argument("--Y", type=float, default=math.pi / 2)
    cmap.add_argument("--theta0", type=float, default=0.0)
    cmap.add_argument("--out", required=True)
    cmap.add_argument("--svg")

    u = sub.add_parser("umbilic", help="umbilic search")
    usub = u.add_subparsers(dest="sub", required=True)
    uscan = usub.add_parser("scan", help="locate umbilics of a graph")
    uscan.add_argument("--field", required=True)
    uscan.add_argument("--region", nargs=4, type=float, default=(-2.0, -2.0, 2.0, 2.0),
                       metavar=("X0", "Y0", "X1", "Y1"))
    uscan.add_argument("--n", type=int, default=101)
    uscan.add_argument("--tol", type=float, default=1e-8)
    uscan.add_argument("--out", required=True)

    fl = sub.add_parser("floor", help="umbilic-free floor of a region")
    fl.add_argument("--field", required=True)
    fl.add_argument("--region", nargs=4, type=float, default=(-20.0, -20.0, 20.0, 20.0),
                    metavar=("X0", "Y0", "X1", "Y1"))
    fl.add_argument("--n", type=int, default=401)
    fl.add_argument("--out", required=True)

    inv = sub.add_parser("invert", help="graph inversion")
    isub = inv.add_subparsers(dest="sub", required=True)
    igraph = isub.add_parser("graph", help="invert a local graph, profile decay")
    igraph.add_argument("--field", required=True)
    igraph.add_argument("--r0", type=float, required=True)
    igraph.add_argument("--normalize", action="store_true")
    igraph.add_argument("--radii", default="10,100,1000")
    igraph.add_argument("--ntheta", type=int, default=128)
    igraph.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="flux-decay and consistency checks")
    vsub = v.add_subparsers(dest="sub", required=True)
    vt2 = vsub.add_parser("thm2", help="curvature-difference flux decay")
    vt2.add_argument("--field", required=True)
    vt2.add_argument("--X", type=float, default=0.0)
    vt2.add_argument("--Y", type=float, default=math.pi / 2)
    vt2.add_argument("--radii", default="2,4,8,16")
    vt2.add_argument("--nr", type=int, default=16)
    vt2.add_argument("--ntheta", type=int, default=64)
    vt2.add_argument("--out", required=True)
    vt3 = vsub.add_parser("thm3", help="principal-deviation flux decay")
    vt3.add_argument("--field", required=True)
    vt3.add_argument("--theta0", type=float, default=0.0)
    vt3.add_argument("--radii", default="2,4,8,16")
    vt3.add_argument("--nr", type=int, default=16)
    vt3.add_argument("--ntheta", type=int, default=64)
    vt3.add_argument("--out", required=True)
    vd = vsub.add_parser("divergence", help="disk-vs-boundary consistency")
    vd.add_argument("--field", required=True)
    vd.add_argument("--which", choices=("v2", "v3"), default="v2")
    vd.add_argument("--X", type=float, default=0.0)
    vd.add_argument("--Y", type=float, default=math.pi / 2)
    vd.add_argument("--theta0", type=float, default=0.0)
    vd.add_argument("--radii", default="2,4,8")
    vd.add_argument("--nr", type=int, default=16)
    vd.add_argument("--ntheta", type=int, default=64)
    vd.add_argument("--out", required=True)

    pl = sub.add_parser("pipeline", help="convex-body pipelines")
    psub = pl.add_subparsers(dest="sub", required=True)
    pt1 = psub.add_parser("thm1", help="umbilic -> offset -> pose -> invert -> profile")
    pt1.add_argument("--body", required=True)
    pt1.add_argument("--offset", type=float)
    pt1.add_argument("--radii", default="10,100,1000")
    pt1.add_argument("--ntheta", type=int, default=512)
    pt1.add_argument("--out", required=True)

    ct = sub.add_parser("contour", help="zero contours of a residual")
    ct.add_argument("--field", required=True)
    ct.add_argument("--residual", default="D", choices=scan.RESIDUAL_NAMES)
    ct.add_argument("--region", nargs=4, type=float, default=(-2.0, -2.0, 2.0, 2.0),
                    metavar=("X0", "Y0", "X1", "Y1"))
    ct.add_argument("--n", type=int, default=101)
    ct.add_argument("--m", type=int, default=101)
    ct.add_argument("--X", type=float, default=0.0)
    ct.add_argument("--Y", type=float, default=math.pi / 2)
    ct.add_argument("--theta0", type=float, default=0.0)
    ct.add_argument("--out", required=True)
    ct.add_argument("--svg")

    dc = sub.add_parser("decay", help="ring decay profile of a field")
    dc.add_argument("--field", required=True)
    dc.add_argument("--radii", default="2,4,8,16")
    dc.add_argument("--ntheta", type=int, default=256)
    dc.add_argument("--out", required=True)

    return p


def _apply_config(argv):
    """Inject key=value pairs from --config as leading (overridable) flags."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config requires a path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    injected = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, val = line.partition("=")
                if not _:
                    raise UsageError(f"malformed config line '{line}'")
                injected += [f"--{key.strip()}", val.strip()]
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    # keep subcommand words in front, then config defaults, then user flags
    words = []
    while rest and not rest[0].startswith("-"):
        words.append(rest.pop(0))
    return words + injected + rest


def _grid_directions(args):
    return Direction(args.X), Direction(args.Y)


def run(argv) -> int:
    argv = _apply_config(list(argv))
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "fields":
        rows = [(s.name, ";".join(s.params) or "-", s.asymptotically_constant,
                 s.umbilic_free, s.positively_curved, s.notes)
                for s in list_families()]
        header = ("name", "params", "asymptotically_constant", "umbilic_free",
                  "positively_curved", "notes")
        print("  ".join(header))
        for r in rows:
            print("  ".join(str(v) for v in r))
        if args.out:
            write_csv(args.out, header, rows, "registered field families")
        return EXIT_OK

    if args.command == "curvature":
        field = parse_field_spec(args.field)
        region = _parse_region(args.region)
        _positive("n", args.n), _positive("m", args.m)
        X, Y = _grid_directions(args)
        g = scan.grid_field(field, args.quantity, region, args.n, args.m,
                            X=X, Y=Y, theta0=args.theta0)
        rows = [(x, y, g.values[i, j]) for i, x in enumerate(g.xs)
                for j, y in enumerate(g.ys)]
        write_csv(args.out, ("x", "y", args.quantity), rows,
                  f"{args.quantity} of graph({field.name}); lengths in plane units")
        if args.svg:
            svg_heatmap(g, args.svg)
        return EXIT_OK

    if args.command == "umbilic":
        field = parse_field_spec(args.field)
        region = _parse_region(args.region)
        result = scan.umbilic_search(field, region, _positive("n", args.n),
                                     tol=args.tol)
        rows = [(p.x, p.y, p.residual, int(p.refined)) for p in result.points]
        write_csv(args.out, ("x", "y", "D_normalized", "refined"), rows,
                  f"umbilic candidates of graph({field.name}); "
                  f"totally_umbilic={result.totally_umbilic}")
        if result.totally_umbilic:
            print("region flagged totally umbilic", file=sys.stderr)
        return EXIT_OK

    if args.command == "floor":
        field = parse_field_spec(args.field)
        region = _parse_region(args.region)
        rep = scan.umbilic_free_floor(field, region, _positive("n", args.n))
        write_csv(args.out, ("floor", "argmin_x", "argmin_y"),
                  [(rep.floor, rep.argmin[0], rep.argmin[1])],
                  f"min over grid of max(|P1|,|P2|)/(1+q)^(3/2) for {field.name}")
        return EXIT_OK

    if args.command == "invert":
        field = parse_field_spec(args.field)
        radii = _increasing("radii", _parse_floats(args.radii))
        graph = transform.invert_local_graph(field, _positive("r0", args.r0),
                                             normalize=args.normalize)
        prof = decay_profile(graph.as_field(), radii, n_theta=args.ntheta)
        write_csv(args.out, ("rbar", "sup_dev", "sup_rbar_grad"), prof.rows(),
                  f"inverted-graph decay of {field.name}; c={format_float(prof.c)} "
                  f"({prof.c_source}); scale={format_float(graph.scale)}")
        return EXIT_OK

    if args.command == "verify":
        field = parse_field_spec(args.field)
        radii = _increasing("radii", _parse_floats(args.radii))
        scheme = quad.QuadScheme(args.nr, args.ntheta)
        if args.sub == "thm2":
            X, Y = _grid_directions(args)
            table = quad.curvature_difference_decay(field, X, Y, radii, scheme)
            desc = (f"curvature-difference flux decay of {field.name}; "
                    f"X={format_float(args.X)} Y={format_float(args.Y)} rad")
        elif args.sub == "thm3":
            table = quad.principal_deviation_decay(field, args.theta0, radii, scheme)
            desc = (f"principal-deviation flux decay of {field.name}; "
                    f"theta0={format_float(args.theta0)} rad")
        else:  # divergence
            if args.which == "v2":
                X, Y = _grid_directions(args)
                from .curvature import curvature_difference_field
                V = curvature_difference_field(field, X, Y)
            else:
                from .curvature import principal_deviation_field
                V = principal_deviation_field(field, args.theta0)
            rows = [(r, quad.divergence_consistency(V, r, scheme)) for r in radii]
            write_csv(args.out, ("r", "abs_residual"), rows,
                      f"divergence-theorem residual |disk(div V) - flux(V)| "
                      f"for {V.label} on {field.name}")
            return EXIT_OK
        write_csv(args.out, table.columns, table.rows, desc)
        return EXIT_OK

    if args.command == "pipeline":
        body = _parse_body(args.body)
        radii = _increasing("radii", _parse_floats(args.radii))
        rep = convexbody.theorem1_pipeline(body, offset_r=args.offset,
                                           radii=radii, n_theta=args.ntheta)
        write_csv(args.out, rep.columns, rep.rows,
                  f"inversion decay of body {body.name}; "
                  f"ustar=({','.join(format_float(v) for v in rep.ustar)}); "
                  f"offset={format_float(rep.offset_r)}; c={format_float(rep.c)}; "
                  f"graph_check={'pass' if rep.graph_check_passed else 'fail'}")
        if not rep.graph_check_passed:
            print("inverted surface failed the vertical-line sampling check",
                  file=sys.stderr)
            return EXIT_CHECK_FAILED
        return EXIT_OK

    if args.command == "contour":
        field = parse_field_spec(args.field)
        region = _parse_region(args.region)
        X, Y = _grid_directions(args)
        g = scan.grid_field(field, args.residual, region,
                            _positive("n", args.n), _positive("m", args.m),
                            X=X, Y=Y, theta0=args.theta0)
        cs = scan.contours(g)
        rows = []
        for pid, poly in enumerate(cs.polylines):
            for x, y in poly:
                rows.append((pid, x, y))
        write_csv(args.out, ("polyline", "x", "y"), rows,
                  f"zero contours of {args.residual} for {field.name}")
        if args.svg:
            svg_contours(cs, g.region, args.svg)
        return EXIT_OK

    if args.command == "decay":
        field = parse_field_spec(args.field)
        radii = _increasing("radii", _parse_floats(args.radii))
        prof = decay_profile(field, radii, n_theta=_positive("ntheta", args.ntheta))
        write_csv(args.out, ("r", "sup_dev", "sup_rgrad"), prof.rows(),
                  f"ring decay of {field.name}; c={format_float(prof.c)} "
                  f"({prof.c_source}, var={format_float(prof.c_variance)})")
        return EXIT_OK

    raise UsageError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # DomainError is a ValueError, so it goes before the usage clause
    except (GraphConditionError, ConvexityError, RegularityError, DomainError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


def console_main() -> None:
    sys.exit(main())
