"""Command-line front end.

Subcommands compute curvature maps, umbilic scans, inversion profiles,
flux-decay ladders, and the convex-body pipeline, writing CSV (and
optionally SVG) with deterministic formatting. Exit codes: 0 success,
1 usage error, 2 numerical non-convergence, 3 a mathematical check failed.

Each command is one ``_COMMANDS`` entry: its words, help text, handler
and options. An option's argparse ``type`` converts and checks its value,
so a handler receives parsed fields, bodies, radii and counts.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from . import convexbody, quad, scan, transform
from .convexbody import SupportBody
from .curvature import curvature_difference_field, principal_deviation_field
from .errors import (ConvexityError, DomainError, GraphConditionError,
                     NonConvergenceError, RegularityError)
from .families import _split_spec, list_families, parse_field_spec
from .field import Direction, _check_ring, decay_profile
from .output import (format_float, svg_contours, svg_heatmap, write_csv,
                     write_grid_csv, write_polyline_csv)
from .util import check_radii

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONCONVERGENCE = 2
EXIT_CHECK_FAILED = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a token for a negative number only in plain decimal
        # notation (-1, -.5), so -1e-3, -inf or the list -1,2 would start an
        # option; a comma list of float() spellings, the first negative, is a
        # value here (no option looks like one)
        number = r"(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf|infinity|nan)"
        self._negative_number_matcher = re.compile(
            rf"^-{number}(?:,[+-]?{number})*$", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


def _argument(parse):
    """An argparse type that reports ``parse``'s ValueError message after
    the option's name."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _finite(text):
    """An argparse type: a float that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


_finite.__name__ = "float"  # argparse names it in "invalid float value"


def _positive(convert):
    """An argparse type: ``convert``, then a check that the value is positive."""
    def positive(text):
        value = convert(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {value}")
        return value
    positive.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return positive


# body name -> (parameter defaults, builder called with every parameter)
_BODIES = {
    "sphere": ({"R": 1.0}, lambda R: SupportBody(c0=R, name="sphere")),
    "zonal": ({"eps": 0.05}, lambda eps: SupportBody(
        quad=((-eps, 0.0, 0.0), (0.0, -eps, 0.0), (0.0, 0.0, 2.0 * eps)),
        name=f"zonal(eps={eps})")),
    "triaxial": ({"ax": 0.02, "ay": 0.05, "az": 0.08}, lambda ax, ay, az: SupportBody(
        quad=((ax, 0.0, 0.0), (0.0, ay, 0.0), (0.0, 0.0, az)), name="triaxial")),
    "shifted": ({"cx": 0.0, "cy": 0.0, "cz": 0.0},
                lambda cx, cy, cz: SupportBody(linear=(cx, cy, cz), name="shifted")),
    "quartic": ({"qx": 0.0, "qy": 0.0, "qz": 0.0},
                lambda qx, qy, qz: SupportBody(quartic=(qx, qy, qz), name="quartic")),
}


def _parse_body(text):
    """Parse CLI syntax 'name' or 'name:key=value,...' into a support body."""
    name, pairs = _split_spec(text, "body")
    params = {k: _finite(v) for k, v in pairs}
    if name not in _BODIES:
        raise ValueError(f"unknown body '{name}' ({', '.join(_BODIES)})")
    defaults, build = _BODIES[name]
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"body '{name}' takes parameters {tuple(defaults)}, "
                         f"got unknown {sorted(unknown)}")
    return build(**{**defaults, **params})


def _fields_list(args):
    rows = [(s.name, ";".join(s.defaults) or "-", s.asymptotically_constant,
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


def _curvature_map(args):
    g = scan.grid_field(args.field, args.quantity, args.region, args.n, args.m,
                        X=Direction(args.X), Y=Direction(args.Y), theta0=args.theta0)
    write_grid_csv(args.out, args.quantity, g,
                   f"{args.quantity} of graph({args.field.name}); lengths in plane units")
    if args.svg:
        svg_heatmap(g, args.svg)
    return EXIT_OK


def _umbilic_scan(args):
    result = scan.umbilic_search(args.field, args.region, args.n, tol=args.tol)
    rows = [(p.x, p.y, p.residual, int(p.refined)) for p in result.points]
    write_csv(args.out, ("x", "y", "D_normalized", "refined"), rows,
              f"umbilic candidates of graph({args.field.name}); "
              f"totally_umbilic={result.totally_umbilic}")
    if result.totally_umbilic:
        print("region flagged totally umbilic", file=sys.stderr)
    return EXIT_OK


def _floor(args):
    rep = scan.umbilic_free_floor(args.field, args.region, args.n)
    write_csv(args.out, ("floor", "argmin_x", "argmin_y"),
              [(rep.floor, rep.argmin[0], rep.argmin[1])],
              f"min over grid of max(|P1|,|P2|)/(1+q)^(3/2) for {args.field.name}")
    return EXIT_OK


def _invert_graph(args):
    graph = transform.invert_local_graph(args.field, args.r0, normalize=args.normalize)
    prof = decay_profile(graph.as_field(), args.radii, n_theta=args.ntheta)
    write_csv(args.out, ("rbar", "sup_dev", "sup_rbar_grad"), prof.rows(),
              f"inverted-graph decay of {args.field.name}; c={format_float(prof.c)} "
              f"({prof.c_source}); scale={format_float(graph.scale)}")
    return EXIT_OK


def _verify_thm2(args):
    table = quad.curvature_difference_decay(args.field, Direction(args.X), Direction(args.Y),
                                            args.radii, quad.QuadScheme(args.nr, args.ntheta))
    write_csv(args.out, table.columns, table.rows,
              f"curvature-difference flux decay of {args.field.name}; "
              f"X={format_float(args.X)} Y={format_float(args.Y)} rad")
    return EXIT_OK


def _verify_thm3(args):
    table = quad.principal_deviation_decay(args.field, args.theta0, args.radii,
                                           quad.QuadScheme(args.nr, args.ntheta))
    write_csv(args.out, table.columns, table.rows,
              f"principal-deviation flux decay of {args.field.name}; "
              f"theta0={format_float(args.theta0)} rad")
    return EXIT_OK


def _verify_divergence(args):
    scheme = quad.QuadScheme(args.nr, args.ntheta)
    if args.which == "v2":
        V = curvature_difference_field(args.field, Direction(args.X), Direction(args.Y))
    else:
        V = principal_deviation_field(args.field, args.theta0)
    rows = [(r, quad.divergence_consistency(V, r, scheme)) for r in args.radii]
    write_csv(args.out, ("r", "abs_residual"), rows,
              f"divergence-theorem residual |disk(div V) - flux(V)| "
              f"for {V.label} on {args.field.name}")
    return EXIT_OK


def _pipeline_thm1(args):
    rep = convexbody.theorem1_pipeline(args.body, offset_r=args.offset,
                                       radii=args.radii, n_theta=args.ntheta)
    write_csv(args.out, rep.columns, rep.rows,
              f"inversion decay of body {args.body.name}; "
              f"ustar=({','.join(format_float(v) for v in rep.ustar)}); "
              f"offset={format_float(rep.offset_r)}; c={format_float(rep.c)}; "
              f"graph_check={'pass' if rep.graph_check_passed else 'fail'}")
    if not rep.graph_check_passed:
        print("inverted surface failed the vertical-line sampling check",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _contour(args):
    g = scan.grid_field(args.field, args.residual, args.region, args.n, args.m,
                        X=Direction(args.X), Y=Direction(args.Y), theta0=args.theta0)
    cs = scan.contours(g)
    write_polyline_csv(args.out, cs.polylines,
                       f"zero contours of {args.residual} for {args.field.name}")
    if args.svg:
        svg_contours(cs, g.region, args.svg)
    return EXIT_OK


def _decay(args):
    prof = decay_profile(args.field, args.radii, n_theta=args.ntheta)
    write_csv(args.out, ("r", "sup_dev", "sup_rgrad"), prof.rows(),
              f"ring decay of {args.field.name}; c={format_float(prof.c)} "
              f"({prof.c_source}, var={format_float(prof.c_variance)})")
    return EXIT_OK


_COUNT = _positive(int)
_RADII = _argument(lambda text: check_radii(_finite(v) for v in text.split(",") if v.strip()))
_RING = _argument(lambda text: _check_ring(int(text)))  # angles on a decay_profile ring
# parse_field_spec is looked up per call, so a wrapper patched into this
# module (as bench/tracing.py does) sees the call
_FIELD = ("--field", {"type": _argument(lambda text: parse_field_spec(text)),
                      "required": True})
_REGION = {"nargs": 4, "type": _finite, "metavar": ("X0", "Y0", "X1", "Y1")}
_X = ("--X", {"type": _finite, "default": 0.0})
_Y = ("--Y", {"type": _finite, "default": math.pi / 2})
_THETA0 = ("--theta0", {"type": _finite, "default": 0.0})
_OUT = ("--out", {"required": True})
_GRID = (("--region", {"default": (-2.0, -2.0, 2.0, 2.0), **_REGION}),
         ("--n", {"type": _COUNT, "default": 101}), ("--m", {"type": _COUNT, "default": 101}),
         _X, _Y, _THETA0, _OUT, ("--svg", {}))
_QUAD = (("--nr", {"type": int, "default": 16}), ("--ntheta", {"type": int, "default": 64}),
         _OUT)

# (words, help, handler, (flag, kwargs) options); an entry without a
# handler is a group whose commands follow it
_COMMANDS = (
    (("fields",), "field registry", None, ()),
    (("fields", "list"), "list registered field families", _fields_list,
     (("--out", {"help": "optional CSV path"}),)),
    (("curvature",), "curvature maps", None, ()),
    (("curvature", "map"), "sample a curvature quantity on a grid", _curvature_map,
     (_FIELD, ("--quantity", {"default": "H",
                              "choices": scan.CURVATURE_NAMES + scan.RESIDUAL_NAMES}),
      *_GRID)),
    (("umbilic",), "umbilic search", None, ()),
    (("umbilic", "scan"), "locate umbilics of a graph", _umbilic_scan,
     (_FIELD, ("--region", {"default": (-2.0, -2.0, 2.0, 2.0), **_REGION}),
      ("--n", {"type": _COUNT, "default": 101}),
      ("--tol", {"type": _positive(_finite), "default": 1e-8}), _OUT)),
    (("floor",), "umbilic-free floor of a region", _floor,
     (_FIELD, ("--region", {"default": (-20.0, -20.0, 20.0, 20.0), **_REGION}),
      ("--n", {"type": _COUNT, "default": 401}), _OUT)),
    (("invert",), "graph inversion", None, ()),
    (("invert", "graph"), "invert a local graph, profile decay", _invert_graph,
     (_FIELD, ("--r0", {"type": _positive(_finite), "required": True}),
      ("--normalize", {"action": "store_true"}),
      ("--radii", {"type": _RADII, "default": "10,100,1000"}),
      ("--ntheta", {"type": _RING, "default": 128}), _OUT)),
    (("verify",), "flux-decay and consistency checks", None, ()),
    (("verify", "thm2"), "curvature-difference flux decay", _verify_thm2,
     (_FIELD, _X, _Y, ("--radii", {"type": _RADII, "default": "2,4,8,16"}), *_QUAD)),
    (("verify", "thm3"), "principal-deviation flux decay", _verify_thm3,
     (_FIELD, _THETA0, ("--radii", {"type": _RADII, "default": "2,4,8,16"}), *_QUAD)),
    (("verify", "divergence"), "disk-vs-boundary consistency", _verify_divergence,
     (_FIELD, ("--which", {"choices": ("v2", "v3"), "default": "v2"}), _X, _Y, _THETA0,
      ("--radii", {"type": _RADII, "default": "2,4,8"}), *_QUAD)),
    (("pipeline",), "convex-body pipelines", None, ()),
    (("pipeline", "thm1"), "umbilic -> offset -> pose -> invert -> profile", _pipeline_thm1,
     (("--body", {"type": _argument(_parse_body), "required": True}),
      ("--offset", {"type": _finite}),
      ("--radii", {"type": _RADII, "default": "10,100,1000"}),
      ("--ntheta", {"type": _COUNT, "default": 512}), _OUT)),
    (("contour",), "zero contours of a residual", _contour,
     (_FIELD, ("--residual", {"default": "D", "choices": scan.RESIDUAL_NAMES}), *_GRID)),
    (("decay",), "ring decay profile of a field", _decay,
     (_FIELD, ("--radii", {"type": _RADII, "default": "2,4,8,16"}),
      ("--ntheta", {"type": _RING, "default": 256}), _OUT)),
)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once: parsing leaves it unchanged."""
    # the docstring's last paragraph is about the code, not the commands
    p = _Parser(prog="umbilic", description=__doc__.rpartition("\n\n")[0],
                allow_abbrev=False)
    p.add_argument("--config", help="key=value defaults file; flags override")
    groups = {(): p.add_subparsers(dest="command", required=True)}
    for words, summary, handler, options in _COMMANDS:
        cmd = groups[words[:-1]].add_parser(words[-1], help=summary)
        for flag, kwargs in options:
            cmd.add_argument(flag, **kwargs)
        if handler is None:
            groups[words] = cmd.add_subparsers(dest="sub", required=True)
        else:
            cmd.set_defaults(run=handler)
    return p


def _apply_config(argv):
    """Inject key=value pairs from --config PATH or --config=PATH, given once
    before or after the subcommand words, as leading (overridable) flags."""
    spellings = ["--config"[:k] for k in range(3, 9)]  # --c, --co, ..., --config
    i, *again = [k for k, a in enumerate(argv) if a.partition("=")[0] in spellings] or [None]
    if again:  # refused before either file is read
        raise UsageError(f"--config given twice: '{argv[again[0]].partition('=')[0]}'")
    if i is None:
        return argv
    flag, eq, path = argv[i].partition("=")
    if flag != "--config":
        # before the command words argparse would take it for the top-level
        # --config, which nothing reads; no command has an option like it
        raise UsageError(f"unrecognized option '{argv[i]}': write --config in full")
    if not eq:
        if i + 1 >= len(argv):
            raise UsageError("--config requires a path")
        path = argv[i + 1]
    rest = argv[:i] + argv[i + (1 if eq else 2):]
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
                # a multi-valued option (region = -1 -1 1 1) takes one token per value
                injected += [f"--{key.strip()}", *val.split()]
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    # keep subcommand words in front, then config defaults, then user flags
    words = []
    while rest and not rest[0].startswith("-"):
        words.append(rest.pop(0))
    return words + injected + rest


def run(argv) -> int:
    args = build_parser().parse_args(_apply_config(list(argv)))
    return args.run(args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # DomainError and GraphConditionError are ValueErrors: catch them first
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
