"""Span tracing of the umbilic package from outside it.

``Tracer.install`` wraps the public functions of every layer module, and
a few public methods, and patches each wrapper into every ``umbilic``
namespace that holds the original (``scan.residual_arrays`` as well as
``curvature.residual_arrays``). A span holds its name, layer, start,
end, parent span and op id; spans stay in memory until ``uninstall``.
Counts are taken at the same wrapped boundaries. Nothing is recorded
while no op is open, so the benchmark's own checks leave no spans.

A layer's self time is the sum, over its spans, of the span's duration
minus the part of it covered by child spans. Helpers in ``umbilic.util``
are not wrapped, so their time counts under their caller.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import sys
import threading
import time

import numpy as np

LAYERS = ("field", "curvature", "families", "scan", "transform", "convexbody",
          "quad", "output", "cli")

# called once per field evaluation or per CSV value: a span would cost more
# than the call, and the time stays in the same layer without one
SKIP = {"field.as_xy", "field.broadcast_xy", "output.format_float"}

FIELD_EVAL = ("jet_arrays", "jet", "value", "values_and_grads", "value_polar")
METHODS = {
    "field": {"ScalarField": FIELD_EVAL},
    "transform": {"ExteriorGraph": ("solve_r", "evaluate", "as_field")},
    "convexbody": {"PosedBody": ("cap_points",)},
}
EXTERIOR = ("transform.ExteriorGraph.solve_r", "transform.ExteriorGraph.evaluate",
            "transform.ExteriorGraph.as_field", "transform.exterior_eval",
            "transform.exterior.jets", "transform.exterior.grads")
# module functions the per-layer metrics read; install() fails without them
SPANS = ("scan.contours", "scan.umbilic_search", "scan.grid_field",
         "scan.umbilic_free_floor", "transform.invert_local_graph",
         "transform.graph_condition", "transform.exterior_eval",
         "convexbody.theorem1_pipeline", "convexbody.find_umbilic",
         "convexbody.umbilic_sites", "convexbody.radii_of_curvature",
         "convexbody.check_convexity", "quad.disk_integral", "quad.disk_nodes",
         "quad.boundary_flux", "quad.boundary_majorant", "output.write_csv",
         "output.svg_heatmap", "output.svg_contours",
         "curvature.residual_arrays", "curvature.curvature_difference_field",
         "curvature.principal_deviation_field")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "info")

    def __init__(self, name, layer, parent, op):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.info = None
        self.end = None
        self.start = time.perf_counter()


def _size(*arrays) -> int:
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


def _eval_points(args, kwargs, result):
    if len(args) >= 3:  # (self, x, y) or (self, r, theta)
        return {"points": _size(args[1], args[2])}
    return {"points": 1}  # jet(self, p)


def _first_array(args, kwargs, result):
    first = args[0] if args else None
    if isinstance(first, np.ndarray):
        return {"points": int(first.size)}
    return {"points": 1}


def _grid(args, kwargs, result):
    return {"points": int(result.values.size)}


def _contours(args, kwargs, result):
    n, m = args[0].values.shape
    return {"cells": (n - 1) * (m - 1),
            "vertices": int(sum(len(p) for p in result.polylines))}


def _umbilic_points(args, kwargs, result):
    return {"points": len(result.points)}


def _disk_nodes(args, kwargs, result):
    return {"nodes": int(result[0].size)}


def _boundary(args, kwargs, result):
    nt = args[2] if len(args) > 2 else kwargs.get("n_theta", 256)
    return {"nodes": int(nt)}


def _csv(args, kwargs, result):
    rows = args[2] if len(args) > 2 else kwargs.get("rows", ())
    return {"rows": len(rows), "bytes": os.path.getsize(args[0])}


def _svg(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


def _sites(args, kwargs, result):
    return {"sites": len(result)}


INFO = {
    **{f"field.ScalarField.{m}": _eval_points for m in FIELD_EVAL},
    **{f"curvature.{f}": _first_array for f in (
        "residual_arrays", "curvature_direction_arrays", "curvature_theta_arrays",
        "dk_dtheta_arrays", "normal_curvature", "normal_curvature_theta",
        "dk_dtheta", "shape_operator", "umbilic_residuals",
        "graph_mean_divergence")},
    **{f"curvature.flux.{k}": _first_array for k in ("vector", "div", "integrand")},
    "scan.grid_field": _grid,
    "scan.contours": _contours,
    "scan.umbilic_search": _umbilic_points,
    "quad.disk_nodes": _disk_nodes,
    "quad.boundary_flux": _boundary,
    "quad.boundary_majorant": _boundary,
    "output.write_csv": _csv,
    "output.svg_heatmap": _svg,
    "output.svg_contours": _svg,
    "convexbody.umbilic_sites": _sites,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.largest_grid = None  # (points, args, kwargs) of the largest grid_field
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._patched = []

    # -- spans -------------------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, layer):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a worker thread: its spans hang under the span that fanned out
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, layer, parent, self.op)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    def begin_op(self, op_id):
        self.op = op_id
        return self.open("op", "bench")

    def end_op(self, span):
        self.close(span)
        self.op = None

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name, layer):
        tracer = self
        info = INFO.get(name)
        post = _POST.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            if name == "scan.grid_field":
                pts = span.info["points"]
                if tracer.largest_grid is None or pts > tracer.largest_grid[0]:
                    tracer.largest_grid = (pts, args, kwargs)
            if post is not None:
                result = post(tracer, result)
            return result

        return wrapper

    def install(self):
        layer_modules = {layer: importlib.import_module(f"umbilic.{layer}")
                         for layer in LAYERS}
        modules = [m for k, m in sys.modules.items()
                   if k == "umbilic" or k.startswith("umbilic.")]
        replace = {}
        for layer, mod in layer_modules.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    replace[id(obj)] = (name, self.wrap(obj, name, layer))
            for cls_name, meths in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in meths:
                    orig = vars(cls)[meth]
                    self._patched.append((cls, meth, orig))
                    setattr(cls, meth, self.wrap(orig, f"{layer}.{cls_name}.{meth}", layer))
        wrapped = {name for name, _ in replace.values()}
        missing = sorted(n for n in SPANS if n not in wrapped)
        if missing:
            self.uninstall()
            raise RuntimeError(f"the per-layer metrics read {missing}, which the package "
                               f"no longer has; update bench/tracing.py and BENCHMARK.json")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []


def _wrap_plane_field(tracer, pf):
    parts = {k: tracer.wrap(getattr(pf, k), f"curvature.flux.{k}", "curvature")
             for k in ("vector", "div", "integrand") if getattr(pf, k) is not None}
    return dataclasses.replace(pf, **parts)


def _wrap_exterior_field(tracer, field):
    return dataclasses.replace(
        field,
        jets=tracer.wrap(field.jets, "transform.exterior.jets", "transform"),
        grads=tracer.wrap(field.grads, "transform.exterior.grads", "transform"))


# results carrying closures whose work belongs to the producing layer
_POST = {
    "curvature.curvature_difference_field": _wrap_plane_field,
    "curvature.principal_deviation_field": _wrap_plane_field,
    "transform.ExteriorGraph.as_field": _wrap_exterior_field,
}


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans):
    """Self time of every span: duration minus the union of its children."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        kids = children.get(id(s))
        if kids:
            cur_lo = cur_hi = None
            for k in sorted(kids, key=lambda c: c.start):
                lo, hi = max(k.start, s.start), min(k.end, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
        out[id(s)] = (s.end - s.start) - covered
    return out


def _ancestor(span, pred):
    p = span.parent
    while p is not None and not pred(p):
        p = p.parent
    return p


def _is_eval(s):
    return s.layer == "field" and s.name.startswith("field.ScalarField.")


def _info_sum(spans, key):
    return sum(s.info.get(key, 0) for s in spans if s.info)


def layer_metrics(spans):
    """Per-layer metrics (see BENCHMARK.json) from the spans of a traced run."""
    selft = self_times(spans)

    def self_of(pred):
        return sum(selft[id(s)] for s in spans if pred(s))

    def named(*names):
        return [s for s in spans if s.name in names]

    def self_named(*names):
        return sum(selft[id(s)] for s in named(*names))

    # entries into field evaluation: eval spans not called by another one
    evals = [s for s in spans if _is_eval(s) and not (s.parent and _is_eval(s.parent))]
    field_calls = len(evals)
    field_points = _info_sum(evals, "points")
    curv_entries = [s for s in spans if s.layer == "curvature"
                    and not (s.parent and s.parent.layer == "curvature")]
    contours = named("scan.contours")
    cells = _info_sum(contours, "cells")
    contours_s = self_named("scan.contours")
    in_scan = [_ancestor(s, lambda p: p.layer == "scan") for s in evals]
    search_calls = sum(1 for a in in_scan if a is not None and a.name == "scan.umbilic_search")
    solves = named("transform.ExteriorGraph.solve_r")
    under_solve = sum(1 for s in evals if s.parent is not None
                      and s.parent.name == "transform.ExteriorGraph.solve_r")
    points = named("transform.ExteriorGraph.evaluate")
    under_point = sum(1 for s in evals if _ancestor(
        s, lambda p: p.name == "transform.ExteriorGraph.evaluate") is not None)
    disk = named("quad.disk_nodes")
    boundary = named("quad.boundary_flux", "quad.boundary_majorant")
    nodes = _info_sum(disk, "nodes") + _info_sum(boundary, "nodes")
    csvs = named("output.write_csv")
    svgs = named("output.svg_heatmap", "output.svg_contours")

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "field.eval_s": self_of(lambda s: s.layer == "field"),
        "field.calls": field_calls,
        "field.points": field_points,
        "field.points_per_call": ratio(field_points, field_calls),
        "curvature.eval_s": self_of(lambda s: s.layer == "curvature"),
        "curvature.calls": len(curv_entries),
        "curvature.points": _info_sum(curv_entries, "points"),
        "families.parse_s": self_of(lambda s: s.layer == "families"),
        "scan.contours_s": contours_s,
        "scan.contours_us_per_cell": ratio(contours_s * 1e6, cells),
        "scan.contour_vertices": _info_sum(contours, "vertices"),
        "scan.umbilic_search_s": self_named("scan.umbilic_search"),
        "scan.search_field_calls": search_calls,
        "scan.umbilic_points": _info_sum(named("scan.umbilic_search"), "points"),
        "scan.grid_field_s": self_named("scan.grid_field"),
        "scan.grid_points": _info_sum(named("scan.grid_field"), "points"),
        "scan.floor_s": self_named("scan.umbilic_free_floor"),
        "transform.invert_local_graph_s": self_named("transform.invert_local_graph"),
        "transform.graph_condition_s": self_named("transform.graph_condition"),
        "transform.exterior_s": self_named(*EXTERIOR),
        "transform.solve_r_calls": len(solves),
        "transform.field_calls_per_solve": ratio(under_solve, len(solves)),
        "transform.field_calls_per_point": ratio(under_point, len(points)),
        "convexbody.pipeline_s": self_named("convexbody.theorem1_pipeline"),
        "convexbody.cap_points_s": self_named("convexbody.PosedBody.cap_points"),
        "convexbody.cap_points_calls": len(named("convexbody.PosedBody.cap_points")),
        "convexbody.find_umbilic_s": self_named("convexbody.find_umbilic"),
        "convexbody.umbilic_sites_s": self_named("convexbody.umbilic_sites"),
        "convexbody.sites_reported": _info_sum(named("convexbody.umbilic_sites"), "sites"),
        "convexbody.radii_calls": len(named("convexbody.radii_of_curvature")),
        "convexbody.check_convexity_s": self_named("convexbody.check_convexity"),
        "quad.disk_integral_s": self_named("quad.disk_integral", "quad.disk_nodes"),
        "quad.boundary_s": self_named("quad.boundary_flux", "quad.boundary_majorant"),
        "quad.nodes": nodes,
        # x, y, weight and integrand value per node, 8 bytes each
        "quad.bytes_computed": 32 * nodes,
        "output.csv_s": self_named("output.write_csv"),
        "output.csv_rows": _info_sum(csvs, "rows"),
        "output.csv_bytes": _info_sum(csvs, "bytes"),
        "output.svg_s": self_named("output.svg_heatmap", "output.svg_contours"),
        "output.svg_bytes": _info_sum(svgs, "bytes"),
        "cli.self_s": self_of(lambda s: s.layer == "cli"),
    }
