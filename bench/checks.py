"""Output checks for every op kind, and the seed's known defects.

``check(op, result)`` returns a list of ``(check, reason)`` pairs, empty
when the op's output passes. Checks are geometric where the op allows:
values recomputed through an independent public path (the scalar
curvature API, ``invert_point``, ``radii_of_curvature``), umbilics that
must be isolated zeros, and divergence residuals measured against the
boundary majorant. ``defect_of`` names the known seed defect a failure
belongs to, or returns None for a failure nobody has explained.
"""

from __future__ import annotations

import math
import re

import numpy as np

from umbilic import cli, convexbody, curvature, quad
from umbilic.families import list_families, parse_field_spec
from umbilic.field import Direction
from umbilic.transform import invert_point

UMBILIC_FREE = {s.name for s in list_families() if s.umbilic_free}
SCAN_TOL = 1e-8        # the CLI's default --tol for `umbilic scan`
SITE_TOL = 1e-8        # umbilic_sites' refine_tol
FIND_TOL = 1e-8        # find_umbilic's refine_tol (1e-9) with a decade of slack
REL = 1e-8             # one formula on two call paths agrees to rounding
# divergence-theorem residual |disk(div V) - flux(V)|: it must stay below
# 1% of the boundary majorant, which bounds |flux(V)|, plus the error the
# disk quadrature makes by cancellation inside the disk, which scales with
# the integral of |div V| (about 1e-9 of it at the coarsest scheme drawn)
DIVERGENCE_REL = 1e-2
CANCEL_REL = 1e-6


def parse_csv(data: bytes):
    """(description, header, body bytes) of a CSV written by the CLI."""
    first, _, rest = data.partition(b"\n")
    if first.startswith(b"#"):
        desc = first[1:].decode().strip()
        header, _, body = rest.partition(b"\n")
    else:
        desc, header, body = "", first, rest
    return desc, header.decode().split(","), body


def table(header, body: bytes) -> dict:
    """Numeric columns of a CSV body by header name."""
    cells = body.replace(b",", b" ").split()
    rows = np.array(cells, dtype=float).reshape(-1, len(header))
    return {name: rows[:, i] for i, name in enumerate(header)}


def _nonnegative_after_first(header, cols):
    return all(np.all(cols[c] >= 0.0) for c in header[1:])


def nonfinite(body: bytes) -> bool:
    low = body.lower()
    return b"nan" in low or b"inf" in low


def _arg(op, flag, default=None):
    argv = op["argv"]
    return argv[argv.index(flag) + 1] if flag in argv else default


def _region(op):
    i = op["argv"].index("--region")
    return tuple(float(v) for v in op["argv"][i + 1:i + 5])


def _exit(result):
    if result.get("error"):
        return [("exception", result["error"])]
    if result.get("rc", 0) != 0:
        msg = result.get("stderr", "").strip().splitlines()
        return [("exit", f"exit {result['rc']}: {msg[-1] if msg else ''}")]
    return []


def _finite(body, what="CSV"):
    return [("finite", f"{what} holds nan or inf")] if nonfinite(body) else []


# ---------------------------------------------------------------------------
# plane quantities through the scalar API
# ---------------------------------------------------------------------------

def point_quantity(field, name, p, X, Y, theta0):
    """A curvature quantity at p via the scalar API, and its natural scale."""
    pd = curvature.shape_operator(field, p)
    kappa = max(abs(pd.k1), abs(pd.k2))
    if name in ("H", "K", "k1", "k2"):
        value = {"H": pd.H, "K": pd.K, "k1": pd.k1, "k2": pd.k2}[name]
        return value, kappa * kappa if name == "K" else kappa
    if name == "dk":
        value = (curvature.normal_curvature(field, p, Direction(X))
                 - curvature.normal_curvature(field, p, Direction(Y)))
        return value, kappa
    if name == "dkdtheta":
        return curvature.dk_dtheta(field, p, theta0), kappa
    res = curvature.umbilic_residuals(field, p)
    return {"P1": res.P1, "P2": res.P2, "D": res.D}[name], 0.0


def normalized_discriminant(field, x, y) -> float:
    """D / (1 + q)^3 at (x, y), through curvature.umbilic_residuals."""
    j = field.jet((x, y))
    return curvature.umbilic_residuals(field, (x, y)).D / (1.0 + j.q) ** 3


def _directions(op):
    return (float(_arg(op, "--X", 0.0)), float(_arg(op, "--Y", math.pi / 2)),
            float(_arg(op, "--theta0", 0.0)))


# ---------------------------------------------------------------------------
# per-kind checks
# ---------------------------------------------------------------------------

def check_curvature_map(op, result, rng):
    fails = _exit(result)
    if fails:
        return fails
    _, header, body = parse_csv(result["csv"])
    fails = _finite(body)
    lines = body.split(b"\n")
    n = op["n"]
    if len([ln for ln in lines if ln]) != n * n:
        return fails + [("rows", f"expected {n * n} rows")]
    X, Y, theta0 = _directions(op)
    field = parse_field_spec(op["spec"])
    for k in rng.choice(n * n, size=min(8, n * n), replace=False):
        x, y, v = (float(c) for c in lines[int(k)].split(b","))
        ref, scale = point_quantity(field, op["quantity"], (x, y), X, Y, theta0)
        if abs(v - ref) > 1e-7 * (abs(ref) + scale) + 1e-300:
            fails.append(("recompute", f"{op['quantity']}({x!r},{y!r}) = {v!r}, "
                                       f"scalar API gives {ref!r}"))
            break
    if op.get("svg") and not result.get("svg"):
        fails.append(("svg", "no SVG written"))
    return fails


def check_contour(op, result, rng):
    fails = _exit(result)
    if fails:
        return fails
    _, header, body = parse_csv(result["csv"])
    fails = _finite(body)
    if fails or not body.strip():
        return fails
    cols = table(header, body)
    x0, y0, x1, y1 = _region(op)
    n = op["n"]
    xs, ys = np.linspace(x0, x1, n), np.linspace(y0, y1, n)
    slack = 1e-9 * (x1 - x0)
    px, py = cols["x"], cols["y"]
    if np.any(px < x0 - slack) or np.any(px > x1 + slack) \
            or np.any(py < y0 - slack) or np.any(py > y1 + slack):
        return [("region", "contour vertex outside the sampled region")]
    ix = np.clip(np.searchsorted(xs, px), 1, n - 1)
    iy = np.clip(np.searchsorted(ys, py), 1, n - 1)
    on_x = np.minimum(np.abs(px - xs[ix]), np.abs(px - xs[ix - 1])) <= slack
    on_y = np.minimum(np.abs(py - ys[iy]), np.abs(py - ys[iy - 1])) <= slack
    if not np.all(on_x | on_y):
        return [("grid-edge", "contour vertex not on a grid line")]
    # the residual changes sign across the cell edge carrying the vertex
    field = parse_field_spec(op["spec"])
    X, Y, theta0 = _directions(op)
    for k in rng.choice(len(px), size=min(6, len(px)), replace=False):
        x, y = float(px[k]), float(py[k])
        if on_x[k] and on_y[k]:
            continue  # at a grid node: the edge it came from is ambiguous
        if on_x[k]:
            xe = xs[ix[k]] if abs(x - xs[ix[k]]) <= slack else xs[ix[k] - 1]
            a, b = (xe, ys[iy[k] - 1]), (xe, ys[iy[k]])
        else:
            ye = ys[iy[k]] if abs(y - ys[iy[k]]) <= slack else ys[iy[k] - 1]
            a, b = (xs[ix[k] - 1], ye), (xs[ix[k]], ye)
        va, sa = point_quantity(field, op["residual"], a, X, Y, theta0)
        vb, sb = point_quantity(field, op["residual"], b, X, Y, theta0)
        small = 1e-9 * (abs(va) + abs(vb) + sa + sb)
        if min(abs(va), abs(vb)) <= small:
            continue
        if (va >= 0.0) == (vb >= 0.0):
            fails.append(("sign-change", f"no sign change of {op['residual']} across "
                                         f"the edge at ({x!r}, {y!r})"))
            break
    return fails


def _ring(x, y, radius, k=16):
    t = np.arange(k) * (2.0 * math.pi / k)
    return x + radius * np.cos(t), y + radius * np.sin(t)


def check_scan(op, result, rng):
    fails = _exit(result)
    if fails:
        return fails
    desc, header, body = parse_csv(result["csv"])
    fails = _finite(body)
    if fails:
        return fails
    cols = table(header, body)
    xs, ys = cols["x"], cols["y"]
    refined = cols.get("refined", np.ones_like(xs))
    found = len(xs)
    m = re.search(r"totally_umbilic=(\w+)", desc)
    total = (m.group(1) == "True") if m else "totally umbilic" in result.get("stderr", "")
    fam = op["family"]
    if fam in UMBILIC_FREE and (found or total):
        what = "flagged totally umbilic" if total else f"{found} umbilic(s) reported"
        fails.append(("umbilic-free", f"umbilic-free family {what}"))
    if fam == "paraboloid":
        near = np.maximum(np.abs(xs), np.abs(ys)) <= 1e-6
        if total or found != 1 or not near.all():
            fails.append(("paraboloid", f"expected one umbilic at the origin, got "
                                        f"{found} point(s), total={total}"))
    if fam == "sphere_cap" and not total:
        fails.append(("sphere-cap", "sphere cap not flagged totally umbilic"))
    if not found:
        return fails
    field = parse_field_spec(op["spec"])
    w, n = op["w"], op["n"]
    h = 2.0 * w / (n - 1)
    bad_res = bad_iso = 0
    # re-evaluating every point of a 5000-point report costs more than the
    # op; a seeded sample of 64 decides the same way
    pick = np.sort(rng.choice(found, size=min(64, found), replace=False))
    for x, y, was_refined in zip(xs[pick], ys[pick], refined[pick]):
        dn = normalized_discriminant(field, x, y)
        if was_refined and not dn < SCAN_TOL:
            bad_res += 1
        # an isolated zero is a strict minimum of D/(1+q)^3 on a ring
        rx, ry = _ring(x, y, h)
        ring = [normalized_discriminant(field, a, b) for a, b in zip(rx, ry)]
        if not min(ring) > max(dn, 0.0):
            bad_iso += 1
    if bad_res:
        fails.append(("refined-residual", f"{bad_res} of {len(pick)} refined "
                                          f"umbilics re-evaluate at or above tol"))
    if bad_iso:
        fails.append(("isolated", f"{bad_iso} of {len(pick)} sampled umbilics are "
                                  f"not isolated zeros ({found} reported)"))
    return fails


def check_floor(op, result, rng):
    fails = _exit(result)
    if fails:
        return fails
    _, header, body = parse_csv(result["csv"])
    fails = _finite(body)
    if fails:
        return fails
    cols = table(header, body)
    floor, ax, ay = (float(cols[c][0]) for c in ("floor", "argmin_x", "argmin_y"))
    x0, y0, x1, y1 = _region(op)
    if floor < 0.0 or not (x0 <= ax <= x1 and y0 <= ay <= y1):
        return [("floor", f"floor {floor!r} at ({ax!r}, {ay!r}) is negative or "
                          f"outside the region")]
    field = parse_field_spec(op["spec"])
    res = curvature.umbilic_residuals(field, (ax, ay))
    w = (1.0 + field.jet((ax, ay)).q) ** 1.5
    ref = max(abs(res.P1), abs(res.P2)) / w
    if abs(ref - floor) > REL * (abs(ref) + abs(floor)) + 1e-300:
        fails.append(("recompute", f"floor {floor!r} but the residuals at its "
                                   f"argmin give {ref!r}"))
    return fails


def _radii(op):
    return [float(v) for v in _arg(op, "--radii").split(",")]


def _flux_field(op):
    """The plane field a verify op integrates, and its quadrature scheme."""
    field = parse_field_spec(op["spec"])
    X, Y, theta0 = _directions(op)
    if op["kind"] == "thm3" or _arg(op, "--which") == "v3":
        V = curvature.principal_deviation_field(field, theta0)
    else:
        V = curvature.curvature_difference_field(field, Direction(X), Direction(Y))
    return V, quad.QuadScheme(int(_arg(op, "--nr", 16)), int(_arg(op, "--ntheta", 64)))


def _divergence_fails(op, radii, residuals, majorants=None):
    V, scheme = _flux_field(op)
    for i, (r, resid) in enumerate(zip(radii, residuals)):
        maj = (majorants[i] if majorants is not None
               else quad.boundary_majorant(V, r, scheme.n_theta))
        area = quad.disk_integral(lambda x, y: np.abs(V.div(x, y)), r, scheme)
        if not resid <= DIVERGENCE_REL * maj + CANCEL_REL * area:
            return [("divergence", f"|disk(div V) - flux(V)| = {resid:.3e} at r = "
                                   f"{float(r)!r}; majorant {maj:.3e}, "
                                   f"disk integral of |div V| {area:.3e}")]
    return []


def check_flux(op, result, rng):
    """verify thm2 / thm3: the two sides of the divergence theorem agree."""
    fails = _exit(result)
    if fails:
        return fails
    _, header, body = parse_csv(result["csv"])
    cols = table(header, body)
    # stated_ratio is documented as nan where the divergence integral is 0
    if not all(np.all(np.isfinite(cols[c])) for c in header if c != "stated_ratio"):
        return [("finite", "CSV holds nan or inf outside stated_ratio")]
    if len(cols["r"]) != len(_radii(op)) or not np.allclose(cols["r"], _radii(op)):
        return [("rows", "radius column differs from --radii")]
    if np.any(np.abs(cols["I_flux"]) > cols["majorant"] * (1 + 1e-12) + 1e-300):
        return [("majorant", "boundary flux exceeds its majorant")]
    return _divergence_fails(op, cols["r"], np.abs(cols["I_area"] - cols["I_flux"]),
                             cols["majorant"])


def check_divergence(op, result, rng):
    fails = _exit(result)
    if fails:
        return fails
    _, header, body = parse_csv(result["csv"])
    fails = _finite(body)
    if fails:
        return fails
    cols = table(header, body)
    if len(cols["r"]) != len(_radii(op)) or not np.allclose(cols["r"], _radii(op)):
        return [("rows", "radius column differs from --radii")]
    return _divergence_fails(op, cols["r"], cols["abs_residual"])


def check_invert_graph(op, result, rng):
    fails = _exit(result)
    if fails:
        return fails
    _, header, body = parse_csv(result["csv"])
    fails = _finite(body)
    if fails:
        return fails
    cols = table(header, body)
    if len(cols["rbar"]) != len(_radii(op)) or not np.allclose(cols["rbar"], _radii(op)):
        return [("rows", "rbar column differs from --radii")]
    if not _nonnegative_after_first(header, cols):
        return [("sign", "negative supremum")]
    return []


def check_exterior(op, result, rng):
    if result.get("error"):
        return [("exception", result["error"])]
    graph, jets = result["value"]
    if not all(np.all(np.isfinite(a)) for a in jets):
        return [("finite", "exterior jets hold nan or inf")]
    # the inversion is an involution: each exterior point maps back onto graph(f)
    q = np.column_stack([op["x"], op["y"], jets[0]])
    p = invert_point(q)
    f = graph.source.values_and_grads(p[:, 0], p[:, 1])[0]
    gap = np.abs(p[:, 2] - f)
    tol = 1e-10 * (np.abs(p[:, 2]) + np.hypot(p[:, 0], p[:, 1]))
    if np.any(gap > tol):
        i = int(np.argmax(gap - tol))
        return [("involution", f"point {i} maps back {gap[i]:.3e} off graph(f)")]
    return []


def _body(op):
    return cli._parse_body(op["body"])


def _gap(body, u):
    r1, r2 = convexbody.radii_of_curvature(body, np.asarray(u, float), check=False)
    return r2 - r1


def check_pipeline(op, result, rng):
    fails = _exit(result)
    if fails:
        return fails
    desc, header, body = parse_csv(result["csv"])
    fails = _finite(body)
    if fails:
        return fails
    cols = table(header, body)
    radii = [float(v) for v in _arg(op, "--radii", "10,100,1000").split(",")]
    if len(cols["rbar"]) != len(radii) or not _nonnegative_after_first(header, cols):
        return [("rows", f"{len(cols['rbar'])} rows for {len(radii)} radii, "
                         f"or a negative sup")]
    m = re.search(r"ustar=\(([^)]*)\)", desc)
    if m:
        u = np.array([float(v) for v in m.group(1).split(",")])
        gap = float(_gap(_body(op), u))
        if abs(np.linalg.norm(u) - 1.0) > 1e-9 or not gap < 1e-7:
            fails.append(("ustar", f"posed normal is not an umbilic "
                                   f"(rho2 - rho1 = {gap:.3e})"))
    return fails


def check_find_umbilic(op, result, rng):
    if result.get("error"):
        return [("exception", result["error"])]
    site = result["value"]
    gap = float(_gap(_body(op), site.u))
    if abs(np.linalg.norm(site.u) - 1.0) > 1e-9 or not gap < FIND_TOL:
        return [("converged", f"most umbilic normal has rho2 - rho1 = {gap:.3e}")]
    return []


def check_umbilic_sites(op, result, rng):
    if result.get("error"):
        return [("exception", result["error"])]
    sites = result["value"]
    if not sites:
        return [("sites", "a closed convex body has umbilics; none reported")]
    body = _body(op)
    U = np.array([s.u for s in sites])
    if np.any(np.abs(np.linalg.norm(U, axis=1) - 1.0) > 1e-9) \
            or np.any(_gap(body, U) >= SITE_TOL):
        return [("residual", "a site re-evaluates at or above the tolerance")]
    # isolated: rho2 - rho1 exceeds the tolerance on a small ring around each
    delta = 0.5 * math.pi / max(op["grid_n"], 16)
    seed = np.where(np.abs(U[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    t1 = seed - np.sum(seed * U, axis=1, keepdims=True) * U
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(U, t1)
    a = np.arange(12) * (2.0 * math.pi / 12)
    ring = (math.cos(delta) * U[:, None, :]
            + math.sin(delta) * (np.cos(a)[None, :, None] * t1[:, None, :]
                                 + np.sin(a)[None, :, None] * t2[:, None, :]))
    bad = int(np.sum(np.min(_gap(body, ring), axis=1) <= SITE_TOL))
    if bad:
        return [("isolated", f"{bad} of {len(sites)} sites are not isolated umbilics")]
    return []


CHECKS = {
    "contour": check_contour, "scan": check_scan,
    "curvature_map": check_curvature_map, "floor": check_floor,
    "thm2": check_flux, "thm3": check_flux, "divergence": check_divergence,
    "invert_graph": check_invert_graph, "exterior_jets": check_exterior,
    "pipeline": check_pipeline, "umbilic_sites": check_umbilic_sites,
    "find_umbilic": check_find_umbilic,
}


def check(op, result, rng):
    """Failures of one op as (check, reason) pairs; empty when it passes."""
    return CHECKS[op["kind"]](op, result, rng)


# ---------------------------------------------------------------------------
# known defects of the seed
# ---------------------------------------------------------------------------

DEFECTS = {
    "absolute-umbilic-tol":
        "umbilic scan compares D/(1+q)^3 with an absolute 1e-8, a quantity that "
        "scales like curvature^2: numerically flat parts of a region turn into "
        "false umbilics on umbilic-free families",
    "flat-disk-pointwise":
        "loglog_tail is exactly flat for r < e; umbilic scan reports every flat "
        "grid node as its own umbilic instead of a flat region",
    "round-body-sites":
        "on a round body every normal is umbilic; umbilic_sites reports each tied "
        "grid minimum as a site",
    "bracket-on-root":
        "the exterior-graph bisection brackets r in [1/(2 rbar), 1/rbar]; where f "
        "vanishes on the ray, 1/rbar is the root itself and rounding puts it on "
        "the wrong side",
}

_FALSE_UMBILICS = r"^umbilic-free family \d+ umbilic\(s\) reported$"
_NOT_ISOLATED = r"^\d+ of \d+ sampled umbilics are not isolated zeros \(\d+ reported\)$"
_BRACKET = r"^exit 2: non-convergence: bisection bracket violated"

# Every failure the seed shows: (workload, op id in the op set, family,
# check, reason pattern, defect). The schedule fixes the inputs that decide
# these failures, so every seed meets exactly these and no others.
SEED_FAILURES = (
    *((("plane-scan", i, fam, check, pattern, "absolute-umbilic-tol")
       for i, fam in ((5, "cone_type"), (21, "separable"), (27, "bates_like"),
                      (29, "cone_type"), (45, "separable"))
       for check, pattern in (("umbilic-free", _FALSE_UMBILICS),
                              ("isolated", _NOT_ISOLATED)))),
    ("plane-scan", 37, "loglog_tail", "isolated", _NOT_ISOLATED, "flat-disk-pointwise"),
    *(("body-pipeline", i, fam, "isolated",
       r"^\d+ of \d+ sites are not isolated umbilics$", "round-body-sites")
      for i, fam in ((1, "sphere"), (10, "shifted"))),
    *(("graph-inversion", i, "saddle", "exit", _BRACKET, "bracket-on-root")
      for i in (4, 20, 28, 36)),
)


def defect_of(op, check_name, reason):
    """Name of the known seed defect behind a failed check, or None."""
    for workload, op_id, family, check, pattern, defect in SEED_FAILURES:
        if (op.get("workload") == workload and op["id"] == op_id
                and op["family"] == family and check_name == check
                and re.search(pattern, reason)):
            return defect
    return None
