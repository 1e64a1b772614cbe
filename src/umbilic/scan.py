"""Grid sampling of curvature residuals, zero-contour extraction, and
umbilic searches.

Residual grids are normalized by powers of (1 + |grad f|^2) so that
thresholds stay meaningful where the graph is steep.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .curvature import (curvature_difference_arrays, discriminant_arrays,
                        dk_dtheta_arrays, gauss_curvature_arrays, mean_curvature_arrays,
                        p1_arrays, p2_arrays, principal_arrays, residual_arrays)
from .field import Direction, ScalarField
from .util import (_libm, check_finite, greedy_merge, local_minima, newton2, row_blocks,
                   worker_count)

RESIDUAL_NAMES = ("dk", "dkdtheta", "P1", "P2", "D")
CURVATURE_NAMES = ("H", "K", "k1", "k2")
# contour segments per vertex block: bounds the index and vertex temporaries
_BLOCK_SEGMENTS = 1 << 12


@dataclass(frozen=True)
class Grid:
    """Dense samples of a residual over a rectangle.

    ``values[i, j]`` is the residual at (xs[i], ys[j]). ``evaluator``
    re-evaluates the residual at arbitrary points; ``contours`` reads it at
    the centers of saddle cells.
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    region: tuple
    evaluator: object


@dataclass(frozen=True)
class ContourSet:
    """Zero-level polylines extracted from a grid; a closed one ends on its
    first vertex."""

    polylines: list


@dataclass(frozen=True)
class UmbilicPoint:
    x: float
    y: float
    residual: float  # normalized discriminant D / (1+q)^3 after refinement
    refined: bool


@dataclass(frozen=True)
class UmbilicScan:
    points: list
    totally_umbilic: bool


@dataclass(frozen=True)
class FloorReport:
    """Grid minimum of max(|P1|, |P2|) / (1+q)^(3/2) and where it occurs.

    A positive floor is numerical evidence, not proof, that the region is
    umbilic free.
    """

    floor: float
    argmin: tuple


# quantity name -> its array formula on the jets (f1, f2, f11, f12, f22), the
# directions X, Y and the angle theta0; the formulas are looked up by module
# attribute at call time
_FORMULAS = {
    "dk": lambda j, X, Y, t: curvature_difference_arrays(*j, X.x, X.y, Y.x, Y.y),
    "dkdtheta": lambda j, X, Y, t: dk_dtheta_arrays(*j, float(t)),
    "P1": lambda j, X, Y, t: p1_arrays(*j),
    "P2": lambda j, X, Y, t: p2_arrays(*j),
    "D": lambda j, X, Y, t: discriminant_arrays(*j)[0],
    "H": lambda j, X, Y, t: mean_curvature_arrays(*j),
    "K": lambda j, X, Y, t: gauss_curvature_arrays(*j),
    "k1": lambda j, X, Y, t: principal_arrays(*j)[2],
    "k2": lambda j, X, Y, t: principal_arrays(*j)[3],
}


def _check_region(region):
    x0, y0, x1, y1 = (float(v) for v in region)
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"degenerate region {region}")
    return x0, y0, x1, y1


def _sample(ev, region, n: int, m: int):
    """(xs, ys, values) of ``ev`` on an n-by-m grid over the checked region.

    Fixed blocks of rows are filled by up to UMBILIC_THREADS workers. The
    blocks do not depend on the thread count and each node is written
    once, so every setting gives the same values bitwise. Non-finite
    samples raise DomainError.
    """
    x0, y0, x1, y1 = region
    if n < 2 or m < 2:
        raise ValueError("grid needs at least 2 samples per axis")
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, m)
    values = np.empty((n, m), dtype=float)

    def fill(rows):
        values[rows] = ev(*np.meshgrid(xs[rows], ys, indexing="ij"))

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        list(pool.map(fill, row_blocks(n, m)))
    return xs, ys, check_finite(values, (values,), "grid samples")


def grid_field(field: ScalarField, residual: str, region, n: int, m: int,
               X: Direction | None = None, Y: Direction | None = None,
               theta0: float | None = None) -> Grid:
    """Sample a named residual on an n-by-m grid over the region."""
    region = _check_region(region)
    formula = _FORMULAS.get(residual)
    if formula is None:
        raise ValueError(f"unknown residual '{residual}'; "
                         f"options: {RESIDUAL_NAMES + CURVATURE_NAMES}")
    if residual == "dk" and (X is None or Y is None):
        raise ValueError("residual 'dk' requires directions X and Y")
    if residual == "dkdtheta" and theta0 is None:
        raise ValueError("residual 'dkdtheta' requires theta0")

    def ev(x, y):
        return formula(field.jet_arrays(x, y)[1:], X, Y, theta0)

    xs, ys, values = _sample(ev, region, n, m)
    return Grid(xs, ys, values, region, ev)


# ---------------------------------------------------------------------------
# marching squares
# ---------------------------------------------------------------------------

# Segments of each cell case as (edge, edge) pairs, the table scheme of
# marching cubes (Lorensen & Cline 1987) and skimage.measure.find_contours.
# Case bits 1, 2, 4, 8 mark the corners (x0, y0), (x1, y0), (x1, y1),
# (x0, y1) at or above the level; edges are 0 bottom, 1 right, 2 top,
# 3 left. The saddles 5 and 10 list the segments of a center at or above
# the level; a saddle whose center is not reads as the other saddle.
_CASES = (
    (), ((3, 0),), ((0, 1),), ((3, 1),), ((1, 2),), ((3, 2), (0, 1)),
    ((0, 2),), ((3, 2),), ((3, 2),), ((0, 2),), ((3, 0), (1, 2)),
    ((1, 2),), ((3, 1),), ((0, 1),), ((3, 0),), (),
)
_SEGMENT_COUNTS = np.array([len(c) for c in _CASES], dtype=np.uint8)
_SEGMENT_EDGES = np.array([c + ((0, 0),) * (2 - len(c)) for c in _CASES],
                          dtype=np.int8)
# (di, dj) of the two corners each edge runs between, from the first
_EDGE_CORNERS = np.array([((0, 0), (1, 0)), ((1, 0), (1, 1)),
                          ((0, 1), (1, 1)), ((0, 0), (0, 1))], dtype=np.int8)


def contours(grid: Grid) -> ContourSet:
    """Marching-squares polylines of the zero set ``values == 0``.

    Saddle cells are disambiguated by the residual at the cell center.
    Vertices lie on cell edges where the sampled residual changes sign.
    """
    # the cell arrays are freed before the segments are chained
    return _chain_segments(_segments(grid))


def _segments(grid: Grid) -> np.ndarray:
    """(S, 2, 2) segment endpoints ``[segment, end, (x, y)]`` in row-major
    cell order, each cell's in table order, without zero-length segments."""
    v = grid.values
    xs, ys = grid.xs, grid.ys
    up = (v >= 0.0).view(np.uint8)
    case = (up[:-1, :-1] | up[1:, :-1] << 1 | up[1:, 1:] << 2
            | up[:-1, 1:] << 3).ravel()
    saddle = np.flatnonzero((case == 5) | (case == 10))
    if saddle.size:
        i, j = np.divmod(saddle, v.shape[1] - 1)
        center = np.asarray(grid.evaluator(0.5 * (xs[i] + xs[i + 1]),
                                           0.5 * (ys[j] + ys[j + 1])), dtype=float)
        flip = saddle[~(center >= 0.0)]
        case[flip] = 15 - case[flip]
    counts = _SEGMENT_COUNTS[case]
    crossed = np.flatnonzero(counts)
    cell = np.repeat(crossed, counts[crossed])
    second = np.zeros(cell.size, dtype=np.int8)
    second[1:] = cell[1:] == cell[:-1]
    edges = _SEGMENT_EDGES[case[cell], second]
    ends = np.empty((cell.size, 2, 2))
    for block in row_blocks(cell.size, 1, _BLOCK_SEGMENTS):
        ends[block] = _crossings(v, xs, ys, cell[block], edges[block])
    # a segment whose ends coincide lies on one corner, where the grid is 0
    return ends[np.any(ends[:, 0] != ends[:, 1], axis=1)]


def _crossings(v, xs, ys, cell, edges):
    """(k, 2, 2) crossings ``[k, end, (x, y)]`` on the edges ``edges[k, 0]``
    and ``edges[k, 1]`` of the flat cell index ``cell[k]``."""
    i, j = np.divmod(cell, v.shape[1] - 1)
    # corner offsets per segment end: [segment, end, corner, (di, dj)]
    corners = _EDGE_CORNERS[edges]
    ai = i[:, None] + corners[:, :, 0, 0]
    aj = j[:, None] + corners[:, :, 0, 1]
    bi = i[:, None] + corners[:, :, 1, 0]
    bj = j[:, None] + corners[:, :, 1, 1]
    va, vb = v[ai, aj], v[bi, bj]
    t = va / (va - vb)
    return np.stack([xs[ai] + t * (xs[bi] - xs[ai]),
                     ys[aj] + t * (ys[bj] - ys[aj])], axis=-1)


def _chain_segments(ends) -> ContourSet:
    """Join shared-endpoint segments into polylines, deterministically.

    Endpoints that are equal as points (-0.0 == 0.0; several meet where a
    grid value is exactly the level) form one node. A node of exactly two
    endpoints joins their segments; every other node ends each polyline
    that reaches it. Open polylines come first, each started from an end
    at such a node, in endpoint order; then the closed loops, each from
    endpoint 2s of its lowest segment s.
    """
    pts = ends.reshape(-1, 2)  # endpoint e is an end of segment e >> 1
    # sorted, a node's endpoints are adjacent; only a node of two gives partners
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    new = np.ones(len(order) + 1, bool)
    new[1:-1] = np.any(pts[order[1:]] != pts[order[:-1]], axis=1)
    first = np.flatnonzero(new)
    pair = first[:-1][np.diff(first) == 2]
    partner = np.full(len(order), -1)
    partner[order[pair]] = order[pair + 1]
    partner[order[pair + 1]] = order[pair]
    link = partner.tolist()
    used = [False] * len(ends)
    flat, starts = [], [0]  # the endpoints of all chains; where each starts
    for e in np.flatnonzero(partner < 0).tolist() + list(range(0, len(pts), 2)):
        if used[e >> 1]:
            continue
        flat.append(e)
        while e >= 0 and not used[e >> 1]:
            used[e >> 1] = True
            flat.append(e ^ 1)
            e = link[e ^ 1]
        starts.append(len(flat))
    chained = pts[flat]
    return ContourSet([chained[a:b] for a, b in zip(starts, starts[1:])])


# ---------------------------------------------------------------------------
# umbilic search
# ---------------------------------------------------------------------------

def _residuals(field: ScalarField, x, y):
    """(P1, P2, D, q) of the graph of ``field`` at the points."""
    _, f1, f2, f11, f12, f22 = field.jet_arrays(x, y)
    return residual_arrays(f1, f2, f11, f12, f22)


def _normalized_pair(field: ScalarField, x, y):
    """(P1n, P2n): P1 and P2 normalized by (1+q)^(3/2)."""
    P1, P2, _, q = _residuals(field, x, y)
    w = (1.0 + q) ** 1.5
    return P1 / w, P2 / w


def _normalized_discriminant(field: ScalarField, x, y):
    """D normalized by (1+q)^3."""
    _, _, D, q = _residuals(field, x, y)
    return D / (1.0 + q) ** 3


def _max_abs(r):
    """max(|r0|, |r1|) per row in Python max's NaN order: r1 only if r1 > r0."""
    a, b = np.abs(r).T
    return np.where(b > a, b, a)


def _newton_refine(field: ScalarField, x0, y0, box, max_iter: int = 60,
                   target: float = 1e-12):
    """Damped Newton (``util.newton2``) on the normalized (P1, P2) system
    from every start (x0[k], y0[k]) at once, with a central-difference
    Jacobian and the line-search steps 1, 1/2, ..., 2^-19. Besides newton2's
    stops, a row stops at max(|P1n|, |P2n|) < target and at its first step
    outside ``box`` = (x0, y0, x1, y1), bounds inclusive and NaN outside.
    Returns the final x, y and whether each row ends below target without
    escaping.
    """
    def res(x, y):
        return np.stack(_normalized_pair(field, x, y), axis=-1)

    def jacobian(p, r):
        x, y = p.T
        hyp = _libm(math.hypot, x, y)
        h = 1e-7 * np.where(hyp > 1.0, hyp, 1.0)
        dx_p, dx_m, dy_p, dy_m = res(np.concatenate([x + h, x - h, x, x]),
                                     np.concatenate([y, y, y + h, y - h])).reshape(4, -1, 2)
        return np.stack([dx_p - dx_m, dy_p - dy_m], axis=-1) / (2 * h)[:, None, None]

    def retract(p, s, lam):
        p = p + lam * s
        return p, np.all((lo <= p) & (p <= hi), axis=-1)

    lo, hi = np.reshape(box, (2, 2))
    # the shorter steps lie between a point and its full step, so a convex
    # domain (sphere_cap's disk) holds them when it holds the full step
    p, ok = newton2(lambda p: (res(*p.T),), jacobian, retract, np.column_stack([x0, y0]),
                    0.5 ** np.arange(1, 20), _max_abs, target, target, max_iter)
    return p[:, 0], p[:, 1], ok


def umbilic_search(field: ScalarField, region, n: int,
                   tol: float = 1e-8) -> UmbilicScan:
    """Locate umbilics: local minima of the normalized discriminant below
    ``tol``, refined by damped Newton on the residual pair.

    When more than half of the grid sits below tolerance the region is
    reported as totally umbilic instead of enumerating points. Candidates
    whose refinement stalls or leaves the region grown by 5% per side are
    kept as coarse minima; duplicates within 1e-6 are merged. All minima
    are refined together as arrays, so a refined point's residuals round
    exactly as a grid sample there would.
    """
    region = x0, y0, x1, y1 = _check_region(region)
    xs, ys, Dn = _sample(lambda x, y: _normalized_discriminant(field, x, y),
                         region, n, n)
    below = Dn < tol
    if np.mean(below) > 0.5:
        return UmbilicScan([], True)
    # every grid local minimum seeds a refinement; keepers are decided by
    # the refined residual, so umbilics between nodes are still found
    mx, my = 0.05 * (x1 - x0), 0.05 * (y1 - y0)  # escape margins
    i, j = local_minima(Dn).T
    cx, cy = xs[i], ys[j]
    rx, ry, ok = _newton_refine(field, cx, cy, (x0 - mx, y0 - my, x1 + mx, y1 + my))
    dn = _normalized_discriminant(field, rx, ry)
    refined = ok & (dn < tol)
    # Newton stalled or escaped: keep the coarse grid minimum if below tol
    keep = refined | below[i, j]
    cols = [c[keep] for c in (np.where(refined, rx, cx), np.where(refined, ry, cy),
                              np.where(refined, dn, Dn[i, j]), refined)]
    # in (x, y) order, as a stable sort of the tuples gives it
    order = np.lexsort((cols[1], cols[0]))
    cols = [c[order] for c in cols]
    kept = _merge_points(*cols[:2])
    return UmbilicScan([UmbilicPoint(*p) for p in zip(*(c[kept].tolist() for c in cols))], False)


def _merge_points(x, y):
    """Rows kept when a point within 1e-6 of an earlier kept one (by libm's
    hypot) merges into it. Pairs are sought on the key x cos 1 + y sin 1, a
    rotation, so |key difference| <= distance and a 2e-6 window holds every
    close pair; on a key of x alone, a grid column of equal x is one window."""
    return greedy_merge(x * math.cos(1.0) + y * math.sin(1.0), 2e-6,
                        lambda a, b: _libm(math.hypot, x[b] - x[a], y[b] - y[a]) < 1e-6)


def umbilic_free_floor(field: ScalarField, region, n: int) -> FloorReport:
    """min over the grid of max(|P1|, |P2|) / (1+q)^(3/2), with its argmin."""

    def ev(x, y):
        # one division: x -> x / w rounds monotonely for w > 0, so it
        # commutes with max(|P1|, |P2|) bit for bit
        P1, P2, _, q = _residuals(field, x, y)
        return np.maximum(np.abs(P1), np.abs(P2)) / (1.0 + q) ** 1.5

    xs, ys, floor_map = _sample(ev, _check_region(region), n, n)
    idx = np.unravel_index(np.argmin(floor_map), floor_map.shape)
    return FloorReport(float(floor_map[idx]),
                       (float(xs[idx[0]]), float(ys[idx[1]])))
