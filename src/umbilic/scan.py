"""Grid sampling of curvature residuals, zero-contour extraction,
sign witnesses, and umbilic searches.

Residual grids are normalized by powers of (1 + |grad f|^2) so that
thresholds stay meaningful where the graph is steep.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from .curvature import (curvature_direction_arrays, dk_dtheta_arrays,
                        principal_arrays, residual_arrays)
from .errors import DomainError
from .field import Direction, ScalarField
from .util import _libm, _row_norms, _solve2, local_minima, worker_count

RESIDUAL_NAMES = ("dk", "dkdtheta", "P1", "P2", "D")
CURVATURE_NAMES = ("H", "K", "k1", "k2")
# grid nodes per sampling block: bounds the jet temporaries of large grids
_BLOCK_POINTS = 1 << 16
# contour segments per vertex block: bounds the index and vertex temporaries
_BLOCK_SEGMENTS = 1 << 12


@dataclass(frozen=True)
class Grid:
    """Dense samples of a named residual over a rectangle.

    ``values[i, j]`` is the residual at (xs[i], ys[j]). ``evaluator`` can
    re-evaluate the residual at arbitrary points (used for saddle-cell
    disambiguation and vertex verification).
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    residual: str
    region: tuple
    params: dict = dc_field(default_factory=dict)
    evaluator: object = None

    def cell_diagonal(self) -> float:
        dx = self.xs[1] - self.xs[0] if self.xs.size > 1 else 0.0
        dy = self.ys[1] - self.ys[0] if self.ys.size > 1 else 0.0
        return math.hypot(dx, dy)


@dataclass(frozen=True)
class ContourSet:
    """Zero-level polylines extracted from a grid."""

    polylines: list
    closed: list

    def __len__(self):
        return len(self.polylines)


@dataclass(frozen=True)
class SignWitness:
    positive: tuple  # ((x, y), value)
    negative: tuple


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
    below_tol_fraction: float


@dataclass(frozen=True)
class FloorReport:
    """Grid minimum of max(|P1|, |P2|) / (1+q)^(3/2) and where it occurs.

    A positive floor is numerical evidence, not proof, that the region is
    umbilic free.
    """

    floor: float
    argmin: tuple


# quantity name -> its array formula on (f1, f2, f11, f12, f22) and the grid
# params; the formulas are looked up by module attribute at call time
_FORMULAS = {
    "dk": lambda j, p: (curvature_direction_arrays(*j, p["X"].x, p["X"].y)
                        - curvature_direction_arrays(*j, p["Y"].x, p["Y"].y)),
    "dkdtheta": lambda j, p: dk_dtheta_arrays(*j, p["theta0"]),
    "P1": lambda j, p: residual_arrays(*j)[0],
    "P2": lambda j, p: residual_arrays(*j)[1],
    "D": lambda j, p: residual_arrays(*j)[2],
    "H": lambda j, p: principal_arrays(*j)[0],
    "K": lambda j, p: principal_arrays(*j)[1],
    "k1": lambda j, p: principal_arrays(*j)[2],
    "k2": lambda j, p: principal_arrays(*j)[3],
}


def _residual_evaluator(field: ScalarField, name: str, params: dict):
    formula = _FORMULAS.get(name)
    if formula is None:
        raise ValueError(f"unknown residual '{name}'; "
                         f"options: {RESIDUAL_NAMES + CURVATURE_NAMES}")
    return lambda x, y: formula(field.jet_arrays(x, y)[1:], params)


def _check_region(region):
    x0, y0, x1, y1 = (float(v) for v in region)
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"degenerate region {region}")
    return x0, y0, x1, y1


def _sample(ev, region, n: int, m: int):
    """(xs, ys, values) of ``ev`` on an n-by-m grid over the region.

    Fixed blocks of rows are filled by up to UMBILIC_THREADS workers. The
    blocks do not depend on the thread count and each node is written
    once, so every setting gives the same values bitwise. Non-finite
    samples raise DomainError.
    """
    x0, y0, x1, y1 = _check_region(region)
    if n < 2 or m < 2:
        raise ValueError("grid needs at least 2 samples per axis")
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, m)
    values = np.empty((n, m), dtype=float)
    rows = max(1, _BLOCK_POINTS // m)

    def fill(i0):
        XX, YY = np.meshgrid(xs[i0:i0 + rows], ys, indexing="ij")
        values[i0:i0 + rows] = ev(XX, YY)

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        list(pool.map(fill, range(0, n, rows)))
    bad = values.size - int(np.count_nonzero(np.isfinite(values)))
    if bad:
        raise DomainError(f"{bad} of {values.size} grid samples are not finite")
    return xs, ys, values


def grid_field(field: ScalarField, residual: str, region, n: int, m: int,
               X: Direction | None = None, Y: Direction | None = None,
               theta0: float | None = None) -> Grid:
    """Sample a named residual on an n-by-m grid over the region."""
    region = _check_region(region)
    params = {}
    if residual == "dk":
        if X is None or Y is None:
            raise ValueError("residual 'dk' requires directions X and Y")
        params = {"X": X, "Y": Y}
    elif residual == "dkdtheta":
        if theta0 is None:
            raise ValueError("residual 'dkdtheta' requires theta0")
        params = {"theta0": float(theta0)}
    ev = _residual_evaluator(field, residual, params)
    xs, ys, values = _sample(ev, region, n, m)
    return Grid(xs, ys, values, residual, region, params, ev)


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


def contours(grid: Grid, level: float = 0.0) -> ContourSet:
    """Marching-squares polylines of the level set ``values == level``.

    Saddle cells are disambiguated by the residual at the cell center when
    the grid carries an evaluator, else by the corner average. Vertices lie
    on cell edges where the sampled residual changes sign.
    """
    # the cell arrays are freed before the segments are chained
    return _chain_segments(_segments(grid, level))


def _segments(grid: Grid, level: float) -> np.ndarray:
    """(S, 2, 2) segment endpoints ``[segment, end, (x, y)]`` in row-major
    cell order, each cell's in table order."""
    v = grid.values - level
    xs, ys = grid.xs, grid.ys
    up = (v >= 0.0).view(np.uint8)
    case = (up[:-1, :-1] | up[1:, :-1] << 1 | up[1:, 1:] << 2
            | up[:-1, 1:] << 3).ravel()
    saddle = np.flatnonzero((case == 5) | (case == 10))
    if saddle.size:
        i, j = np.divmod(saddle, v.shape[1] - 1)
        if grid.evaluator is not None:
            center = np.asarray(grid.evaluator(0.5 * (xs[i] + xs[i + 1]),
                                               0.5 * (ys[j] + ys[j + 1])),
                                dtype=float) - level
        else:
            center = 0.25 * (v[i, j] + v[i + 1, j] + v[i + 1, j + 1]
                             + v[i, j + 1])
        flip = saddle[~(center >= 0.0)]
        case[flip] = 15 - case[flip]
    counts = _SEGMENT_COUNTS[case]
    crossed = np.flatnonzero(counts)
    cell = np.repeat(crossed, counts[crossed])
    second = np.zeros(cell.size, dtype=np.int8)
    second[1:] = cell[1:] == cell[:-1]
    edges = _SEGMENT_EDGES[case[cell], second]
    ends = np.empty((cell.size, 2, 2))
    for k in range(0, cell.size, _BLOCK_SEGMENTS):
        block = slice(k, k + _BLOCK_SEGMENTS)
        ends[block] = _crossings(v, xs, ys, cell[block], edges[block])
    return ends


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
    grid value is exactly the level) form one node. Open chains come
    first, each started from the first unused segment, in segment order,
    with an end at a node of one unused segment; then the closed loops.
    A walk leaves each node along its first unused segment.
    """
    if not len(ends):
        return ContourSet([], [])
    pts = ends.reshape(-1, 2)  # endpoint e is an end of segment e >> 1
    # a stable sort of the points lists each node's endpoints in order
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    new = np.ones(len(order), bool)
    new[1:] = np.any(pts[order[1:]] != pts[order[:-1]], axis=1)
    node_of = np.empty(len(order), np.intp)
    node_of[order] = np.cumsum(new) - 1
    first = np.flatnonzero(new)
    degree = np.diff(first, append=len(order))
    node = node_of.tolist()
    seg_at = (order >> 1).tolist()  # the segment of each entry, node by node
    cursor = first.tolist()  # per node: every entry before it is used
    stop = cursor[1:] + [len(order)]
    used = [False] * len(ends)

    def unused(v):
        return sum(not used[s] for s in seg_at[cursor[v]:stop[v]])

    def walk(e):
        """Append the chain from endpoint e to ``flat``; mark its segments."""
        flat.append(e)
        s, cur = e >> 1, node[e]
        while True:
            used[s] = True
            e = 2 * s + 1 if node[2 * s] == cur else 2 * s
            flat.append(e)
            cur = node[e]
            c, end = cursor[cur], stop[cur]
            while c < end and used[seg_at[c]]:
                c += 1
            cursor[cur] = c
            if c == end:
                starts.append(len(flat))
                return
            s = seg_at[c]

    flat, starts = [], [0]  # the endpoints of all chains; where each starts
    # open chains first, from a node of one unused segment. A walk uses an
    # even number of a node's segments unless it starts or ends there, and
    # then it leaves none, so only nodes of odd degree can start one.
    odd = (degree % 2 == 1)[node_of].reshape(-1, 2).any(axis=1)
    for s in np.flatnonzero(odd).tolist():
        if used[s]:
            continue
        if unused(node[2 * s]) == 1:
            walk(2 * s)
        elif unused(node[2 * s + 1]) == 1:
            walk(2 * s + 1)
    for s in range(len(ends)):
        if not used[s]:
            walk(2 * s)
    bounds = np.array(starts)
    at = node_of[flat]
    return ContourSet(np.split(pts[flat], bounds[1:-1]),
                      (at[bounds[:-1]] == at[bounds[1:] - 1]).tolist())


def sign_witness(grid: Grid) -> SignWitness | None:
    """A strictly positive and a strictly negative sample, or None."""
    values = grid.values
    imax = np.unravel_index(np.argmax(values), values.shape)
    imin = np.unravel_index(np.argmin(values), values.shape)
    vmax, vmin = float(values[imax]), float(values[imin])
    if vmax <= 0.0 or vmin >= 0.0:
        return None
    return SignWitness(((float(grid.xs[imax[0]]), float(grid.ys[imax[1]])), vmax),
                       ((float(grid.xs[imin[0]]), float(grid.ys[imin[1]])), vmin))


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


# line-search step lengths: 1, then 1/2, ..., 2^-19 (halving stops below 1e-6)
_STEPS = (np.ones(1), 0.5 ** np.arange(1, 20))


def _newton_refine(field: ScalarField, x0, y0, max_iter: int = 60,
                   target: float = 1e-12):
    """Damped Newton on the normalized (P1, P2) system with an FD Jacobian,
    from every start (x0[k], y0[k]) at once.

    Each row takes the steps it would take alone. It stops when
    max(|P1n|, |P2n|) < target, when its Jacobian is singular, or when
    none of the line-search steps 1, 1/2, ..., 2^-19 lowers |(P1n, P2n)|.
    Returns the final x, y and whether each row ends below target.
    """
    def res(px, py):
        return np.stack(_normalized_pair(field, px, py), axis=-1)

    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    r = res(x, y)
    live = np.arange(x.size)  # rows still iterating
    for _ in range(max_iter):
        live = live[~(_max_abs(r[live]) < target)]
        if not live.size:
            break
        lx, ly = x[live], y[live]
        hyp = _libm(math.hypot, lx, ly)
        h = 1e-7 * np.where(hyp > 1.0, hyp, 1.0)
        rp = res(np.concatenate([lx + h, lx - h, lx, lx]),
                 np.concatenate([ly, ly, ly + h, ly - h]))
        dx_p, dx_m, dy_p, dy_m = rp.reshape(4, -1, 2)
        h2 = (2 * h)[:, None]
        J = np.stack([(dx_p - dx_m) / h2, (dy_p - dy_m) / h2], axis=-1)
        step, solved = _solve2(J, -r[live])
        # a singular Jacobian stops the row
        live, lx, ly, step = live[solved], lx[solved], ly[solved], step[solved]
        norm0 = _row_norms(r[live])
        # the full step for every row, then all shorter steps at once for the
        # rows it does not take down: each row takes the first that does. The
        # shorter steps lie between the point and its full step, so a convex
        # domain (sphere_cap's disk) holds them when it holds the full step.
        search = np.arange(live.size)  # positions in live still line-searching
        for lam in _STEPS:
            if not search.size:
                break
            xn = lx[search] + lam[:, None] * step[search, 0]
            yn = ly[search] + lam[:, None] * step[search, 1]
            rn = res(xn.ravel(), yn.ravel()).reshape(*xn.shape, 2)
            down = _row_norms(rn) < norm0[search]
            k = np.flatnonzero(down.any(axis=0))
            first = down[:, k].argmax(axis=0)
            rows = live[search[k]]
            x[rows], y[rows], r[rows] = xn[first, k], yn[first, k], rn[first, k]
            search = np.delete(search, k)
        # a row whose line search ran out of steps has stalled
        live = np.delete(live, search)
    return x, y, _max_abs(r) < target


def umbilic_search(field: ScalarField, region, n: int,
                   tol: float = 1e-8) -> UmbilicScan:
    """Locate umbilics: local minima of the normalized discriminant below
    ``tol``, refined by damped Newton on the residual pair.

    When more than half of the grid sits below tolerance the region is
    reported as totally umbilic instead of enumerating points. Candidates
    whose refinement stalls are kept as coarse minima; duplicates within
    1e-6 are merged. All minima are refined together as arrays, so a
    refined point's residuals round exactly as a grid sample there would.
    """
    x0, y0, x1, y1 = _check_region(region)
    xs, ys, Dn = _sample(lambda x, y: _normalized_discriminant(field, x, y),
                         region, n, n)
    below = Dn < tol
    frac = float(np.mean(below))
    if frac > 0.5:
        return UmbilicScan([], True, frac)
    # every grid local minimum seeds a refinement; keepers are decided by
    # the refined residual, so umbilics between nodes are still found
    margin_x = 0.05 * (x1 - x0)
    margin_y = 0.05 * (y1 - y0)
    i, j = local_minima(Dn).T
    cx, cy = xs[i], ys[j]
    rx, ry, ok = _newton_refine(field, cx, cy)
    dn = _normalized_discriminant(field, rx, ry)
    inside = ((x0 - margin_x <= rx) & (rx <= x1 + margin_x)
              & (y0 - margin_y <= ry) & (ry <= y1 + margin_y))
    refined = ok & (dn < tol) & inside
    # Newton stalled or escaped: keep the coarse grid minimum if below tol
    keep = refined | below[i, j]
    cols = (np.where(refined, rx, cx), np.where(refined, ry, cy),
            np.where(refined, dn, Dn[i, j]), refined)
    points = [UmbilicPoint(*p) for p in zip(*(c[keep].tolist() for c in cols))]
    points.sort(key=lambda p: (p.x, p.y))
    # greedy merge in sorted order against the points accepted so far; numpy's
    # hypot only preselects, libm's decides, as scalar math.hypot did
    merged = []
    ax, ay = np.empty(len(points)), np.empty(len(points))
    for p in points:
        dx, dy = p.x - ax[:len(merged)], p.y - ay[:len(merged)]
        near = np.hypot(dx, dy) < 2e-6
        if np.any(_libm(math.hypot, dx[near], dy[near]) < 1e-6):
            continue
        ax[len(merged)], ay[len(merged)] = p.x, p.y
        merged.append(p)
    return UmbilicScan(merged, False, frac)


def umbilic_free_floor(field: ScalarField, region, n: int) -> FloorReport:
    """min over the grid of max(|P1|, |P2|) / (1+q)^(3/2), with its argmin."""

    def ev(x, y):
        P1n, P2n = _normalized_pair(field, x, y)
        return np.maximum(np.abs(P1n), np.abs(P2n))

    xs, ys, floor_map = _sample(ev, region, n, n)
    idx = np.unravel_index(np.argmin(floor_map), floor_map.shape)
    return FloorReport(float(floor_map[idx]),
                       (float(xs[idx[0]]), float(ys[idx[1]])))
