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
                        residual_arrays)
from .errors import DomainError
from .field import Direction, ScalarField
from .util import local_minima, worker_count

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


def _residual_evaluator(field: ScalarField, name: str, params: dict):
    if name == "dk":
        X, Y = params["X"], params["Y"]

        def ev(x, y):
            _, f1, f2, f11, f12, f22 = field.jet_arrays(x, y)
            kx = curvature_direction_arrays(f1, f2, f11, f12, f22, X.x, X.y)
            ky = curvature_direction_arrays(f1, f2, f11, f12, f22, Y.x, Y.y)
            return kx - ky
    elif name == "dkdtheta":
        theta0 = float(params["theta0"])

        def ev(x, y):
            _, f1, f2, f11, f12, f22 = field.jet_arrays(x, y)
            return dk_dtheta_arrays(f1, f2, f11, f12, f22, theta0)
    elif name in ("P1", "P2", "D"):
        idx = {"P1": 0, "P2": 1, "D": 2}[name]

        def ev(x, y):
            _, f1, f2, f11, f12, f22 = field.jet_arrays(x, y)
            return residual_arrays(f1, f2, f11, f12, f22)[idx]
    elif name in CURVATURE_NAMES:
        def ev(x, y):
            _, f1, f2, f11, f12, f22 = field.jet_arrays(x, y)
            q = f1 * f1 + f2 * f2
            w = 1.0 + q
            H = ((1.0 + f2 * f2) * f11 - 2.0 * f1 * f2 * f12
                 + (1.0 + f1 * f1) * f22) / (2.0 * w ** 1.5)
            K = (f11 * f22 - f12 * f12) / (w * w)
            if name == "H":
                return H
            if name == "K":
                return K
            s = np.sqrt(np.maximum(H * H - K, 0.0))
            return H - s if name == "k1" else H + s
    else:
        raise ValueError(f"unknown residual '{name}'; "
                         f"options: {RESIDUAL_NAMES + CURVATURE_NAMES}")
    return ev


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


def _segments(grid: Grid, level: float) -> list:
    """((x, y), (x, y)) segments in row-major cell order, each cell's in
    table order."""
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
    segments = []
    for k in range(0, cell.size, _BLOCK_SEGMENTS):
        block = slice(k, k + _BLOCK_SEGMENTS)
        ends = _crossings(v, xs, ys, cell[block], edges[block])
        segments += zip(ends, ends)  # consecutive ends pair up
    return segments


def _crossings(v, xs, ys, cell, edges):
    """Iterator over the (x, y) crossings on the edges ``edges[k, 0]`` and
    ``edges[k, 1]`` of the flat cell index ``cell[k]``, for k in order."""
    i, j = np.divmod(cell, v.shape[1] - 1)
    # corner offsets per segment end: [segment, end, corner, (di, dj)]
    corners = _EDGE_CORNERS[edges]
    ai = i[:, None] + corners[:, :, 0, 0]
    aj = j[:, None] + corners[:, :, 0, 1]
    bi = i[:, None] + corners[:, :, 1, 0]
    bj = j[:, None] + corners[:, :, 1, 1]
    va, vb = v[ai, aj], v[bi, bj]
    t = va / (va - vb)
    return zip((xs[ai] + t * (xs[bi] - xs[ai])).ravel().tolist(),
               (ys[aj] + t * (ys[bj] - ys[aj])).ravel().tolist())


def _chain_segments(segments) -> ContourSet:
    """Join shared-endpoint segments into polylines, deterministically."""
    adjacency = {}
    for si, (a, b) in enumerate(segments):
        adjacency.setdefault(a, []).append(si)
        adjacency.setdefault(b, []).append(si)
    used = [False] * len(segments)
    polylines, closed_flags = [], []

    def walk(start_pt, seg_idx):
        pts = [start_pt]
        cur_seg, cur_pt = seg_idx, start_pt
        while True:
            used[cur_seg] = True
            a, b = segments[cur_seg]
            nxt = b if cur_pt == a else a
            pts.append(nxt)
            candidates = [s for s in adjacency.get(nxt, []) if not used[s]]
            if not candidates:
                break
            cur_seg, cur_pt = candidates[0], nxt
        return pts

    # open chains first: start from endpoints of odd degree
    for si in range(len(segments)):
        if used[si]:
            continue
        a, b = segments[si]
        start = None
        if len([s for s in adjacency[a] if not used[s]]) == 1:
            start = a
        elif len([s for s in adjacency[b] if not used[s]]) == 1:
            start = b
        if start is not None:
            pts = walk(start, si)
            polylines.append(np.array(pts))
            closed_flags.append(pts[0] == pts[-1])
    for si in range(len(segments)):
        if used[si]:
            continue
        pts = walk(segments[si][0], si)
        polylines.append(np.array(pts))
        closed_flags.append(pts[0] == pts[-1])
    return ContourSet(polylines, closed_flags)


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

def _normalized_residuals(field: ScalarField, x, y):
    """(P1n, P2n, Dn): residuals normalized by (1+q)^(3/2) resp. (1+q)^3."""
    _, f1, f2, f11, f12, f22 = field.jet_arrays(x, y)
    P1, P2, D, q = residual_arrays(f1, f2, f11, f12, f22)
    w = (1.0 + q) ** 1.5
    return P1 / w, P2 / w, D / (1.0 + q) ** 3


def _newton_refine(field: ScalarField, x0: float, y0: float,
                   max_iter: int = 60, target: float = 1e-12):
    """Damped Newton on the normalized (P1, P2) system with FD Jacobian."""
    x, y = float(x0), float(y0)

    def res(px, py):
        p1, p2, _ = _normalized_residuals(field, px, py)
        return np.array([float(p1), float(p2)])

    r = res(x, y)
    for _ in range(max_iter):
        if max(abs(r[0]), abs(r[1])) < target:
            return x, y, True
        h = 1e-7 * max(1.0, math.hypot(x, y))
        jac = np.column_stack([(res(x + h, y) - res(x - h, y)) / (2 * h),
                               (res(x, y + h) - res(x, y - h)) / (2 * h)])
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return x, y, max(abs(r[0]), abs(r[1])) < target
        lam = 1.0
        norm0 = np.linalg.norm(r)
        while lam > 1e-6:
            xn, yn = x + lam * step[0], y + lam * step[1]
            rn = res(xn, yn)
            if np.linalg.norm(rn) < norm0:
                x, y, r = xn, yn, rn
                break
            lam *= 0.5
        else:
            break  # stalled
    return x, y, max(abs(r[0]), abs(r[1])) < target


def umbilic_search(field: ScalarField, region, n: int,
                   tol: float = 1e-8) -> UmbilicScan:
    """Locate umbilics: local minima of the normalized discriminant below
    ``tol``, refined by damped Newton on the residual pair.

    When more than half of the grid sits below tolerance the region is
    reported as totally umbilic instead of enumerating points. Candidates
    whose refinement stalls are kept as coarse minima; duplicates within
    1e-6 are merged.
    """
    x0, y0, x1, y1 = _check_region(region)
    xs, ys, Dn = _sample(lambda x, y: _normalized_residuals(field, x, y)[2],
                         region, n, n)
    below = Dn < tol
    frac = float(np.mean(below))
    if frac > 0.5:
        return UmbilicScan([], True, frac)
    # every grid local minimum seeds a refinement; keepers are decided by
    # the refined residual, so umbilics between nodes are still found
    margin_x = 0.05 * (x1 - x0)
    margin_y = 0.05 * (y1 - y0)
    points = []
    for i, j in local_minima(Dn):
        cx, cy = float(xs[i]), float(ys[j])
        rx, ry, ok = _newton_refine(field, cx, cy)
        _, _, dn = _normalized_residuals(field, rx, ry)
        dn = float(dn)
        inside = (x0 - margin_x <= rx <= x1 + margin_x
                  and y0 - margin_y <= ry <= y1 + margin_y)
        if ok and dn < tol and inside:
            points.append(UmbilicPoint(rx, ry, dn, True))
        elif below[i, j]:
            # Newton stalled or escaped; keep the coarse grid minimum
            points.append(UmbilicPoint(cx, cy, float(Dn[i, j]), False))
    points.sort(key=lambda p: (p.x, p.y))
    merged = []
    for p in points:
        if any(math.hypot(p.x - q.x, p.y - q.y) < 1e-6 for q in merged):
            continue
        merged.append(p)
    return UmbilicScan(merged, False, frac)


def umbilic_free_floor(field: ScalarField, region, n: int) -> FloorReport:
    """min over the grid of max(|P1|, |P2|) / (1+q)^(3/2), with its argmin."""

    def ev(x, y):
        P1n, P2n, _ = _normalized_residuals(field, x, y)
        return np.maximum(np.abs(P1n), np.abs(P2n))

    xs, ys, floor_map = _sample(ev, region, n, n)
    idx = np.unravel_index(np.argmin(floor_map), floor_map.shape)
    return FloorReport(float(floor_map[idx]),
                       (float(xs[idx[0]]), float(ys[idx[1]])))
