import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_fields, sample_box
from oracles import column, graph_mean_divergence, rotate_frame
from umbilic import (Direction, Jet2, contours, dk_dtheta, grid_field, make_field,
                     normal_curvature, scan, umbilic_free_floor, umbilic_residuals,
                     umbilic_search)
from umbilic.cli import main
from umbilic.curvature import principal_arrays
from umbilic.field import rotate_jet_arrays
from umbilic.scan import (CURVATURE_NAMES, RESIDUAL_NAMES, Grid, _chain_segments,
                          _max_abs, _newton_refine, _normalized_pair, _segments)
from umbilic.transform import _rescaled_field
from umbilic.util import _libm, greedy_merge, local_minima

EX = Direction(0.0)
EY = Direction(math.pi / 2)


def linear_grid(n=21, lo=-1.0, hi=1.0, fn=lambda x, y: x):
    xs = np.linspace(lo, hi, n)
    ys = np.linspace(lo, hi, n)
    XX, YY = np.meshgrid(xs, ys, indexing="ij")
    return Grid(xs, ys, fn(XX, YY), (lo, lo, hi, hi), fn)


# --- grid sampling ----------------------------------------------------------

def test_grid_P1_saddle_closed_form():
    g = grid_field(make_field("saddle"), "P1", (-1, -1, 1, 1), 3, 3)
    # P1 of the saddle is 1 + y^2
    expected = 1.0 + np.array([-1.0, 0.0, 1.0]) ** 2
    assert np.allclose(g.values, expected[None, :], atol=1e-15)
    assert set(np.round(g.values.ravel(), 12)) == {1.0, 2.0}


def test_grid_D_paraboloid_min_at_origin():
    g = grid_field(make_field("paraboloid"), "D", (-1, -1, 1, 1), 41, 41)
    idx = np.unravel_index(np.argmin(g.values), g.values.shape)
    assert (g.xs[idx[0]], g.ys[idx[1]]) == (0.0, 0.0)
    assert g.values[idx] == 0.0


def test_grid_dk_radial_swap_antisymmetry():
    g = grid_field(make_field("gaussian_bump"), "dk", (-2, -2, 2, 2), 21, 21,
                   X=EX, Y=EY)
    assert np.allclose(g.values, -g.values.T, atol=1e-14)


def test_grid_validates():
    with pytest.raises(ValueError):
        grid_field(make_field("saddle"), "P1", (1, 0, -1, 2), 5, 5)
    with pytest.raises(ValueError):
        grid_field(make_field("saddle"), "nope", (-1, -1, 1, 1), 5, 5)
    with pytest.raises(ValueError):
        grid_field(make_field("saddle"), "dk", (-1, -1, 1, 1), 5, 5)  # no X, Y
    with pytest.raises(ValueError, match="requires theta0"):
        grid_field(make_field("saddle"), "dkdtheta", (-1, -1, 1, 1), 5, 5)


@pytest.mark.parametrize("field", all_fields(), ids=lambda f: f.name)
def test_grid_quantities_equal_scalar_apis(field):
    # each quantity has one array formula; the grid and the scalar API
    # evaluate it on one jet, so every node agrees bitwise
    X, Y, theta0 = Direction(0.4), Direction(2.0), 0.9
    lo, hi = sample_box(field)
    grids = {q: grid_field(field, q, (lo, lo, hi, 0.8 * hi), 7, 6,
                           X=X, Y=Y, theta0=theta0)
             for q in CURVATURE_NAMES + RESIDUAL_NAMES}
    g = grids["D"]
    for i, x in enumerate(g.xs):
        for k, y in enumerate(g.ys):
            p = (float(x), float(y))
            j = field.jet(p)
            r = umbilic_residuals(field, p)
            _, K, k1, k2 = (v[0] for v in principal_arrays(*np.array(j[1:])[:, None]))
            scalar = {"dk": normal_curvature(field, p, X) - normal_curvature(field, p, Y),
                      "dkdtheta": dk_dtheta(field, p, theta0),
                      "P1": r.P1, "P2": r.P2, "D": r.D,
                      "H": graph_mean_divergence(j) / 2.0, "K": K, "k1": k1, "k2": k2}
            for q, value in scalar.items():
                assert grids[q].values[i, k] == value, (q, p)
            assert rotate_frame(j, theta0) == Jet2(
                j.f, *rotate_jet_arrays(j.f1, j.f2, j.f11, j.f12, j.f22, theta0))


# --- contours ---------------------------------------------------------------

def test_contour_vertical_line():
    cs = contours(linear_grid())
    assert len(cs.polylines) == 1
    poly = cs.polylines[0]
    assert np.allclose(poly[:, 0], 0.0, atol=1e-14)
    assert poly[:, 1].min() == -1.0 and poly[:, 1].max() == 1.0


def test_contour_empty_for_positive_grid():
    cs = contours(linear_grid(fn=lambda x, y: np.ones_like(x)))
    assert len(cs.polylines) == 0


def test_contour_circle_hausdorff():
    def fn(x, y):
        return x * x + y * y - 0.25

    g = linear_grid(81, fn=fn)
    cs = contours(g)
    assert len(cs.polylines) == 1
    pts = cs.polylines[0]
    assert np.array_equal(pts[0], pts[-1])
    cell = math.hypot(g.xs[1] - g.xs[0], g.ys[1] - g.ys[0])
    # every vertex close to the circle r = 1/2
    assert np.max(np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 0.5)) < cell
    # every circle point close to the polyline
    angles = np.linspace(0, 2 * math.pi, 200)
    circle = 0.5 * np.column_stack([np.cos(angles), np.sin(angles)])
    d = np.min(np.linalg.norm(circle[:, None, :] - pts[None, :, :], axis=2), axis=1)
    assert np.max(d) < cell


def _chain_reference(segments):
    """The point-tuple chaining the endpoint-array one replaced."""
    adjacency = {}
    for si, (a, b) in enumerate(segments):
        adjacency.setdefault(a, []).append(si)
        adjacency.setdefault(b, []).append(si)
    used = [False] * len(segments)
    polylines, closed = [], []

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
        polylines.append(np.array(pts))
        closed.append(pts[0] == pts[-1])

    for si in range(len(segments)):
        if used[si]:
            continue
        a, b = segments[si]
        if len([s for s in adjacency[a] if not used[s]]) == 1:
            walk(a, si)
        elif len([s for s in adjacency[b] if not used[s]]) == 1:
            walk(b, si)
    for si in range(len(segments)):
        if not used[si]:
            walk(segments[si][0], si)
    return polylines, closed


def _chain_rule_reference(segments):
    """The chaining rule on point tuples: a node of exactly two segment ends
    joins them, any other node ends a polyline; open polylines start from
    such ends in endpoint order, then loops from their lowest segment."""
    adjacency = {}
    for si, (a, b) in enumerate(segments):
        adjacency.setdefault(a, []).append(si)
        adjacency.setdefault(b, []).append(si)
    used = [False] * len(segments)
    polylines = []

    def walk(pt, si):
        pts = [pt]
        while not used[si]:
            used[si] = True
            a, b = segments[si]
            pt = b if pt == a else a
            pts.append(pt)
            if len(adjacency[pt]) != 2:
                break
            si = sum(adjacency[pt]) - si  # the node's other segment
        polylines.append(np.array(pts))

    for si, (a, b) in enumerate(segments):
        for pt in (a, b):
            if not used[si] and len(adjacency[pt]) != 2:
                walk(pt, si)
    for si in range(len(segments)):
        if not used[si]:
            walk(segments[si][0], si)
    return polylines


def _chain_grid(values):
    n, m = values.shape
    xs = np.linspace(-1.0, 1.0, n)
    ys = np.concatenate([[-0.0], np.linspace(0.0, 2.0, m)[1:]])
    # the chaining is checked, not the saddle rule: every center reads 0
    return Grid(xs, ys, values, (-1.0, -0.0, 1.0, 2.0), lambda x, y: np.zeros(np.shape(x)))


def _same_polylines(polylines, ref_polylines):
    assert len(polylines) == len(ref_polylines)
    for p, q in zip(polylines, ref_polylines):
        assert p.shape == q.shape and p.tobytes() == q.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_chain_segments_matches_reference(seed):
    # values with no exact zero: every crossing lies inside a cell edge and
    # no node holds more than two segments, so the old walk had no choice
    # to make and both references give the chaining's bytes
    r = np.random.default_rng(seed)
    ends = _segments(_chain_grid(r.standard_normal(r.integers(2, 40, 2))))
    points = [tuple(map(tuple, e)) for e in ends.tolist()]
    assert max(Counter(p for e in points for p in e).values(), default=0) <= 2
    polylines = _chain_segments(ends).polylines
    ref_polylines, ref_closed = _chain_reference(points)
    _same_polylines(polylines, ref_polylines)
    assert [np.array_equal(p[0], p[-1]) for p in polylines] == ref_closed
    _same_polylines(polylines, _chain_rule_reference(points))


@pytest.mark.parametrize("seed", range(6))
def test_chain_segments_matches_rule_reference(seed):
    # small integers put many contour vertices exactly on grid nodes, where
    # several segments meet; signed zeros join as equal points
    r = np.random.default_rng(seed)
    n, m = r.integers(2, 40, 2)
    values = r.integers(-2, 3, (n, m)).astype(float)
    values[r.random((n, m)) < 0.2] = -0.0
    ends = _segments(_chain_grid(values))
    points = [tuple(map(tuple, e)) for e in ends.tolist()]
    _same_polylines(_chain_segments(ends).polylines, _chain_rule_reference(points))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8), st.data())
def test_chain_segments_ends_where_other_than_two_meet(n, m, data):
    """Every segment is used once; every interior vertex is a node of
    exactly two segment ends; a polyline is closed or both its ends lie at
    nodes of other than two."""
    value = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
    values = np.array(data.draw(st.lists(value, min_size=n * m, max_size=n * m)))
    ends = _segments(_chain_grid(values.reshape(n, m)))
    degree = Counter(p for e in ends.tolist() for p in map(tuple, e))
    steps = Counter()
    for poly in _chain_segments(ends).polylines:
        pts = list(map(tuple, poly.tolist()))
        assert len(pts) >= 2
        steps.update(frozenset(step) for step in zip(pts, pts[1:]))
        assert all(degree[p] == 2 for p in pts[1:-1])
        assert pts[0] == pts[-1] or (degree[pts[0]] != 2 and degree[pts[-1]] != 2)
    assert steps == Counter(frozenset(map(tuple, e)) for e in ends.tolist())


def test_contour_vertices_near_zero_level(rng):
    field = make_field("asym_bump")
    g = grid_field(field, "dk", (-2, -2, 2, 2), 41, 41, X=EX, Y=EY)
    cs = contours(g)
    assert len(cs.polylines) >= 1
    cell = math.hypot(g.xs[1] - g.xs[0], g.ys[1] - g.ys[0])
    # Lipschitz bound from the sampled gradient of the residual
    lip = np.max(np.abs(np.gradient(g.values, g.xs, axis=0))) \
        + np.max(np.abs(np.gradient(g.values, g.ys, axis=1)))
    for poly in cs.polylines:
        res = np.abs(g.evaluator(poly[:, 0], poly[:, 1]))
        assert np.max(res) < lip * cell


# --- umbilic search ---------------------------------------------------------

def test_umbilic_search_paraboloid_origin_only():
    res = umbilic_search(make_field("paraboloid"), (-2, -2, 2, 2), 41)
    assert not res.totally_umbilic
    assert len(res.points) == 1
    p = res.points[0]
    assert math.hypot(p.x, p.y) < 1e-8
    assert p.refined and p.residual < 1e-10


def test_umbilic_search_paraboloid_offgrid_origin():
    # even-count grid omits the origin node; refinement still homes in on it
    # (the residual pair has a double root there, so convergence is linear)
    res = umbilic_search(make_field("paraboloid"), (-2, -2, 2, 2), 40)
    assert len(res.points) == 1
    assert math.hypot(res.points[0].x, res.points[0].y) < 1e-6


def test_umbilic_search_saddle_empty():
    res = umbilic_search(make_field("saddle"), (-2, -2, 2, 2), 41)
    assert res.points == [] and not res.totally_umbilic
    # D = 4 x^2 y^2 + 4 (1 + x^2 + y^2) >= 4 keeps the whole grid away from 0
    g = grid_field(make_field("saddle"), "D", (-2, -2, 2, 2), 41, 41)
    assert g.values.min() >= 4.0


def test_umbilic_search_cap_region_flag():
    field = make_field("sphere_cap")
    res = umbilic_search(field, (-0.5, -0.5, 0.5, 0.5), 41)
    assert res.totally_umbilic
    # more than half of the grid has D / (1 + q)^3 below the default tol
    g = grid_field(field, "D", (-0.5, -0.5, 0.5, 0.5), 41, 41)
    _, f1, f2 = field.values_and_grads(*np.meshgrid(g.xs, g.ys, indexing="ij"))
    assert np.mean(g.values / (1.0 + f1 * f1 + f2 * f2) ** 3 < 1e-8) > 0.5


def _umbilic_search_reference(field, region, n, tol=1e-8):
    """umbilic_search's points with the merge it replaced: the candidates
    as UmbilicPoints sorted on (x, y), each kept unless math.hypot puts it
    within 1e-6 of a point kept before it."""
    x0, y0, x1, y1 = region
    xs, ys, Dn = scan._sample(lambda x, y: scan._normalized_discriminant(field, x, y),
                              region, n, n)
    i, j = local_minima(Dn).T
    mx, my = 0.05 * (x1 - x0), 0.05 * (y1 - y0)
    rx, ry, ok = _newton_refine(field, xs[i], ys[j], (x0 - mx, y0 - my, x1 + mx, y1 + my))
    dn = scan._normalized_discriminant(field, rx, ry)
    points = []
    for k in range(len(i)):
        if ok[k] and dn[k] < tol:
            points.append(scan.UmbilicPoint(float(rx[k]), float(ry[k]), float(dn[k]), True))
        elif Dn[i[k], j[k]] < tol:
            points.append(scan.UmbilicPoint(float(xs[i[k]]), float(ys[j[k]]),
                                            float(Dn[i[k], j[k]]), False))
    points.sort(key=lambda p: (p.x, p.y))
    merged = []
    for p in points:
        if not any(math.hypot(p.x - q.x, p.y - q.y) < 1e-6 for q in merged):
            merged.append(p)
    return merged


@pytest.mark.parametrize("family, half, n, count", [("loglog_tail", 6.0, 101, 1653),
                                                     ("asym_bump", 3.0, 201, 7)])
def test_umbilic_search_matches_the_loop_reference(family, half, n, count):
    field, region = make_field(family), (-half, -half, half, half)
    res = umbilic_search(field, region, n)
    ref = _umbilic_search_reference(field, region, n)
    assert len(res.points) == count
    assert [(repr(p.x), repr(p.y), repr(p.residual), p.refined) for p in res.points] == \
        [(repr(p.x), repr(p.y), repr(p.residual), p.refined) for p in ref]


def _x_keyed_merge(x, y):
    """The merge as it was before its key became a rotation: pairs sought
    on x alone, numpy's hypot preselecting them and libm's deciding."""
    return greedy_merge(x, 2e-6, lambda a, b: np.hypot(x[b] - x[a], y[b] - y[a]) < 2e-6,
                        lambda a, b: _libm(math.hypot, x[b] - x[a], y[b] - y[a]) < 1e-6)


def test_merge_keeps_the_rows_of_the_x_keyed_merge(monkeypatch):
    # on loglog_tail every unrefined point of the flat disk shares its grid
    # column's x, so the x key paired each with the whole column
    seen = []
    merge = scan._merge_points
    monkeypatch.setattr(scan, "_merge_points", lambda x, y: seen.append((x, y)) or merge(x, y))
    umbilic_search(make_field("loglog_tail"), (-6, -6, 6, 6), 101)
    (x, y), = seen
    assert len(x) > 1000
    assert np.array_equal(scan._merge_points(x, y), _x_keyed_merge(x, y))
    # synthetic rows, sorted as the search sorts them: clusters within 1e-6
    # keep one row each; chains of 0.9e-6 steps and equal-x columns of
    # 0.8e-6 steps keep rows 0 and 2 (row 1 merges into 0, row 3 into 2)
    rng = np.random.default_rng(5)
    c = rng.uniform(-2, 2, size=(3, 40, 1, 2))
    step = np.arange(4)[:, None]
    groups = (c[0] + rng.uniform(-3e-7, 3e-7, size=(40, 4, 2)),
              c[1] + 0.9e-6 * step * np.array([0.6, 0.8]),
              c[2] + 0.8e-6 * step * np.array([0.0, 1.0]))
    x, y = np.concatenate([g.reshape(-1, 2) for g in groups]).T
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    kept = scan._merge_points(x, y)
    assert np.array_equal(kept, _x_keyed_merge(x, y))
    assert kept.sum() == 40 + 80 + 80

def test_refined_points_satisfy_residual_bound():
    res = umbilic_search(make_field("paraboloid"), (-2, -2, 2, 2), 31)
    for p in res.points:
        p1, p2 = _normalized_pair(make_field("paraboloid"), p.x, p.y)
        assert max(abs(float(p1)), abs(float(p2))) < 1e-8


def _newton_reference(field, x0, y0, box, max_iter=60, target=1e-12):
    """The one-candidate Newton loop the batched one replaced, evaluated on
    one-element arrays, which stops at the first step outside ``box``;
    returns (x, y, ok, exit)."""
    x, y = float(x0), float(y0)
    bx0, by0, bx1, by1 = box

    def res(px, py):
        p1, p2 = _normalized_pair(field, np.array([px]), np.array([py]))
        return np.array([float(p1[0]), float(p2[0])])

    r = res(x, y)
    for _ in range(max_iter):
        if max(abs(r[0]), abs(r[1])) < target:
            return x, y, True, "converged"
        h = 1e-7 * max(1.0, math.hypot(x, y))
        jac = np.column_stack([(res(x + h, y) - res(x - h, y)) / (2 * h),
                               (res(x, y + h) - res(x, y - h)) / (2 * h)])
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return x, y, max(abs(r[0]), abs(r[1])) < target, "singular"
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
            return x, y, max(abs(r[0]), abs(r[1])) < target, "stalled"
        if not (bx0 <= x <= bx1 and by0 <= y <= by1):
            return x, y, False, "escaped"
    return x, y, max(abs(r[0]), abs(r[1])) < target, "max_iter"


def _newton_starts(field, rng):
    """The grid minima of the discriminant D on the field's sample box,
    then random points in it."""
    lo, hi = sample_box(field)
    g = grid_field(field, "D", (lo, lo, hi, hi), 15, 15)
    i, j = local_minima(g.values).T
    return (np.concatenate([g.xs[i], rng.uniform(lo, hi, 6)]),
            np.concatenate([g.ys[j], rng.uniform(lo, hi, 6)]))


def test_max_abs_keeps_python_max_nan_order():
    r = np.array([[1e-13, np.nan], [np.nan, 1e-13], [-2.0, 1.0], [1.0, -2.0]])
    expect = [max(abs(a), abs(b)) for a, b in r.tolist()]
    assert np.array_equal(_max_abs(r), expect, equal_nan=True)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batched_newton_matches_reference(rng):
    # each family's starts in its sample box grown by 5%, as umbilic_search
    # grows its region, where rows that walk off to infinity escape; and in
    # an unbounded box, where they run on. separable at lam 0.5 has a start
    # whose line search stalls, and none of the default families reach that
    # exit from the starts above
    cases = []
    for f in all_fields():
        lo, hi = sample_box(f)
        m = 0.05 * (hi - lo)
        starts = _newton_starts(f, rng)
        cases.append((f, (lo - m, lo - m, hi + m, hi + m), *starts))
        cases.append((f, (-np.inf, -np.inf, np.inf, np.inf), *starts))
    cases.append((make_field("separable", lam=0.5), (-30.0, -30.0, 30.0, 30.0),
                  np.array([22.540401649565922]), np.array([21.95828933794433])))
    exits = set()
    for field, box, xs, ys in cases:
        for max_iter in (60, 3):  # 3 also reaches the test after the loop
            bx, by, bok = _newton_refine(field, xs, ys, box, max_iter=max_iter)
            for k in range(xs.size):
                x, y, ok, how = _newton_reference(field, xs[k], ys[k], box, max_iter)
                exits.add(how)
                assert (bx[k], by[k], bok[k]) == (x, y, ok), (field.name, box, k, how)
    assert exits == {"converged", "singular", "stalled", "max_iter", "escaped"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_newton_rows_independent_of_batch(rng):
    field = make_field("asym_bump")
    xs, ys = rng.uniform(-3.0, 3.0, (2, 20))
    xs[5] = ys[5] = np.nan            # stalls, unconverged
    xs[9], ys[9] = -2.133709716507291, 1.4720952946367494  # an umbilic of the scan
    box = (-3.3, -3.3, 3.3, 3.3)
    bx, by, bok = _newton_refine(field, xs, ys, box)
    for k in range(xs.size):
        x1, y1, ok1 = _newton_refine(field, xs[k:k + 1], ys[k:k + 1], box)
        assert np.array_equal([bx[k], by[k]], [x1[0], y1[0]], equal_nan=True)
        assert bok[k] == ok1[0]
    assert not bok[5] and bok[9]


# sha256 of `umbilic scan --n 101` CSVs, unchanged since the scalar Newton loop
SCAN_GOLDEN = {
    "paraboloid": "ce3be6c17e6ae681e3114efa47fef00e23cf14056a0605e185f7d000d6cac4ce",
    "separable:lam=0.3": "e08d0d1d0e4858723932701ece4a33853d493339a398d058acfedb6d65c025da",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("spec", sorted(SCAN_GOLDEN))
def test_umbilic_scan_golden_bytes(tmp_path, monkeypatch, spec, threads):
    monkeypatch.setenv("UMBILIC_THREADS", threads)
    out = tmp_path / "u.csv"
    assert main(["umbilic", "scan", "--field", spec, "--n", "101", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCAN_GOLDEN[spec]


# sha256 and row count of `umbilic scan --n 101` CSVs over ±half, scans in
# which most refinements leave the region, as written before a refinement
# stopped at its first step outside the region plus 5%
ESCAPE_GOLDEN = {
    ("loglog_tail", 9.73982):
        (641, "04fd16ef567b5cdea8240506c3bad1d5322984cd336cee0d5ea9e912a5f03c3d"),
    ("separable:lam=0.453312,g=exp,h=exp", 9.97904):
        (5, "5da5d7bfecb5e0b800db8a45e441423c6c8df973902146d3daf5add22115bafe"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("spec, half", sorted(ESCAPE_GOLDEN))
def test_umbilic_scan_escaping_rows_golden_bytes(tmp_path, monkeypatch, spec, half,
                                                 threads):
    monkeypatch.setenv("UMBILIC_THREADS", threads)
    out = tmp_path / "u.csv"
    region = [str(-half), str(-half), str(half), str(half)]
    assert main(["umbilic", "scan", "--field", spec, "--region", *region,
                 "--n", "101", "--out", str(out)]) == 0
    rows, digest = ESCAPE_GOLDEN[spec, half]
    assert len(out.read_text().splitlines()) == rows + 2  # comment, header
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_escaping_refinements_stop_at_the_box(monkeypatch):
    # bates_like has no umbilic, and every grid minimum's refinement walks
    # out of the region; each stops at its first step outside the region
    # plus 5% (21,206 residual points when every row ran 60 iterations)
    points, refined = [], []
    pair, refine = scan._normalized_pair, scan._newton_refine

    def counted_pair(field, x, y):
        points.append(np.size(x))
        return pair(field, x, y)

    def spied_refine(field, x0, y0, box, **kw):
        refined.append((box, *refine(field, x0, y0, box, **kw)))
        return refined[-1][1:]

    monkeypatch.setattr(scan, "_normalized_pair", counted_pair)
    monkeypatch.setattr(scan, "_newton_refine", spied_refine)
    half = 1.6658
    res = umbilic_search(make_field("bates_like"), (-half, -half, half, half), 101)
    assert sum(points) <= 1000
    (box, x, y, ok), = refined
    assert box == pytest.approx((-1.1 * half, -1.1 * half, 1.1 * half, 1.1 * half))
    assert x.size == 21 and not ok.any()
    assert not ((box[0] <= x) & (x <= box[2]) & (box[1] <= y) & (y <= box[3])).any()
    assert res.points == [] and not res.totally_umbilic


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # libm's hypot of NaN
def test_nan_start_costs_no_trial_evaluations(monkeypatch):
    # its Newton step is not finite, so the row stops after its residual and
    # the four points of its difference Jacobian, with no line search
    points = []
    pair = scan._normalized_pair

    def counted_pair(field, x, y):
        points.append(np.size(x))
        return pair(field, x, y)

    monkeypatch.setattr(scan, "_normalized_pair", counted_pair)
    x, y, ok = _newton_refine(make_field("asym_bump"), [np.nan], [np.nan],
                              (-3.3, -3.3, 3.3, 3.3))
    assert np.isnan(x).all() and np.isnan(y).all() and not ok.any()
    assert sum(points) == 5


def test_umbilic_scan_asym_bump_rows(tmp_path):
    # x, y and refined as the scalar loop wrote them; D_normalized of the
    # second row moved in its last digit when Dn came to be taken on arrays
    out = tmp_path / "u.csv"
    assert main(["umbilic", "scan", "--field", "asym_bump", "--n", "101",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == [
        "x,y,D_normalized,refined",
        "-2.133709716507291,1.4720952946367494,0.0,1",
        "0.009854143508443297,0.11786926820733856,-4.7554109571500604e-15,1",
        "0.2671849671509101,-0.08734622797991022,-2.511155422508885e-15,1",
    ]


# --- umbilic-free floor -----------------------------------------------------

def test_floor_positive_for_separable_families():
    for name in ("bates_like", "ridge", "cone_type"):
        rep = umbilic_free_floor(make_field(name, lam=0.1), (-20, -20, 20, 20), 101)
        assert rep.floor > 0.0


def test_floor_ridge_closed_form():
    # P2 = -lam / (1+x^2)^(3/2); the normalized floor sits at the far corner
    lam = 0.1
    rep = umbilic_free_floor(make_field("ridge", lam=lam), (-20, -20, 20, 20), 101)
    x = 20.0
    f1 = lam * x / math.hypot(1, x)
    expected = lam * (1 + x * x) ** -1.5 / (1 + f1 * f1) ** 1.5
    assert abs(rep.floor - expected) < 1e-12


def test_floor_zero_at_paraboloid_umbilic():
    rep = umbilic_free_floor(make_field("paraboloid"), (-20, -20, 20, 20), 401)
    assert rep.floor == 0.0
    assert rep.argmin == (0.0, 0.0)


def test_separable_P1_constant_sign():
    g = grid_field(make_field("cone_type", lam=0.1), "P1", (-10, -10, 10, 10),
                   51, 51)
    assert np.all(g.values < 0.0)
    g2 = grid_field(make_field("separable", lam=0.1), "P1", (-3, -3, 3, 3),
                    51, 51)
    assert np.all(g2.values < 0.0)


def test_witness_coheres_with_vanishing_integrals():
    # integrals of the residual tend to zero while samples stay sizable,
    # so both signs must occur on the grid
    from umbilic import curvature_difference_decay
    field = make_field("asym_bump")
    table = curvature_difference_decay(field, EX, EY, (2.0, 4.0, 6.0, 8.0))
    assert all(abs(v) < 1e-4 for v in column(table, "I_flux"))
    g = grid_field(field, "dk", (-3, -3, 3, 3), 41, 41, X=EX, Y=EY)
    assert np.max(np.abs(g.values)) > 1e-3
    assert g.values.max() > 0.0 > g.values.min()


# --- dilation covariance ----------------------------------------------------

# a dilation p -> s p maps graph(f) onto graph(s f(p / s)); for s a power of 2
# the grid nodes of the dilated region are the dilated nodes, bit for bit, and
# each curvature quantity scales by an exact power of 2: 1/s or, for K and D,
# 1/s^2
DILATION_POWERS = {"H": 1, "K": 2, "k1": 1, "k2": 1, "P1": 1, "P2": 1, "D": 2,
                   "dk": 1, "dkdtheta": 1}


@pytest.mark.parametrize("s", [0.25, 2.0, 4.0])
@pytest.mark.parametrize("field", all_fields(), ids=lambda f: f.name)
def test_dilation_scales_floor_and_maps(field, s):
    lo, hi = sample_box(field)
    region = (lo, lo, hi, hi)
    dilated = _rescaled_field(field, s)
    big = tuple(s * v for v in region)
    base, rep = umbilic_free_floor(field, region, 101), umbilic_free_floor(dilated, big, 101)
    assert rep.floor == base.floor / s
    assert rep.argmin == (s * base.argmin[0], s * base.argmin[1])
    kw = {"X": Direction(0.3), "Y": Direction(1.9), "theta0": 0.7}
    for name, power in DILATION_POWERS.items():
        g = grid_field(field, name, region, 41, 37, **kw)
        gs = grid_field(dilated, name, big, 41, 37, **kw)
        np.testing.assert_array_equal(gs.xs, s * g.xs)
        np.testing.assert_array_equal(gs.ys, s * g.ys)
        np.testing.assert_array_equal(gs.values, g.values / s ** power, err_msg=name)


# --- marching-squares cases -------------------------------------------------

def _edge_name(x, y):
    """Edge of the unit cell a vertex lies on."""
    return ("bottom" if y == 0.0 else "top" if y == 1.0
            else "left" if x == 0.0 else "right")


def _joined_edges(cs):
    return {frozenset(_edge_name(*p) for p in poly[[0, -1]])
            for poly in cs.polylines}


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_contour_saddle_resolution(sign):
    # checkerboard cell: case 5 (corners (x0, y0) and (x1, y1) at or above
    # the level) for sign +1, case 10 for sign -1
    values = sign * np.array([[1.0, -1.0], [-1.0, 1.0]])
    xs = ys = np.array([0.0, 1.0])
    # when the up corners join through the cell, the contour cuts off the
    # down corners, and the other way round
    cut_x0y0 = {frozenset(("left", "bottom")), frozenset(("right", "top"))}
    cut_x1y0 = {frozenset(("left", "top")), frozenset(("bottom", "right"))}
    up_joined, down_joined = (cut_x1y0, cut_x0y0) if sign > 0 else (cut_x0y0, cut_x1y0)

    def joined(center):
        ev = lambda x, y: np.full(np.shape(x), center)
        return _joined_edges(contours(Grid(xs, ys, values, (0, 0, 1, 1), ev)))

    assert joined(1.0) == up_joined
    # a zero center is at the level, so it counts as up
    assert joined(0.0) == up_joined
    assert joined(-1.0) == down_joined
    # a NaN center is not at or above the level
    assert joined(math.nan) == down_joined


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.data(),
       st.sampled_from([1.0, -1.0, math.nan]))
def test_contour_vertices_one_per_sign_change(n, m, data, center):
    """Every edge whose ends differ in sign (>= 0 or not) has its linear
    crossing as a vertex when the crossing lies strictly inside the edge;
    no vertex appears that is not such a crossing, and no polyline steps
    from a vertex to the same vertex (so none is one point repeated)."""
    value = st.one_of(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),
                      st.floats(-1e6, 1e6))
    values = np.array(data.draw(st.lists(value, min_size=n * m, max_size=n * m)))
    values = values.reshape(n, m)
    xs = np.linspace(-1.0, 1.0, n)
    ys = np.linspace(-2.0, 3.0, m)
    ev = lambda x, y: np.full(np.shape(x), center)
    cs = contours(Grid(xs, ys, values, (-1, -2, 1, 3), ev))
    crossings, inside = set(), set()
    for i, j in np.ndindex(n, m):
        for k, l in ((i + 1, j), (i, j + 1)):
            if k == n or l == m:
                continue
            va, vb = float(values[i, j]), float(values[k, l])
            if (va >= 0.0) == (vb >= 0.0):
                continue
            t = va / (va - vb)
            p = (float(xs[i]) + t * (float(xs[k]) - float(xs[i])),
                 float(ys[j]) + t * (float(ys[l]) - float(ys[j])))
            assert min(xs[i], xs[k]) <= p[0] <= max(xs[i], xs[k])
            assert min(ys[j], ys[l]) <= p[1] <= max(ys[j], ys[l])
            crossings.add(p)
            # one on a corner may lie only on zero-length segments, which go
            if p not in ((xs[i], ys[j]), (xs[k], ys[l])):
                inside.add(p)
    found = {(float(x), float(y)) for poly in cs.polylines for x, y in poly}
    assert inside <= found <= crossings
    for poly in cs.polylines:
        assert np.all(np.any(poly[1:] != poly[:-1], axis=1))
