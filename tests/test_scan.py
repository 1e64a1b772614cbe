import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umbilic import (Direction, contours, grid_field, make_field, sign_witness,
                     umbilic_free_floor, umbilic_search)
from umbilic.scan import Grid

EX = Direction(0.0)
EY = Direction(math.pi / 2)


def linear_grid(n=21, lo=-1.0, hi=1.0, fn=lambda x, y: x):
    xs = np.linspace(lo, hi, n)
    ys = np.linspace(lo, hi, n)
    XX, YY = np.meshgrid(xs, ys, indexing="ij")
    return Grid(xs, ys, fn(XX, YY), "custom", (lo, lo, hi, hi), {}, fn)


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


# --- contours ---------------------------------------------------------------

def test_contour_vertical_line():
    cs = contours(linear_grid())
    assert len(cs) == 1
    poly = cs.polylines[0]
    assert np.allclose(poly[:, 0], 0.0, atol=1e-14)
    assert poly[:, 1].min() == -1.0 and poly[:, 1].max() == 1.0


def test_contour_empty_for_positive_grid():
    cs = contours(linear_grid(fn=lambda x, y: np.ones_like(x)))
    assert len(cs) == 0


def test_contour_circle_hausdorff():
    def fn(x, y):
        return x * x + y * y - 0.25

    g = linear_grid(81, fn=fn)
    cs = contours(g)
    assert len(cs) == 1 and cs.closed[0]
    pts = cs.polylines[0]
    cell = g.cell_diagonal()
    # every vertex close to the circle r = 1/2
    assert np.max(np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 0.5)) < cell
    # every circle point close to the polyline
    angles = np.linspace(0, 2 * math.pi, 200)
    circle = 0.5 * np.column_stack([np.cos(angles), np.sin(angles)])
    d = np.min(np.linalg.norm(circle[:, None, :] - pts[None, :, :], axis=2), axis=1)
    assert np.max(d) < cell


def test_contour_vertices_near_zero_level(rng):
    field = make_field("asym_bump")
    g = grid_field(field, "dk", (-2, -2, 2, 2), 41, 41, X=EX, Y=EY)
    cs = contours(g)
    assert len(cs) >= 1
    cell = g.cell_diagonal()
    # Lipschitz bound from the sampled gradient of the residual
    lip = np.max(np.abs(np.gradient(g.values, g.xs, axis=0))) \
        + np.max(np.abs(np.gradient(g.values, g.ys, axis=1)))
    for poly in cs.polylines:
        res = np.abs(g.evaluator(poly[:, 0], poly[:, 1]))
        assert np.max(res) < lip * cell


# --- sign witness -----------------------------------------------------------

def test_sign_witness_linear():
    w = sign_witness(linear_grid())
    assert w is not None
    assert w.positive[1] > 0 and w.negative[1] < 0
    assert w.positive[0][0] > 0 and w.negative[0][0] < 0


def test_sign_witness_none_for_constant():
    assert sign_witness(linear_grid(fn=lambda x, y: np.ones_like(x))) is None


def test_sign_witness_curvature_difference():
    g = grid_field(make_field("asym_bump"), "dk", (-3, -3, 3, 3), 41, 41,
                   X=EX, Y=EY)
    w = sign_witness(g)
    assert w is not None
    assert w.positive[1] > 1e-4 and w.negative[1] < -1e-4


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
    res = umbilic_search(make_field("sphere_cap"), (-0.5, -0.5, 0.5, 0.5), 41)
    assert res.totally_umbilic
    assert res.below_tol_fraction > 0.5


def test_refined_points_satisfy_residual_bound():
    res = umbilic_search(make_field("paraboloid"), (-2, -2, 2, 2), 31)
    for p in res.points:
        from umbilic.scan import _normalized_residuals
        p1, p2, _ = _normalized_residuals(make_field("paraboloid"), p.x, p.y)
        assert max(abs(float(p1)), abs(float(p2))) < 1e-8


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
    assert all(abs(v) < 1e-4 for v in table.column("I_flux"))
    g = grid_field(field, "dk", (-3, -3, 3, 3), 41, 41, X=EX, Y=EY)
    assert np.max(np.abs(g.values)) > 1e-3
    assert sign_witness(g) is not None


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

    def joined(vals, center=None, evaluate=True):
        ev = (lambda x, y: np.full(np.shape(x), center)) if evaluate else None
        return _joined_edges(contours(Grid(xs, ys, vals, "custom", (0, 0, 1, 1), {}, ev)))

    assert joined(values, 1.0) == up_joined
    assert joined(values, -1.0) == down_joined
    # a NaN center is not at or above the level
    assert joined(values, math.nan) == down_joined
    # without an evaluator the corner mean decides; a zero mean counts as up
    assert joined(values, evaluate=False) == up_joined
    assert joined(values + 0.5, evaluate=False) == up_joined
    assert joined(values - 0.5, evaluate=False) == down_joined


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.data(),
       st.sampled_from([None, 1.0, -1.0]))
def test_contour_vertices_one_per_sign_change(n, m, data, center):
    """Every edge whose ends differ in sign (>= 0 or not) carries one
    vertex, at its linear crossing, and no other vertex appears."""
    value = st.one_of(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),
                      st.floats(-1e6, 1e6))
    values = np.array(data.draw(st.lists(value, min_size=n * m, max_size=n * m)))
    values = values.reshape(n, m)
    xs = np.linspace(-1.0, 1.0, n)
    ys = np.linspace(-2.0, 3.0, m)
    ev = None if center is None else (lambda x, y: np.full(np.shape(x), center))
    cs = contours(Grid(xs, ys, values, "custom", (-1, -2, 1, 3), {}, ev))
    expected = set()
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
            expected.add(p)
    found = {(float(x), float(y)) for poly in cs.polylines for x, y in poly}
    assert found == expected
