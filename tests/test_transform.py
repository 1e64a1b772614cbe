import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umbilic import (DomainError, GraphConditionError, decay_profile,
                     ellipsoid_patch, exterior_eval, graph_condition,
                     invert_local_graph, invert_point, make_field,
                     parallel_patch, patch_principal,
                     perturbed_sphere_patch, plane_patch,
                     principal_preservation_check, pushforward_inversion,
                     sphere_patch, uniform_field)

unit_vecs = st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)).filter(
    lambda v: 0.1 < math.hypot(*v) < 3.0)


# --- point and tangent inversion --------------------------------------------

def test_invert_point_examples():
    assert np.allclose(invert_point([2.0, 0.0, 0.0]), [0.5, 0.0, 0.0])
    assert np.allclose(invert_point([0.0, 0.0, 1.0]), [0.0, 0.0, 1.0])
    with pytest.raises(DomainError):
        invert_point([0.0, 0.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(unit_vecs)
def test_inversion_involution(q):
    q = np.asarray(q)
    assert np.allclose(invert_point(invert_point(q)), q, atol=1e-12)


def test_pushforward_tangent_to_unit_sphere():
    out = pushforward_inversion([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-15)


def test_pushforward_matches_finite_difference():
    # independent check: differentiate the point inversion directly
    q = np.array([0.0, 0.0, 2.0])
    w = np.array([0.0, 0.0, 1.0])
    out = pushforward_inversion(q, w)
    h = 1e-7
    fd = (invert_point(q + h * w) - invert_point(q - h * w)) / (2 * h)
    assert np.allclose(out, [0.0, 0.0, -0.25], atol=1e-14)
    assert np.allclose(out, fd, atol=1e-7)


@settings(max_examples=50, deadline=None)
@given(unit_vecs, unit_vecs, unit_vecs)
def test_pushforward_conformality(q, w1, w2):
    q, w1, w2 = (np.asarray(v) for v in (q, w1, w2))
    a = pushforward_inversion(q, w1) @ pushforward_inversion(q, w2)
    b = (w1 @ w2) / (q @ q) ** 2
    assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


# --- graph condition --------------------------------------------------------

def test_graph_condition_cap_passes_at_070():
    rep = graph_condition(make_field("sphere_cap"), 0.7)
    assert rep.passes
    # radial slope of the cap is r / sqrt(1 - r^2), maximal on the rim
    assert abs(rep.sup_fr - 0.7 / math.sqrt(1.0 - 0.49)) < 1e-12


def test_graph_condition_cap_fails_at_090():
    rep = graph_condition(make_field("sphere_cap"), 0.9)
    assert not rep.passes
    assert abs(rep.sup_fr - 0.9 / math.sqrt(1.0 - 0.81)) < 1e-12


def test_graph_condition_flat_field():
    rep = graph_condition(uniform_field(0.0), 5.0)
    assert rep.passes and rep.sup_fr == 0.0


def test_graph_condition_rejects_shifted_fields():
    with pytest.raises(ValueError):
        graph_condition(make_field("gaussian_bump"), 1.0)  # f(o) = 1


# --- exterior graphs --------------------------------------------------------

def test_cap_inverts_to_half_plane():
    g = invert_local_graph(make_field("sphere_cap"), 0.7)
    fbar, fr, ft = exterior_eval(g, 5.0, 1.0)
    assert abs(fbar - 0.5) < 1e-12
    assert abs(fr) < 1e-12 and abs(ft) < 1e-12


def test_flat_graph_inverts_to_itself():
    g = invert_local_graph(uniform_field(0.0), 2.0)
    for rbar in (1.0, 3.0, 10.0):
        fbar, fr, ft = exterior_eval(g, rbar, 0.3)
        assert fbar == 0.0 and fr == 0.0 and ft == 0.0
        assert abs(g.solve_r(rbar, 0.3) - 1.0 / rbar) < 1e-14


def test_paraboloid_exterior_value_against_root_oracle():
    # r solves r + r^3 = 1/3 at rbar = 3; fbar = 1/(1+r^2)
    g = invert_local_graph(make_field("paraboloid"), 0.45)
    roots = np.roots([1.0, 0.0, 1.0, -1.0 / 3.0])
    r_true = float(next(z.real for z in roots if abs(z.imag) < 1e-12 and z.real > 0))
    assert abs(g.solve_r(3.0, 0.7) - r_true) < 1e-12
    fbar, _, _ = exterior_eval(g, 3.0, 0.7)
    assert abs(fbar - 1.0 / (1.0 + r_true ** 2)) < 1e-12


def test_exterior_bracket_invariant():
    g = invert_local_graph(make_field("paraboloid"), 0.45)
    for rbar in np.geomspace(g.rbar_min * 1.01, 1e4, 30):
        r = g.solve_r(float(rbar), 1.1)
        assert 0.5 / rbar < r < 1.0 / rbar


def test_exterior_domain_guard():
    g = invert_local_graph(make_field("paraboloid"), 0.45)
    with pytest.raises(DomainError):
        g.solve_r(g.rbar_min * 0.5, 0.0)


def test_graph_condition_failure_propagates():
    with pytest.raises(GraphConditionError):
        invert_local_graph(make_field("sphere_cap"), 0.9)


def test_involution_recovers_source():
    field = make_field("paraboloid")
    g = invert_local_graph(field, 0.45)
    for r in np.linspace(0.02, 0.2, 8):
        for theta in (0.0, 1.0, 4.0):
            f = float(field.value_polar(r, theta))
            w = r * r + f * f
            rbar, fbar = r / w, f / w
            fbar2, _, _ = exterior_eval(g, rbar, theta)
            assert abs(fbar2 - fbar) < 1e-9
            # applying the inversion to the exterior point returns to start
            wb = rbar ** 2 + fbar2 ** 2
            assert abs(rbar / wb - r) < 1e-9
            assert abs(fbar2 / wb - f) < 1e-9


def test_normalized_paraboloid_far_field():
    g = invert_local_graph(make_field("paraboloid"), 0.45, normalize=True)
    assert g.scale == 1.0  # vertex curvature is already 2
    devs, rrbars = [], []
    for rbar in (10.0, 100.0, 1000.0):
        fbar, _, _ = exterior_eval(g, rbar, 0.4)
        r = g.solve_r(rbar, 0.4)
        devs.append(abs(fbar - 1.0))
        rrbars.append(abs(r * rbar - 1.0))
    assert devs[2] < 1e-2 and devs[2] < devs[1] < devs[0]
    assert rrbars[2] < 1e-3 and rrbars[2] < rrbars[1] < rrbars[0]


def test_exterior_gradient_decay_profile():
    g = invert_local_graph(make_field("paraboloid"), 0.45, normalize=True)
    prof = decay_profile(g.as_field(), [10.0, 100.0, 1000.0], n_theta=32)
    rg = prof.sup_rgrad
    assert rg[2] < rg[1] < rg[0]
    assert rg[2] < 1e-4


def test_exterior_field_jets_consistent():
    # chain-rule gradient against finite differences of the value
    g = invert_local_graph(make_field("paraboloid"), 0.45)
    f = g.as_field()
    from umbilic import fd_jet
    for p in ((3.0, 0.5), (-2.0, 4.0)):
        j = f.jet(p)
        fd = fd_jet(lambda x, y: float(f.value(x, y)), p)
        assert abs(j.f1 - fd.f1) < 1e-6
        assert abs(j.f2 - fd.f2) < 1e-6
        assert abs(j.f11 - fd.f11) < 1e-3


# --- the array exterior graph against per-point reference code --------------

def _reference_solve_r(graph, rbar, theta):
    """The per-point bracketed bisection the array solve replaced."""
    assert rbar >= graph.rbar_min
    lo = 0.5 / rbar
    hi = min(1.0 / rbar, graph.r0)
    c, s = math.cos(theta), math.sin(theta)

    def g(r):
        f = float(graph.source.values_and_grads(r * c, r * s)[0])
        return r / (r * r + f * f) - rbar

    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    assert glo > 0.0 and ghi < 0.0, "bisection bracket violated"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        gm = g(mid)
        if gm == 0.0:
            return mid
        if gm > 0.0:
            lo = mid
        else:
            hi = mid
    raise AssertionError("reference bisection did not converge")


def _reference_grad(graph, x, y):
    """(fbar, gx, gy) at one point, by the chain rule on the reference solve."""
    # per point through the math module: numpy's hypot and arctan2 differ
    # from math.hypot and math.atan2 in the last bit on some inputs (0.6% and
    # 7.4% of random inputs with numpy 2.4 on x86-64)
    rbar = math.hypot(x, y)
    theta = math.atan2(y, x)
    r = _reference_solve_r(graph, rbar, theta)
    c, s = math.cos(theta), math.sin(theta)
    px, py = r * c, r * s
    f, f1, f2 = (float(v) for v in graph.source.values_and_grads(px, py))
    fr = (px * f1 + py * f2) / r
    ftheta = -py * f1 + px * f2
    w = r * r + f * f
    fr_ = (r * r * fr - 2.0 * r * f - f * f * fr) / (f * f - r * r - 2.0 * r * f * fr)
    ft_ = (r * r - f * f) * ftheta / (w * w)
    c, s = x / rbar, y / rbar
    return f / w, c * fr_ - s * ft_ / rbar, s * fr_ + c * ft_ / rbar


def _reference_jet(graph, x, y):
    """Chain-rule gradient and central-difference Hessian at one point."""
    f, gx, gy = _reference_grad(graph, x, y)
    h = 1e-7 * max(1.0, math.hypot(x, y))
    _, gxp, gyp = _reference_grad(graph, x + h, y)
    _, gxm, gym = _reference_grad(graph, x - h, y)
    _, gxq, gyq = _reference_grad(graph, x, y + h)
    _, gxr, gyr = _reference_grad(graph, x, y - h)
    f11 = (gxp - gxm) / (2 * h)
    f22 = (gyq - gyr) / (2 * h)
    f12 = 0.5 * ((gyp - gym) / (2 * h) + (gxq - gxr) / (2 * h))
    return f, gx, gy, f11, f12, f22


# (family, r0 inside its slope bound, normalize); normalization needs an
# umbilic critical point of positive curvature
EXTERIOR_CASES = [("sphere_cap", 0.5, False), ("sphere_cap", 0.5, True),
                  ("paraboloid", 0.4, False), ("paraboloid", 0.4, True),
                  ("saddle", 0.7, False), ("cylinder", 0.35, False)]


def _exterior_points(graph, rng, n):
    rbar = np.exp(rng.uniform(math.log(1.5), math.log(20.0), n)) / graph.r0
    theta = rng.uniform(0.0, math.tau, n)
    return rbar * np.cos(theta), rbar * np.sin(theta)


@pytest.mark.parametrize("family, r0, normalize", EXTERIOR_CASES)
def test_exterior_graph_matches_per_point_reference(rng, family, r0, normalize):
    graph = invert_local_graph(make_field(family), r0, normalize=normalize)
    x, y = _exterior_points(graph, rng, 24)
    rbar = np.array([math.hypot(a, b) for a, b in zip(x, y)])
    theta = np.array([math.atan2(b, a) for a, b in zip(x, y)])
    r = graph.solve_r(rbar, theta)
    assert r.shape == rbar.shape
    for k in range(rbar.size):
        assert r[k] == _reference_solve_r(graph, rbar[k], theta[k])
    jets = graph.as_field().jet_arrays(x.reshape(4, 6), y.reshape(4, 6))
    for k, idx in enumerate(np.ndindex(4, 6)):
        ref = _reference_jet(graph, float(x[k]), float(y[k]))
        assert tuple(float(a[idx]) for a in jets) == ref


def test_exterior_solve_closes_on_a_root_at_the_bracket_end():
    # on the saddle's axes f vanishes, so r = 1/rbar solves exactly; rounding
    # can put the residual there on either side of zero
    graph = invert_local_graph(make_field("saddle"), 0.549845)
    rbar = np.geomspace(2.0, 200.0, 300)
    for theta in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
        assert np.array_equal(graph.solve_r(rbar, theta), 1.0 / rbar)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(EXTERIOR_CASES), factor=st.floats(1.5, 20.0),
       theta=st.one_of(st.floats(0.0, math.tau),
                       st.sampled_from([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])))
def test_exterior_points_invert_onto_the_source_graph(case, factor, theta):
    family, r0, normalize = case
    graph = invert_local_graph(make_field(family), r0, normalize=normalize)
    rbar = factor / graph.r0
    x, y = rbar * math.cos(theta), rbar * math.sin(theta)
    fbar = float(graph.as_field().value(x, y))
    p = invert_point((x, y, fbar))
    f = float(graph.source.value(p[0], p[1]))
    # the bound of the benchmark's exterior check: relative to the point's size
    assert abs(p[2] - f) <= 1e-10 * (abs(p[2]) + math.hypot(p[0], p[1]))


# --- parallel patches -------------------------------------------------------

def test_parallel_sphere():
    sp = sphere_patch(radius=1.0)
    par = parallel_patch(sp, 1.0)
    assert np.allclose(par.point(1.0, 2.0), 2.0 * sp.point(1.0, 2.0))
    pp = patch_principal(par, 1.0, 2.0)
    assert abs(pp.k1 - 0.5) < 1e-7 and abs(pp.k2 - 0.5) < 1e-7


def test_parallel_plane():
    pl = plane_patch()
    par = parallel_patch(pl, 3.0)
    assert np.allclose(par.point(0.2, 0.4) - pl.point(0.2, 0.4),
                       3.0 * pl.normal(0.2, 0.4))
    pp = patch_principal(par, 0.2, 0.4)
    assert abs(pp.k1) < 1e-9 and abs(pp.k2) < 1e-9


def test_parallel_curvature_map():
    # k maps to k / (1 + r k): unit sphere k = 1, r = 1 gives 1/2
    k, r = 1.0, 1.0
    assert abs(k / (1.0 + r * k) - 0.5) < 1e-15
    pp = patch_principal(parallel_patch(sphere_patch(), r), 0.8, 1.1)
    assert abs(pp.k1 - 0.5) < 1e-7


# --- preservation of principal directions -----------------------------------

def test_preservation_identity_transform():
    rep = principal_preservation_check(ellipsoid_patch(1.0, 1.3, 1.6),
                                       ("parallel", 0.0), samples=100, seed=3)
    assert rep.usable == 100
    assert rep.max_angle_error < 1e-12


def test_preservation_sphere_all_umbilic():
    rep = principal_preservation_check(sphere_patch(center=(0.0, 0.0, 2.0)),
                                       "inversion", samples=20, seed=1)
    assert rep.usable == 0
    assert rep.skipped_umbilic > 0


def test_preservation_under_inversion():
    patch = perturbed_sphere_patch(0.1, center=(0.0, 0.0, 2.0))
    rep = principal_preservation_check(patch, "inversion", samples=200, seed=11)
    assert rep.usable == 200
    assert rep.max_angle_error < 1e-6


def test_preservation_under_parallel():
    patch = perturbed_sphere_patch(0.1)
    rep = principal_preservation_check(patch, ("parallel", 1.0), samples=200, seed=11)
    assert rep.usable == 200
    assert rep.max_angle_error < 1e-6
