import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import sample_box
from oracles import fd_jet, uniform_field
from umbilic import (DomainError, GraphConditionError, decay_profile,
                     ellipsoid_patch, exterior_eval, graph_condition,
                     invert_local_graph, invert_point, make_field,
                     parallel_patch, patch_principal,
                     perturbed_sphere_patch, plane_patch,
                     principal_preservation_check, pushforward_inversion,
                     sphere_patch)
from umbilic import RegularityError, invert_patch, list_families, transform
from umbilic.curvature import principal_arrays
from umbilic.transform import _rescaled_field

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


def test_exterior_field_domain_is_the_solve_domain():
    # numpy's hypot puts this point 1 ulp below rbar_min, libm's hypot, at
    # which the jet is solved, on it: the field evaluates there
    graph = invert_local_graph(make_field("paraboloid"), 0.3)
    p = (2.1721220766538454, 2.152646187671579)
    rbar, theta = math.hypot(*p), math.atan2(p[1], p[0])
    assert np.hypot(*p) < graph.rbar_min == rbar
    assert graph.solve_r(rbar, theta) == 0.3
    assert graph.as_field().jet(p).f == float(graph._graph_jet(rbar, theta)[0])
    with pytest.raises(DomainError, match="below exterior domain"):
        graph.as_field().jet((1.0, 2.0))


def test_exterior_field_jets_consistent():
    # chain-rule gradient against central differences of the value, and the
    # chain-rule Hessian against central differences of that gradient; the
    # saddle and the cylinder have f_theta != 0 away from their axes
    for family, r0 in (("paraboloid", 0.45), ("saddle", 0.7), ("cylinder", 0.35)):
        f = invert_local_graph(make_field(family), r0).as_field()
        for p in ((3.0, 0.5), (-2.0, 4.0)):
            j = f.jet(p)
            h = 1e-4 * math.hypot(*p)
            fd = fd_jet(lambda x, y: float(f.value(x, y)), p, grad_step=h)
            grad = math.hypot(j.f1, j.f2)
            assert max(abs(j.f1 - fd.f1), abs(j.f2 - fd.f2)) <= 1e-7 * grad
            jx = [f.jet((p[0] + e, p[1])) for e in (h, -h)]
            jy = [f.jet((p[0], p[1] + e)) for e in (h, -h)]
            hess = ((jx[0].f1 - jx[1].f1) / (2 * h), (jy[0].f1 - jy[1].f1) / (2 * h),
                    (jy[0].f2 - jy[1].f2) / (2 * h))
            scale = max(abs(j.f11), abs(j.f12), abs(j.f22))
            for a, b in zip((j.f11, j.f12, j.f22), hess):
                assert abs(a - b) <= 1e-6 * scale


def test_exterior_hessian_matches_paraboloid_closed_form(rng):
    # f = r^2 inverts to the radial fbar = F(rbar) with, along the source
    # radius r, F' = 2 r^3 / (1 + 3 r^2) and F'' = -6 r^4 (1 + r^2)^3 / (1 + 3 r^2)^3;
    # a radial Hessian is F'' along the ray and F' / rbar across it
    graph = invert_local_graph(make_field("paraboloid"), 0.4)
    x, y = _exterior_points(graph, rng, 40)
    rbar, theta = np.hypot(x, y), np.arctan2(y, x)
    r = graph.solve_r(rbar, theta)
    d1 = 2.0 * r ** 3 / (1.0 + 3.0 * r * r)
    d2 = -6.0 * r ** 4 * (1.0 + r * r) ** 3 / (1.0 + 3.0 * r * r) ** 3
    c, s = x / rbar, y / rbar
    t = d1 / rbar
    want = (d1 * c, d1 * s, d2 * c * c + t * s * s, (d2 - t) * c * s, d2 * s * s + t * c * c)
    got = graph.as_field().jet_arrays(x, y)[1:]
    for a, b in zip(got[:2], want[:2]):
        assert np.all(np.abs(a - b) <= 1e-12 * d1)
    for a, b in zip(got[2:], want[2:]):
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(d2), t))


# --- the array exterior graph against per-point reference code --------------

def _reference_solve_r(graph, rbar, theta):
    """A per-point bisection to float resolution, the oracle of the array solve."""
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


def _reference_value(graph, x, y):
    """fbar at one point, on the reference solve."""
    # per point through the math module: numpy's hypot and arctan2 differ
    # from math.hypot and math.atan2 in the last bit on some inputs (0.6% and
    # 7.4% of random inputs with numpy 2.4 on x86-64)
    rbar = math.hypot(x, y)
    theta = math.atan2(y, x)
    r = _reference_solve_r(graph, rbar, theta)
    f = float(graph.source.value(r * math.cos(theta), r * math.sin(theta)))
    return f / (r * r + f * f)


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
    fbar = graph.as_field().value(x.reshape(4, 6), y.reshape(4, 6))
    for k, idx in enumerate(np.ndindex(4, 6)):
        # each row solves as it would alone, and within 4 ulp of the
        # reference bisection to float resolution
        assert r[k] == graph.solve_r(rbar[k], theta[k])
        ref = _reference_solve_r(graph, rbar[k], theta[k])
        assert abs(r[k] - ref) <= 4.0 * np.spacing(ref)
        ref = _reference_value(graph, float(x[k]), float(y[k]))
        assert abs(fbar[idx] - ref) <= 4.0 * np.spacing(abs(ref))


def test_exterior_solve_closes_on_a_root_at_the_bracket_end():
    # on the saddle's axes f vanishes, so r = 1/rbar solves exactly; rounding
    # can put the residual there on either side of zero
    graph = invert_local_graph(make_field("saddle"), 0.549845)
    rbar = np.geomspace(2.0, 200.0, 300)
    for theta in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
        assert np.array_equal(graph.solve_r(rbar, theta), 1.0 / rbar)


@pytest.mark.parametrize("family, r0, normalize", EXTERIOR_CASES)
def test_exterior_solve_evaluates_no_input_twice(rng, family, r0, normalize):
    # the bracket ends' residuals go to the root solver with the brackets,
    # so no field call inside one solve repeats an earlier call's input
    graph = invert_local_graph(make_field(family), r0, normalize=normalize)
    calls = []

    def grads(x, y):
        calls.append((x.copy(), y.copy()))
        return graph.source.jets(x, y)[:3]

    source = dataclasses.replace(graph.source, grads=grads)
    x, y = _exterior_points(graph, rng, 24)
    rbar, theta = np.hypot(x, y), np.arctan2(y, x)
    r = dataclasses.replace(graph, source=source).solve_r(rbar, theta)
    assert np.array_equal(r, graph.solve_r(rbar, theta))
    assert len(calls) >= 3
    for k, (xk, yk) in enumerate(calls):
        for xj, yj in calls[:k]:
            assert not (np.array_equal(xk, xj) and np.array_equal(yk, yj)), k


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


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(EXTERIOR_CASES), factor=st.floats(1.5, 20.0),
       theta=st.floats(0.0, math.tau))
def test_exterior_umbilic_discriminant_is_conformal(case, factor, theta):
    # inversion is a Moebius map: principal curvatures go to -w k - 2 <P, N>
    # with w = |P|^2, so 4 (H^2 - K) = (k2 - k1)^2 scales by w^2 between
    # corresponding points; the tolerance scales with the source curvature,
    # since the cap's exterior is a plane
    family, r0, normalize = case
    graph = invert_local_graph(make_field(family), r0, normalize=normalize)
    rbar = factor / graph.r0
    x, y = rbar * math.cos(theta), rbar * math.sin(theta)
    jb = graph.as_field().jet((x, y))
    p = invert_point((x, y, jb.f))
    j = graph.source.jet((p[0], p[1]))
    w = float(p @ p)
    H, K = principal_arrays(j.f1, j.f2, j.f11, j.f12, j.f22)[:2]
    Hb, Kb = principal_arrays(jb.f1, jb.f2, jb.f11, jb.f12, jb.f22)[:2]
    scaled = w * w * 4.0 * (H * H - K)
    assert abs(4.0 * (Hb * Hb - Kb) - scaled) <= 1e-12 * w * w * (H * H + abs(K))


# --- parallel patches -------------------------------------------------------

def test_parallel_sphere():
    sp = sphere_patch(radius=1.0)
    par = parallel_patch(sp, 1.0)
    assert np.allclose(par.jet(1.0, 2.0)[0], 2.0 * sp.jet(1.0, 2.0)[0])
    pp = patch_principal(par, 1.0, 2.0)
    assert abs(pp.k1 - 0.5) < 1e-7 and abs(pp.k2 - 0.5) < 1e-7


def test_parallel_plane():
    pl = plane_patch()
    par = parallel_patch(pl, 3.0)
    assert np.allclose(par.jet(0.2, 0.4)[0] - pl.jet(0.2, 0.4)[0], (0.0, 0.0, 3.0))
    pp = patch_principal(par, 0.2, 0.4)
    assert abs(pp.k1) < 1e-9 and abs(pp.k2) < 1e-9


def test_parallel_curvature_map():
    # k maps to k / (1 + r k): unit sphere k = 1, r = 1 gives 1/2
    k, r = 1.0, 1.0
    assert abs(k / (1.0 + r * k) - 0.5) < 1e-15
    pp = patch_principal(parallel_patch(sphere_patch(), r), 0.8, 1.1)
    assert abs(pp.k1 - 0.5) < 1e-7


@pytest.mark.parametrize("r, message", [(-1.0, "nonnegative"), (math.nan, "nonnegative"),
                                        (math.inf, "finite")])
def test_parallel_patch_needs_a_finite_nonnegative_offset(r, message):
    with pytest.raises(ValueError, match=f"^offset distance must be {message}$"):
        parallel_patch(sphere_patch(), r)


def test_parallel_focal_test_is_relative():
    # the unit sphere with inward normals has k = -1: r = 1 is its focal
    # distance, and r = 1 - 1e-9 leaves 1 + r k = 1e-9, far above rounding
    P = ellipsoid_patch(-1.0, 1.0, 1.0)
    with pytest.raises(RegularityError, match="focal distance"):
        parallel_patch(P, 1.0)
    for r, tol in ((1.0 - 1e-7, 1e-7), (1.0 - 1e-9, 1e-5)):
        par = parallel_patch(P, r)
        for u, v in ((0.8, 1.1), (1.5, 3.0), (2.5, 5.0)):
            pp = patch_principal(par, u, v)
            # k maps to k / (1 + r k) = -1 / (1 - r)
            assert abs(pp.k1 * (1.0 - r) + 1.0) < tol
            assert abs(pp.k2 * (1.0 - r) + 1.0) < tol


# --- preservation of principal directions -----------------------------------

def test_preservation_identity_transform():
    P = ellipsoid_patch(1.0, 1.3, 1.6)
    rep = principal_preservation_check(P, parallel_patch(P, 0.0), samples=100, seed=3)
    assert rep.usable == 100
    assert rep.max_angle_error < 1e-12


def test_preservation_sphere_all_umbilic():
    P = sphere_patch(center=(0.0, 0.0, 2.0))
    rep = principal_preservation_check(P, invert_patch(P), samples=20, seed=1)
    # every draw is skipped, up to the cap of 50 x samples
    assert rep.usable == 0
    assert rep.skipped_umbilic == 50 * 20
    assert rep.max_angle_error == 0.0


def test_preservation_under_inversion():
    patch = perturbed_sphere_patch(0.1, center=(0.0, 0.0, 2.0))
    rep = principal_preservation_check(patch, invert_patch(patch), samples=200, seed=11)
    assert rep.usable == 200
    assert rep.max_angle_error < 1e-6


def test_preservation_under_parallel():
    patch = perturbed_sphere_patch(0.1)
    rep = principal_preservation_check(patch, parallel_patch(patch, 1.0), samples=200,
                                       seed=11)
    assert rep.usable == 200
    assert rep.max_angle_error < 1e-6


def test_preservation_evaluates_each_jet_once_per_round(monkeypatch):
    # patch_principal hands the check the tangents X_u, X_v it used, so a
    # round of samples makes one jet call on P and one on Q
    calls = {"P": 0, "Q": 0, "rounds": 0}

    def counted(name, patch):
        def jet(u, v):
            calls[name] += 1
            return patch.jet(u, v)
        return dataclasses.replace(patch, jet=jet)

    base = perturbed_sphere_patch(0.1)
    P, Q = counted("P", base), counted("Q", parallel_patch(base, 1.0))
    principal = transform.patch_principal

    def counted_principal(patch, u, v):
        calls["rounds"] += patch is P
        return principal(patch, u, v)

    monkeypatch.setattr(transform, "patch_principal", counted_principal)
    rep = principal_preservation_check(P, Q, samples=200, seed=5)
    assert rep.usable == 200 and calls["rounds"] >= 1
    assert calls["P"] == calls["Q"] == calls["rounds"]


# --- patch jets -------------------------------------------------------------

PATCHES = {
    "sphere": lambda: sphere_patch(center=(0.5, -0.2, 1.0), radius=1.7),
    "ellipsoid": lambda: ellipsoid_patch(1.0, 1.3, 1.6),
    "perturbed-sphere": lambda: perturbed_sphere_patch(0.1),
    "plane": plane_patch,
    "inverted": lambda: invert_patch(perturbed_sphere_patch(0.1, center=(0.0, 0.0, 2.0))),
    "parallel": lambda: parallel_patch(ellipsoid_patch(1.0, 1.3, 1.6), 0.5),
}


def _interior_uv(P, rng):
    (u0, u1), (v0, v1) = P.u_range, P.v_range
    return (rng.uniform(u0 + 0.05 * (u1 - u0), u1 - 0.05 * (u1 - u0)),
            rng.uniform(v0 + 0.05 * (v1 - v0), v1 - 0.05 * (v1 - v0)))


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_patch_jet_matches_central_differences(name):
    # X_u, X_v against differences of the point, second derivatives against
    # differences of the first (X_uv both ways)
    P = PATCHES[name]()
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(20):
        u, v = _interior_uv(P, rng)
        jet = P.jet(u, v)

        def diff(k, du, dv):
            return (P.jet(u + du, v + dv)[k] - P.jet(u - du, v - dv)[k]) / (2.0 * h)

        tol = 1e-7 * max(1.0, max(np.linalg.norm(d) for d in jet))
        pairs = [(jet[1], diff(0, h, 0)), (jet[2], diff(0, 0, h)),
                 (jet[3], diff(1, h, 0)), (jet[4], diff(1, 0, h)),
                 (jet[4], diff(2, h, 0)), (jet[5], diff(2, 0, h))]
        for exact, fd in pairs:
            assert np.max(np.abs(exact - fd)) <= tol


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_patch_arrays_match_pointwise_calls(name):
    # jets and principal data broadcast over (u, v) arrays, each point as a
    # call at that point alone gives it
    P = PATCHES[name]()
    rng = np.random.default_rng(5)
    u, v = np.array([_interior_uv(P, rng) for _ in range(12)]).reshape(3, 4, 2).T
    jets, pp = P.jet(u, v), patch_principal(P, u, v)
    assert all(j.shape == (4, 3, 3) for j in jets)
    assert pp.k1.shape == pp.umbilic.shape == (4, 3) and pp.d2.shape == (4, 3, 3)
    for i, j in np.ndindex(4, 3):
        one = patch_principal(P, u[i, j], v[i, j])
        for a, b in zip(jets + (pp.k1, pp.k2, pp.d1, pp.d2),
                        P.jet(u[i, j], v[i, j]) + (one.k1, one.k2, one.d1, one.d2)):
            assert np.allclose(a[i, j], b, rtol=1e-14, atol=1e-14)
        assert pp.umbilic[i, j] == one.umbilic


def test_inversion_preserves_principal_directions_to_rounding():
    patch = perturbed_sphere_patch(0.1, center=(0.0, 0.0, 2.0))
    rep = principal_preservation_check(patch, invert_patch(patch), samples=200, seed=5)
    assert rep.usable == 200
    assert rep.max_angle_error < 1e-11


@pytest.mark.parametrize("P", [perturbed_sphere_patch(0.1), ellipsoid_patch(1.0, 2.0, 3.0)],
                         ids=["perturbed-sphere", "ellipsoid"])
def test_parallel_offset_preserves_principal_directions_to_rounding(P):
    rep = principal_preservation_check(P, parallel_patch(P, 1.0), seed=5)
    assert rep.usable == 200
    assert rep.max_angle_error < 1e-11


@pytest.mark.parametrize("P", [sphere_patch(), sphere_patch(radius=3.0),
                               invert_patch(sphere_patch(center=(0.0, 0.0, 2.0)))],
                         ids=["unit-sphere", "sphere-R3", "inverted-sphere"])
def test_every_sphere_point_is_umbilic(P):
    rng = np.random.default_rng(3)
    for _ in range(500):
        assert patch_principal(P, *_interior_uv(P, rng)).umbilic


def test_sphere_normal_at_pole_is_irregular():
    # the error names the first irregular point of the array
    with pytest.raises(RegularityError, match=r"\(u, v\) = \(0.0, 1.0\)"):
        patch_principal(sphere_patch(), np.array([1.0, 0.0, math.pi]), 1.0)


@pytest.mark.parametrize("radius", np.logspace(-9.0, 3.0, 13))
def test_spheres_of_every_size_are_regular_and_umbilic(radius):
    # regularity is judged against |X_u| |X_v|, so a small sphere is regular
    P = sphere_patch(radius=radius)
    rng = np.random.default_rng(4)
    u, v = np.array([_interior_uv(P, rng) for _ in range(50)]).T
    pp = patch_principal(P, u, v)
    assert np.all(pp.umbilic)
    for k in (pp.k1, pp.k2):
        assert np.max(np.abs(k * radius - 1.0)) <= 1e-12


# --- dilation of a field ----------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.sampled_from([spec.name for spec in list_families()]),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.1, 10.0))
def test_rescaled_field_scales_curvature(name, a, b, s):
    # graph(f_s) is graph(f) dilated by s: k1, k2, H scale by 1/s, K by 1/s^2
    field = make_field(name)
    lo, hi = sample_box(field)
    x, y = lo + a * (hi - lo), lo + b * (hi - lo)
    H, K, k1, k2 = principal_arrays(*field.jet((x, y))[1:])
    Hs, Ks, k1s, k2s = principal_arrays(*_rescaled_field(field, s).jet((s * x, s * y))[1:])
    kappa = max(1.0, abs(k1), abs(k2))
    tol_h, tol_k = 1e-12 * kappa, 1e-12 * kappa * kappa
    # k = H -/+ sqrt(H^2 - K): an error e in H^2 - K moves the root by at
    # most min(sqrt(e), e / sqrt(H^2 - K))
    e = 2.0 * abs(H) * tol_h + tol_k
    gap = 0.5 * (k2 - k1)
    tol_ki = tol_h + (min(math.sqrt(e), e / gap) if gap > 0.0 else math.sqrt(e))
    assert abs(s * Hs - H) <= tol_h
    assert abs(s * s * Ks - K) <= tol_k
    assert abs(s * k1s - k1) <= tol_ki and abs(s * k2s - k2) <= tol_ki
