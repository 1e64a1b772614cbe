import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_fields, sample_box, sample_points
from oracles import graph_mean_divergence, normal_curvature_theta, rotate_frame
from umbilic import (Direction, Patch3, curvature_difference_field, dk_dtheta,
                     list_families, make_field, normal_curvature, patch_principal,
                     principal_deviation_field, shape_operator,
                     umbilic_residuals)
from umbilic import curvature
from umbilic.curvature import principal_arrays, residual_arrays
from umbilic.field import directional_arrays, rotate_jet_arrays


def rel_close(a, b, tol, floor=1.0):
    return abs(a - b) <= tol * max(floor, abs(a), abs(b))


# --- normal curvature -------------------------------------------------------

def test_paraboloid_vertex_curvature():
    f = make_field("paraboloid")
    for theta in (0.0, 0.4, 1.9):
        assert abs(normal_curvature(f, (0.0, 0.0), Direction(theta)) - 2.0) < 1e-13


def test_saddle_diagonal_curvature():
    f = make_field("saddle")
    assert abs(normal_curvature(f, (0.0, 0.0), Direction(math.pi / 4)) - 1.0) < 1e-14


def test_cylinder_ruling_curvature_vanishes():
    f = make_field("cylinder")
    for p in ((0.0, 0.0), (1.2, -3.0), (-0.7, 10.0)):
        assert abs(normal_curvature(f, p, Direction(math.pi / 2))) < 1e-16


def test_theta_form_saddle_values():
    f = make_field("saddle")
    for theta, expected in ((0.0, 0.0), (math.pi / 4, 1.0), (math.pi / 2, 0.0)):
        assert abs(normal_curvature_theta(f, (0.0, 0.0), theta) - expected) < 1e-14


def test_theta_form_isotropic():
    assert abs(normal_curvature_theta(make_field("paraboloid"), (0.0, 0.0), 1.23) - 2.0) < 1e-13


def test_theta_form_matches_direction_form(rng):
    for field in all_fields():
        for x, y in sample_points(field, 50, rng):
            theta = rng.uniform(0.0, 2 * math.pi)
            a = normal_curvature(field, (x, y), Direction(theta))
            b = normal_curvature_theta(field, (x, y), theta)
            assert abs(a - b) < 1e-13


def test_theta_form_pi_periodic(rng):
    field = make_field("asym_bump")
    for x, y in sample_points(field, 50, rng):
        theta = rng.uniform(0.0, 2 * math.pi)
        a = normal_curvature_theta(field, (x, y), theta)
        b = normal_curvature_theta(field, (x, y), theta + math.pi)
        assert abs(a - b) < 1e-13


# --- angular derivative -----------------------------------------------------

def test_dk_dtheta_saddle_origin():
    assert abs(dk_dtheta(make_field("saddle"), (0.0, 0.0), 0.0) - 2.0) < 1e-14


def test_dk_dtheta_radial_axes_principal():
    assert abs(dk_dtheta(make_field("paraboloid"), (1.0, 0.0), 0.0)) < 1e-14


def test_dk_dtheta_matches_finite_difference(rng):
    h = 1e-4
    for field in all_fields():
        for x, y in sample_points(field, 25, rng):
            theta0 = rng.uniform(0.0, 2 * math.pi)
            exact = dk_dtheta(field, (x, y), theta0)
            fd = (normal_curvature_theta(field, (x, y), theta0 + h)
                  - normal_curvature_theta(field, (x, y), theta0 - h)) / (2 * h)
            assert abs(exact - fd) < 1e-6


def test_dk_dtheta_vanishes_at_principal_angles(rng):
    field = make_field("asym_bump")
    count = 0
    for x, y in sample_points(field, 80, rng):
        pd = shape_operator(field, (x, y))
        if pd.umbilic or (pd.k2 - pd.k1) < 1e-6:
            continue
        for e in (pd.e1, pd.e2):
            theta = math.atan2(e[1], e[0])
            assert abs(dk_dtheta(field, (x, y), theta)) < 1e-8
        count += 1
    assert count > 50


def test_rotated_P1_zero_iff_principal(rng):
    field = make_field("asym_bump")
    for x, y in sample_points(field, 40, rng):
        pd = shape_operator(field, (x, y))
        if pd.umbilic or (pd.k2 - pd.k1) < 1e-6:
            continue
        theta = math.atan2(pd.e1[1], pd.e1[0])
        j = rotate_frame(field.jet((x, y)), theta)
        P1_rot = (1 + j.f1 ** 2) * j.f12 - j.f1 * j.f2 * j.f11
        assert abs(P1_rot) < 1e-10
        # a generic non-principal angle must not satisfy the condition
        j2 = rotate_frame(field.jet((x, y)), theta + 0.4)
        P1_off = (1 + j2.f1 ** 2) * j2.f12 - j2.f1 * j2.f2 * j2.f11
        assert abs(P1_off) > 1e-10


# --- shape operator ---------------------------------------------------------

def test_shape_operator_paraboloid_vertex():
    pd = shape_operator(make_field("paraboloid"), (0.0, 0.0))
    assert pd.umbilic
    assert abs(pd.k1 - 2.0) < 1e-13 and abs(pd.k2 - 2.0) < 1e-13
    assert abs(pd.H - 2.0) < 1e-13 and abs(pd.K - 4.0) < 1e-13


def test_shape_operator_saddle():
    pd = shape_operator(make_field("saddle"), (0.0, 0.0))
    assert not pd.umbilic
    assert abs(pd.k1 + 1.0) < 1e-13 and abs(pd.k2 - 1.0) < 1e-13
    assert abs(pd.H) < 1e-13 and abs(pd.K + 1.0) < 1e-13
    diag = np.array([1.0, 1.0]) / math.sqrt(2)
    assert min(np.linalg.norm(pd.e1 - diag * s) for s in (1, -1)) < 1e-12 or \
           min(np.linalg.norm(pd.e2 - diag * s) for s in (1, -1)) < 1e-12


def test_sphere_cap_totally_umbilic():
    pd = shape_operator(make_field("sphere_cap"), (0.3, 0.1))
    assert pd.umbilic
    assert abs(pd.k1 - 1.0) < 1e-10 and abs(pd.k2 - 1.0) < 1e-10


def test_shape_operator_invariants(rng):
    for field in all_fields():
        for x, y in sample_points(field, 40, rng):
            pd = shape_operator(field, (x, y))
            assert abs(pd.H - 0.5 * (pd.k1 + pd.k2)) < 1e-12 * max(1, abs(pd.H))
            assert rel_close(pd.K, pd.k1 * pd.k2, 1e-12)
            if not pd.umbilic and (pd.k2 - pd.k1) > 1e-6:
                j = field.jet((x, y))
                g = np.eye(2) + np.outer((j.f1, j.f2), (j.f1, j.f2))
                assert abs(pd.e1 @ g @ pd.e2) < 1e-10


def _principal_tolerances(H, k1, k2, rel):
    """Tolerances on (H, K, k_i) of a relative error ``rel`` in H and K.

    k_i = H -/+ s with s = sqrt(H^2 - K); an error e in H^2 - K moves s by
    at most min(sqrt(e), e / s), which near an umbilic is far above e.
    """
    kappa = max(1.0, abs(k1), abs(k2))
    tol_h, tol_k = rel * kappa, rel * kappa * kappa
    e = 2.0 * abs(H) * tol_h + tol_k
    s = 0.5 * (k2 - k1)
    tol_ki = tol_h + (min(math.sqrt(e), e / s) if s > 0.0 else math.sqrt(e))
    return tol_h, tol_k, tol_ki


def _graph_patch(field):
    """graph(f) as the parametric patch (u, v) -> (u, v, f(u, v))."""

    def jet(u, v):
        f, f1, f2, f11, f12, f22 = field.jet_arrays(u, v)
        z, one = np.zeros_like(f), np.ones_like(f)
        return tuple(np.stack(c, axis=-1) for c in (
            (u, v, f), (one, z, f1), (z, one, f2), (z, z, f11), (z, z, f12), (z, z, f22)))

    return Patch3(jet, label=f"graph({field.name})")


@pytest.mark.parametrize("name", [spec.name for spec in list_families()])
def test_graph_curvature_matches_the_parametric_formula(name):
    # the patch normal X_u x X_v = (-f1, -f2, 1) points up, so the patch
    # curvatures are -k2 <= -k1 of the graph convention, and the patch's
    # d1 projects onto the plane along the graph's e2
    field = make_field(name)
    lo, hi = sample_box(field)
    x, y = np.random.default_rng(11).uniform(lo, hi, size=(2, 100))
    pp = patch_principal(_graph_patch(field), x, y)
    H, _, k1, k2 = principal_arrays(*field.jet_arrays(x, y)[1:])
    for i in range(len(x)):
        tol_ki = _principal_tolerances(H[i], k1[i], k2[i], 1e-12)[2]
        assert abs(pp.k1[i] + k2[i]) <= tol_ki and abs(pp.k2[i] + k1[i]) <= tol_ki
        so = shape_operator(field, (x[i], y[i]))
        if so.umbilic:
            continue
        # a direction is conditioned by the relative gap of the curvatures
        gap = (so.k2 - so.k1) / max(1.0, abs(so.k1), abs(so.k2))
        for d, e in ((pp.d1[i], so.e2), (pp.d2[i], so.e1)):
            angle = math.atan2(abs(d[0] * e[1] - d[1] * e[0]), abs(d[0] * e[0] + d[1] * e[1]))
            assert angle * gap <= 1e-12


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([spec.name for spec in list_families()]),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi))
def test_invariants_do_not_change_when_the_frame_rotates(name, u, v, theta):
    field = make_field(name)
    lo, hi = sample_box(field)
    p = (lo + u * (hi - lo), lo + v * (hi - lo))
    jet = field.jet(p)[1:]
    rotated = rotate_jet_arrays(*jet, theta)

    def dn(f1, f2, f11, f12, f22):
        return residual_arrays(f1, f2, f11, f12, f22)[2] / (1.0 + f1 * f1 + f2 * f2) ** 3

    H, K, k1, k2 = principal_arrays(*jet)
    tol_h, tol_k, tol_ki = _principal_tolerances(H, k1, k2, 1e-12)
    Hr, Kr, k1r, k2r = principal_arrays(*rotated)
    assert abs(Hr - H) <= tol_h
    assert abs(Kr - K) <= tol_k
    assert abs(dn(*rotated) - dn(*jet)) <= tol_k
    assert abs(k1r - k1) <= tol_ki and abs(k2r - k2) <= tol_ki
    # the eigen-decomposition of S = g^-1 h is an independent reference
    pd = shape_operator(field, p)
    tol_h, tol_k, tol_ki = _principal_tolerances(H, k1, k2, 1e-10)
    assert abs(pd.H - H) <= tol_h and abs(pd.K - K) <= tol_k
    assert abs(pd.k1 - k1) <= tol_ki and abs(pd.k2 - k2) <= tol_ki


# --- umbilic residuals ------------------------------------------------------

def test_residuals_saddle_origin():
    r = umbilic_residuals(make_field("saddle"), (0.0, 0.0))
    assert (r.P1, r.P2, r.D) == (1.0, 0.0, 4.0)


def test_residuals_paraboloid_closed_form(rng):
    field = make_field("paraboloid")
    for x, y in rng.uniform(-2, 2, size=(30, 2)):
        r = umbilic_residuals(field, (x, y))
        assert abs(r.P1 - (-8.0 * x * y)) < 1e-12 * max(1, abs(x * y))
        assert rel_close(r.P2, 8.0 * (x * x - y * y), 1e-12)
    origin = umbilic_residuals(field, (0.0, 0.0))
    assert origin.P1 == 0.0 and origin.P2 == 0.0 and origin.D == 0.0


def test_residuals_cone_type_closed_form(rng):
    # P1 = -lam^3 g'(x) h'(y) g''(x) < 0 by direct substitution
    lam = 0.1
    field = make_field("cone_type", lam=lam)
    for x, y in rng.uniform(-3, 3, size=(30, 2)):
        r = umbilic_residuals(field, (x, y))
        gp = x / math.hypot(1, x) + 1.0
        hp = y / math.hypot(1, y) + 1.0
        gpp = (1.0 + x * x) ** -1.5
        assert r.P1 < 0.0
        assert rel_close(r.P1, -lam ** 3 * gp * hp * gpp, 1e-12, floor=1e-12)


def test_discriminant_identity(rng):
    # D = 4 (1+q)^3 (H^2 - K)
    for field in all_fields():
        for x, y in sample_points(field, 40, rng):
            j = field.jet((x, y))
            r = umbilic_residuals(field, (x, y))
            pd = shape_operator(field, (x, y))
            lhs = r.D
            rhs = 4.0 * (1.0 + j.q) ** 3 * (pd.H ** 2 - pd.K)
            assert rel_close(lhs, rhs, 1e-10)


def test_coordinate_free_identity(rng):
    # (div(grad f / sqrt(1+q)))^2 - 4 det Hess / (1+q)^2 = 4 (H^2 - K)
    for field in all_fields():
        for x, y in sample_points(field, 40, rng):
            j = field.jet((x, y))
            pd = shape_operator(field, (x, y))
            lhs = graph_mean_divergence(j) ** 2 \
                - 4.0 * (j.f11 * j.f22 - j.f12 ** 2) / (1.0 + j.q) ** 2
            assert rel_close(lhs, 4.0 * (pd.H ** 2 - pd.K), 1e-10)


def test_P1_conservative_form(rng):
    # P1 / (1+f1^2)^(3/2) = d/dx (f2 / sqrt(1+f1^2)), checked by differences
    field = make_field("asym_bump")
    h = 1e-6
    for x, y in sample_points(field, 40, rng):
        j = field.jet((x, y))
        P1 = (1 + j.f1 ** 2) * j.f12 - j.f1 * j.f2 * j.f11
        jp = field.jet((x + h, y))
        jm = field.jet((x - h, y))
        fd = (jp.f2 / math.sqrt(1 + jp.f1 ** 2)
              - jm.f2 / math.sqrt(1 + jm.f1 ** 2)) / (2 * h)
        assert abs(P1 / (1 + j.f1 ** 2) ** 1.5 - fd) < 1e-6


# --- one formula per quantity ------------------------------------------------

def _residuals_in_one(f1, f2, f11, f12, f22):
    """(P1, P2, D, q) as one formula computed them before the split."""
    q = f1 * f1 + f2 * f2
    P1 = (1.0 + f1 * f1) * f12 - f1 * f2 * f11
    P2 = (1.0 + f1 * f1) * f22 - (1.0 + f2 * f2) * f11
    A = f22 * (1.0 + f1 * f1) - 2.0 * f1 * f2 * f12 + f11 * (1.0 + f2 * f2)
    D = A * A - 4.0 * (1.0 + q) * (f22 * f11 - f12 * f12)
    return P1, P2, D, q


def _principal_in_one(f1, f2, f11, f12, f22):
    """(H, K, k1, k2) as one formula computed them before the split."""
    q = f1 * f1 + f2 * f2
    w = 1.0 + q
    H = ((1.0 + f2 * f2) * f11 - 2.0 * f1 * f2 * f12
         + (1.0 + f1 * f1) * f22) / (2.0 * w ** 1.5)
    K = (f11 * f22 - f12 * f12) / (w * w)
    s = np.sqrt(np.maximum(H * H - K, 0.0))
    return H, K, H - s, H + s


def _random_jets(seed, n=20000):
    """Seeded jets (f1, f2, f11, f12, f22) of mixed sign and scale, from
    1e-8 to gradients and Hessians of 1e6, a fifth of the entries exact
    zeros (some -0.0) and the first rows all zero."""
    rng = np.random.default_rng(seed)
    jet = rng.standard_normal((5, n)) * 10.0 ** rng.integers(-8, 7, size=(5, n))
    zero = rng.random((5, n)) < 0.2
    jet[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    jet[:, :4] = 0.0
    return tuple(jet)


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_per_quantity_formulas_keep_the_bits_of_the_joint_ones(seed):
    jet = _random_jets(seed)
    P1, P2, D, q = _residuals_in_one(*jet)
    H, K, k1, k2 = _principal_in_one(*jet)
    assert _same_bits(curvature.p1_arrays(*jet), P1)
    assert _same_bits(curvature.p2_arrays(*jet), P2)
    assert all(map(_same_bits, curvature.discriminant_arrays(*jet), (D, q)))
    assert _same_bits(curvature.mean_curvature_arrays(*jet), H)
    assert _same_bits(curvature.gauss_curvature_arrays(*jet), K)
    assert all(map(_same_bits, residual_arrays(*jet), (P1, P2, D, q)))
    assert all(map(_same_bits, principal_arrays(*jet), (H, K, k1, k2)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_curvature_difference_keeps_the_bits_of_two_directions(seed):
    # one sqrt(1 + q) for both directions rounds as one per direction did
    jet = _random_jets(seed)
    f1, f2 = jet[:2]

    def k(d):  # the normal curvature as one formula computed it before the split
        fX, fXX = directional_arrays(*jet, d.x, d.y)
        q = f1 * f1 + f2 * f2
        return fXX / ((1.0 + fX * fX) * np.sqrt(1.0 + q))

    for tx, ty in ((0.0, math.pi / 2), (0.3, 1.9), (2.5, 0.1)):
        X, Y = Direction(tx), Direction(ty)
        assert _same_bits(curvature.curvature_direction_arrays(*jet, X.x, X.y), k(X))
        assert _same_bits(curvature.curvature_difference_arrays(*jet, X.x, X.y, Y.x, Y.y),
                          k(X) - k(Y))


# --- flux fields ------------------------------------------------------------

def test_difference_field_saddle_axes():
    V = curvature_difference_field(make_field("saddle"), Direction(0.0),
                                   Direction(math.pi / 2))
    xs = np.array([0.0, 1.0, -2.0])
    ys = np.array([0.0, 0.5, 3.0])
    assert np.allclose(V.div(xs, ys), 0.0, atol=1e-13)


def test_difference_field_radial_antisymmetry():
    V = curvature_difference_field(make_field("gaussian_bump"), Direction(0.0),
                                   Direction(math.pi / 2))
    a = np.array([0.3, 1.1, 0.77])
    assert np.allclose(V.div(a, a), 0.0, atol=1e-13)
    assert np.allclose(V.div(a, 2 * a), -V.div(2 * a, a), atol=1e-13)


def test_difference_field_identity(rng):
    # curvature form (with area element) equals the divergence pointwise
    for field in all_fields():
        V = curvature_difference_field(field, Direction(0.3), Direction(1.4))
        pts = sample_points(field, 40, rng)
        div = V.div(pts[:, 0], pts[:, 1])
        stated = V.integrand(pts[:, 0], pts[:, 1])
        assert np.all(np.abs(div - stated)
                      <= 1e-12 * np.maximum(1.0, np.abs(div)))


def test_difference_field_div_matches_fd(rng):
    V = curvature_difference_field(make_field("asym_bump"), Direction(0.0),
                                   Direction(math.pi / 2))
    h = 1e-6
    for x, y in sample_points(make_field("asym_bump"), 30, rng):
        fd = ((V.vector(x + h, y)[0] - V.vector(x - h, y)[0]) / (2 * h)
              + (V.vector(x, y + h)[1] - V.vector(x, y - h)[1]) / (2 * h))
        assert abs(float(fd) - float(V.div(x, y))) < 1e-6


def test_deviation_field_values():
    V = principal_deviation_field(make_field("paraboloid"), 0.0)
    vx, vy = V.vector(1.0, 1.0)
    assert abs(float(vx) - 2.0 / math.sqrt(5.0)) < 1e-14
    assert abs(float(vy)) < 1e-15


def test_deviation_field_cylinder_zero():
    V = principal_deviation_field(make_field("cylinder"), 0.0)
    xs = np.array([0.0, 1.5, -2.0])
    ys = np.array([0.3, -0.7, 5.0])
    assert np.allclose(V.div(xs, ys), 0.0, atol=1e-15)
    assert np.allclose(V.vector(xs, ys), 0.0, atol=1e-15)


def test_deviation_field_stated_vs_divergence(rng):
    # curvature form = 2 sqrt(1 + f1_rot^2) * divergence, pointwise
    for field in all_fields():
        theta0 = rng.uniform(0.0, 2 * math.pi)
        V = principal_deviation_field(field, theta0)
        for x, y in sample_points(field, 25, rng):
            j = rotate_frame(field.jet((x, y)), theta0)
            lhs = float(V.integrand(x, y))
            rhs = 2.0 * math.sqrt(1.0 + j.f1 ** 2) * float(V.div(x, y))
            assert rel_close(lhs, rhs, 1e-12)


def test_deviation_field_div_matches_fd(rng):
    V = principal_deviation_field(make_field("asym_bump"), 0.7)
    h = 1e-6
    for x, y in sample_points(make_field("asym_bump"), 30, rng):
        fd = ((V.vector(x + h, y)[0] - V.vector(x - h, y)[0]) / (2 * h)
              + (V.vector(x, y + h)[1] - V.vector(x, y - h)[1]) / (2 * h))
        assert abs(float(fd) - float(V.div(x, y))) < 1e-6
