import hashlib
import math

import numpy as np
import pytest

from umbilic import convexbody
from oracles import body_point, grad_ambient, rotate_body
from umbilic import (ConvexityError, NonConvergenceError, SupportBody,
                     check_convexity, find_umbilic, parallel_body, pose_at_umbilic,
                     radii_of_curvature, theorem1_pipeline, umbilic_sites)
from umbilic.cli import _parse_body, main
from umbilic.convexbody import (PosedBody, _anisotropy, _polish_umbilics, _tangent_basis,
                                fibonacci_sphere)
from umbilic.util import (_floating, _row_norms, _solve2, bracket_root, complex_step,
                          local_minima, unit3)

EZ = np.array([0.0, 0.0, 1.0])


def sphere(R=1.0):
    return SupportBody(c0=R, name="sphere")


def zonal(eps):
    q = ((-eps, 0.0, 0.0), (0.0, -eps, 0.0), (0.0, 0.0, 2.0 * eps))
    return SupportBody(1.0, (0.0, 0.0, 0.0), q, name=f"zonal({eps})")


def triaxial(ax, ay, az):
    return SupportBody(1.0, (0.0, 0.0, 0.0),
                       ((ax, 0.0, 0.0), (0.0, ay, 0.0), (0.0, 0.0, az)),
                       name="triaxial")


# --- support map ------------------------------------------------------------

def test_body_point_sphere():
    u = fibonacci_sphere(32)
    assert np.allclose(body_point(sphere(), u), u)
    assert np.allclose(body_point(sphere(2.0), u), 2.0 * u)


def test_body_point_translated_ball():
    c = np.array([0.3, -0.2, 0.5])
    b = SupportBody(1.0, tuple(c), name="shifted")
    u = fibonacci_sphere(32)
    assert np.allclose(body_point(b, u), u + c, atol=1e-14)


def test_body_point_normal_consistency():
    # finite-difference surface normal at u must equal u itself
    b = zonal(0.05)
    h = 1e-6
    for u in fibonacci_sphere(24):
        seed = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        t1 = seed - (seed @ u) * u
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(u, t1)
        p_u = (body_point(b, (u + h * t1) / np.linalg.norm(u + h * t1))
               - body_point(b, (u - h * t1) / np.linalg.norm(u - h * t1))) / (2 * h)
        p_v = (body_point(b, (u + h * t2) / np.linalg.norm(u + h * t2))
               - body_point(b, (u - h * t2) / np.linalg.norm(u - h * t2))) / (2 * h)
        n = np.cross(p_u, p_v)
        n /= np.linalg.norm(n)
        if n @ u < 0:
            n = -n
        assert np.linalg.norm(n - u) < 1e-8


# --- radii of curvature -----------------------------------------------------

def test_radii_sphere():
    u = fibonacci_sphere(16)
    r1, r2 = radii_of_curvature(sphere(), u)
    assert np.allclose(r1, 1.0) and np.allclose(r2, 1.0)


def test_radii_parallel_sphere():
    u = fibonacci_sphere(16)
    r1, r2 = radii_of_curvature(parallel_body(sphere(), 2.5), u)
    assert np.allclose(r1, 3.5) and np.allclose(r2, 3.5)


def test_radii_zonal_poles_axially_symmetric():
    b = zonal(0.02)
    for pole in (EZ, -EZ):
        r1, r2 = radii_of_curvature(b, pole)
        assert abs(float(r1) - float(r2)) < 1e-12


def test_parallel_shift_identity():
    # radii of h + r are radii of h plus r, exactly
    b = zonal(0.04)
    u = fibonacci_sphere(64)
    r1, r2 = radii_of_curvature(b, u)
    s1, s2 = radii_of_curvature(parallel_body(b, 1.7), u)
    assert np.allclose(s1, r1 + 1.7, atol=1e-12)
    assert np.allclose(s2, r2 + 1.7, atol=1e-12)


def test_parallel_rescale_fixes_sphere():
    b = parallel_body(sphere(), 3.0, rescale=True)
    u = fibonacci_sphere(16)
    assert np.allclose(b.h(u), 1.0)


def test_parallel_rescale_flattens_perturbation():
    eps = 0.05
    for r in (0.0, 2.0, 10.0):
        b = parallel_body(zonal(eps), r, rescale=True)
        u = fibonacci_sphere(256)
        dev = np.max(np.abs(b.h(u) - (1.0 + r) / (1.0 + r)))
        assert dev <= eps * 2.0 / (1.0 + r) + 1e-12


@pytest.mark.parametrize("r, message", [(-1.0, "nonnegative"), (math.nan, "nonnegative"),
                                        (math.inf, "finite")])
@pytest.mark.parametrize("rescale", [False, True])
def test_parallel_body_needs_a_finite_nonnegative_offset(r, message, rescale):
    with pytest.raises(ValueError, match=f"^offset distance must be {message}$"):
        parallel_body(zonal(0.05), r, rescale=rescale)


def test_mean_width_monotone_under_parallel():
    b = zonal(0.05)
    u = fibonacci_sphere(64)
    assert np.all(parallel_body(b, 0.5).h(u) > b.h(u))


def test_convexity_violation_detected():
    bad = SupportBody(1.0, quad=((0.3, 0, 0), (0, 0.3, 0), (0, 0, -0.6)),
                      name="bad")
    with pytest.raises(ConvexityError):
        check_convexity(bad)
    with pytest.raises(ConvexityError):
        radii_of_curvature(bad, np.array([1.0, 0.0, 0.0]))


# --- umbilic search ---------------------------------------------------------

def test_find_umbilic_sphere_trivial():
    site = find_umbilic(sphere(), grid_n=16)
    assert site.converged
    assert site.residual < 1e-12


def test_find_umbilic_zonal_poles():
    site = find_umbilic(zonal(0.05), grid_n=32)
    assert site.converged
    angle = math.acos(min(1.0, abs(float(site.u @ EZ))))
    assert angle < 1e-6


def test_umbilic_sites_triaxial():
    sites = umbilic_sites(triaxial(0.02, 0.05, 0.08), grid_n=40)
    assert len(sites) >= 4
    for s in sites:
        assert s.residual < 1e-8
        # generic quadratic: umbilics avoid the intermediate axis
        assert abs(s.u[1]) < 1e-6


CLI_BODIES = ("sphere:R=1.3", "zonal:eps=0.07", "triaxial:ax=0.01,ay=0.05,az=0.09",
              "shifted:cx=0.2,cy=-0.4,cz=0.1", "quartic:qx=0.03,qy=0.05,qz=0.07")


def _polish_reference(body, u0, max_iter=30):
    """The one-candidate Newton polish the batched one replaced."""
    u = unit3(np.asarray(u0, float))
    for _ in range(max_iter):
        F = _anisotropy(body, u)
        if np.linalg.norm(F) < 1e-13:
            return u, True
        t1, t2 = _tangent_basis(u)
        h = 1e-30
        J = np.column_stack([np.imag(_anisotropy(body, unit3(u + 1j * h * t))) / h
                             for t in (t1, t2)])
        try:
            st = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return u, bool(np.linalg.norm(F) < 1e-13)
        if not np.all(np.isfinite(st)):
            return u, False
        step = st[0] * t1 + st[1] * t2
        ns = np.linalg.norm(step)
        if ns > 0.5:
            step *= 0.5 / ns
        un = unit3(u + step)
        if np.linalg.norm(_anisotropy(body, un)) >= np.linalg.norm(F):
            return u, bool(np.linalg.norm(F) < 1e-10)
        u = un
    return u, bool(np.linalg.norm(_anisotropy(body, u)) < 1e-10)


@pytest.mark.parametrize("spec", CLI_BODIES)
def test_batched_polish_matches_reference(spec):
    body = _parse_body(spec)
    starts = np.random.default_rng(7).standard_normal((40, 3))
    for max_iter in (30, 2):  # 2 also reaches the final test after the loop
        us, oks = _polish_umbilics(body, starts, max_iter=max_iter)
        for u0, u, ok in zip(starts, us, oks):
            ref_u, ref_ok = _polish_reference(body, u0, max_iter=max_iter)
            assert ok == ref_ok
            assert np.max(np.abs(u - ref_u)) <= 1e-12


@pytest.mark.parametrize("spec", CLI_BODIES)
def test_anisotropy_jacobian_matches_central_differences(spec):
    # the polish's complex-step Jacobian against a central-difference oracle
    body = _parse_body(spec)
    u = unit3(np.random.default_rng(11).standard_normal((50, 3)))
    t1, t2 = _tangent_basis(u)
    J = complex_step(lambda w: _anisotropy(body, unit3(w)), u, np.stack([t1, t2]))
    h = 1e-6
    fd = np.stack([(_anisotropy(body, unit3(u + h * t)) - _anisotropy(body, unit3(u - h * t)))
                   / (2.0 * h) for t in (t1, t2)])
    scale = np.max(np.abs(fd), axis=(0, 2))
    assert np.all(np.max(np.abs(J - fd), axis=(0, 2)) <= 1e-6 * scale)


def test_polish_converges_quadratically():
    # Newton from 3e-3 rad off each triaxial site: |F_{k+1}| <= 100 |F_k|^2
    body = _parse_body(CLI_BODIES[2])
    sites = np.array([s.u for s in umbilic_sites(body, grid_n=24)])
    assert len(sites) == 4
    t1, _ = _tangent_basis(sites)
    u0 = unit3(sites + 3e-3 * t1)
    norms = [np.linalg.norm(_anisotropy(body, _polish_umbilics(body, u0, max_iter=k)[0]),
                            axis=-1) for k in range(6)]
    for fk, fk1 in zip(norms, norms[1:]):
        live = fk1 > 1e-13
        assert np.all(fk1[live] <= 100.0 * fk[live] ** 2)
    assert np.all(norms[-1] < 1e-13)


def test_find_umbilic_is_an_umbilic_site():
    body = _parse_body(CLI_BODIES[2])
    site = find_umbilic(body)
    gaps = [np.max(np.abs(site.u - s.u)) for s in umbilic_sites(body)]
    assert site.converged and min(gaps) <= 1e-12


def test_polish_rows_independent_of_batch():
    body = _parse_body(CLI_BODIES[-1])
    starts = np.random.default_rng(8).standard_normal((25, 3))
    starts[3] = np.nan  # stops at once, unconverged
    starts[4] = EZ      # an umbilic: converged at once
    with np.errstate(invalid="ignore"):
        us, oks = _polish_umbilics(body, starts)
        for k, u0 in enumerate(starts):
            u1, ok1 = _polish_umbilics(body, u0[None])
            assert np.array_equal(us[k], u1[0], equal_nan=True)
            assert oks[k] == ok1[0]
    assert not oks[3] and oks[4]


def _tangent_basis_cross(u):
    """_tangent_basis with its second axis from np.cross."""
    t1, _ = _tangent_basis(u)
    return t1, np.cross(_floating(u), t1)


def _polish_evaluating_twice(body, u0, max_iter=30):
    """The batched polish that re-evaluated the anisotropy of the accepted
    iterates at the top of each iteration (run with _tangent_basis_cross)."""
    u = unit3(np.asarray(u0, float).reshape(-1, 3))
    ok = np.zeros(len(u), bool)
    live = np.arange(len(u))
    for _ in range(max_iter):
        F = _anisotropy(body, u[live])
        nF = _row_norms(F)
        conv = nF < 1e-13
        ok[live[conv]] = True
        live, F, nF = live[~conv], F[~conv], nF[~conv]
        if not live.size:
            break
        v = u[live]
        t1, t2 = convexbody._tangent_basis(v)
        J = np.moveaxis(complex_step(lambda w: _anisotropy(body, unit3(w)), v,
                                     np.stack([t1, t2])), 0, -1)
        st, solved = _solve2(J, -F)
        keep = solved & np.all(np.isfinite(st), axis=-1)
        live, v, nF, st = live[keep], v[keep], nF[keep], st[keep]
        step = st[:, :1] * t1[keep] + st[:, 1:] * t2[keep]
        ns = _row_norms(step)
        big = ns > 0.5
        step[big] *= (0.5 / ns[big])[:, None]
        un = unit3(v + step)
        stall = _row_norms(_anisotropy(body, un)) >= nF
        ok[live[stall]] = nF[stall] < 1e-10
        u[live[~stall]] = un[~stall]
        live = live[~stall]
    else:
        ok[live] = _row_norms(_anisotropy(body, u[live])) < 1e-10
    return u, ok


@pytest.mark.parametrize("spec", CLI_BODIES)
def test_polish_matches_the_loop_evaluating_twice(monkeypatch, spec):
    # the candidates umbilic_sites polishes at four grids and find_umbilic's
    # one row at grid 48; max_iter 2 also ends rows in the loop's else branch
    body = _parse_body(spec)
    cands = []

    def record(body, u0, max_iter=30):
        cands.append(u0)
        return _polish_umbilics(body, u0, max_iter)

    with monkeypatch.context() as m:
        m.setattr(convexbody, "_polish_umbilics", record)
        for grid_n in (16, 17, 25, 32):
            umbilic_sites(body, grid_n=grid_n)
        find_umbilic(body, grid_n=48)
    assert len(cands) == 5 and np.shape(cands[-1]) == (3,)
    for max_iter in (30, 2):
        polished = [_polish_umbilics(body, u0, max_iter) for u0 in cands]
        with monkeypatch.context() as m:
            m.setattr(convexbody, "_tangent_basis", _tangent_basis_cross)
            ref = [_polish_evaluating_twice(body, u0, max_iter) for u0 in cands]
        for (u, ok), (ref_u, ref_ok) in zip(polished, ref):
            assert u.tobytes() == ref_u.tobytes() and ok.tobytes() == ref_ok.tobytes()


def test_polish_builds_one_tangent_basis_per_hessian(monkeypatch):
    # a trial residual's frame is the next iteration's step basis, so no
    # basis is built apart from a tangent Hessian
    counts = {"basis": 0, "hessian": 0}
    basis, hessian = convexbody._tangent_basis, convexbody._tangent_hessian

    def counted_basis(u):
        counts["basis"] += 1
        return basis(u)

    def counted_hessian(body, u):
        counts["hessian"] += 1
        return hessian(body, u)

    monkeypatch.setattr(convexbody, "_tangent_basis", counted_basis)
    monkeypatch.setattr(convexbody, "_tangent_hessian", counted_hessian)
    body = _parse_body(CLI_BODIES[2])
    _polish_umbilics(body, np.random.default_rng(7).standard_normal((40, 3)))
    assert counts["hessian"] > 3 and counts["basis"] == counts["hessian"]


def test_tangent_basis_second_axis_is_np_cross():
    rng = np.random.default_rng(13)
    u = unit3(rng.standard_normal((400, 3)))
    u[:100] = unit3(u[:100] * [20.0, 1.0, 1.0])  # |u_x| >= 0.9 takes the y seed
    assert np.any(np.abs(u[:, 0]) >= 0.9) and np.any(np.abs(u[:, 0]) < 0.9)
    for w in (u, u + 1j * 1e-30 * rng.standard_normal((400, 3)), u[7]):
        t1, t2 = _tangent_basis(w)
        ref = np.cross(w, t1)
        assert t2.dtype == ref.dtype and t2.shape == ref.shape
        assert t2.tobytes() == ref.tobytes()


def test_solve2_singular_rows_do_not_spoil_the_stack():
    J = np.array([[[2.0, 1.0], [0.5, 3.0]], [[1.0, 2.0], [2.0, 4.0]],
                  [[0.0, 1.0], [-1.0, 0.25]]])
    rhs = np.array([[1.0, -2.0], [1.0, 1.0], [0.3, 0.7]])
    st, solved = _solve2(J, rhs)
    assert solved.tolist() == [True, False, True]
    for k in (0, 2):
        assert np.array_equal(st[k], np.linalg.solve(J[k], rhs[k]))


@pytest.mark.parametrize("spec", CLI_BODIES[2:])
def test_support_polynomials_rows_independent_of_batch(spec):
    body = _parse_body(spec)
    u = unit3(np.random.default_rng(9).standard_normal((400, 3)))
    h, g = body.h(u), grad_ambient(body, u)
    for k in range(len(u)):
        assert body.h(u[k]) == h[k]
        assert np.array_equal(grad_ambient(body, u[k]), g[k])


# bodies with every term of the support polynomial, the last two with a full
# (rotated) quadratic form
KERNEL_BODIES = (
    *map(_parse_body, CLI_BODIES),
    SupportBody(1.0, (0.1, -0.2, 0.15), ((0.05, 0.02, -0.01), (0.02, 0.03, 0.04),
                                         (-0.01, 0.04, 0.08)), (0.03, 0.05, 0.07)),
    rotate_body(triaxial(0.01, 0.05, 0.09), np.linalg.qr(
        np.random.default_rng(3).standard_normal((3, 3)))[0]),
)


def _h_reference(body, u):
    """h as an einsum over the length-3 axis, the expression the component
    planes replaced."""
    l, Q, a = (np.asarray(v, float) for v in (body.linear, body.quad, body.quartic))
    u2 = u * u
    return (body.c0 + np.sum(u * l, axis=-1) + np.einsum("...i,ij,...j->...", u, Q, u)
            + np.sum(u2 * u2 * a, axis=-1))


def _grad_reference(body, u):
    l, Q, a = (np.asarray(v, float) for v in (body.linear, body.quad, body.quartic))
    return l + 2.0 * u @ Q + 4.0 * a * (u * u * u)


def _magnitude(body):
    """The body with every coefficient made nonnegative: on |u| its h and
    gradient are the sums of the absolute values of their terms."""
    return SupportBody(abs(body.c0), tuple(np.abs(body.linear)),
                       tuple(map(tuple, np.abs(body.quad))), tuple(np.abs(body.quartic)))


@pytest.mark.parametrize("body", KERNEL_BODIES, ids=lambda b: getattr(b, "name", b))
def test_support_polynomials_match_the_einsum_reference(body):
    # each value is a sum of at most 16 rounded products and sums, so both
    # forms lie within 16 (eps / 2) S of the exact value, S the sum of the
    # absolute values of the terms: they differ by at most 16 ulps of S
    rng = np.random.default_rng(12)
    u = unit3(rng.standard_normal((500, 3)))
    direction = rng.standard_normal((500, 3))
    ulps = 16.0 * np.finfo(float).eps
    big = _magnitude(body)
    for w, w_abs in ((u, np.abs(u)), (u + 1j * 1e-30 * direction,
                                      np.abs(u) + 1j * 1e-30 * np.abs(direction))):
        for new, ref, scale in ((body.h(w), _h_reference(body, w), big.h(w_abs)),
                                (grad_ambient(body, w), _grad_reference(body, w),
                                 _grad_reference(big, w_abs))):
            assert new.dtype == ref.dtype and new.shape == ref.shape
            assert np.all(np.abs(new.real - ref.real) <= ulps * scale.real)
            assert np.all(np.abs(new.imag - ref.imag) <= ulps * scale.imag)


@pytest.mark.parametrize("body", KERNEL_BODIES[2:], ids=lambda b: getattr(b, "name", b))
def test_cap_points_ladder_rows_match_per_phi_calls(body):
    # the phi-solve reads g at its bracket ends off the ladder rows, so a
    # ladder row must carry the bits of a call at that one phi
    posed = pose_at_umbilic(parallel_body(body, 10.0, rescale=True), find_umbilic(body).u)
    phis = np.geomspace(1e-5, 2.8, 41)
    thetas = np.arange(37) * (math.tau / 37)
    q, n = (posed.cap_points(phis[:, None], thetas[None, :]),
            posed.cap_normals(phis[:, None], thetas[None, :]))
    assert q.shape == n.shape == (41, 37, 3)
    for k, phi in enumerate(phis):
        one = np.full(37, phi)
        qk, nk = posed.cap_points(one, thetas), posed.cap_normals(one, thetas)
        assert np.array_equal(qk, q[k]) and np.array_equal(nk, n[k])
    # one phi per azimuth, as in a step of the solve, and one point alone
    rows = np.random.default_rng(4).integers(0, 41, 37)
    cols = np.arange(37)
    qr, nr = posed.cap_points(phis[rows], thetas), posed.cap_normals(phis[rows], thetas)
    assert np.array_equal(qr, q[rows, cols]) and np.array_equal(nr, n[rows, cols])
    q1, n1 = posed.cap_points(phis[5], thetas[7]), posed.cap_normals(phis[5], thetas[7])
    assert np.array_equal(q1, q[5, 7]) and np.array_equal(n1, n[5, 7])


def _umbilic_sites_reference(body, grid_n):
    """umbilic_sites with the greedy merge as a loop over the candidates
    (against the sites kept so far) and the sort on a tuple of rounded
    components: what the array passes replaced."""
    n_phi = max(grid_n, 16)
    phis = (np.arange(n_phi) + 0.5) * (math.pi / n_phi)
    thetas = np.arange(2 * n_phi) * (math.tau / (2 * n_phi))
    P, T = np.meshgrid(phis, thetas, indexing="ij")
    U = np.stack([np.sin(P) * np.cos(T), np.sin(P) * np.sin(T), np.cos(P)], axis=-1)
    r1, r2 = radii_of_curvature(body, U, check=False)
    mins = local_minima(r2 - r1, wrap_cols=True)
    cands = np.concatenate([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], U[mins[:, 0], mins[:, 1]]])
    us, _ = _polish_umbilics(body, cands)
    rr1, rr2 = radii_of_curvature(body, us, check=False)
    resid = rr2 - rr1
    sites = []
    accepted = np.empty_like(us)
    good = resid < convexbody.SITES_TOL
    for u, r in zip(us[good], resid[good]):
        d = accepted[:len(sites)] @ u
        if np.any((np.arccos(np.minimum(1.0, np.abs(d))) < 1e-3) & (d > 0.0)):
            continue
        accepted[len(sites)] = u
        sites.append(convexbody.UmbilicSite(u, float(r), True))
    sites.sort(key=lambda s: (round(s.u[2], 9), round(s.u[0], 9), round(s.u[1], 9)))
    return sites, int(good.sum())


@pytest.mark.parametrize("grid_n", [16, 17, 25, 32])
@pytest.mark.parametrize("spec", CLI_BODIES)
def test_umbilic_sites_match_the_loop_reference(spec, grid_n):
    body = _parse_body(spec)
    sites = umbilic_sites(body, grid_n=grid_n)
    ref, candidates = _umbilic_sites_reference(body, grid_n)
    assert [(s.u.tobytes(), repr(s.residual), s.converged) for s in sites] == \
        [(s.u.tobytes(), repr(s.residual), s.converged) for s in ref]
    if spec.startswith("zonal") and grid_n == 17:
        # the two poles and 54 grid minima merge into the two poles
        assert (candidates, len(sites)) == (56, 2)


def test_umbilic_sites_merge_keeps_the_first_of_a_cluster():
    # rows 0 and 1 are 5e-4 rad apart and merge; row 2 is 5e-4 rad from row 1
    # and 1e-3 from row 0, so it stays (row 1 was dropped); row 3 is the
    # antipode of row 0, which d > 0 keeps apart; row 4 repeats row 2
    a = np.array([0.0, 5e-4, 1e-3 + 1e-9])
    us = np.stack([np.sin(a), np.zeros(3), np.cos(a)], axis=-1)
    us = np.concatenate([us, -us[:1], us[2:]])
    assert convexbody._merge_close(us).tolist() == [True, False, True, True, False]
    assert convexbody._merge_close(np.empty((0, 3))).tolist() == []


@pytest.mark.parametrize("spec, count", [("zonal:eps=0.05", 2),
                                         ("quartic:qx=0.03,qy=0.05,qz=0.07", 14)])
def test_umbilic_sites_counts(spec, count):
    # zonal: the two poles; quartic: the six axis points and one per octant
    body = _parse_body(spec)
    sites = umbilic_sites(body, grid_n=17)
    assert len(sites) == count
    for s in sites:
        assert abs(np.linalg.norm(s.u) - 1.0) < 1e-14
        assert s.residual < 1e-8
        r1, r2 = radii_of_curvature(body, s.u)
        assert abs(float(r2 - r1) - s.residual) < 1e-14


# sha256 of find_umbilic's site and of the umbilic_sites list (u bytes, repr
# of the residual, converged) at the default grid, taken before the polish
# reused its trial residual
SITES_GOLDEN = {
    "sphere:R=1.3": (
        "9981bd053b277ae88e7084fcf216ecf5a14e877db7354c6d4ac63621e190c373",
        "e387d5b423dca399e7a9de31d4db06365ac129ee95b0cd9f4964f8d3fdfa6aa7"),
    "zonal:eps=0.07": (
        "a0a1821d7f6bf9ff76f02c92db5f0556b1a66477b887814d554ad6dd2c2505f1",
        "8680dc4ceb41ccfdad8b8b0c03bfef1df7e42d3f14551869facd1837aad1b95c"),
    "triaxial:ax=0.01,ay=0.05,az=0.09": (
        "317f457d239a36abb1ff0b6cec720ea5f73a5a1bfb8f5bd227a40207c72a2a82",
        "0bc139174e6528e9f70e0b9457c5d2c5911529fee13cfb5741784be8e438b86f"),
    "shifted:cx=0.2,cy=-0.4,cz=0.1": (
        "9981bd053b277ae88e7084fcf216ecf5a14e877db7354c6d4ac63621e190c373",
        "e387d5b423dca399e7a9de31d4db06365ac129ee95b0cd9f4964f8d3fdfa6aa7"),
    "quartic:qx=0.03,qy=0.05,qz=0.07": (
        "3fa5510550e8f3655f1d9900eea241be5bc849dd86b69494a893d4e68f1dec81",
        "dab86bc6ceaef8e333468d678458c04afd9852ceab0d23cca394d6faacd18183"),
}


def _sites_digest(sites):
    return hashlib.sha256(b"".join(s.u.tobytes() + repr(s.residual).encode()
                                   + bytes([s.converged]) for s in sites)).hexdigest()


@pytest.mark.parametrize("spec", CLI_BODIES)
def test_umbilic_search_golden_bytes(spec):
    body = _parse_body(spec)
    assert (_sites_digest([find_umbilic(body)]), _sites_digest(umbilic_sites(body))) \
        == SITES_GOLDEN[spec]


# --- pose -------------------------------------------------------------------

def test_pose_sphere_center():
    posed = pose_at_umbilic(sphere(), -EZ)
    # posed sphere is centered one radius above the tangency point
    q = posed.cap_points(np.linspace(0.1, 3.0, 7)[:, None], np.linspace(0, 6, 9))
    assert np.allclose(np.linalg.norm(q - [0.0, 0.0, 1.0], axis=-1), 1.0, atol=1e-14)


def test_pose_maps_umbilic_to_origin():
    b = zonal(0.05)
    site = find_umbilic(b, grid_n=32)
    posed = pose_at_umbilic(b, site.u)
    q2, n2 = posed.cap_points(np.array(0.0), np.array(0.0)), posed.cap_normals(0.0, 0.0)
    assert np.linalg.norm(q2) < 1e-12
    assert np.allclose(n2, [0.0, 0.0, -1.0], atol=1e-12)
    # the cap points are the rigid motion p -> R (p - X(ustar)) of boundary
    # points, R the frame with rows t2, t1, -ustar
    phis, thetas = np.linspace(0.01, 2.0, 5)[:, None], np.linspace(0, 6, 7)
    q, n = posed.cap_points(phis, thetas), posed.cap_normals(phis, thetas)
    R = np.stack([posed.t2, posed.t1, -posed.ustar])
    ref = (body_point(b, n @ R) - body_point(b, site.u)) @ R.T
    assert np.allclose(q, ref, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("ustar", [EZ, -EZ, unit3([0.3, -0.5, 0.8]), unit3([0.95, 0.1, -0.2])],
                         ids=["+e3", "-e3", "generic", "generic-y-seed"])
def test_pose_frame_is_a_rotation(ustar):
    # the frame (t2, t1, -ustar) is a rotation at every normal, +e3 included,
    # and puts the point with normal ustar at the origin, normal straight down
    posed = pose_at_umbilic(triaxial(0.01, 0.05, 0.09), ustar)
    R = np.stack([posed.t2, posed.t1, -posed.ustar])
    assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-15
    assert abs(np.linalg.det(R) - 1.0) <= 1e-15
    assert np.all(posed.cap_points(np.array(0.0), np.array(0.0)) == 0.0)
    assert np.max(np.abs(posed.cap_normals(0.0, 0.0) - [0.0, 0.0, -1.0])) <= 1e-15


# --- pipeline ---------------------------------------------------------------

def test_pipeline_sphere_flat():
    rep = theorem1_pipeline(sphere(), offset_r=5.0)
    assert rep.graph_check_passed
    assert abs(rep.c - 0.5) < 1e-12
    for _, dev, slope in rep.rows:
        assert dev < 1e-10
        assert slope < 1e-10


def test_pipeline_zonal_decay():
    rep = theorem1_pipeline(zonal(0.05), offset_r=10.0)
    assert rep.graph_check_passed
    devs = [row[1] for row in rep.rows]
    slopes = [row[2] for row in rep.rows]
    assert devs[0] > devs[1] > devs[2]
    assert slopes[0] > slopes[1] > slopes[2]


def test_pipeline_pose_invariance():
    base = zonal(0.04)
    rep0 = theorem1_pipeline(base, offset_r=8.0)
    c, s = math.cos(0.7), math.sin(0.7)
    R = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    rep1 = theorem1_pipeline(rotate_body(base, R), offset_r=8.0)
    # umbilic rotates covariantly (either pole is acceptable)
    u_back = R.T @ rep1.ustar
    assert min(np.linalg.norm(u_back - rep0.ustar),
               np.linalg.norm(u_back + rep0.ustar)) < 1e-5
    for r0, r1 in zip(rep0.rows, rep1.rows):
        assert abs(r0[1] - r1[1]) < 1e-9
        assert abs(r0[2] - r1[2]) < 1e-9


def test_pipeline_graph_check_failure_path():
    # far-from-round convex body, no offset: inversion folds over the plane
    body = triaxial(0.0, 0.16, 0.32)
    check_convexity(body)
    rep = theorem1_pipeline(body, offset_r=0.0)
    assert not rep.graph_check_passed
    assert rep.rows == []
    # the default (large) offset rounds the body enough to pass
    rep_ok = theorem1_pipeline(body)
    assert rep_ok.graph_check_passed


def test_pipeline_refuses_an_unconverged_umbilic(tmp_path, monkeypatch, capsys):
    # a most umbilic normal above FIND_TOL is not an umbilic: nothing is posed
    site = convexbody.UmbilicSite(EZ, 1e-3, False)
    monkeypatch.setattr(convexbody, "find_umbilic", lambda body: site)
    with pytest.raises(NonConvergenceError):
        theorem1_pipeline(zonal(0.05), offset_r=10.0)
    out = tmp_path / "p.csv"
    assert main(["pipeline", "thm1", "--body", "zonal", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("non-convergence:")
    assert not out.exists()


def _never_search(monkeypatch):
    def never(body):
        raise AssertionError("the body was searched before its arguments were checked")

    monkeypatch.setattr(convexbody, "check_convexity", never)
    monkeypatch.setattr(convexbody, "find_umbilic", never)


@pytest.mark.parametrize("kwargs, message", [
    *[({"radii": radii}, "^radii must be") for radii in
      [(0.0, 10.0), (-1.0, 10.0), (10.0, math.inf), (10.0, math.nan), (), (10.0, 10.0)]],
    ({"n_theta": 0}, "^n_theta must be at least 1"),
    ({"n_theta": -4}, "^n_theta must be at least 1"),
    ({"offset_r": -1.0}, "^offset distance must be nonnegative"),
    ({"offset_r": math.nan}, "^offset distance must be nonnegative"),
    ({"offset_r": math.inf}, "^offset distance must be finite")])
def test_pipeline_checks_its_arguments_before_any_search(monkeypatch, kwargs, message):
    _never_search(monkeypatch)
    with pytest.raises(ValueError, match=message):
        theorem1_pipeline(zonal(0.05), **{"offset_r": 10.0, **kwargs})


def test_pipeline_negative_offset_is_a_usage_error_before_any_search(tmp_path, monkeypatch,
                                                                     capsys):
    _never_search(monkeypatch)
    out = tmp_path / "p.csv"
    assert main(["pipeline", "thm1", "--body", "zonal", "--offset", "-1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "usage error: offset distance must be nonnegative\n"
    assert not out.exists()


def _phi_bisection(posed, theta, target, lo, hi):
    """Bisection of rbar(phi) = target along one azimuth to float resolution,
    a tie moving hi: the oracle of the pipeline's phi-solve."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        q = PosedBody.cap_points(posed, mid, theta)
        if math.hypot(q[0], q[1]) / float(q @ q) > target:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("body", [zonal(0.05), _parse_body(CLI_BODIES[2])])
def test_pipeline_phi_solve(monkeypatch, body):
    cap_points, posed, calls, solves = PosedBody.cap_points, [], [0], []

    def counted(self, phis, thetas):
        posed[:] = [self]
        calls[0] += 1
        return cap_points(self, phis, thetas)

    def solve(g, lo, hi, glo, ghi):
        before = calls[0]
        phi = bracket_root(g, lo, hi, glo, ghi)
        solves.append((lo, hi, phi, calls[0] - before))
        return phi

    monkeypatch.setattr(PosedBody, "cap_points", counted)
    monkeypatch.setattr(convexbody, "bracket_root", solve)
    n_theta, radii = 24, (10.0, 100.0, 1000.0)
    rep = theorem1_pipeline(body, offset_r=10.0, radii=radii, n_theta=n_theta)
    # one solve on (radius, azimuth) brackets
    assert rep.graph_check_passed and len(solves) == 1
    lo, hi, phi, n = solves[0]
    assert lo.shape == hi.shape == phi.shape == (len(radii), n_theta)
    # the ladder, then the solve's steps and one evaluation at its roots: the
    # ladder rows give g at the bracket ends
    assert calls[0] == 1 + n + 1
    assert n + 2 <= 12
    thetas = np.arange(n_theta) * (math.tau / n_theta)
    for i, target in enumerate(radii):
        for k, theta in enumerate(thetas):
            ref = _phi_bisection(posed[0], theta, target, lo[i, k], hi[i, k])
            assert abs(phi[i, k] - ref) <= 16.0 * np.spacing(ref)
