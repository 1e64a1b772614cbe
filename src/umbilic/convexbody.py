"""Closed convex surfaces given by support functions on the unit sphere,
umbilic search on them, and the inversion pipeline that flattens a body
minus one point into an asymptotically constant graph.

A support function h on S^2 determines the boundary point with outward
normal u as X(u) = h(u) u + grad_S h(u); the principal radii of curvature
are the tangent-plane eigenvalues of Hess_S h + h I. The families here are
closed forms (constant + linear + quadratic + even diagonal quartic in u),
so all spherical jets are analytic and vectorize over arrays of normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConvexityError, DomainError
from .transform import Patch3
from .util import _row_norms, _solve2, bisect_arrays, local_minima, unit3


@dataclass(frozen=True)
class SupportBody:
    """Convex body with support function
    h(u) = c0 + <linear, u> + u^T quad u + sum_i quartic_i u_i^4."""

    c0: float = 1.0
    linear: tuple = (0.0, 0.0, 0.0)
    quad: tuple = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    quartic: tuple = (0.0, 0.0, 0.0)
    name: str = "body"

    def _arrays(self):
        return (np.asarray(self.linear, float), np.asarray(self.quad, float),
                np.asarray(self.quartic, float))

    def h(self, u):
        u = np.asarray(u, float)
        l, Q, a = self._arrays()
        return (self.c0 + u @ l + np.einsum("...i,ij,...j->...", u, Q, u)
                + (u ** 4) @ a)

    def grad_ambient(self, u):
        """Euclidean gradient of the polynomial extension of h."""
        u = np.asarray(u, float)
        l, Q, a = self._arrays()
        return l + 2.0 * u @ Q + 4.0 * a * u ** 3

    def hess_ambient(self, u):
        u = np.asarray(u, float)
        l, Q, a = self._arrays()
        out = np.broadcast_to(2.0 * Q, u.shape[:-1] + (3, 3)).copy()
        idx = np.arange(3)
        out[..., idx, idx] += 12.0 * a * u ** 2
        return out

    def sphere_grad(self, u):
        """Tangential gradient of h on the sphere at the unit normal u."""
        u = np.asarray(u, float)
        g = self.grad_ambient(u)
        return g - np.sum(g * u, axis=-1, keepdims=True) * u


def body_point(body: SupportBody, u) -> np.ndarray:
    """Boundary point of the body whose outward normal is u."""
    u = np.asarray(u, float)
    return body.h(u)[..., None] * u + body.sphere_grad(u)


def _tangent_basis(u):
    """Deterministic orthonormal tangent basis at each unit normal."""
    u = np.asarray(u, float)
    seed = np.zeros_like(u)
    use_x = np.abs(u[..., 0]) < 0.9
    seed[..., 0] = np.where(use_x, 1.0, 0.0)
    seed[..., 1] = np.where(use_x, 0.0, 1.0)
    t1 = seed - np.sum(seed * u, axis=-1, keepdims=True) * u
    t1 = unit3(t1)
    t2 = np.cross(u, t1)
    return t1, t2


def _curvature_matrix(body: SupportBody, u):
    """2x2 matrix of Hess_S h + h I in the tangent basis; eigenvalues are
    the principal radii of curvature."""
    u = np.asarray(u, float)
    t1, t2 = _tangent_basis(u)
    Hm = body.hess_ambient(u)
    gdot = np.sum(body.grad_ambient(u) * u, axis=-1)
    h = body.h(u)

    def hess_s(a, b):
        return np.einsum("...i,...ij,...j->...", a, Hm, b)

    m11 = hess_s(t1, t1) - gdot + h
    m22 = hess_s(t2, t2) - gdot + h
    m12 = hess_s(t1, t2)
    return m11, m12, m22, t1, t2


def radii_of_curvature(body: SupportBody, u, check: bool = True):
    """Principal radii of curvature (rho1 <= rho2) at the normal u."""
    m11, m12, m22, _, _ = _curvature_matrix(body, u)
    mean = 0.5 * (m11 + m22)
    s = np.sqrt(np.maximum(0.25 * (m11 - m22) ** 2 + m12 ** 2, 0.0))
    rho1, rho2 = mean - s, mean + s
    if check and np.any(rho1 <= 0.0):
        raise ConvexityError(
            f"body '{body.name}' has a nonpositive radius of curvature "
            f"(min {float(np.min(rho1)):.6g})")
    return rho1, rho2


def check_convexity(body: SupportBody, n: int = 2048) -> float:
    """Sampled minimum radius of curvature; raises if not positive."""
    u = fibonacci_sphere(n)
    rho1, _ = radii_of_curvature(body, u, check=False)
    m = float(np.min(rho1))
    if m <= 0.0:
        raise ConvexityError(f"body '{body.name}' is not convex on the sample "
                             f"grid (min radius {m:.6g})")
    return m


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic, nearly uniform unit vectors."""
    i = np.arange(n, dtype=float) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


@dataclass(frozen=True)
class UmbilicSite:
    u: np.ndarray
    residual: float  # rho2 - rho1
    converged: bool


def _anisotropy(body: SupportBody, u):
    """(m11 - m22, 2 m12) in the transported tangent frame; zero at umbilics."""
    m11, m12, m22, _, _ = _curvature_matrix(body, u)
    return np.stack([m11 - m22, 2.0 * m12], axis=-1)


def _polish_umbilics(body: SupportBody, u0, max_iter: int = 30):
    """Newton iteration on the tangent anisotropy, quadratically convergent,
    on every row of u0 (N, 3) at once. Each row takes the steps it would
    take alone; returns the polished unit rows and their converged flags."""
    u = unit3(np.asarray(u0, float).reshape(-1, 3))
    ok = np.zeros(len(u), bool)
    live = np.arange(len(u))  # rows still iterating
    h = 1e-6
    for _ in range(max_iter):
        F = _anisotropy(body, u[live])
        nF = _row_norms(F)
        conv = nF < 1e-13
        ok[live[conv]] = True
        live, F, nF = live[~conv], F[~conv], nF[~conv]
        if not live.size:
            break
        v = u[live]
        t1, t2 = _tangent_basis(v)
        probes = unit3(np.concatenate([v + h * t1, v - h * t1, v + h * t2, v - h * t2]))
        Fp1, Fm1, Fp2, Fm2 = np.split(_anisotropy(body, probes), 4)
        J = np.stack([(Fp1 - Fm1) / (2 * h), (Fp2 - Fm2) / (2 * h)], axis=-1)
        st, solved = _solve2(J, -F)
        # a singular Jacobian or a non-finite step stops the row unconverged
        # (its |F| is not below 1e-13 here)
        keep = solved & np.all(np.isfinite(st), axis=-1)
        live, v, nF, st = live[keep], v[keep], nF[keep], st[keep]
        step = st[:, :1] * t1[keep] + st[:, 1:] * t2[keep]
        ns = _row_norms(step)
        big = ns > 0.5
        step[big] *= (0.5 / ns[big])[:, None]
        un = unit3(v + step)
        # no descent (a NaN trial residual counts as descent) stops the row
        stall = _row_norms(_anisotropy(body, un)) >= nF
        ok[live[stall]] = nF[stall] < 1e-10
        u[live[~stall]] = un[~stall]
        live = live[~stall]
    else:
        ok[live] = _row_norms(_anisotropy(body, u[live])) < 1e-10
    return u, ok


def _pattern_refine(body: SupportBody, u0, delta0: float, refine_tol: float):
    """Derivative-free shrink search on rho2 - rho1 (robust near kinks)."""
    u = unit3(np.asarray(u0, float))
    r1, r2 = radii_of_curvature(body, u, check=False)
    best = float(r2 - r1)
    delta = delta0
    alphas = np.arange(8) * (math.tau / 8)
    while delta > 1e-10 and best > refine_tol:
        t1, t2 = _tangent_basis(u)
        cand = unit3(math.cos(delta) * u[None, :]
                     + math.sin(delta) * (np.cos(alphas)[:, None] * t1
                                          + np.sin(alphas)[:, None] * t2))
        r1, r2 = radii_of_curvature(body, cand, check=False)
        vals = r2 - r1
        i = int(np.argmin(vals))
        if vals[i] < best:
            u, best = cand[i], float(vals[i])
        else:
            delta *= 0.5
    return u, best


def find_umbilic(body: SupportBody, grid_n: int = 48,
                 refine_tol: float = 1e-9) -> UmbilicSite:
    """Most umbilic normal direction: coarse scan, pattern refinement,
    then a Newton polish on the curvature anisotropy.

    If no direction reaches ``refine_tol`` the best candidate is returned
    with ``converged`` false and its residual for inspection.
    """
    grid = fibonacci_sphere(max(grid_n * grid_n, 64))
    r1, r2 = radii_of_curvature(body, grid, check=False)
    res = r2 - r1
    u0 = grid[int(np.argmin(res))]
    spacing = 2.0 / math.sqrt(grid.shape[0])
    u1, best = _pattern_refine(body, u0, 4.0 * spacing, refine_tol)
    u2 = _polish_umbilics(body, u1)[0][0]
    rr1, rr2 = radii_of_curvature(body, u2, check=False)
    final = float(rr2 - rr1)
    if final <= best:
        return UmbilicSite(u2, final, final < refine_tol)
    return UmbilicSite(u1, best, best < refine_tol)


def umbilic_sites(body: SupportBody, grid_n: int = 48,
                  refine_tol: float = 1e-8, merge_angle: float = 1e-3):
    """All distinct umbilic directions found from grid local minima."""
    n_phi = max(grid_n, 16)
    phis = (np.arange(n_phi) + 0.5) * (math.pi / n_phi)
    thetas = np.arange(2 * n_phi) * (math.tau / (2 * n_phi))
    P, T = np.meshgrid(phis, thetas, indexing="ij")
    U = np.stack([np.sin(P) * np.cos(T), np.sin(P) * np.sin(T), np.cos(P)],
                 axis=-1)
    r1, r2 = radii_of_curvature(body, U, check=False)
    res = r2 - r1
    mins = local_minima(res, wrap_cols=True)
    poles = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    cands = np.concatenate([poles, U[mins[:, 0], mins[:, 1]]])
    us, _ = _polish_umbilics(body, cands)
    rr1, rr2 = radii_of_curvature(body, us, check=False)
    resid = rr2 - rr1
    # greedy merge in candidate order against the sites accepted so far
    sites = []
    accepted = np.empty_like(us)
    good = resid < refine_tol
    for u, r in zip(us[good], resid[good]):
        d = accepted[:len(sites)] @ u
        if np.any((np.arccos(np.minimum(1.0, np.abs(d))) < merge_angle) & (d > 0.0)):
            continue
        accepted[len(sites)] = u
        sites.append(UmbilicSite(u, float(r), True))
    sites.sort(key=lambda s: (round(s.u[2], 9), round(s.u[0], 9), round(s.u[1], 9)))
    return sites


def parallel_body(body: SupportBody, r: float, rescale: bool = False) -> SupportBody:
    """Outer offset at distance r: support function h + r.

    With ``rescale`` the result is dilated by 1/(1 + r), which fixes the
    unit sphere and flattens perturbations by the same factor.
    """
    if r < 0.0:
        raise ValueError("offset distance must be nonnegative")
    scale = 1.0 / (1.0 + r) if rescale else 1.0
    q = np.asarray(body.quad, float) * scale
    return SupportBody((body.c0 + r) * scale,
                       tuple(np.asarray(body.linear, float) * scale),
                       tuple(map(tuple, q)),
                       tuple(np.asarray(body.quartic, float) * scale),
                       name=f"{body.name}+r{r:g}" + ("/rescaled" if rescale else ""))


def rotate_body(body: SupportBody, R) -> SupportBody:
    """Rigid rotation of the body (only for quartic-free families)."""
    R = np.asarray(R, float)
    if np.any(np.asarray(body.quartic) != 0.0):
        raise NotImplementedError("diagonal quartic terms are not rotation-covariant")
    l = R @ np.asarray(body.linear, float)
    Q = R @ np.asarray(body.quad, float) @ R.T
    return SupportBody(body.c0, tuple(l), tuple(map(tuple, Q)),
                       (0.0, 0.0, 0.0), name=f"{body.name}@rot")


# ---------------------------------------------------------------------------
# pose and pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pose:
    """Rigid motion p -> R p + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def apply(self, p):
        return np.asarray(p, float) @ self.rotation.T + self.translation


def _rotation_taking(a, b) -> np.ndarray:
    """Rotation matrix mapping unit vector a to unit vector b.

    Near-antipodal pairs go through a half-turn first; the direct Rodrigues
    formula divides by 1 + <a, b> and loses orthogonality there.
    """
    a = unit3(np.asarray(a, float))
    b = unit3(np.asarray(b, float))
    c = float(a @ b)
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -0.5:
        seed = np.array([1.0, 0.0, 0.0]) if abs(a[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        axis = unit3(np.cross(a, seed))
        half_turn = 2.0 * np.outer(axis, axis) - np.eye(3)
        return _rotation_taking(-a, b) @ half_turn
    v = np.cross(a, b)
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


@dataclass(frozen=True)
class PosedBody:
    """A body rigidly moved so the point with normal ustar sits at the
    origin with outward normal pointing straight down."""

    body: SupportBody
    ustar: np.ndarray
    pose: Pose
    t1: np.ndarray
    t2: np.ndarray

    def cap_points(self, phis, thetas):
        """Posed boundary points and outward normals on the polar cap grid.

        u(phi, theta) runs at angle phi from ustar; the difference
        X(u) - X(ustar) is assembled term by term so nothing cancels
        catastrophically for small phi.
        """
        phis = np.asarray(phis, float)
        thetas = np.asarray(thetas, float)
        sphi = np.sin(phis)[..., None]
        du_star = -2.0 * np.sin(0.5 * phis)[..., None] ** 2 * self.ustar
        w = (np.cos(thetas)[..., None] * self.t1 + np.sin(thetas)[..., None] * self.t2)
        du = du_star + sphi * w
        u = self.ustar + du
        b = self.body
        l, Q, a = b._arrays()
        hu = b.h(u)
        usum = u + self.ustar
        dh = (du @ l + np.einsum("...i,ij,...j->...", du, Q, usum)
              + np.sum(a * du * usum * (u ** 2 + self.ustar ** 2), axis=-1))
        dgrad = b.sphere_grad(u) - b.sphere_grad(self.ustar)
        delta = hu[..., None] * du + dh[..., None] * self.ustar + dgrad
        R = self.pose.rotation
        return delta @ R.T, u @ R.T

    def patch(self) -> Patch3:
        def point(phi, theta):
            q, _ = self.cap_points(np.array(phi), np.array(theta))
            return q

        def normal_fn(phi, theta):
            _, n = self.cap_points(np.array(phi), np.array(theta))
            return n

        return Patch3(point, normal_fn=normal_fn,
                      u_range=(0.0, math.pi), v_range=(0.0, math.tau),
                      label=f"posed({self.body.name})")


def pose_at_umbilic(body: SupportBody, ustar) -> PosedBody:
    """Rigid motion placing the boundary point with normal ustar at the
    origin, outward normal (0, 0, -1); the body then sits above the
    xy-plane, tangent to it at the origin."""
    ustar = unit3(np.asarray(ustar, float))
    R = _rotation_taking(ustar, np.array([0.0, 0.0, -1.0]))
    t = -R @ body_point(body, ustar)
    seed = (np.array([1.0, 0.0, 0.0]) if abs(ustar[0]) < 0.9
            else np.array([0.0, 1.0, 0.0]))
    t1 = unit3(seed - (seed @ ustar) * ustar)
    t2 = np.cross(ustar, t1)
    return PosedBody(body, ustar, Pose(R, t), t1, t2)


@dataclass(frozen=True)
class PipelineReport:
    """Outcome of the flatten-by-inversion pipeline on a convex body."""

    ustar: np.ndarray
    umbilic_residual: float
    offset_r: float
    rescale: float
    pose: Pose
    c: float
    columns: tuple
    rows: list
    graph_check_passed: bool
    meta: dict = dc_field(default_factory=dict)


def theorem1_pipeline(body: SupportBody, offset_r: float | None = None,
                      radii=(10.0, 100.0, 1000.0), n_theta: int = 512,
                      grid_n: int = 48) -> PipelineReport:
    """Flatten a convex body minus its umbilic into a graph and profile it.

    Stages: locate the most umbilic normal; take the rescaled outer offset
    at ``offset_r`` (default 10 x max h, large enough that the offset body
    is nearly round); pose the offset body with the umbilic at the origin;
    invert every sampled boundary point through the origin; measure, per
    target horizontal radius, the sup over azimuth of |height - c| and of
    rbar x slope on the inverted surface. c is half the curvature at the
    posed umbilic, the height the inverted graph approaches at infinity.

    A sampled single-valuedness check (rbar strictly decreasing along each
    azimuth ray) guards the graph reading; failure is reported, with the
    metric rows left empty.
    """
    check_convexity(body)
    site = find_umbilic(body, grid_n=grid_n)
    if offset_r is None:
        hmax = float(np.max(body.h(fibonacci_sphere(512))))
        offset_r = 10.0 * hmax
    bp = parallel_body(body, offset_r, rescale=True)
    posed = pose_at_umbilic(bp, site.u)
    rho1, rho2 = radii_of_curvature(bp, site.u)
    rho_star = 0.5 * float(rho1 + rho2)
    c = 1.0 / (2.0 * rho_star)

    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    thetas = np.arange(n_theta) * (math.tau / n_theta)

    # monotonicity ladder: phi from well inside the largest bin out to the cap
    phi_lo = min(0.01 / max(radii), 1e-4)
    phis = np.geomspace(phi_lo, 2.8, 220)
    q, n = posed.cap_points(phis[:, None], thetas[None, :])
    n2 = np.sum(q * q, axis=-1)
    rbar = np.hypot(q[..., 0], q[..., 1]) / n2
    monotone = bool(np.all(np.diff(rbar, axis=0) < 0.0))
    meta = {"offset_default": offset_r, "rho_star": rho_star,
            "umbilic_converged": site.converged}
    if not monotone:
        return PipelineReport(site.u, site.residual, offset_r, 1.0 / (1.0 + offset_r),
                              posed.pose, c, ("rbar", "sup_height_dev", "sup_rbar_slope"),
                              [], False, meta)

    rows = []
    for target in radii:
        if not (rbar[-1].max() < target < rbar[0].min()):
            raise DomainError(f"target radius {target} outside sampled ladder")
        lo_idx = np.argmax(rbar < target, axis=0)  # first index past the target

        def above(phi):
            qm, _ = posed.cap_points(phi, thetas)
            rb = np.hypot(qm[..., 0], qm[..., 1]) / np.sum(qm * qm, axis=-1)
            # a sign, not rb - target: a tie moves hi rather than closing the bracket
            return np.where(rb > target, 1.0, -1.0)

        phi_sol = bisect_arrays(above, phis[lo_idx - 1], phis[lo_idx])
        qs, ns = posed.cap_points(phi_sol, thetas)
        n2s = np.sum(qs * qs, axis=-1)
        rb = np.hypot(qs[..., 0], qs[..., 1]) / n2s
        height = qs[..., 2] / n2s
        qhat = qs / np.sqrt(n2s)[..., None]
        nref = ns - 2.0 * np.sum(ns * qhat, axis=-1, keepdims=True) * qhat
        slope = np.hypot(nref[..., 0], nref[..., 1]) / np.abs(nref[..., 2])
        rows.append((target, float(np.max(np.abs(height - c))),
                     float(np.max(rb * slope))))
    return PipelineReport(site.u, site.residual, offset_r, 1.0 / (1.0 + offset_r),
                          posed.pose, c, ("rbar", "sup_height_dev", "sup_rbar_slope"),
                          rows, True, meta)
