"""Closed convex surfaces given by support functions on the unit sphere,
umbilic search on them, and the inversion pipeline that flattens a body
minus one point into an asymptotically constant graph.

A support function h on S^2 determines the boundary point with outward
normal u as X(u) = h(u) u + grad_S h(u); the principal radii of curvature
are the tangent-plane eigenvalues of Hess_S h + h I. The families here are
closed forms (constant + linear + quadratic + even diagonal quartic in u),
so all spherical jets are analytic, vectorize over arrays of normals, and
carry a complex step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvexityError, DomainError, NonConvergenceError
from .util import (_check_offset, _floating, _row_norms, bracket_root, check_finite,
                   check_radii, complex_step, greedy_merge, local_minima, newton2, row_blocks,
                   sym_eigvals, unit3)

FIND_TOL = 1e-9    # rho2 - rho1 at which find_umbilic's search has converged
SITES_TOL = 1e-8   # rho2 - rho1 below which umbilic_sites keeps a polished site


@dataclass(frozen=True)
class SupportBody:
    """Convex body with support function
    h(u) = c0 + <linear, u> + u^T quad u + sum_i quartic_i u_i^4."""

    c0: float = 1.0
    linear: tuple = (0.0, 0.0, 0.0)
    quad: tuple = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    quartic: tuple = (0.0, 0.0, 0.0)
    name: str = "body"

    def _h(self, u):
        """h at the normals given as three component planes."""
        u4 = [c * c * (c * c) for c in u]
        return (self.c0 + _dot3(u, self.linear) + _dot3(_vecmat3(u, self.quad), u)
                + _dot3(u4, self.quartic))

    def _grad(self, u):
        """Euclidean gradient of the polynomial extension of h, as planes."""
        return tuple(l + 2.0 * m + 4.0 * a * (c * c * c) for l, m, a, c
                     in zip(self.linear, _vecmat3(u, self.quad), self.quartic, u))

    def _sphere_grad(self, u):
        """Tangential gradient of h on the sphere at the unit normals u, as planes."""
        g = self._grad(u)
        gu = _dot3(g, u)
        return tuple(gk - gu * uk for gk, uk in zip(g, u))

    def h(self, u):
        """Support function at the unit normals u (last axis)."""
        return self._h(_planes(u))

    def hess_ambient(self, u):
        u = _floating(u)
        out = np.broadcast_to(2.0 * np.asarray(self.quad, float),
                              u.shape[:-1] + (3, 3)).astype(u.dtype)
        idx = np.arange(3)
        out[..., idx, idx] += 12.0 * np.asarray(self.quartic, float) * u ** 2
        return out


def _planes(u):
    """The three component planes of an array of 3-vectors (last axis)."""
    u = _floating(u)
    return u[..., 0], u[..., 1], u[..., 2]


def _dot3(a, b):
    """a0 b0 + a1 b1 + a2 b2, added in that order (as ``np.sum`` adds a row
    of three), for 3-sequences of planes or scalars. Every operation is
    elementwise, so a value's bits never depend on the batch it sits in."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _vecmat3(a, M):
    """The components of the row vector a times the 3x3 matrix M."""
    return tuple(_dot3(a, (M[0][j], M[1][j], M[2][j])) for j in range(3))


def _tangent_basis(u):
    """Deterministic orthonormal tangent basis at each unit normal (the seed
    axis is picked on the real part, so a complex step cannot switch it)."""
    u = _floating(u)
    seed = np.zeros_like(u)
    use_x = np.abs(u[..., 0].real) < 0.9
    seed[..., 0] = np.where(use_x, 1.0, 0.0)
    seed[..., 1] = np.where(use_x, 0.0, 1.0)
    t1 = seed - np.sum(seed * u, axis=-1, keepdims=True) * u
    t1 = unit3(t1)
    # u x t1 with np.cross's arithmetic, without its per-call axis shuffling
    (u0, u1, u2), (a0, a1, a2) = _planes(u), _planes(t1)
    t2 = np.stack([u1 * a2 - u2 * a1, u2 * a0 - u0 * a2, u0 * a1 - u1 * a0], axis=-1)
    return t1, t2


def _tangent_hessian(body: SupportBody, u):
    """The ambient Hessian of h on the tangent basis (t1, t2) at u:
    ((a11, a12, a22), t1, t2)."""
    t1, t2 = _tangent_basis(u)
    Hm = body.hess_ambient(u)
    return tuple(np.einsum("...i,...ij,...j->...", a, Hm, b)
                 for a, b in ((t1, t1), (t1, t2), (t2, t2))), t1, t2


def radii_of_curvature(body: SupportBody, u, check: bool = True):
    """Principal radii of curvature (rho1 <= rho2) at the normal u: the
    eigenvalues of m = a + (h - <grad h, u>) I, a the tangent Hessian."""
    u = _floating(u)
    (a11, m12, a22), _, _ = _tangent_hessian(body, u)
    up = _planes(u)
    gdot = _dot3(body._grad(up), up)
    h = body._h(up)
    rho1, rho2 = sym_eigvals(a11 - gdot + h, m12, a22 - gdot + h)
    if check and np.any(rho1 <= 0.0):
        raise ConvexityError(
            f"body '{body.name}' has a nonpositive radius of curvature "
            f"(min {float(np.min(rho1)):.6g})")
    return rho1, rho2


def check_convexity(body: SupportBody, n: int = 2048) -> float:
    """Minimum radius of curvature over n Fibonacci normals; a nonpositive
    one raises ``radii_of_curvature``'s ``ConvexityError``."""
    return float(np.min(radii_of_curvature(body, fibonacci_sphere(n))[0]))


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


def _framed_anisotropy(body: SupportBody, u):
    """(m11 - m22, 2 m12) in the transported tangent frame (t1, t2), zero at
    umbilics, and that frame. The shift h - <grad h, u> of m11 and m22
    cancels, so h never enters."""
    (a11, a12, a22), t1, t2 = _tangent_hessian(body, u)
    return np.stack([a11 - a22, 2.0 * a12], axis=-1), t1, t2


def _anisotropy(body: SupportBody, u):
    """The anisotropy alone, as the Jacobian's complex steps need it."""
    return _framed_anisotropy(body, u)[0]


def _polish_umbilics(body: SupportBody, u0, max_iter: int = 30):
    """Newton iteration (``util.newton2``) on the tangent anisotropy F on
    every row of u0 (N, 3) at once, with a complex-step Jacobian along each
    tangent axis: quadratic where that Jacobian is regular at the site (index
    +-1/2), linear where it vanishes there (index +1, as at the zonal poles).
    Steps are cut to length 0.5, and a trial's tangent frame is the next
    step's basis. Rows converge at |F| < 1e-13, or at |F| < 1e-10 where they
    stall or run out of steps. Returns the unit rows and their flags."""
    def jacobian(v, F, t1, t2):
        return np.moveaxis(complex_step(lambda w: _anisotropy(body, unit3(w)), v,
                                        np.stack([t1, t2])), 0, -1)

    def retract(v, st, lam, t1, t2):
        step = st[:, :1] * t1 + st[:, 1:] * t2
        ns = _row_norms(step)
        big = ns > 0.5
        step[big] *= (0.5 / ns[big])[:, None]
        return unit3(v + lam * step), np.ones(len(v), bool)

    return newton2(lambda u: _framed_anisotropy(body, u), jacobian, retract,
                   unit3(np.asarray(u0, float).reshape(-1, 3)), (), _row_norms, 1e-13, 1e-10,
                   max_iter)


def find_umbilic(body: SupportBody, grid_n: int = 48) -> UmbilicSite:
    """Most umbilic normal direction: the argmin of rho2 - rho1 over a
    Fibonacci grid of max(grid_n^2, 64) normals, Newton-polished on the
    curvature anisotropy (``_polish_umbilics``). The polish takes only steps
    that lower the anisotropy, whose norm is rho2 - rho1.

    If the polished direction misses ``FIND_TOL`` it is returned with
    ``converged`` false and its residual for inspection.
    """
    grid = fibonacci_sphere(max(grid_n * grid_n, 64))
    r1, r2 = radii_of_curvature(body, grid, check=False)
    u = _polish_umbilics(body, grid[int(np.argmin(r2 - r1))])[0][0]
    rr1, rr2 = radii_of_curvature(body, u, check=False)
    final = float(rr2 - rr1)
    return UmbilicSite(u, final, final < FIND_TOL)


def _merge_close(us):
    """Rows of us (K, 3) kept by ``greedy_merge`` in row order, two rows being
    close when arccos(min(1, d)) < 1e-3 with d = <u_i, u_j>. Such rows differ
    by less than 1e-3 in z and have d > cos(1e-3), so the arccos runs only on
    the pairs within 1e-3 in z that have d > cos(2e-3)."""
    x, y, z = us.T

    def dot(i, j):
        return x[i] * x[j] + y[i] * y[j] + z[i] * z[j]

    return greedy_merge(z, 1e-3, lambda i, j: dot(i, j) > math.cos(2e-3),
                        lambda i, j: np.arccos(np.minimum(1.0, dot(i, j))) < 1e-3)


def umbilic_sites(body: SupportBody, grid_n: int = 48):
    """All distinct umbilic directions found from grid local minima.

    The candidates are the two poles, then the local minima of rho2 - rho1
    on a (max(grid_n, 16), 2 max(grid_n, 16)) polar grid in row-major order,
    each Newton-polished; those below ``SITES_TOL`` are sites. Sites merge
    greedily in candidate order: one closer than 1e-3 rad to an earlier kept
    site is dropped (``_merge_close``). The list is sorted by its
    directions rounded to 9 decimals, z first, then x, then y, ties in
    candidate order.
    """
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
    good = resid < SITES_TOL
    us, resid = us[good], resid[good]
    keep = _merge_close(us)
    us, resid = us[keep], resid[keep]
    key = np.round(us, 9)
    return [UmbilicSite(us[k], float(resid[k]), True)
            for k in np.lexsort((key[:, 1], key[:, 0], key[:, 2]))]


def parallel_body(body: SupportBody, r: float, rescale: bool = False) -> SupportBody:
    """Outer offset at distance r: support function h + r.

    With ``rescale`` the result is dilated by 1/(1 + r), which fixes the
    unit sphere and flattens perturbations by the same factor.
    """
    _check_offset(r)
    scale = 1.0 / (1.0 + r) if rescale else 1.0
    q = np.asarray(body.quad, float) * scale
    return SupportBody((body.c0 + r) * scale,
                       tuple(np.asarray(body.linear, float) * scale),
                       tuple(map(tuple, q)),
                       tuple(np.asarray(body.quartic, float) * scale),
                       name=f"{body.name}+r{r:g}" + ("/rescaled" if rescale else ""))


# ---------------------------------------------------------------------------
# pose and pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PosedBody:
    """A body rigidly moved so the point with normal ustar sits at the
    origin with outward normal pointing straight down: p -> F (p - X(ustar)),
    F the frame with rows t2, t1, -ustar (``_pose``), (t1, t2) the tangent
    basis at ustar."""

    body: SupportBody
    ustar: np.ndarray
    t1: np.ndarray
    t2: np.ndarray

    def _cap_planes(self, phis, thetas):
        """The component planes of u(phi, theta) - ustar and of u(phi, theta),
        the unit normal at angle phi from ustar in azimuth theta."""
        phis = np.asarray(phis, float)
        thetas = np.asarray(thetas, float)
        us = self.ustar
        sphi = np.sin(phis)
        dstar = -2.0 * np.sin(0.5 * phis) ** 2  # du along ustar
        c, s = np.cos(thetas), np.sin(thetas)
        du = [dstar * us[k] + sphi * (c * self.t1[k] + s * self.t2[k]) for k in range(3)]
        return du, [us[k] + du[k] for k in range(3)]

    def _pose(self, planes):
        """The vectors d, given as component planes, in the posed frame:
        (<d, t2>, <d, t1>, -<d, ustar>) on the last axis. t2 = ustar x t1, so
        the rows t2, t1, -ustar are right-handed and the pose is a rotation."""
        return np.stack([_dot3(self.t2, planes), _dot3(self.t1, planes),
                         -_dot3(self.ustar, planes)], axis=-1)

    def cap_points(self, phis, thetas):
        """Posed boundary points on the polar cap grid.

        u(phi, theta) runs at angle phi from ustar; the difference
        X(u) - X(ustar) is assembled term by term so nothing cancels
        catastrophically for small phi. Every value is made one component
        plane at a time by elementwise operations, so its bits do not depend
        on the shape of the batch.
        """
        b, us = self.body, self.ustar
        du, u = self._cap_planes(phis, thetas)
        usum = [u[k] + us[k] for k in range(3)]
        dh = (_dot3(du, b.linear) + _dot3(_vecmat3(du, b.quad), usum)
              + _dot3(b.quartic, [du[k] * usum[k] * (u[k] * u[k] + us[k] * us[k])
                                  for k in range(3)]))
        hu = b._h(u)
        sg, sg_star = b._sphere_grad(u), b._sphere_grad(us)
        delta = [hu * du[k] + dh * us[k] + (sg[k] - sg_star[k]) for k in range(3)]
        del du, u, usum, dh, hu, sg  # a ladder-sized call holds fewer planes at once
        return self._pose(delta)

    def cap_normals(self, phis, thetas):
        """Posed outward normals u(phi, theta) on the polar cap grid, made
        as ``cap_points`` makes its points."""
        return self._pose(self._cap_planes(phis, thetas)[1])


def pose_at_umbilic(body: SupportBody, ustar) -> PosedBody:
    """Rigid motion placing the boundary point with normal ustar at the
    origin, outward normal (0, 0, -1); the body then sits above the
    xy-plane, tangent to it at the origin."""
    ustar = unit3(np.asarray(ustar, float))
    return PosedBody(body, ustar, *_tangent_basis(ustar))


def _inverted_rbar(q):
    """Horizontal radius |q_xy| / |q|^2 of the inverted images of posed points q."""
    x, y, z = _planes(q)
    return np.hypot(x, y) / _dot3((x, y, z), (x, y, z))


# points per block of the body pipeline's phi ladder: ``PosedBody.cap_points``
# holds about 25 planes at once, 1.6 MiB at 2^13 points, so its ~186 elementwise
# passes run from a 2 MiB L2. On a 2-core Xeon with 2 MiB L2 per core, the five
# ladders of a body-pipeline op set took 48.7 ms as one call each and 33.4 ms in
# 2^13-point blocks (2^12: 42.1, 2^14: 32.6, 2^15: 45.5; median of 9 rounds)
_LADDER_POINTS = 1 << 13


def _ladder_rbar(posed: PosedBody, phis, thetas):
    """rbar of the posed points on the (phi, theta) ladder, one row per phi,
    made in blocks of whole rows of at most ``_LADDER_POINTS`` points.
    ``cap_points`` is elementwise, so the bytes are those of one call."""
    return np.concatenate([_inverted_rbar(posed.cap_points(phis[b, None], thetas[None, :]))
                           for b in row_blocks(len(phis), len(thetas), _LADDER_POINTS)])


@dataclass(frozen=True)
class PipelineReport:
    """Outcome of the flatten-by-inversion pipeline on a convex body."""

    ustar: np.ndarray
    offset_r: float
    c: float
    rows: list
    graph_check_passed: bool
    columns: tuple = ("rbar", "sup_height_dev", "sup_rbar_slope")


def theorem1_pipeline(body: SupportBody, offset_r: float | None = None,
                      radii=(10.0, 100.0, 1000.0), n_theta: int = 512) -> PipelineReport:
    """Flatten a convex body minus its umbilic into a graph and profile it.

    Stages: locate the most umbilic normal; take the rescaled outer offset
    at ``offset_r`` (default 10 x max h, large enough that the offset body
    is nearly round); pose the offset body with the umbilic at the origin;
    invert every sampled boundary point through the origin; measure, per
    target horizontal radius, the sup over azimuth of |height - c| and of
    rbar x slope on the inverted surface. c is half the curvature at the
    posed umbilic, the height the inverted graph approaches at infinity.

    A sampled single-valuedness check (rbar strictly decreasing along each
    azimuth ray of a 220-angle phi ladder) guards the graph reading; failure
    is reported, with the metric rows left empty. The ladder is evaluated in
    blocks of whole rows of at most 2^13 points (``_ladder_rbar``), whose
    bytes are those of one call. A most umbilic normal that misses ``FIND_TOL``
    raises ``NonConvergenceError``: only an umbilic is posed. The radii must
    be positive, finite and strictly increasing, ``offset_r`` finite and
    nonnegative, and ``n_theta`` at least 1 (``ValueError``, checked before
    any search).
    """
    radii = check_radii(radii)
    if n_theta < 1:
        raise ValueError("n_theta must be at least 1")
    if offset_r is None:
        offset_r = 10.0 * float(np.max(body.h(fibonacci_sphere(512))))
    bp = parallel_body(body, offset_r, rescale=True)
    check_convexity(body)
    site = find_umbilic(body)
    if not site.converged:
        raise NonConvergenceError(
            f"umbilic search stopped at rho2 - rho1 = {site.residual:.3e}, "
            f"above {FIND_TOL:g}")
    posed = pose_at_umbilic(bp, site.u)
    rho1, rho2 = radii_of_curvature(bp, site.u)
    rho_star = 0.5 * float(rho1 + rho2)
    c = 1.0 / (2.0 * rho_star)

    thetas = np.arange(n_theta) * (math.tau / n_theta)

    # monotonicity ladder: phi from well inside the largest bin out to the cap
    phi_lo = min(0.01 / max(radii), 1e-4)
    phis = np.geomspace(phi_lo, 2.8, 220)
    # a ladder whose posed points underflow divides by |q|^2 = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        rbar = _ladder_rbar(posed, phis, thetas)
    check_finite(rbar, (rbar,), "ladder samples")
    monotone = bool(np.all(np.diff(rbar, axis=0) < 0.0))
    if not monotone:
        return PipelineReport(site.u, offset_r, c, [], False)

    for target in radii:
        if not (rbar[-1].max() < target < rbar[0].min()):
            raise DomainError(f"target radius {target} outside sampled ladder")
    targets = np.array(radii)[:, None]
    # per (radius, azimuth): the first ladder index past the target
    lo_idx = np.argmax(rbar < targets[:, :, None], axis=1)
    cols = np.arange(n_theta)

    def above(phi):
        return _inverted_rbar(posed.cap_points(phi, thetas)) - targets

    # one solve for every (radius, azimuth) pair; the ladder rows on either
    # side of each root hold g at its bracket ends, bit for bit, as cap_points
    # is elementwise
    phi_sol = bracket_root(above, phis[lo_idx - 1], phis[lo_idx],
                           rbar[lo_idx - 1, cols] - targets, rbar[lo_idx, cols] - targets)
    qs, ns = posed.cap_points(phi_sol, thetas), posed.cap_normals(phi_sol, thetas)
    n2s = np.sum(qs * qs, axis=-1)
    rb = _inverted_rbar(qs)
    height = qs[..., 2] / n2s
    qhat = qs / np.sqrt(n2s)[..., None]
    nref = ns - 2.0 * np.sum(ns * qhat, axis=-1, keepdims=True) * qhat
    slope = np.hypot(nref[..., 0], nref[..., 1]) / np.abs(nref[..., 2])
    rows = [(target, float(dev), float(decay)) for target, dev, decay
            in zip(radii, np.max(np.abs(height - c), axis=-1), np.max(rb * slope, axis=-1))]
    return PipelineReport(site.u, offset_r, c, rows, True)
