"""Sphere inversion of points, tangent vectors, and local graphs;
parallel offsets of parametric patches; principal-direction checks.

The inversion is m(p) = p / |p|^2. Its differential at q is the conformal
map dm_q(w) = w / |q|^2 - 2 <q, w> q / |q|^4, which scales inner products
by 1/|q|^4 and maps principal directions of a surface to principal
directions of its image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError, GraphConditionError, NonConvergenceError, RegularityError
from .field import ScalarField
from .util import (_EPS, _TINY, _check_offset, _floating, _libm, bracket_root, complex_step,
                   sym_eigvals, unit3)


# ---------------------------------------------------------------------------
# point and tangent inversion
# ---------------------------------------------------------------------------

def invert_point(q) -> np.ndarray:
    """m(q) = q / |q|^2; an involution fixing the unit sphere."""
    q = _floating(q)
    n2 = np.sum(q * q, axis=-1, keepdims=True)
    if np.any(n2 == 0.0):
        raise DomainError("inversion is undefined at the origin")
    return q / n2


def pushforward_inversion(q, w) -> np.ndarray:
    """Differential of the inversion at q applied to w."""
    q = _floating(q)
    w = _floating(w)
    n2 = np.sum(q * q, axis=-1, keepdims=True)
    if np.any(n2 == 0.0):
        raise DomainError("inversion is undefined at the origin")
    qw = np.sum(q * w, axis=-1, keepdims=True)
    return w / n2 - 2.0 * qw * q / (n2 * n2)


# ---------------------------------------------------------------------------
# graph condition and exterior graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphConditionReport:
    passes: bool
    sup_fr: float


def graph_condition(field: ScalarField, r0: float) -> GraphConditionReport:
    """Check the radial slope bound sup |df/dr| < 1 on the disk of radius r0,
    sampled on a 64 x 64 polar grid.

    The bound is sufficient for the inverted graph to meet every vertical
    line at most once. Requires f and grad f to vanish at the origin
    (measured values are reported on violation).
    """
    if not (r0 > 0.0 and r0 * r0 >= _TINY):  # also refuses NaN
        raise ValueError(f"r0 must be positive and its square must not underflow, got {r0}")
    j0 = field.jet((0.0, 0.0))
    f0, g0 = abs(j0.f), math.hypot(j0.f1, j0.f2)
    if f0 > 1e-10 or g0 > 1e-10:
        raise GraphConditionError(
            f"field must vanish to first order at the origin: "
            f"|f(o)| = {f0:.3e}, |grad f(o)| = {g0:.3e}")
    n_side = 64
    rs = np.linspace(r0 / n_side, r0, n_side)
    thetas = np.arange(n_side) * (math.tau / n_side)
    R, T = np.meshgrid(rs, thetas, indexing="ij")
    X, Y = R * np.cos(T), R * np.sin(T)
    _, f1, f2 = field.values_and_grads(X, Y)
    fr = (X * f1 + Y * f2) / R
    sup_fr = float(np.max(np.abs(fr)))
    return GraphConditionReport(sup_fr < 1.0, sup_fr)


def _rescaled_field(field: ScalarField, s: float) -> ScalarField:
    """Dilation of the graph by s: f_s(p) = s * f(p / s)."""

    def jets(x, y):
        f, f1, f2, f11, f12, f22 = field.jet_arrays(x / s, y / s)
        return s * f, f1, f2, f11 / s, f12 / s, f22 / s

    domain = None
    if field.domain is not None:
        domain = lambda x, y: field.domain(x / s, y / s)
    return ScalarField(f"{field.name}*scaled", jets, domain=domain)


@dataclass(frozen=True)
class ExteriorGraph:
    """The inverted image of graph(f) over a small disk, as a graph over
    the plane outside a bounded neighborhood of the origin.

    In polar coordinates the correspondence is

        rbar = r / (r^2 + f^2),   fbar = f / (r^2 + f^2),   theta unchanged,

    and each evaluation recovers r from (rbar, theta) inside
    (1/(2 rbar), 1/rbar], which the slope bound guarantees to contain
    exactly one solution. One superlinear bracketed solve
    (``util.bracket_root``) serves all query points at once, each to within
    4 eps r of its root. Gradients and Hessians carry the source jet at the
    solved points through (x, y, f) -> (x, y, f) / w by the chain rule
    (``_graph_jet``); every public surface derives from it.
    """

    source: ScalarField
    r0: float
    rbar_min: float
    scale: float = 1.0

    def solve_r(self, rbar, theta):
        """Source radius mapping to rbar along the ray theta, elementwise.

        Where f vanishes on the ray, 1/rbar is the root itself: an upper
        bracket end whose residual is within rounding of zero (4 eps rbar)
        is taken as the root.
        """
        rbar, theta = np.broadcast_arrays(np.asarray(rbar, dtype=float),
                                          np.asarray(theta, dtype=float))
        # on the bracket w = r^2 + f^2 >= 1/(4 rbar^2): _graph_jet's w^2 is a
        # normal float up to rbar_max
        rbar_max = 0.5 * _TINY ** -0.25
        outside = ~((rbar >= self.rbar_min) & (rbar <= rbar_max))
        if np.any(outside):
            bad = rbar[outside][0]
            raise DomainError(f"rbar = {bad:.6g} " + (
                f"above exterior domain (max {rbar_max:.6g})" if bad > rbar_max
                else f"below exterior domain (min {self.rbar_min:.6g})"))
        c, s = np.cos(theta), np.sin(theta)

        def g(r):
            f = self.source.values_and_grads(r * c, r * s)[0]
            return r / (r * r + f * f) - rbar

        lo = 0.5 / rbar
        hi = np.minimum(1.0 / rbar, self.r0)
        glo, ghi = g(lo), g(hi)
        at_lo = glo == 0.0
        at_hi = ~at_lo & (np.abs(ghi) <= 4.0 * _EPS * rbar)
        if np.any(~at_lo & ~at_hi & ((glo < 0.0) | (ghi > 0.0))):
            raise NonConvergenceError(
                "bisection bracket violated; the slope bound does not hold")
        # a row with glo == 0 closes on lo, and one at_hi on the empty [hi, hi]
        return bracket_root(g, np.where(at_hi, hi, lo), hi, np.where(at_hi, ghi, glo), ghi)

    def _graph_jet(self, rbar, theta):
        """(fbar, fbar_x, fbar_y, fbar_xx, fbar_xy, fbar_yy) over the
        (xbar, ybar) plane at the query points, from one solve.

        With p = (x, y), w = r^2 + f^2 and grad w = 2 (p + f grad f), the map
        p -> p / w has Jacobian (I - p grad w^T / w) / w, whose inverse is
        w B with B = I + p grad w^T / d and d = w - p . grad w
        (Sherman-Morrison). Hence grad fbar = B^T a for a = w grad_p(f / w),
        and Hess fbar = w B^T M B, where M = w Hess_p(u / w) for
        u = f - grad fbar . p with grad fbar held fixed.
        """
        r = self.solve_r(rbar, theta)
        x, y = r * np.cos(theta), r * np.sin(theta)
        f, f1, f2, f11, f12, f22 = self.source.jet_arrays(x, y)
        w = r * r + f * f
        # column vectors (..., 2, 1), matrices (..., 2, 2), scalars (..., 1, 1)
        p, gf = np.stack([x, y], axis=-1)[..., None], np.stack([f1, f2], axis=-1)[..., None]
        hf = np.stack([f11, f12, f12, f22], axis=-1).reshape(f.shape + (2, 2))
        fs, ws = f[..., None, None], w[..., None, None]
        gw = 2.0 * (p + fs * gf)
        d = ws - _mT(p) @ gw
        a = gf - fs * gw / ws
        g = a + gw * (_mT(p) @ a) / d
        u, gu = fs - _mT(g) @ p, gf - g
        hw = 2.0 * (np.eye(2) + gf @ _mT(gf) + fs * hf)
        m = (hf - (gu @ _mT(gw) + gw @ _mT(gu) + u * hw) / ws
             + 2.0 * u * (gw @ _mT(gw)) / (ws * ws))
        b = np.eye(2) + p @ _mT(gw) / d
        h = ws * (_mT(b) @ m @ b)
        return f / w, g[..., 0, 0], g[..., 1, 0], h[..., 0, 0], h[..., 0, 1], h[..., 1, 1]

    def evaluate(self, rbar, theta) -> tuple:
        """(fbar, d fbar / d rbar, d fbar / d theta) at the query points."""
        fbar, gx, gy = self._graph_jet(rbar, theta)[:3]
        c, s = np.cos(theta), np.sin(theta)
        return fbar, c * gx + s * gy, np.asarray(rbar, dtype=float) * (c * gy - s * gx)

    def as_field(self) -> ScalarField:
        """Adapter exposing the exterior graph as a ScalarField. Its domain
        is the one of ``solve_r``, tested on the libm rbar at which the jets
        are solved; a point outside raises ``solve_r``'s DomainError."""

        def jets(xa, ya):
            return self._graph_jet(_libm(math.hypot, xa, ya), _libm(math.atan2, ya, xa))

        def grads(xa, ya):
            return jets(xa, ya)[:3]

        return ScalarField(f"inverted({self.source.name})", jets, grads=grads)


def _mT(v):
    """Transpose of each matrix in a stack."""
    return np.swapaxes(v, -1, -2)


def invert_local_graph(field: ScalarField, r0: float,
                       normalize: bool = False) -> ExteriorGraph:
    """Invert graph(f) over the disk of radius r0 into an exterior graph.

    With ``normalize`` the field is first dilated so the curvature at its
    critical point is 2 (fbar then tends to 1 at infinity); the applied
    scale factor is recorded on the result.
    """
    scale = 1.0
    src = field
    if normalize:
        j0 = field.jet((0.0, 0.0))
        if abs(j0.f11 - j0.f22) > 1e-8 or abs(j0.f12) > 1e-8:
            raise GraphConditionError("normalization requires an umbilic critical "
                                      "point at the origin")
        if j0.f11 <= 0.0:
            raise GraphConditionError("normalization requires positive curvature "
                                      "at the origin")
        scale = j0.f11 / 2.0
        if scale != 1.0:
            src = _rescaled_field(field, scale)
            r0 = r0 * scale
    report = graph_condition(src, r0)
    if not report.passes:
        raise GraphConditionError(
            f"radial slope bound fails on disk r0 = {r0:.6g}: "
            f"sup |df/dr| = {report.sup_fr:.6g} >= 1")
    thetas = np.arange(512) * (math.tau / 512)
    fring = src.values_and_grads(r0 * np.cos(thetas), r0 * np.sin(thetas))[0]
    fmax = float(np.max(np.abs(fring)))
    rbar_min = r0 / (r0 * r0 + fmax * fmax)
    return ExteriorGraph(src, float(r0), rbar_min, scale)


def exterior_eval(graph: ExteriorGraph, rbar: float, theta: float) -> tuple:
    """(fbar, fbar_rbar, fbar_theta) of an exterior graph."""
    return graph.evaluate(rbar, theta)


# ---------------------------------------------------------------------------
# parametric patches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Patch3:
    """A parametric surface patch (u, v) -> R^3, given by its second-order
    jet: ``jet(u, v)`` returns the six 3-vectors (X, X_u, X_v, X_uu, X_uv,
    X_vv), stacked on the last axis over the broadcast shape of u and v.
    The unit normal is along X_u x X_v. Jets accept complex (u, v), for the
    complex steps of ``parallel_patch``.
    """

    jet: Callable
    u_range: tuple = (0.0, math.pi)
    v_range: tuple = (0.0, math.tau)
    label: str = "patch"


def _dot(a, b):
    """Inner products of 3-vectors along the last axis, kept as a length-1 axis."""
    return np.sum(a * b, axis=-1, keepdims=True)


def _unit_normal(P: Patch3, Xu, Xv, u, v):
    """(unit normal, |X_u x X_v|, the latter on a length-1 last axis); a
    cross product at most 1e-12 |X_u| |X_v| (on the real parts) is
    irregular. The norm sqrt(w . w) is analytic, so it carries a complex
    step."""
    w = np.cross(Xu, Xv)
    nw = np.sqrt(_dot(w, w))
    xu, xv = Xu.real, Xv.real
    bad = (nw.real <= 1e-12 * np.sqrt(_dot(xu, xu) * _dot(xv, xv)))[..., 0]
    if np.any(bad):
        ub, vb = (np.broadcast_to(t, bad.shape)[bad][0] for t in (u, v))
        raise RegularityError(f"patch '{P.label}' degenerates at "
                              f"(u, v) = ({ub}, {vb})")
    return w / nw, nw


@dataclass(frozen=True)
class PatchPrincipal:
    k1: np.ndarray
    k2: np.ndarray
    d1: np.ndarray  # unit tangent 3-vectors on the last axis
    d2: np.ndarray
    umbilic: np.ndarray
    xu: np.ndarray  # the parameter tangents X_u, X_v the frame was taken from
    xv: np.ndarray


def patch_principal(P: Patch3, u, v) -> PatchPrincipal:
    """Principal curvatures and directions of a patch at every (u, v).

    The second fundamental form (a, b, c) is taken in the orthonormal frame
    e1 = X_u / |X_u|, e2 the Gram-Schmidt of X_v; the curvatures are
    -(mean +- sqrt((a - c)^2 / 4 + b^2)) (``util.sym_eigvals``), and d1
    lies at the angle psi = atan2(2 b, a - c) / 2 from e1, d2 a right angle
    further. Sign convention: a sphere with outward normal has positive
    curvature (matching the graph convention where convex bowls are
    positive). A point is umbilic when (k2 - k1)^2 is below
    64 eps max(1, k^2), the rounding level of (k2 - k1)^2 / 4 = H^2 - K, so
    no square root of rounding noise is compared; its directions are then
    the frame axes e1, e2.
    """
    _, Pu, Pv, Puu, Puv, Pvv = P.jet(u, v)
    n = _unit_normal(P, Pu, Pv, u, v)[0]
    e1 = unit3(Pu)
    e2 = unit3(Pv - _dot(Pv, e1) * e1)
    # X_u = alpha e1 and X_v = alpha s e1 + gamma e2
    alpha, gamma = _dot(Pu, e1)[..., 0], _dot(Pv, e2)[..., 0]
    s = _dot(Pv, e1)[..., 0] / alpha
    L, M, N = (_dot(d, n)[..., 0] for d in (Puu, Puv, Pvv))
    a = L / (alpha * alpha)
    b = (M - s * L) / (alpha * gamma)
    c = (N - 2.0 * s * M + s * s * L) / (gamma * gamma)
    lo, hi = sym_eigvals(a, b, c)
    k1, k2 = -hi, -lo
    umbilic = (k2 - k1) ** 2 <= 64.0 * _EPS * np.maximum(1.0, np.maximum(k1 * k1, k2 * k2))
    psi = np.where(umbilic, 0.0, 0.5 * np.arctan2(2.0 * b, a - c))[..., None]
    cp, sp = np.cos(psi), np.sin(psi)
    return PatchPrincipal(k1, k2, cp * e1 + sp * e2, cp * e2 - sp * e1, umbilic, Pu, Pv)


# --- patch families --------------------------------------------------------

def _sphere_jet(u, v):
    """Jet of the unit sphere at polar angle u and azimuth v."""
    su, cu, sv, cv = np.broadcast_arrays(np.sin(u), np.cos(u), np.sin(v), np.cos(v))
    z = np.zeros_like(su)
    S = np.stack([su * cv, su * sv, cu], axis=-1)
    return (S, np.stack([cu * cv, cu * sv, -su], axis=-1),
            np.stack([-su * sv, su * cv, z], axis=-1), -S,
            np.stack([-cu * sv, cu * cv, z], axis=-1),
            np.stack([-su * cv, -su * sv, z], axis=-1))


def ellipsoid_patch(a: float, b: float, cc: float, center=(0.0, 0.0, 0.0)) -> Patch3:
    """Axis-aligned ellipsoid with semi-axes a, b, cc about ``center``."""
    c = np.asarray(center, dtype=float)
    axes = np.array([a, b, cc], dtype=float)

    def jet(u, v):
        S = _sphere_jet(u, v)
        return (c + axes * S[0],) + tuple(axes * d for d in S[1:])

    return Patch3(jet, label=f"ellipsoid({a},{b},{cc})")


def sphere_patch(center=(0.0, 0.0, 0.0), radius: float = 1.0) -> Patch3:
    R = float(radius)
    return replace(ellipsoid_patch(R, R, R, center), label=f"sphere(R={R})")


def perturbed_sphere_patch(eps: float = 0.1, center=(0.0, 0.0, 0.0)) -> Patch3:
    """Radial graph over the unit sphere: rho = 1 + eps sin^2(u) sin(v) cos(v).

    The jet is exact (product rule on rho S), so second-order quantities
    carry no finite-difference noise.
    """
    c = np.asarray(center, dtype=float)
    e = float(eps)

    def jet(u, v):
        S, Su, Sv, Suu, Suv, Svv = _sphere_jet(u, v)
        su, s2u, c2u = np.sin(u), np.sin(2 * u), np.cos(2 * u)
        s2v, c2v = np.sin(2 * v), np.cos(2 * v)
        rho, ru, rv, ruu, ruv, rvv = (np.asarray(w)[..., None] for w in (
            1.0 + 0.5 * e * su * su * s2v, 0.5 * e * s2u * s2v, e * su * su * c2v,
            e * c2u * s2v, e * s2u * c2v, -2.0 * e * su * su * s2v))
        return (c + rho * S, ru * S + rho * Su, rv * S + rho * Sv,
                ruu * S + 2.0 * ru * Su + rho * Suu,
                ruv * S + ru * Sv + rv * Su + rho * Suv,
                rvv * S + 2.0 * rv * Sv + rho * Svv)

    return Patch3(jet, label=f"perturbed-sphere(eps={e})")


def plane_patch() -> Patch3:
    """The xy-plane, (u, v) -> (u, v, 0), over [-1, 1]^2."""

    def jet(u, v):
        u, v = np.broadcast_arrays(u, v)
        z, one = np.zeros(u.shape), np.ones(u.shape)
        return (np.stack([u, v, z], axis=-1), np.stack([one, z, z], axis=-1),
                np.stack([z, one, z], axis=-1)) + (np.zeros(u.shape + (3,)),) * 3

    return Patch3(jet, u_range=(-1.0, 1.0), v_range=(-1.0, 1.0), label="plane")


def parallel_patch(P: Patch3, r: float) -> Patch3:
    """Offset patch (u, v) -> P(u, v) + r n(u, v).

    First derivatives differentiate the normal analytically from P's jet.
    Second derivatives would need P's third derivatives; they are complex
    steps of those first derivatives in u and in v, exact to rounding.
    A coarse 5 x 5 sample verifies 1 + r k is not zero to rounding
    (offsetting by a focal distance folds the patch).
    """
    _check_offset(r)

    def first(u, v):
        X, Xu, Xv, Xuu, Xuv, Xvv = P.jet(u, v)
        n, nw = _unit_normal(P, Xu, Xv, u, v)
        wu = np.cross(Xuu, Xv) + np.cross(Xu, Xuv)
        wv = np.cross(Xuv, Xv) + np.cross(Xu, Xvv)
        return (X + r * n, Xu + r * (wu - n * _dot(n, wu)) / nw,
                Xv + r * (wv - n * _dot(n, wv)) / nw)

    def jet(u, v):
        _, Xuu, Xuv = complex_step(lambda t: first(t, v), u, 1.0)
        Xvv = complex_step(lambda t: first(u, t), v, 1.0)[2]
        return first(u, v) + (Xuu, Xuv, Xvv)

    us = np.linspace(P.u_range[0], P.u_range[1], 7)[1:-1]
    vs = np.linspace(P.v_range[0], P.v_range[1], 7)[1:-1]
    pp = patch_principal(P, us[:, None], vs[None, :])
    k = np.stack([pp.k1, pp.k2], axis=-1)
    focal = np.abs(1.0 + r * k) <= 8.0 * _EPS * np.maximum(1.0, np.abs(r * k))
    if np.any(focal):
        raise RegularityError(f"offset {r} hits a focal distance (k = {k[focal][0]:.6g})")
    return Patch3(jet, P.u_range, P.v_range, f"{P.label}+parallel({r})")


def _inversion_hessian(p, a, b):
    """Second differential of the inversion at p on the tangent pairs a, b:
    (8 (p.a)(p.b) p / |p|^2 - 2 ((p.a) b + (p.b) a + (a.b) p)) / |p|^4."""
    n2 = _dot(p, p)
    pa, pb = _dot(a, p), _dot(b, p)
    return (8.0 * pa * pb * p / n2 - 2.0 * (pa * b + pb * a + _dot(a, b) * p)) / (n2 * n2)


def invert_patch(P: Patch3) -> Patch3:
    """Image of a patch under the inversion, in the same parameters. Its jet
    is P's carried through m by the chain rule: first derivatives by the
    differential (``pushforward_inversion``), second ones add the second
    differential on the pairs (X_u, X_u), (X_u, X_v), (X_v, X_v)."""

    def jet(u, v):
        X, Xu, Xv, Xuu, Xuv, Xvv = P.jet(u, v)
        d1 = pushforward_inversion(X, np.stack([Xu, Xv, Xuu, Xuv, Xvv]))
        d2 = _inversion_hessian(X, np.stack([Xu, Xu, Xv]), np.stack([Xu, Xv, Xv]))
        return (invert_point(X), d1[0], d1[1], d1[2] + d2[0], d1[3] + d2[1],
                d1[4] + d2[2])

    return Patch3(jet, P.u_range, P.v_range, f"inverted({P.label})")


# ---------------------------------------------------------------------------
# principal-direction preservation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreservationReport:
    max_angle_error: float
    usable: int
    skipped_umbilic: int


def principal_preservation_check(P: Patch3, Q: Patch3, samples: int = 200,
                                 seed: int = 0) -> PreservationReport:
    """Measure how well the map from P to its transformed patch Q (in the
    same parameters, e.g. ``invert_patch(P)`` or ``parallel_patch(P, r)``)
    carries principal directions to principal directions.

    Uniform (u, v) samples, 5% inside each parameter edge, are drawn from
    ``seed`` as rows of a (k, 2) array and evaluated a round of array calls
    at a time, until ``samples`` of them are usable or 50 x ``samples``
    are drawn. At a usable sample P's principal directions are pushed into
    Q's tangent plane (same parameter coordinates on Q's tangent basis) and
    compared, as lines, against Q's principal directions; the worst angle is
    reported. Samples umbilic on P (relative curvature gap below 1e-6) or
    on Q are skipped and counted.
    """
    rng = np.random.default_rng(seed)
    (u0, u1), (v0, v1) = P.u_range, P.v_range
    mu, mv = 0.05 * (u1 - u0), 0.05 * (v1 - v0)
    lo, hi = (u0 + mu, v0 + mv), (u1 - mu, v1 - mv)
    usable = skipped = draws = 0
    max_err = 0.0
    while usable < samples and draws < 50 * samples:
        k = min(samples - usable, 50 * samples - draws)
        draws += k
        u, v = rng.uniform(lo, hi, size=(k, 2)).T
        pp = patch_principal(P, u, v)
        kappa = np.maximum(1.0, np.maximum(np.abs(pp.k1), np.abs(pp.k2)))
        rows = np.flatnonzero(~(pp.umbilic | (pp.k2 - pp.k1 < 1e-6 * kappa)))
        qq = patch_principal(Q, u[rows], v[rows])
        ok = ~qq.umbilic
        rows, q1, q2, Qu, Qv = rows[ok], qq.d1[ok], qq.d2[ok], qq.xu[ok], qq.xv[ok]
        usable += len(rows)
        skipped += k - len(rows)
        if not len(rows):
            continue
        Pu, Pv = pp.xu[rows], pp.xv[rows]
        E, F, G = _dot(Pu, Pu), _dot(Pu, Pv), _dot(Pv, Pv)
        err = 0.0
        for d in (pp.d1[rows], pp.d2[rows]):
            du, dv = _dot(d, Pu), _dot(d, Pv)
            # d's (u, v) coordinates, times det I > 0, on Q's tangent basis
            mapped = (G * du - F * dv) * Qu + (E * dv - F * du) * Qv
            # atan2 of cross vs dot stays exact for identical lines, unlike acos
            err = np.maximum(err, np.minimum(*(
                np.arctan2(np.linalg.norm(np.cross(mapped, e), axis=-1),
                           np.abs(_dot(mapped, e)[..., 0])) for e in (q1, q2))))
        max_err = max(max_err, float(np.max(err)))
    return PreservationReport(max_err, usable, skipped)
