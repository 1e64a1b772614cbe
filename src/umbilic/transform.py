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

from .curvature import _principal_2x2
from .errors import DomainError, GraphConditionError, NonConvergenceError, RegularityError
from .field import ScalarField
from .util import _libm, bisect_arrays

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# point and tangent inversion
# ---------------------------------------------------------------------------

def invert_point(q) -> np.ndarray:
    """m(q) = q / |q|^2; an involution fixing the unit sphere."""
    q = np.asarray(q, dtype=float)
    n2 = np.sum(q * q, axis=-1, keepdims=True)
    if np.any(n2 == 0.0):
        raise DomainError("inversion is undefined at the origin")
    return q / n2


def pushforward_inversion(q, w) -> np.ndarray:
    """Differential of the inversion at q applied to w."""
    q = np.asarray(q, dtype=float)
    w = np.asarray(w, dtype=float)
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
    r0: float
    f_origin: float
    grad_origin: float


def graph_condition(field: ScalarField, r0: float, n_samples: int = 4096,
                    strict_origin: bool = True) -> GraphConditionReport:
    """Check the radial slope bound sup |df/dr| < 1 on the disk of radius r0.

    The bound is sufficient for the inverted graph to meet every vertical
    line at most once. Requires f and grad f to vanish at the origin
    (measured values are reported on violation).
    """
    if r0 <= 0.0:
        raise ValueError("r0 must be positive")
    j0 = field.jet((0.0, 0.0))
    f0, g0 = abs(j0.f), math.hypot(j0.f1, j0.f2)
    if strict_origin and (f0 > 1e-10 or g0 > 1e-10):
        raise GraphConditionError(
            f"field must vanish to first order at the origin: "
            f"|f(o)| = {f0:.3e}, |grad f(o)| = {g0:.3e}")
    n_side = max(8, int(math.sqrt(max(n_samples, 64))))
    rs = np.linspace(r0 / n_side, r0, n_side)
    thetas = np.arange(n_side) * (math.tau / n_side)
    R, T = np.meshgrid(rs, thetas, indexing="ij")
    X, Y = R * np.cos(T), R * np.sin(T)
    _, f1, f2 = field.values_and_grads(X, Y)
    fr = (X * f1 + Y * f2) / R
    sup_fr = float(np.max(np.abs(fr)))
    return GraphConditionReport(sup_fr < 1.0, sup_fr, r0, f0, g0)


def _rescaled_field(field: ScalarField, s: float) -> ScalarField:
    """Dilation of the graph by s: f_s(p) = s * f(p / s)."""

    def jets(x, y):
        f, f1, f2, f11, f12, f22 = field.jet_arrays(x / s, y / s)
        return s * f, f1, f2, f11 / s, f12 / s, f22 / s

    domain = None
    if field.domain is not None:
        domain = lambda x, y: field.domain(x / s, y / s)
    return ScalarField(f"{field.name}*scaled", jets, params=dict(field.params),
                       domain=domain, meta=dict(field.meta))


@dataclass(frozen=True)
class ExteriorGraph:
    """The inverted image of graph(f) over a small disk, as a graph over
    the plane outside a bounded neighborhood of the origin.

    In polar coordinates the correspondence is

        rbar = r / (r^2 + f^2),   fbar = f / (r^2 + f^2),   theta unchanged,

    and each evaluation recovers r from (rbar, theta) inside
    (1/(2 rbar), 1/rbar], which the slope bound guarantees to contain
    exactly one solution. Solves are array bisections of all query points
    at once, run to the float fixed point. First derivatives follow the
    chain rule; second derivatives (when requested through as_field) use
    central finite differences, as its "chain-rule+fd" jet kind says.
    """

    source: ScalarField
    r0: float
    rbar_min: float
    scale: float = 1.0
    normalized: bool = False

    def solve_r(self, rbar, theta):
        """Source radius mapping to rbar along the ray theta, elementwise.

        Where f vanishes on the ray, 1/rbar is the root itself: an upper
        bracket end whose residual is within rounding of zero (4 eps rbar)
        is taken as the root.
        """
        rbar, theta = np.broadcast_arrays(np.asarray(rbar, dtype=float),
                                          np.asarray(theta, dtype=float))
        outside = ~(rbar >= self.rbar_min)
        if np.any(outside):
            raise DomainError(f"rbar = {rbar[outside][0]:.6g} below exterior domain "
                              f"(min {self.rbar_min:.6g})")
        c, s = _libm(math.cos, theta), _libm(math.sin, theta)

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
        return bisect_arrays(g, np.where(at_hi, hi, lo), np.where(at_lo, lo, hi))

    def evaluate(self, rbar, theta) -> tuple:
        """(fbar, d fbar / d rbar, d fbar / d theta) at the query points.

        The radial derivative is (d fbar / dr) / (d rbar / dr); the angular
        one is (r^2 - f^2) f_theta / (r^2 + f^2)^2.
        """
        r = self.solve_r(rbar, theta)
        x, y = r * _libm(math.cos, theta), r * _libm(math.sin, theta)
        f, f1, f2 = self.source.values_and_grads(x, y)
        fr = (x * f1 + y * f2) / r
        ftheta = -y * f1 + x * f2
        w = r * r + f * f
        fbar = f / w
        num = r * r * fr - 2.0 * r * f - f * f * fr
        den = f * f - r * r - 2.0 * r * f * fr
        fbar_rbar = num / den
        fbar_theta = (r * r - f * f) * ftheta / (w * w)
        return fbar, fbar_rbar, fbar_theta

    def as_field(self) -> ScalarField:
        """Adapter exposing the exterior graph as a ScalarField.

        Values and gradients are chain-rule exact; Hessians are central
        differences of the gradient, whose four shifted copies of the query
        points are solved in the same array as the points themselves.
        """

        def grads(xa, ya):
            rbar = _libm(math.hypot, xa, ya)
            fbar, fr_, ft_ = self.evaluate(rbar, _libm(math.atan2, ya, xa))
            c, s = xa / rbar, ya / rbar
            return fbar, c * fr_ - s * ft_ / rbar, s * fr_ + c * ft_ / rbar

        def jets(xa, ya):
            h = 1e-7 * np.maximum(1.0, _libm(math.hypot, xa, ya))
            f, gx, gy = grads(np.stack([xa, xa + h, xa - h, xa, xa]),
                              np.stack([ya, ya, ya, ya + h, ya - h]))
            f11 = (gx[1] - gx[2]) / (2 * h)
            f22 = (gy[3] - gy[4]) / (2 * h)
            f12 = 0.5 * ((gy[1] - gy[2]) / (2 * h) + (gx[3] - gx[4]) / (2 * h))
            return f[0], gx[0], gy[0], f11, f12, f22

        def domain(x, y):
            return np.hypot(x, y) >= self.rbar_min

        return ScalarField(f"inverted({self.source.name})", jets,
                           domain=domain, jet_kind="chain-rule+fd",
                           grads=grads,
                           meta={"rbar_min": self.rbar_min, "scale": self.scale})


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
    return ExteriorGraph(src, float(r0), rbar_min, scale, normalize)


def exterior_eval(graph: ExteriorGraph, rbar: float, theta: float) -> tuple:
    """(fbar, fbar_rbar, fbar_theta) of an exterior graph."""
    return graph.evaluate(rbar, theta)


# ---------------------------------------------------------------------------
# parametric patches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Patch3:
    """A parametric surface patch (u, v) -> R^3.

    ``point`` is required; derivative callables fall back to central
    differences (of the point map for first derivatives, of the first
    derivatives for second ones). ``normal_sign`` orients the unit normal
    relative to point_u x point_v; ``normal_fn`` overrides it entirely.
    """

    point: Callable
    du: Callable | None = None
    dv: Callable | None = None
    duu: Callable | None = None
    duv: Callable | None = None
    dvv: Callable | None = None
    normal_fn: Callable | None = None
    normal_sign: float = 1.0
    u_range: tuple = (0.0, math.pi)
    v_range: tuple = (0.0, math.tau)
    label: str = "patch"

    def _h1(self, u, v):
        return math.sqrt(_EPS) * max(1.0, abs(u), abs(v))

    def d_u(self, u, v):
        if self.du is not None:
            return np.asarray(self.du(u, v), dtype=float)
        h = self._h1(u, v)
        return (np.asarray(self.point(u + h, v), float)
                - np.asarray(self.point(u - h, v), float)) / (2 * h)

    def d_v(self, u, v):
        if self.dv is not None:
            return np.asarray(self.dv(u, v), dtype=float)
        h = self._h1(u, v)
        return (np.asarray(self.point(u, v + h), float)
                - np.asarray(self.point(u, v - h), float)) / (2 * h)

    def _h2(self, u, v):
        return _EPS ** (1.0 / 3.0) * max(1.0, abs(u), abs(v))

    def d_uu(self, u, v):
        if self.duu is not None:
            return np.asarray(self.duu(u, v), dtype=float)
        h = self._h2(u, v)
        return (self.d_u(u + h, v) - self.d_u(u - h, v)) / (2 * h)

    def d_vv(self, u, v):
        if self.dvv is not None:
            return np.asarray(self.dvv(u, v), dtype=float)
        h = self._h2(u, v)
        return (self.d_v(u, v + h) - self.d_v(u, v - h)) / (2 * h)

    def d_uv(self, u, v):
        if self.duv is not None:
            return np.asarray(self.duv(u, v), dtype=float)
        h = self._h2(u, v)
        return 0.5 * ((self.d_u(u, v + h) - self.d_u(u, v - h)) / (2 * h)
                      + (self.d_v(u + h, v) - self.d_v(u - h, v)) / (2 * h))

    def normal(self, u, v):
        if self.normal_fn is not None:
            return np.asarray(self.normal_fn(u, v), dtype=float)
        w = np.cross(self.d_u(u, v), self.d_v(u, v))
        n = np.linalg.norm(w)
        if n <= 1e-12:
            raise RegularityError(f"patch '{self.label}' degenerates at "
                                  f"(u, v) = ({u}, {v})")
        return self.normal_sign * w / n


@dataclass(frozen=True)
class PatchPrincipal:
    k1: float
    k2: float
    d1: np.ndarray  # unit tangent 3-vectors
    d2: np.ndarray
    umbilic: bool


def patch_principal(P: Patch3, u: float, v: float,
                    gap_tol: float = 1e-10) -> PatchPrincipal:
    """Principal curvatures/directions of a patch at (u, v).

    Sign convention: a sphere with outward normal has positive curvature
    (matching the graph convention where convex bowls are positive).
    """
    Pu, Pv = P.d_u(u, v), P.d_v(u, v)
    n = P.normal(u, v)
    E, F, G = Pu @ Pu, Pu @ Pv, Pv @ Pv
    L, M, N = P.d_uu(u, v) @ n, P.d_uv(u, v) @ n, P.d_vv(u, v) @ n
    det_I = E * G - F * F
    if det_I <= 1e-18:
        raise RegularityError(f"patch '{P.label}' first fundamental form "
                              f"degenerates at ({u}, {v})")
    Iinv = np.array([[G, -F], [-F, E]]) / det_I
    W = -Iinv @ np.array([[L, M], [M, N]])
    _, _, gap2, k1, k2, a1, a2 = _principal_2x2(W)
    umbilic = 2.0 * math.sqrt(gap2) < gap_tol * max(1.0, abs(k1), abs(k2))
    if umbilic:
        d1 = Pu / np.linalg.norm(Pu)
        d2v = Pv - (Pv @ d1) * d1
        d2 = d2v / np.linalg.norm(d2v)
    else:
        d1 = a1[0] * Pu + a1[1] * Pv
        d2 = a2[0] * Pu + a2[1] * Pv
        d1 = d1 / np.linalg.norm(d1)
        d2 = d2 / np.linalg.norm(d2)
    return PatchPrincipal(k1, k2, d1, d2, umbilic)


# --- patch families --------------------------------------------------------

def sphere_patch(center=(0.0, 0.0, 0.0), radius: float = 1.0) -> Patch3:
    c = np.asarray(center, dtype=float)
    R = float(radius)

    def S(u, v):
        return np.array([math.sin(u) * math.cos(v),
                         math.sin(u) * math.sin(v),
                         math.cos(u)])

    def point(u, v):
        return c + R * S(u, v)

    def du(u, v):
        return R * np.array([math.cos(u) * math.cos(v),
                             math.cos(u) * math.sin(v), -math.sin(u)])

    def dv(u, v):
        return R * np.array([-math.sin(u) * math.sin(v),
                             math.sin(u) * math.cos(v), 0.0])

    def duu(u, v):
        return -R * S(u, v)

    def duv(u, v):
        return R * np.array([-math.cos(u) * math.sin(v),
                             math.cos(u) * math.cos(v), 0.0])

    def dvv(u, v):
        return R * np.array([-math.sin(u) * math.cos(v),
                             -math.sin(u) * math.sin(v), 0.0])

    def normal_fn(u, v):
        return S(u, v)

    return Patch3(point, du, dv, duu, duv, dvv, normal_fn=normal_fn,
                  label=f"sphere(R={R})")


def perturbed_sphere_patch(eps: float = 0.1, center=(0.0, 0.0, 0.0)) -> Patch3:
    """Radial graph over the unit sphere: rho = 1 + eps sin^2(u) sin(v) cos(v).

    All derivatives are hand-written, so second-order quantities carry no
    finite-difference noise.
    """
    c = np.asarray(center, dtype=float)
    e = float(eps)

    def parts(u, v):
        su, cu = math.sin(u), math.cos(u)
        s2u, c2u = math.sin(2 * u), math.cos(2 * u)
        s2v, c2v = math.sin(2 * v), math.cos(2 * v)
        rho = 1.0 + 0.5 * e * su * su * s2v
        rho_u = 0.5 * e * s2u * s2v
        rho_v = e * su * su * c2v
        rho_uu = e * c2u * s2v
        rho_uv = e * s2u * c2v
        rho_vv = -2.0 * e * su * su * s2v
        S = np.array([su * math.cos(v), su * math.sin(v), cu])
        Su = np.array([cu * math.cos(v), cu * math.sin(v), -su])
        Sv = np.array([-su * math.sin(v), su * math.cos(v), 0.0])
        Suu = -S
        Suv = np.array([-cu * math.sin(v), cu * math.cos(v), 0.0])
        Svv = np.array([-su * math.cos(v), -su * math.sin(v), 0.0])
        return rho, rho_u, rho_v, rho_uu, rho_uv, rho_vv, S, Su, Sv, Suu, Suv, Svv

    def point(u, v):
        p = parts(u, v)
        return c + p[0] * p[6]

    def du(u, v):
        rho, ru, rv, ruu, ruv, rvv, S, Su, Sv, Suu, Suv, Svv = parts(u, v)
        return ru * S + rho * Su

    def dv(u, v):
        rho, ru, rv, ruu, ruv, rvv, S, Su, Sv, Suu, Suv, Svv = parts(u, v)
        return rv * S + rho * Sv

    def duu(u, v):
        rho, ru, rv, ruu, ruv, rvv, S, Su, Sv, Suu, Suv, Svv = parts(u, v)
        return ruu * S + 2.0 * ru * Su + rho * Suu

    def duv(u, v):
        rho, ru, rv, ruu, ruv, rvv, S, Su, Sv, Suu, Suv, Svv = parts(u, v)
        return ruv * S + ru * Sv + rv * Su + rho * Suv

    def dvv(u, v):
        rho, ru, rv, ruu, ruv, rvv, S, Su, Sv, Suu, Suv, Svv = parts(u, v)
        return rvv * S + 2.0 * rv * Sv + rho * Svv

    return Patch3(point, du, dv, duu, duv, dvv,
                  label=f"perturbed-sphere(eps={e})")


def ellipsoid_patch(a: float, b: float, cc: float) -> Patch3:
    def point(u, v):
        return np.array([a * math.sin(u) * math.cos(v),
                         b * math.sin(u) * math.sin(v),
                         cc * math.cos(u)])

    def du(u, v):
        return np.array([a * math.cos(u) * math.cos(v),
                         b * math.cos(u) * math.sin(v),
                         -cc * math.sin(u)])

    def dv(u, v):
        return np.array([-a * math.sin(u) * math.sin(v),
                         b * math.sin(u) * math.cos(v), 0.0])

    def duu(u, v):
        return np.array([-a * math.sin(u) * math.cos(v),
                         -b * math.sin(u) * math.sin(v),
                         -cc * math.cos(u)])

    def duv(u, v):
        return np.array([-a * math.cos(u) * math.sin(v),
                         b * math.cos(u) * math.cos(v), 0.0])

    def dvv(u, v):
        return np.array([-a * math.sin(u) * math.cos(v),
                         -b * math.sin(u) * math.sin(v), 0.0])

    return Patch3(point, du, dv, duu, duv, dvv,
                  label=f"ellipsoid({a},{b},{cc})")


def plane_patch(origin=(0.0, 0.0, 0.0), e1=(1.0, 0.0, 0.0),
                e2=(0.0, 1.0, 0.0)) -> Patch3:
    o = np.asarray(origin, dtype=float)
    a = np.asarray(e1, dtype=float)
    b = np.asarray(e2, dtype=float)
    zero = np.zeros(3)
    return Patch3(lambda u, v: o + u * a + v * b,
                  lambda u, v: a.copy(), lambda u, v: b.copy(),
                  lambda u, v: zero.copy(), lambda u, v: zero.copy(),
                  lambda u, v: zero.copy(),
                  u_range=(-1.0, 1.0), v_range=(-1.0, 1.0), label="plane")


def parallel_patch(P: Patch3, r: float, check: bool = True) -> Patch3:
    """Offset patch (u, v) -> P(u, v) + r n(u, v).

    First derivatives differentiate the normal analytically from P's
    second derivatives; second derivatives fall back to finite differences.
    With ``check`` a coarse sample verifies 1 + r k stays away from zero
    (offsetting by a focal distance folds the patch).
    """
    if r < 0.0:
        raise ValueError("offset distance must be nonnegative")
    if r == 0.0:
        return replace(P, label=f"{P.label}+parallel(0)")

    def point(u, v):
        return np.asarray(P.point(u, v), float) + r * P.normal(u, v)

    def _normal_deriv(u, v, which):
        Pu, Pv = P.d_u(u, v), P.d_v(u, v)
        w = np.cross(Pu, Pv)
        nw = np.linalg.norm(w)
        n = P.normal_sign * w / nw
        if which == "u":
            wd = np.cross(P.d_uu(u, v), Pv) + np.cross(Pu, P.d_uv(u, v))
        else:
            wd = np.cross(P.d_uv(u, v), Pv) + np.cross(Pu, P.d_vv(u, v))
        wd = P.normal_sign * wd
        return (wd - n * (n @ wd)) / nw

    def du(u, v):
        return P.d_u(u, v) + r * _normal_deriv(u, v, "u")

    def dv(u, v):
        return P.d_v(u, v) + r * _normal_deriv(u, v, "v")

    out = Patch3(point, du, dv, normal_fn=P.normal if P.normal_fn is not None else None,
                 normal_sign=P.normal_sign, u_range=P.u_range, v_range=P.v_range,
                 label=f"{P.label}+parallel({r})")
    if check:
        us = np.linspace(P.u_range[0], P.u_range[1], 7)[1:-1]
        vs = np.linspace(P.v_range[0], P.v_range[1], 7)[1:-1]
        for u in us:
            for v in vs:
                pp = patch_principal(P, float(u), float(v))
                for k in (pp.k1, pp.k2):
                    if abs(1.0 + r * k) < 1e-8:
                        raise RegularityError(
                            f"offset {r} hits a focal distance (k = {k:.6g})")
    return out


def invert_patch(P: Patch3) -> Patch3:
    """Image of a patch under the inversion, in the same parameters."""

    def point(u, v):
        return invert_point(np.asarray(P.point(u, v), float))

    def du(u, v):
        return pushforward_inversion(np.asarray(P.point(u, v), float), P.d_u(u, v))

    def dv(u, v):
        return pushforward_inversion(np.asarray(P.point(u, v), float), P.d_v(u, v))

    return Patch3(point, du, dv, u_range=P.u_range, v_range=P.v_range,
                  label=f"inverted({P.label})")


# ---------------------------------------------------------------------------
# principal-direction preservation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreservationReport:
    max_angle_error: float
    usable: int
    skipped_umbilic: int


def _line_angle(a, b) -> float:
    # atan2 of cross vs dot stays exact for identical vectors, unlike acos
    cross = np.linalg.norm(np.cross(a, b))
    dot = abs(float(np.dot(a, b)))
    return math.atan2(cross, dot)


def principal_preservation_check(P: Patch3, transform, samples: int = 200,
                                 seed: int = 0, gap_tol: float = 1e-6) -> PreservationReport:
    """Measure how well a transform maps principal directions to principal
    directions.

    ``transform`` is "inversion" or ("parallel", r). At each non-umbilic
    sample the principal directions are pushed through the transform
    differential (via the transformed patch's tangent basis) and compared,
    as lines, against the directions recomputed on the transformed patch.
    Umbilic samples (relative curvature gap below ``gap_tol``) are skipped
    and counted.
    """
    if transform == "inversion":
        Q = invert_patch(P)
    elif isinstance(transform, tuple) and transform[0] == "parallel":
        Q = parallel_patch(P, float(transform[1]))
    else:
        raise ValueError("transform must be 'inversion' or ('parallel', r)")
    rng = np.random.default_rng(seed)
    u0, u1 = P.u_range
    v0, v1 = P.v_range
    mu, mv = 0.05 * (u1 - u0), 0.05 * (v1 - v0)
    usable = skipped = 0
    max_err = 0.0
    draws = 0
    while usable < samples and draws < 50 * samples:
        draws += 1
        u = rng.uniform(u0 + mu, u1 - mu)
        v = rng.uniform(v0 + mv, v1 - mv)
        pp = patch_principal(P, u, v)
        gap = pp.k2 - pp.k1
        if pp.umbilic or gap < gap_tol * max(1.0, abs(pp.k1), abs(pp.k2)):
            skipped += 1
            continue
        qq = patch_principal(Q, u, v)
        if qq.umbilic:
            skipped += 1
            continue
        Pu, Pv = P.d_u(u, v), P.d_v(u, v)
        E, F, G = Pu @ Pu, Pu @ Pv, Pv @ Pv
        Iinv = np.array([[G, -F], [-F, E]]) / (E * G - F * F)
        Qu, Qv = Q.d_u(u, v), Q.d_v(u, v)
        err = 0.0
        for d in (pp.d1, pp.d2):
            a, b = Iinv @ np.array([d @ Pu, d @ Pv])
            mapped = a * Qu + b * Qv
            err = max(err, min(_line_angle(mapped, qq.d1),
                               _line_angle(mapped, qq.d2)))
        max_err = max(max_err, err)
        usable += 1
    return PreservationReport(max_err, usable, skipped)
