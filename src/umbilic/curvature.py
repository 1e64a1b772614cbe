"""Curvature quantities of graph surfaces z = f(x, y).

Everything is computed from jets. The normal curvature along a unit
direction X is

    k(p, X) = f_XX / ((1 + f_X^2) * sqrt(1 + |grad f|^2)),

positive for a convex bowl. The first fundamental form of the graph is
g = I + grad f grad f^T and the second is Hess f / sqrt(1 + q) with
q = |grad f|^2; the shape operator is their quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .field import Direction, ScalarField, directional_arrays, rotate_jet_arrays

#: a point below this normalized discriminant counts as umbilic
UMBILIC_TOL = 1e-10


@dataclass(frozen=True)
class PrincipalData:
    """Principal curvatures/directions and the H, K invariants at a point.

    e1, e2 are the projected principal directions (unit vectors in the
    plane, Euclidean-normalized). At an umbilic the directions are
    arbitrary; ``umbilic`` flags that case.
    """

    k1: float
    k2: float
    e1: np.ndarray
    e2: np.ndarray
    H: float
    K: float
    umbilic: bool


@dataclass(frozen=True)
class UmbilicResiduals:
    """The two residuals whose common zeros are the umbilics, plus the
    quartic discriminant D that vanishes exactly on that common zero set.

        P1 = (1 + f1^2) f12 - f1 f2 f11
        P2 = (1 + f1^2) f22 - (1 + f2^2) f11
        D  = (f22 (1+f1^2) - 2 f1 f2 f12 + f11 (1+f2^2))^2
             - 4 (1 + f1^2 + f2^2) (f22 f11 - f12^2)
    """

    P1: float
    P2: float
    D: float


@dataclass(frozen=True)
class PlaneField:
    """A plane vector field with an analytic divergence evaluator.

    ``vector(x, y) -> (Vx, Vy)`` and ``div(x, y)`` broadcast over arrays.
    ``integrand`` carries the curvature-form density that the divergence
    realizes, for cross-checking the two pointwise.
    """

    vector: Callable
    div: Callable
    integrand: Callable | None = None
    label: str = ""


# ---------------------------------------------------------------------------
# array-level formulas shared by scalar ops, quadrature, and grid scans
# ---------------------------------------------------------------------------

def residual_arrays(f1, f2, f11, f12, f22):
    """(P1, P2, D, q) from jet component arrays."""
    q = f1 * f1 + f2 * f2
    P1 = (1.0 + f1 * f1) * f12 - f1 * f2 * f11
    P2 = (1.0 + f1 * f1) * f22 - (1.0 + f2 * f2) * f11
    A = f22 * (1.0 + f1 * f1) - 2.0 * f1 * f2 * f12 + f11 * (1.0 + f2 * f2)
    D = A * A - 4.0 * (1.0 + q) * (f22 * f11 - f12 * f12)
    return P1, P2, D, q


def principal_arrays(f1, f2, f11, f12, f22):
    """(H, K, k1, k2) from jet component arrays, k1 <= k2:

        H = ((1 + f2^2) f11 - 2 f1 f2 f12 + (1 + f1^2) f22) / (2 (1 + q)^(3/2))
        K = (f11 f22 - f12^2) / (1 + q)^2
    """
    q = f1 * f1 + f2 * f2
    w = 1.0 + q
    H = ((1.0 + f2 * f2) * f11 - 2.0 * f1 * f2 * f12
         + (1.0 + f1 * f1) * f22) / (2.0 * w ** 1.5)
    K = (f11 * f22 - f12 * f12) / (w * w)
    s = np.sqrt(np.maximum(H * H - K, 0.0))
    return H, K, H - s, H + s


def curvature_direction_arrays(f1, f2, f11, f12, f22, cx, sx):
    """Normal curvature along the unit direction (cx, sx)."""
    fX, fXX = directional_arrays(f1, f2, f11, f12, f22, cx, sx)
    q = f1 * f1 + f2 * f2
    return fXX / ((1.0 + fX * fX) * np.sqrt(1.0 + q))


def dk_dtheta_arrays(f1, f2, f11, f12, f22, theta0):
    """Angular derivative of the normal curvature at theta0.

    In the frame rotated so theta0 becomes the first axis this is
    2 ((1 + f1^2) f12 - f2 f1 f11) / ((1 + f1^2)^2 sqrt(1 + q)).
    """
    g1, g2, g11, g12, g22 = rotate_jet_arrays(f1, f2, f11, f12, f22, theta0)
    q = f1 * f1 + f2 * f2
    w = 1.0 + g1 * g1
    return 2.0 * (w * g12 - g2 * g1 * g11) / (w * w * np.sqrt(1.0 + q))


# ---------------------------------------------------------------------------
# point operations
# ---------------------------------------------------------------------------

def normal_curvature(field: ScalarField, p, X: Direction) -> float:
    """Curvature of the normal slice of graph(f) above p along X."""
    j = field.jet(p)
    return float(curvature_direction_arrays(j.f1, j.f2, j.f11, j.f12, j.f22, X.x, X.y))


def dk_dtheta(field: ScalarField, p, theta0: float) -> float:
    """d/dtheta of the normal curvature, evaluated at theta0."""
    j = field.jet(p)
    return float(dk_dtheta_arrays(j.f1, j.f2, j.f11, j.f12, j.f22, theta0))


def _null_direction(M: np.ndarray) -> np.ndarray:
    """Unit null vector of a (numerically) singular, nonzero 2x2 matrix.

    Uses the larger-pivot row to avoid cancellation; ties and signs are
    resolved toward the positive x half-plane for determinism.
    """
    r0 = math.hypot(M[0, 0], M[0, 1])
    r1 = math.hypot(M[1, 0], M[1, 1])
    if r0 >= r1:
        v = np.array([-M[0, 1], M[0, 0]])
    else:
        v = np.array([-M[1, 1], M[1, 0]])
    v = v / math.hypot(v[0], v[1])
    if v[0] < 0.0 or (v[0] == 0.0 and v[1] < 0.0):
        v = -v
    return v


def shape_operator(field: ScalarField, p) -> PrincipalData:
    """Principal curvatures and directions of graph(f) above p.

    Eigen-decomposes S = g^{-1} h with g = I + grad f grad f^T and
    h = Hess f / sqrt(1 + q): H = tr S / 2, K = det S, k1,2 = H -/+
    sqrt(max(H^2 - K, 0)), and e_i the null direction of S - k_i I. A point
    is classified umbilic when the normalized discriminant
    D / (1 + q)^3 = 4 (H^2 - K) falls below ``UMBILIC_TOL``; the returned
    directions are then arbitrary axes.
    """
    j = field.jet(p)
    q = j.q
    w = 1.0 + q
    sq = math.sqrt(w)
    # g^{-1} = [[1+f2^2, -f1 f2], [-f1 f2, 1+f1^2]] / (1+q)
    h11, h12, h22 = j.f11 / sq, j.f12 / sq, j.f22 / sq
    S = np.array([
        [(1.0 + j.f2 ** 2) * h11 - j.f1 * j.f2 * h12,
         (1.0 + j.f2 ** 2) * h12 - j.f1 * j.f2 * h22],
        [(1.0 + j.f1 ** 2) * h12 - j.f1 * j.f2 * h11,
         (1.0 + j.f1 ** 2) * h22 - j.f1 * j.f2 * h12],
    ]) / w
    H = 0.5 * (S[0, 0] + S[1, 1])
    K = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    gap2 = max(H * H - K, 0.0)
    s = math.sqrt(gap2)
    k1, k2 = H - s, H + s
    umbilic = bool(4.0 * gap2 < UMBILIC_TOL)
    if umbilic:
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    else:
        e1 = _null_direction(S - k1 * np.eye(2))
        e2 = _null_direction(S - k2 * np.eye(2))
    return PrincipalData(float(k1), float(k2), e1, e2, float(H), float(K), umbilic)


def umbilic_residuals(field: ScalarField, p) -> UmbilicResiduals:
    """P1, P2 residuals and the quartic discriminant D at a point."""
    j = field.jet(p)
    P1, P2, D, _ = residual_arrays(j.f1, j.f2, j.f11, j.f12, j.f22)
    return UmbilicResiduals(float(P1), float(P2), float(D))


# ---------------------------------------------------------------------------
# flux fields realizing the curvature integrands
# ---------------------------------------------------------------------------

def curvature_difference_field(field: ScalarField, X: Direction, Y: Direction) -> PlaneField:
    """Vector field whose divergence is the weighted curvature difference
    along X and Y.

    With u = f_X (1 + f_Y^2) and v = f_Y (1 + f_X^2),

        V = (u X^1 - v Y^1, u X^2 - v Y^2),
        div V = f_XX (1 + f_Y^2) - f_YY (1 + f_X^2)
              = (k_X - k_Y)(1 + f_X^2)(1 + f_Y^2) sqrt(1 + q).

    ``integrand`` evaluates the right-hand curvature form directly.
    """
    cx, sx = X.x, X.y
    cy, sy = Y.x, Y.y

    def _parts(x, y):
        jet = field.jet_arrays(x, y)[1:]
        return (jet, directional_arrays(*jet, cx, sx),
                directional_arrays(*jet, cy, sy))

    def vector(x, y):
        _, (fX, _), (fY, _) = _parts(x, y)
        u = fX * (1.0 + fY * fY)
        v = fY * (1.0 + fX * fX)
        return u * cx - v * cy, u * sx - v * sy

    def div(x, y):
        _, (fX, fXX), (fY, fYY) = _parts(x, y)
        return fXX * (1.0 + fY * fY) - fYY * (1.0 + fX * fX)

    def integrand(x, y):
        (f1, f2, f11, f12, f22), (fX, _), (fY, _) = _parts(x, y)
        kX = curvature_direction_arrays(f1, f2, f11, f12, f22, cx, sx)
        kY = curvature_direction_arrays(f1, f2, f11, f12, f22, cy, sy)
        q = f1 * f1 + f2 * f2
        return (kX - kY) * (1.0 + fX * fX) * (1.0 + fY * fY) * np.sqrt(1.0 + q)

    return PlaneField(vector, div, integrand,
                      label=f"curvature-difference X={X.theta:.6g} Y={Y.theta:.6g}")


def principal_deviation_field(field: ScalarField, theta0: float) -> PlaneField:
    """Vector field detecting where (cos theta0, sin theta0) is principal.

    In the frame rotated by theta0 the field is (f2 / sqrt(1 + f1^2), 0),
    mapped back to base coordinates; its divergence is
    ((1 + f1^2) f12 - f1 f2 f11) / (1 + f1^2)^(3/2) in rotated entries
    and vanishes exactly where the rotated first axis is principal.

    ``integrand`` evaluates dk/dtheta * (1 + f_X^2) * sqrt(1 + q), the
    curvature form this field realizes; pointwise it equals
    2 sqrt(1 + f1^2) times the divergence (rotated entries).
    """
    c, s = math.cos(theta0), math.sin(theta0)

    def _rotated(x, y):
        _, f1, f2, f11, f12, f22 = field.jet_arrays(x, y)
        return rotate_jet_arrays(f1, f2, f11, f12, f22, theta0)

    def vector(x, y):
        g1, g2, _, _, _ = _rotated(x, y)
        v_rot = g2 / np.sqrt(1.0 + g1 * g1)
        return v_rot * c, v_rot * s

    def div(x, y):
        g1, g2, g11, g12, _ = _rotated(x, y)
        w = 1.0 + g1 * g1
        return (w * g12 - g1 * g2 * g11) / w ** 1.5

    def integrand(x, y):
        _, f1, f2, f11, f12, f22 = field.jet_arrays(x, y)
        fX, _ = directional_arrays(f1, f2, f11, f12, f22, c, s)
        q = f1 * f1 + f2 * f2
        dk = dk_dtheta_arrays(f1, f2, f11, f12, f22, theta0)
        return dk * (1.0 + fX * fX) * np.sqrt(1.0 + q)

    return PlaneField(vector, div, integrand,
                      label=f"principal-deviation theta0={theta0:.6g}")
