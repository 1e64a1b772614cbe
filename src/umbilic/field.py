"""Scalar fields on the plane with exact differential jets.

The jet of a field at a point bundles the value, gradient, and Hessian;
every curvature formula downstream consumes jets rather than raw callables.
Closed-form fields carry analytic jets vectorized over numpy arrays;
tabulated fields interpolate with a bicubic spline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError

#: (f, f1, f2, f11, f12, f22) broadcast over input arrays
JetArrays = tuple


@dataclass(frozen=True)
class Point2:
    """A point of the graph plane; coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")

    def __iter__(self):
        yield self.x
        yield self.y

    @property
    def r(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class PolarPoint:
    """Polar coordinates with r >= 0 and theta reduced to [0, 2*pi)."""

    r: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.theta)):
            raise ValueError("non-finite polar point")
        if self.r < 0.0:
            raise ValueError(f"negative radius {self.r}")
        t = math.fmod(self.theta, math.tau)
        if t < 0.0:
            t += math.tau
        object.__setattr__(self, "theta", t)

    def to_point(self) -> Point2:
        return Point2(self.r * math.cos(self.theta), self.r * math.sin(self.theta))


@dataclass(frozen=True)
class Direction:
    """A unit direction of the plane, stored as its angle."""

    theta: float

    @property
    def x(self) -> float:
        return math.cos(self.theta)

    @property
    def y(self) -> float:
        return math.sin(self.theta)

    def perp(self) -> "Direction":
        return Direction(self.theta + 0.5 * math.pi)


class Jet2(NamedTuple):
    """Value, gradient, and symmetric Hessian of a scalar field at a point."""

    f: float
    f1: float
    f2: float
    f11: float
    f12: float
    f22: float

    @property
    def grad(self) -> np.ndarray:
        return np.array([self.f1, self.f2])

    @property
    def q(self) -> float:
        """Squared gradient norm |grad f|^2."""
        return self.f1 * self.f1 + self.f2 * self.f2


def as_xy(p) -> tuple:
    """Accept a Point2 or any 2-sequence and return plain floats."""
    if isinstance(p, Point2):
        return p.x, p.y
    x, y = p
    return float(x), float(y)


def broadcast_xy(x, y):
    """Broadcast coordinate inputs to a common float array pair."""
    xa, ya = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return xa, ya


@dataclass(frozen=True)
class ScalarField:
    """An evaluatable field f: R^2 -> R with jets broadcast over arrays.

    ``jets(x, y)`` returns the six arrays (f, f1, f2, f11, f12, f22).
    Fields are immutable after construction, evaluation is pure, and
    instances may be shared freely across threads.

    ``asymptotic_c`` is the limiting value at infinity when the family
    defines one; profiling tools estimate it otherwise.
    """

    name: str
    jets: Callable
    params: dict = dc_field(default_factory=dict)
    asymptotic_c: float | None = None
    domain: Callable | None = None
    sample_box: tuple = (-3.0, 3.0)
    meta: dict = dc_field(default_factory=dict)
    jet_kind: str = "analytic"
    grads: Callable | None = None

    def _check_domain(self, x, y):
        if self.domain is not None and not np.all(self.domain(x, y)):
            raise DomainError(f"point outside domain of field '{self.name}'")

    def jet_arrays(self, x, y) -> JetArrays:
        xa, ya = broadcast_xy(x, y)
        self._check_domain(xa, ya)
        return self.jets(xa, ya)

    def jet(self, p) -> Jet2:
        x, y = as_xy(p)
        out = self.jet_arrays(x, y)
        j = Jet2(*(float(v) for v in out))
        if not all(math.isfinite(v) for v in j):
            raise DomainError(f"non-finite jet of '{self.name}' at ({x}, {y})")
        return j

    def value(self, x, y):
        return self.jet_arrays(x, y)[0]

    def values_and_grads(self, x, y):
        """(f, f1, f2) arrays; uses the cheap gradient path when present."""
        xa, ya = broadcast_xy(x, y)
        self._check_domain(xa, ya)
        if self.grads is not None:
            return self.grads(xa, ya)
        return self.jets(xa, ya)[:3]

    def value_polar(self, r, theta):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        return self.value(r * np.cos(theta), r * np.sin(theta))


def uniform_field(c: float, name: str | None = None) -> ScalarField:
    """The constant field f == c."""

    def jets(x, y):
        z = np.zeros_like(x)
        return (np.full_like(x, float(c)), z, z, z, z, z)

    return ScalarField(name or f"constant({c})", jets, params={"c": float(c)},
                       asymptotic_c=float(c))


def eval_jet(field: ScalarField, p) -> Jet2:
    """Value, gradient, and Hessian of the field at p."""
    return field.jet(p)


def directional(j: Jet2, X: Direction) -> tuple:
    """First and second derivatives of f along the unit direction X.

    Returns (f_X, f_XX) with f_X = <grad f, X> and f_XX = X^T H X.
    """
    c, s = X.x, X.y
    fX = j.f1 * c + j.f2 * s
    fXX = j.f11 * c * c + 2.0 * j.f12 * c * s + j.f22 * s * s
    return fX, fXX


def rotate_frame(j: Jet2, theta0: float) -> Jet2:
    """Express a jet in axes rotated so the new first axis points along theta0.

    The gradient rotates by -theta0 and the Hessian is conjugated by the
    rotation; the value is unchanged.
    """
    c, s = math.cos(theta0), math.sin(theta0)
    g1 = c * j.f1 + s * j.f2
    g2 = -s * j.f1 + c * j.f2
    g11 = c * c * j.f11 + 2.0 * c * s * j.f12 + s * s * j.f22
    g12 = c * s * (j.f22 - j.f11) + (c * c - s * s) * j.f12
    g22 = s * s * j.f11 - 2.0 * c * s * j.f12 + c * c * j.f22
    return Jet2(j.f, g1, g2, g11, g12, g22)


def rotate_jet_arrays(f1, f2, f11, f12, f22, theta0):
    """Array version of the frame rotation; returns the five rotated entries."""
    c, s = np.cos(theta0), np.sin(theta0)
    g1 = c * f1 + s * f2
    g2 = -s * f1 + c * f2
    g11 = c * c * f11 + 2.0 * c * s * f12 + s * s * f22
    g12 = c * s * (f22 - f11) + (c * c - s * s) * f12
    g22 = s * s * f11 - 2.0 * c * s * f12 + c * c * f22
    return g1, g2, g11, g12, g22


def fd_jet(value: Callable, p, grad_step: float | None = None,
           hess_step: float | None = None) -> Jet2:
    """Jet from central differences of a plain value callable.

    Steps default to eps^(1/2)*max(1, |p|) for the gradient and
    eps^(1/3)*max(1, |p|) for the Hessian, balancing truncation against
    round-off. Used as an independent cross-check of analytic jets.
    """
    x, y = as_xy(p)
    scale = max(1.0, math.hypot(x, y))
    eps = float(np.finfo(float).eps)
    hg = grad_step if grad_step is not None else math.sqrt(eps) * scale
    hh = hess_step if hess_step is not None else eps ** (1.0 / 3.0) * scale
    f = value(x, y)
    f1 = (value(x + hg, y) - value(x - hg, y)) / (2.0 * hg)
    f2 = (value(x, y + hg) - value(x, y - hg)) / (2.0 * hg)
    f11 = (value(x + hh, y) - 2.0 * f + value(x - hh, y)) / (hh * hh)
    f22 = (value(x, y + hh) - 2.0 * f + value(x, y - hh)) / (hh * hh)
    f12 = (value(x + hh, y + hh) - value(x + hh, y - hh)
           - value(x - hh, y + hh) + value(x - hh, y - hh)) / (4.0 * hh * hh)
    return Jet2(float(f), float(f1), float(f2), float(f11), float(f12), float(f22))


@dataclass(frozen=True)
class DecayProfile:
    """Sampled far-field behaviour of a field on rings of increasing radius.

    Per radius r the table holds sup over the theta grid of |f - c| and of
    r*|grad f|. Sampling a finite grid only bounds the true sup from below,
    which is how these numbers should be read.
    """

    radii: tuple
    sup_dev: tuple
    sup_rgrad: tuple
    c: float
    c_source: str
    c_variance: float

    def rows(self):
        return list(zip(self.radii, self.sup_dev, self.sup_rgrad))


def decay_profile(field: ScalarField, radii, n_theta: int = 256) -> DecayProfile:
    """Ring suprema of |f - c| and r*|grad f| over a theta grid.

    The constant c comes from field metadata when the family defines it and
    is otherwise estimated as the mean of f on the largest ring (the
    estimate's variance is reported).
    """
    radii = [float(r) for r in radii]
    if not radii or any(r <= 0.0 for r in radii):
        raise ValueError("radii must be positive")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if n_theta < 8:
        raise ValueError("n_theta must be at least 8")

    thetas = np.arange(n_theta) * (math.tau / n_theta)
    ct, st = np.cos(thetas), np.sin(thetas)

    if field.asymptotic_c is not None:
        c, c_source, c_var = float(field.asymptotic_c), "metadata", 0.0
    else:
        f_big = field.values_and_grads(radii[-1] * ct, radii[-1] * st)[0]
        c = float(np.mean(f_big))
        c_var = float(np.var(f_big))
        c_source = "ring-mean"

    sup_dev, sup_rgrad = [], []
    for r in radii:
        f, f1, f2 = field.values_and_grads(r * ct, r * st)
        sup_dev.append(float(np.max(np.abs(f - c))))
        sup_rgrad.append(float(r * np.max(np.hypot(f1, f2))))
    return DecayProfile(tuple(radii), tuple(sup_dev), tuple(sup_rgrad),
                        c, c_source, c_var)


def tabulated_field(xs, ys, values, name: str = "tabulated") -> ScalarField:
    """Field backed by grid samples; jets come from a bicubic spline.

    Evaluation outside the grid hull raises DomainError.
    """
    from scipy.interpolate import RectBivariateSpline

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.size < 4 or ys.size < 4:
        raise ValueError("tabulated fields need at least 4 nodes per axis")
    if values.shape != (xs.size, ys.size):
        raise ValueError("values must have shape (len(xs), len(ys))")
    spl = RectBivariateSpline(xs, ys, values, kx=3, ky=3)
    x0, x1 = float(xs[0]), float(xs[-1])
    y0, y1 = float(ys[0]), float(ys[-1])

    def domain(x, y):
        return (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)

    def jets(x, y):
        shape = x.shape
        xf, yf = x.ravel(), y.ravel()
        out = []
        for dx, dy in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            out.append(spl(xf, yf, dx=dx, dy=dy, grid=False).reshape(shape))
        return tuple(out)

    return ScalarField(name, jets, domain=domain,
                       sample_box=(max(x0, y0), min(x1, y1)),
                       jet_kind="spline")
