"""Scalar fields on the plane with exact differential jets.

The jet of a field at a point bundles the value, gradient, and Hessian;
every curvature formula downstream consumes jets rather than raw callables.
Closed-form fields carry analytic jets vectorized over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .util import check_finite, check_radii, row_blocks


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


class Jet2(NamedTuple):
    """Value, gradient, and symmetric Hessian of a scalar field at a point."""

    f: float
    f1: float
    f2: float
    f11: float
    f12: float
    f22: float

    @property
    def q(self) -> float:
        """Squared gradient norm |grad f|^2."""
        return self.f1 * self.f1 + self.f2 * self.f2


def as_xy(p) -> tuple:
    """Accept any 2-sequence and return plain floats."""
    x, y = p
    return float(x), float(y)


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
    asymptotic_c: float | None = None
    domain: Callable | None = None
    grads: Callable | None = None

    def _checked(self, x, y):
        """x and y as float arrays of one shape, checked to lie in the domain."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        if self.domain is not None and not np.all(self.domain(x, y)):
            raise DomainError(f"point outside domain of field '{self.name}'")
        return x, y

    def jet_arrays(self, x, y) -> tuple:
        return self.jets(*self._checked(x, y))

    def jet(self, p) -> Jet2:
        x, y = as_xy(p)
        # one-element arrays, so the jet rounds as it does on a grid: numpy's
        # scalar kernels (e.g. of power) can differ from its array kernels
        out = self.jet_arrays(np.array([x]), np.array([y]))
        j = Jet2(*(float(np.ravel(v)[0]) for v in out))
        if not all(math.isfinite(v) for v in j):
            raise DomainError(f"non-finite jet of '{self.name}' at ({x}, {y})")
        return j

    def value(self, x, y):
        return self.jet_arrays(x, y)[0]

    def values_and_grads(self, x, y):
        """(f, f1, f2) arrays; uses the cheap gradient path when present."""
        xy = self._checked(x, y)
        if self.grads is not None:
            return self.grads(*xy)
        return self.jets(*xy)[:3]

    def value_polar(self, r, theta):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        return self.value(r * np.cos(theta), r * np.sin(theta))


def directional_arrays(f1, f2, f11, f12, f22, c, s):
    """(f_X, f_XX) along the unit direction X = (c, s), from jet component
    arrays: f_X = <grad f, X> and f_XX = X^T H X."""
    return f1 * c + f2 * s, f11 * c * c + 2.0 * f12 * c * s + f22 * s * s


def rotate_jet_arrays(f1, f2, f11, f12, f22, theta0):
    """The frame rotation of jet component arrays; returns the five rotated
    entries. g11 is summed as c*c*f11 + ..., not in the order of
    ``directional_arrays`` (f11*c*c + ...): the two round differently, and
    the dk/dtheta outputs are pinned to this order."""
    c, s = np.cos(theta0), np.sin(theta0)
    g1 = c * f1 + s * f2
    g2 = -s * f1 + c * f2
    g11 = c * c * f11 + 2.0 * c * s * f12 + s * s * f22
    g12 = c * s * (f22 - f11) + (c * c - s * s) * f12
    g22 = s * s * f11 - 2.0 * c * s * f12 + c * c * f22
    return g1, g2, g11, g12, g22


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


def _check_ring(n_theta: int) -> int:
    """n_theta, checked to be at least 8 angles per ring (``ValueError``)."""
    if n_theta < 8:
        raise ValueError("n_theta must be at least 8")
    return n_theta


def decay_profile(field: ScalarField, radii, n_theta: int = 256) -> DecayProfile:
    """Ring suprema of |f - c| and r*|grad f| over a theta grid.

    The constant c comes from field metadata when the family defines it and
    is otherwise estimated as the mean of f on the largest ring (the
    estimate's variance is reported). The rings are evaluated as rows of one
    array, in whole-ring groups of at most ``util._BLOCK_POINTS`` points
    (``util.row_blocks``), one field call per group. A supremum or variance
    that is not finite is a DomainError (``util.check_finite``).
    """
    radii = check_radii(radii)
    _check_ring(n_theta)

    thetas = np.arange(n_theta) * (math.tau / n_theta)
    ct, st = np.cos(thetas), np.sin(thetas)
    r = np.array(radii)[:, None]
    groups = [field.values_and_grads(r[b] * ct, r[b] * st) for b in row_blocks(len(r), n_theta)]
    f, f1, f2 = (np.concatenate(rows) for rows in zip(*groups))
    if field.asymptotic_c is not None:
        c, c_source, c_var = float(field.asymptotic_c), "metadata", 0.0
    else:
        c = float(np.mean(f[-1]))
        c_var = check_finite(float(np.var(f[-1])), (f[-1],), "ring samples")
        c_source = "ring-mean"

    sups = (np.max(np.abs(f - c), axis=1), r[:, 0] * np.max(np.hypot(f1, f2), axis=1))
    sup_dev, sup_rgrad = (tuple(v.tolist()) for v in
                          check_finite(sups, (f, f1, f2), "ring samples"))
    return DecayProfile(tuple(radii), sup_dev, sup_rgrad, c, c_source, c_var)
