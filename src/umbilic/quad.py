"""Disk and boundary quadrature for flux-decay experiments.

Disk integrals use fixed-order Gauss-Legendre nodes per unit annulus
composited radially, times a uniform angular grid (spectrally accurate
for smooth periodic integrands). All reductions run through a fixed
pairwise tree so repeated runs agree bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import PlaneField, curvature_difference_field, principal_deviation_field
from .field import Direction, ScalarField
from .util import check_finite, check_radii, pairwise_sum


@dataclass(frozen=True)
class QuadScheme:
    """Radial Gauss order per unit annulus and angular node count."""

    n_r: int = 16
    n_theta: int = 64

    def __post_init__(self):
        if self.n_r < 4:
            raise ValueError("n_r must be at least 4")
        if self.n_theta < 16 or self.n_theta % 2:
            raise ValueError("n_theta must be even and at least 16")

    def doubled(self) -> "QuadScheme":
        return QuadScheme(2 * self.n_r, 2 * self.n_theta)


@dataclass(frozen=True)
class DecayTable:
    """Rows of disk/boundary integrals over an increasing radius ladder."""

    columns: tuple
    rows: list


def disk_nodes(r: float, scheme: QuadScheme):
    """Quadrature nodes (x, y) and weights for the disk of radius r."""
    check_radii((r,))
    t, w = np.polynomial.legendre.leggauss(scheme.n_r)
    # for r > 0 the edges 0, 1, ..., ceil(r) - 1, r number at least 2 and
    # strictly increase, so every annulus has positive width
    edges = np.arange(0.0, np.ceil(r) + 1.0)
    edges[-1] = r
    half = 0.5 * (edges[1:, None] - edges[:-1, None])
    rs = (0.5 * (edges[:-1, None] + edges[1:, None]) + half * t).ravel()
    wr = (half * w).ravel()
    thetas = np.arange(scheme.n_theta) * (math.tau / scheme.n_theta)
    x = rs[:, None] * np.cos(thetas)[None, :]
    y = rs[:, None] * np.sin(thetas)[None, :]
    weights = (wr * rs)[:, None] * np.full_like(thetas, math.tau / scheme.n_theta)[None, :]
    return x, y, weights


def _finite_sum(values, what: str) -> float:
    """``pairwise_sum`` of the values; a sum that is not finite is a
    DomainError counting the values that are not (``util.check_finite``)."""
    return check_finite(pairwise_sum(values), (values,), what)


def disk_integral(g, r: float, scheme: QuadScheme = QuadScheme()) -> float:
    """Integral of g(x, y) dx dy over the centered disk of radius r."""
    x, y, w = disk_nodes(r, scheme)
    return _finite_sum(np.asarray(g(x, y), dtype=float) * w, "disk samples")


def _ring_densities(V: PlaneField, radii, n_theta: int):
    """The outward flux density of V and |V| on the circle of each checked
    radius, times the arc weight r dtheta: one row per radius of n_theta
    uniform angles, from one ``V.vector`` call."""
    r = np.array(check_radii(radii))[:, None]
    thetas = np.arange(n_theta) * (math.tau / n_theta)
    c, s = np.cos(thetas), np.sin(thetas)
    vx, vy = V.vector(r * c, r * s)
    dtheta = math.tau / n_theta
    return (vx * c + vy * s) * r * dtheta, np.hypot(vx, vy) * r * dtheta


def boundary_flux(V: PlaneField, r: float, n_theta: int = 256) -> float:
    """Outward flux of V through the circle of radius r (uniform rule)."""
    return _finite_sum(_ring_densities(V, (r,), n_theta)[0], "ring samples")


def boundary_majorant(V: PlaneField, r: float, n_theta: int = 256) -> float:
    """Integral of |V| over the circle of radius r; bounds |flux| from above."""
    return _finite_sum(_ring_densities(V, (r,), n_theta)[1], "ring samples")


def divergence_consistency(V: PlaneField, r: float,
                           scheme: QuadScheme = QuadScheme()) -> float:
    """|disk integral of div V - boundary flux of V|.

    By the divergence theorem this residual is pure quadrature error and
    validates the scheme on the given field.
    """
    return abs(disk_integral(V.div, r, scheme) - boundary_flux(V, r, scheme.n_theta))


DEFAULT_RADII = (2.0, 4.0, 8.0, 16.0)


def _decay_table(V: PlaneField, areas, radii, scheme: QuadScheme) -> DecayTable:
    """Per radius: the disk integral of each (column, density) of ``areas``
    in turn, then the boundary flux of V and the majorant integral of |V|
    over the circle, both summed from the rows of one evaluation of every
    boundary ring."""
    radii = check_radii(radii)
    flux, majorant = _ring_densities(V, radii, scheme.n_theta)
    rows = [(r, *(disk_integral(g, r, scheme) for _, g in areas),
             _finite_sum(fl, "ring samples"), _finite_sum(mj, "ring samples"))
            for r, fl, mj in zip(radii, flux, majorant)]
    return DecayTable(("r", *(name for name, _ in areas), "I_flux", "majorant"), rows)


def curvature_difference_decay(field: ScalarField, X: Direction, Y: Direction,
                               radii=DEFAULT_RADII,
                               scheme: QuadScheme = QuadScheme()) -> DecayTable:
    """Decay ladder for the curvature-difference flux field of (X, Y).

    Per radius: the disk integral of the divergence (the curvature form in
    dx dy via the pointwise identity), the boundary flux, and the majorant
    integral of |V| over the circle.
    """
    V = curvature_difference_field(field, X, Y)
    return _decay_table(V, (("I_area", V.div),), radii, scheme)


def principal_deviation_decay(field: ScalarField, theta0: float,
                              radii=DEFAULT_RADII,
                              scheme: QuadScheme = QuadScheme()) -> DecayTable:
    """Decay ladder for the principal-deviation field at angle theta0.

    Reports both area forms side by side: the raw curvature form
    dk/dtheta * (1 + f_X^2) * dA (column I_area_stated) and the divergence
    of the flux field (column I_area). The two densities differ pointwise
    by the factor 2 sqrt(1 + f1^2) in rotated entries, so no identity is
    asserted between the columns.
    """
    V = principal_deviation_field(field, theta0)
    return _decay_table(V, (("I_area_stated", V.integrand), ("I_area", V.div)),
                        radii, scheme)
