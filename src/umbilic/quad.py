"""Disk and boundary quadrature for flux-decay experiments.

Disk integrals use fixed-order Gauss-Legendre nodes per unit annulus
composited radially, times a uniform angular grid (spectrally accurate
for smooth periodic integrands). A radius ladder evaluates each disk node
once: the disks share the whole unit annuli of the largest, and each
radius adds only its last annulus. All reductions run through a fixed
pairwise tree, over each disk's nodes in the order ``disk_nodes`` gives
them, so repeated runs and every ladder agree bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import PlaneField, curvature_difference_field, principal_deviation_field
from .field import Direction, ScalarField
from .util import check_finite, check_radii, pairwise_sum, row_blocks


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


def _annulus_nodes(edges, scheme: QuadScheme):
    """Quadrature nodes (x, y) and weights of the annuli between consecutive
    radii of ``edges``, in rows of n_theta nodes from the inner annulus out."""
    t, w = np.polynomial.legendre.leggauss(scheme.n_r)
    half = 0.5 * (edges[1:, None] - edges[:-1, None])
    rs = (0.5 * (edges[:-1, None] + edges[1:, None]) + half * t).ravel()
    wr = (half * w).ravel()
    thetas = np.arange(scheme.n_theta) * (math.tau / scheme.n_theta)
    x = rs[:, None] * np.cos(thetas)[None, :]
    y = rs[:, None] * np.sin(thetas)[None, :]
    weights = (wr * rs)[:, None] * np.full_like(thetas, math.tau / scheme.n_theta)[None, :]
    return x, y, weights


def disk_nodes(r: float, scheme: QuadScheme):
    """Quadrature nodes (x, y) and weights for the disk of radius r."""
    check_radii((r,))
    # for r > 0 the edges 0, 1, ..., ceil(r) - 1, r number at least 2 and
    # strictly increase, so every annulus has positive width
    edges = np.arange(0.0, np.ceil(r) + 1.0)
    edges[-1] = r
    return _annulus_nodes(edges, scheme)


def _finite_sum(values, what: str) -> float:
    """``pairwise_sum`` of the values; a sum that is not finite is a
    DomainError counting the values that are not (``util.check_finite``)."""
    return check_finite(pairwise_sum(values), (values,), what)


def _disk_integrals(densities, radii, scheme: QuadScheme):
    """For each checked radius in turn, the tuple of ``disk_integral(g, r,
    scheme)`` over the densities g, each disk node evaluated once.

    The disks share the whole unit annuli of the largest, so its nodes
    (``disk_nodes``) are evaluated, in row blocks of whole annuli, and so
    is the last annulus of each smaller radius that is not an integer. The
    samples of a radius are summed in the order ``disk_nodes(r)`` gives them.
    """
    radii = check_radii(radii)
    n_r = scheme.n_r

    def samples(x, y, w):
        out = np.empty((len(densities), *x.shape))
        for block in row_blocks(x.shape[0] // n_r, n_r * x.shape[1]):
            rows = slice(block.start * n_r, block.stop * n_r)
            for g, o in zip(densities, out):
                o[rows] = np.asarray(g(x[rows], y[rows]), dtype=float) * w[rows]
        return out

    def integrals(values):
        return tuple(_finite_sum(v, "disk samples") for v in values)

    outer = samples(*disk_nodes(radii[-1], scheme))
    for r in radii[:-1]:
        whole = (math.ceil(r) - 1) * n_r  # rows of the whole unit annuli
        if r == math.ceil(r):
            yield integrals(outer[:, :whole + n_r])
        else:
            last = samples(*_annulus_nodes(np.array([math.ceil(r) - 1.0, r]), scheme))
            yield integrals(np.concatenate([outer[:, :whole], last], axis=1))
    yield integrals(outer)


def disk_integral(g, r: float, scheme: QuadScheme = QuadScheme()) -> float:
    """Integral of g(x, y) dx dy over the centered disk of radius r."""
    return next(_disk_integrals((g,), (r,), scheme))[0]


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


def divergence_residuals(V: PlaneField, radii,
                         scheme: QuadScheme = QuadScheme()) -> list:
    """(r, |disk integral of div V - boundary flux of V|) per radius.

    By the divergence theorem this residual is pure quadrature error and
    validates the scheme on the given field.
    """
    table = _decay_table(V, (("I_area", V.div),), radii, scheme)
    return [(r, abs(area - flux)) for r, area, flux, _ in table.rows]


def divergence_consistency(V: PlaneField, r: float,
                           scheme: QuadScheme = QuadScheme()) -> float:
    """``divergence_residuals`` at the one radius r."""
    return divergence_residuals(V, (r,), scheme)[0][1]


DEFAULT_RADII = (2.0, 4.0, 8.0, 16.0)


def _decay_table(V: PlaneField, areas, radii, scheme: QuadScheme) -> DecayTable:
    """Per radius: the disk integral of each (column, density) of ``areas``
    in turn, then the boundary flux of V and the majorant integral of |V|
    over the circle, both summed from the rows of one evaluation of every
    boundary ring."""
    radii = check_radii(radii)
    flux, majorant = _ring_densities(V, radii, scheme.n_theta)
    disks = _disk_integrals([g for _, g in areas], radii, scheme)
    rows = [(r, *disk, _finite_sum(fl, "ring samples"), _finite_sum(mj, "ring samples"))
            for r, disk, fl, mj in zip(radii, disks, flux, majorant)]
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
