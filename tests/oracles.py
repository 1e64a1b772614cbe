"""Reference implementations that only the tests call: independent
formulas and constructions that cross-check the package's own paths."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from umbilic.convexbody import SupportBody, _planes
from umbilic.curvature import principal_arrays
from umbilic.field import (DecayProfile, Jet2, ScalarField, _check_ring, as_xy,
                           rotate_jet_arrays)
from umbilic.util import check_radii


# ---------------------------------------------------------------------------
# fields and jets
# ---------------------------------------------------------------------------

def uniform_field(c: float, name: str | None = None) -> ScalarField:
    """The constant field f == c."""

    def jets(x, y):
        z = np.zeros_like(x)
        return (np.full_like(x, float(c)), z, z, z, z, z)

    return ScalarField(name or f"constant({c})", jets, asymptotic_c=float(c))


def rotate_frame(j: Jet2, theta0: float) -> Jet2:
    """Express a jet in axes rotated so the new first axis points along theta0.

    The gradient rotates by -theta0 and the Hessian is conjugated by the
    rotation; the value is unchanged.
    """
    g = rotate_jet_arrays(j.f1, j.f2, j.f11, j.f12, j.f22, theta0)
    return Jet2(j.f, *(float(v) for v in g))


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


def decay_profile_per_ring(field: ScalarField, radii, n_theta: int = 256) -> DecayProfile:
    """``decay_profile`` one ring at a time: one field call per radius."""
    radii = check_radii(radii)
    _check_ring(n_theta)

    thetas = np.arange(n_theta) * (math.tau / n_theta)
    ct, st = np.cos(thetas), np.sin(thetas)

    rings = [field.values_and_grads(r * ct, r * st) for r in radii]
    if field.asymptotic_c is not None:
        c, c_source, c_var = float(field.asymptotic_c), "metadata", 0.0
    else:
        f_big = rings[-1][0]
        c = float(np.mean(f_big))
        c_var = float(np.var(f_big))
        c_source = "ring-mean"

    sup_dev = tuple(float(np.max(np.abs(f - c))) for f, _, _ in rings)
    sup_rgrad = tuple(float(r * np.max(np.hypot(f1, f2)))
                      for r, (_, f1, f2) in zip(radii, rings))
    return DecayProfile(tuple(radii), sup_dev, sup_rgrad, c, c_source, c_var)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def curvature_theta_arrays(f1, f2, f11, f12, f22, theta):
    """Normal curvature along (cos t, sin t) in its explicit angular form:

        (f11 cos^2 t + f12 sin 2t + f22 sin^2 t)
        / (1 + (f1 cos t + f2 sin t)^2) / sqrt(1 + q)
    """
    c, s = np.cos(theta), np.sin(theta)
    num = f11 * c * c + f12 * np.sin(2.0 * np.asarray(theta, dtype=float)) + f22 * s * s
    den = 1.0 + (f1 * c + f2 * s) ** 2
    q = f1 * f1 + f2 * f2
    return num / den / np.sqrt(1.0 + q)


def normal_curvature_theta(field: ScalarField, p, theta: float) -> float:
    """Normal curvature along (cos theta, sin theta), explicit angular form."""
    j = field.jet(p)
    return float(curvature_theta_arrays(j.f1, j.f2, j.f11, j.f12, j.f22, theta))


def graph_mean_divergence(j: Jet2) -> float:
    """div(grad f / sqrt(1 + |grad f|^2)) evaluated analytically from a jet.

    Equals twice the mean curvature of the graph. The jet goes in as arrays:
    numpy's scalar power can round unlike its array power, which the H grids use.
    """
    jet = np.array([[j.f1], [j.f2], [j.f11], [j.f12], [j.f22]])
    return float(2.0 * principal_arrays(*jet)[0][0])


# ---------------------------------------------------------------------------
# support bodies
# ---------------------------------------------------------------------------

def grad_ambient(body: SupportBody, u):
    """Euclidean gradient of the polynomial extension of h."""
    return np.stack(body._grad(_planes(u)), axis=-1)


def sphere_grad(body: SupportBody, u):
    """Tangential gradient of h on the sphere at the unit normal u."""
    return np.stack(body._sphere_grad(_planes(u)), axis=-1)


def body_point(body: SupportBody, u) -> np.ndarray:
    """Boundary point of the body whose outward normal is u."""
    u = np.asarray(u, float)
    return body.h(u)[..., None] * u + sphere_grad(body, u)


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
# quadrature
# ---------------------------------------------------------------------------

def column(table, name: str):
    """One column of a decay table, by its header name."""
    i = table.columns.index(name)
    return [row[i] for row in table.rows]
