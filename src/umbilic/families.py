"""Registry of named test fields with hand-written analytic jets.

Each family is one ``FamilySpec``: its jets, its parameters' defaults,
and what is expected of it (asymptotically constant, umbilic free,
positively curved). ``umbilic fields list`` prints these flags, and the
benchmark checks read ``umbilic_free``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .field import ScalarField

E = math.e


@dataclass(frozen=True)
class FamilySpec:
    """A family: ``jets(**params)`` returns its jet function, the keys of
    ``defaults`` are its parameters, and ``make_field`` gives the field the
    spec's ``asymptotic_c`` and ``domain``."""

    name: str
    jets: Callable
    defaults: dict
    asymptotically_constant: bool
    umbilic_free: bool | None
    positively_curved: bool | None
    notes: str
    asymptotic_c: float | None = None
    domain: Callable | None = None


# ---------------------------------------------------------------------------
# jets of the individual families
# ---------------------------------------------------------------------------

def _saddle_jets(x, y):
    z = np.zeros_like(x)
    return (x * y, y.copy(), x.copy(), z, np.ones_like(x), z)


def _cylinder_jets(x, y):
    z = np.zeros_like(x)
    return (x * x, 2.0 * x, z, np.full_like(x, 2.0), z, z)


def _paraboloid_jets(x, y):
    z = np.zeros_like(x)
    return (x * x + y * y, 2.0 * x, 2.0 * y,
            np.full_like(x, 2.0), z, np.full_like(x, 2.0))


def _sphere_cap_jets(x, y):
    r2 = x * x + y * y
    w = np.sqrt(1.0 - r2)
    w3 = w * w * w
    # r2/(1+w) equals 1 - w without the cancellation near the origin
    return (r2 / (1.0 + w), x / w, y / w,
            1.0 / w + x * x / w3, x * y / w3, 1.0 / w + y * y / w3)


def _gaussian_jets(x, y):
    e = np.exp(-(x * x + y * y))
    return (e, -2.0 * x * e, -2.0 * y * e,
            (4.0 * x * x - 2.0) * e, 4.0 * x * y * e, (4.0 * y * y - 2.0) * e)


def _inverse_quadratic_jets(x, y):
    u = 1.0 / (1.0 + x * x + y * y)
    u2, u3 = u * u, u * u * u
    return (u, -2.0 * x * u2, -2.0 * y * u2,
            -2.0 * u2 + 8.0 * x * x * u3, 8.0 * x * y * u3,
            -2.0 * u2 + 8.0 * y * y * u3)


def _radial_jets_from_profile(profile):
    """Jets of f(x, y) = F(r) from ``profile(r) -> (F, F', F'')``.

    F' must vanish at r = 0 for the Cartesian Hessian to stay finite there.
    """

    def jets(x, y):
        r = np.hypot(x, y)
        f, df, ddf = profile(r)
        with np.errstate(invalid="ignore", divide="ignore"):
            cx, cy = np.where(r > 0.0, x / np.maximum(r, 1e-300), 0.0), \
                     np.where(r > 0.0, y / np.maximum(r, 1e-300), 0.0)
            inv_r = np.where(r > 0.0, 1.0 / np.maximum(r, 1e-300), 0.0)
        f1 = df * cx
        f2 = df * cy
        # limit r -> 0 (requires F1(0) = 0): Hessian = F2(0) * identity
        f11 = np.where(r > 0.0, ddf * cx * cx + df * cy * cy * inv_r, ddf)
        f12 = np.where(r > 0.0, (ddf - df * inv_r) * cx * cy, 0.0)
        f22 = np.where(r > 0.0, ddf * cy * cy + df * cx * cx * inv_r, ddf)
        return f, f1, f2, f11, f12, f22

    return jets


def _smoothstep5(t):
    """Quintic smoothstep with vanishing first and second derivatives at 0, 1."""
    t = np.clip(t, 0.0, 1.0)
    chi = t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t)
    dchi = 30.0 * t * t * (1.0 - t) ** 2
    ddchi = 60.0 * t * (1.0 - t) * (1.0 - 2.0 * t)
    return chi, dchi, ddchi


def _loglog_profile(r):
    r = np.asarray(r, dtype=float)
    safe = np.maximum(r, E)  # the cutoff kills everything below r = e
    lg = np.log(safe)
    L = np.log(lg)
    L1 = 1.0 / (safe * lg)
    L2 = -(1.0 + lg) / (safe * lg) ** 2
    chi, dchi, ddchi = _smoothstep5(r - E)
    F = chi * L
    F1 = dchi * L + chi * L1
    F2 = ddchi * L + 2.0 * dchi * L1 + chi * L2
    low = r <= E
    return (np.where(low, 0.0, F), np.where(low, 0.0, F1), np.where(low, 0.0, F2))


_loglog_jets = _radial_jets_from_profile(_loglog_profile)


def _bates_like_jets(lam):
    def jets(x, y):
        s = x + y * y
        w = 1.0 + s * s
        phi = s / np.sqrt(w)
        dphi = w ** -1.5
        ddphi = -3.0 * s * w ** -2.5
        f = 1.0 + lam * phi
        f1 = lam * dphi
        f2 = lam * dphi * 2.0 * y
        f11 = lam * ddphi
        f12 = lam * ddphi * 2.0 * y
        f22 = lam * (ddphi * 4.0 * y * y + 2.0 * dphi)
        return f, f1, f2, f11, f12, f22

    return jets


def _ridge_jets(lam):
    def jets(x, y):
        w = np.sqrt(1.0 + x * x)
        z = np.zeros_like(x)
        return (1.0 + lam * w, lam * x / w, z, lam / w ** 3, z, z)

    return jets


# 1D profiles for the separable families: value, slope, curvature
_PROFILES = {
    "sqrtlin": (lambda t: np.sqrt(1.0 + t * t) + t,
                lambda t: t / np.sqrt(1.0 + t * t) + 1.0,
                lambda t: (1.0 + t * t) ** -1.5),
    "exp": (np.exp, np.exp, np.exp),
}


def _separable_jets(lam, g, h):
    g, g1, g2 = _PROFILES[g]
    h, h1, h2 = _PROFILES[h]

    def jets(x, y):
        z = np.zeros_like(x)
        return (1.0 + lam * (g(x) + h(y)), lam * g1(x), lam * h1(y),
                lam * g2(x), z, lam * h2(y))

    return jets


def _asym_bump_jets(x, y):
    e = np.exp(-(x * x + y * y))
    p = 1.0 + 0.3 * x + 0.2 * x * y
    p1 = 0.3 + 0.2 * y
    p2 = 0.2 * x
    p12 = np.full_like(x, 0.2)
    f = e * p
    f1 = e * (p1 - 2.0 * x * p)
    f2 = e * (p2 - 2.0 * y * p)
    f11 = e * (-4.0 * x * p1 + (4.0 * x * x - 2.0) * p)
    f12 = e * (p12 - 2.0 * y * p1 - 2.0 * x * p2 + 4.0 * x * y * p)
    f22 = e * (-4.0 * y * p2 + (4.0 * y * y - 2.0) * p)
    return f, f1, f2, f11, f12, f22


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _unit_disk(x, y):
    return x * x + y * y < 1.0


_REGISTRY = {s.name: s for s in (
    FamilySpec("saddle", lambda: _saddle_jets, {}, False, True, False,
               "f = x*y, negatively curved"),
    FamilySpec("cylinder", lambda: _cylinder_jets, {}, False, True, False,
               "f = x^2, parabolic cylinder ruled along y"),
    FamilySpec("paraboloid", lambda: _paraboloid_jets, {}, False, False, True,
               "f = x^2 + y^2, single umbilic at the origin"),
    FamilySpec("sphere_cap", lambda: _sphere_cap_jets, {}, False, False, True,
               "f = 1 - sqrt(1 - r^2) on r < 1, totally umbilic",
               domain=_unit_disk),
    FamilySpec("gaussian_bump", lambda: _gaussian_jets, {}, True, None, None,
               "f = exp(-r^2), c = 0", asymptotic_c=0.0),
    FamilySpec("inverse_quadratic", lambda: _inverse_quadratic_jets, {},
               True, None, None, "f = 1/(1 + r^2), c = 0", asymptotic_c=0.0),
    FamilySpec("loglog_tail", lambda: _loglog_jets, {}, False, None, None,
               "log(log r) outside a compact set, unbounded but with fast gradient decay"),
    FamilySpec("bates_like", _bates_like_jets, {"lam": 0.1}, False, True, False,
               "bounded umbilic-free graph 1 + lam*(x+y^2)/sqrt(1+(x+y^2)^2)"),
    FamilySpec("ridge", _ridge_jets, {"lam": 0.1}, False, True, False,
               "1 + lam*sqrt(1+x^2); inversion has a ridge-type singular point"),
    FamilySpec("cone_type", lambda lam: _separable_jets(lam, "sqrtlin", "sqrtlin"),
               {"lam": 0.1}, False, True, True,
               "1 + lam*(sqrt(1+x^2)+x+sqrt(1+y^2)+y), positively curved"),
    FamilySpec("separable", _separable_jets, {"lam": 0.1, "g": "exp", "h": "exp"},
               False, True, True,
               "1 + lam*(g(x)+h(y)) with monotone convex profiles"),
    FamilySpec("asym_bump", lambda: _asym_bump_jets, {}, True, None, None,
               "synthetic asymmetric decaying field for flux decay runs",
               asymptotic_c=0.0),
)}


def make_field(name: str, **params) -> ScalarField:
    """Instantiate a registered family by name, e.g. make_field('ridge', lam=0.1)."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown field '{name}'; known: {', '.join(sorted(_REGISTRY))}")
    spec = _REGISTRY[name]
    unknown = set(params) - set(spec.defaults)
    if unknown:
        raise ValueError(f"field '{name}' takes parameters {tuple(spec.defaults)}, "
                         f"got unknown {sorted(unknown)}")
    merged = {**spec.defaults, **params}
    # a parameter is checked by its default's type: a profile name or a float
    for key, default in spec.defaults.items():
        value = merged[key]
        if isinstance(default, str):
            if value not in _PROFILES:
                raise ValueError(f"unknown profile '{value}'; options: {sorted(_PROFILES)}")
        else:
            value = merged[key] = float(value)
            if not 0.0 < value < math.inf:
                raise ValueError(f"parameter {key} must be positive and finite, got {value}")
    return ScalarField(name, spec.jets(**merged), asymptotic_c=spec.asymptotic_c,
                       domain=spec.domain)


def list_families():
    """All registered family specs, sorted by name."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def _split_spec(text: str, kind: str):
    """The name and the (key, value) pairs of 'name' or 'name:key=value,...',
    stripped; an item that is not key=value is a ValueError naming it."""
    name, _, tail = text.partition(":")
    pairs = []
    for item in tail.split(",") if tail else ():
        key, eq, val = item.partition("=")
        if not eq:
            raise ValueError(f"malformed {kind} parameter '{item}'")
        pairs.append((key.strip(), val.strip()))
    return name.strip(), pairs


def parse_field_spec(text: str) -> ScalarField:
    """Parse CLI syntax 'name' or 'name:lam=0.1,g=exp' into a field."""
    name, pairs = _split_spec(text, "field")
    return make_field(name, **dict(pairs))
