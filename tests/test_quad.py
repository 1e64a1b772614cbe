import math

import numpy as np
import pytest

from oracles import column
from umbilic import (Direction, QuadScheme, boundary_flux, boundary_majorant,
                     curvature_difference_decay, curvature_difference_field,
                     disk_integral, divergence_consistency, make_field,
                     principal_deviation_decay, principal_deviation_field)
from umbilic.curvature import PlaneField

EX = Direction(0.0)
EY = Direction(math.pi / 2)


def const_field(vx, vy, dv=0.0):
    return PlaneField(lambda x, y: (np.full_like(x, vx), np.full_like(x, vy)),
                      lambda x, y: np.full_like(x, dv))


def test_disk_area():
    assert abs(disk_integral(lambda x, y: np.ones_like(x), 2.0) - 4 * math.pi) < 1e-10


def test_disk_odd_integrand():
    for r in (1.0, 3.0, 7.5):
        assert abs(disk_integral(lambda x, y: x, r)) < 1e-12


def test_disk_quadratic():
    assert abs(disk_integral(lambda x, y: x * x + y * y, 1.0) - math.pi / 2) < 1e-10


def test_scheme_validation():
    with pytest.raises(ValueError):
        QuadScheme(n_r=2)
    with pytest.raises(ValueError):
        QuadScheme(n_theta=15)
    with pytest.raises(ValueError):
        QuadScheme(n_theta=10)


def test_boundary_flux_linear_field():
    V = PlaneField(lambda x, y: (x, y), lambda x, y: np.full_like(x, 2.0))
    assert abs(boundary_flux(V, 1.0) - 2 * math.pi) < 1e-12


def test_boundary_flux_tangential_field():
    V = PlaneField(lambda x, y: (-y, x), lambda x, y: np.zeros_like(x))
    for r in (0.5, 1.0, 4.0):
        assert abs(boundary_flux(V, r)) < 1e-12


def test_boundary_flux_constant_field():
    for r in (0.5, 2.0, 9.0):
        assert abs(boundary_flux(const_field(1.0, 0.0), r)) < 1e-12


def test_divergence_consistency_linear():
    V = PlaneField(lambda x, y: (x, y), lambda x, y: np.full_like(x, 2.0))
    assert divergence_consistency(V, 1.0) < 1e-10


def test_divergence_consistency_quadratic():
    V = PlaneField(lambda x, y: (x * x, y * y),
                   lambda x, y: 2.0 * x + 2.0 * y)
    assert divergence_consistency(V, 1.0) < 1e-10


def test_divergence_consistency_gaussian_flux_field():
    V = curvature_difference_field(make_field("gaussian_bump"), EX, EY)
    assert divergence_consistency(V, 3.0) < 1e-8
    # a refined scheme must agree with the default to within its own residual
    a = disk_integral(V.div, 3.0, QuadScheme())
    b = disk_integral(V.div, 3.0, QuadScheme().doubled())
    assert abs(a - b) < 1e-9


def test_quadrature_order_sanity():
    V = curvature_difference_field(make_field("asym_bump"), EX, EY)
    for r in (2.0, 8.0):
        a = disk_integral(V.div, r, QuadScheme())
        b = disk_integral(V.div, r, QuadScheme().doubled())
        assert abs(a - b) < 1e-9
        fa = boundary_flux(V, r, 64)
        fb = boundary_flux(V, r, 128)
        assert abs(fa - fb) < 1e-9


def test_majorant_bounds_flux():
    for field_name in ("asym_bump", "gaussian_bump", "inverse_quadratic"):
        V = curvature_difference_field(make_field(field_name), EX, EY)
        W = principal_deviation_field(make_field(field_name), 0.3)
        for r in (1.0, 2.0, 5.0):
            for F in (V, W):
                flux = boundary_flux(F, r)
                assert abs(flux) <= boundary_majorant(F, r) + 1e-12


def test_majorant_eventually_decreasing():
    V = curvature_difference_field(make_field("asym_bump"), EX, EY)
    ms = [boundary_majorant(V, r) for r in (2.0, 4.0, 8.0, 16.0)]
    assert all(b < a for a, b in zip(ms, ms[1:]))


def test_difference_decay_radial_field_vanishes():
    table = curvature_difference_decay(make_field("gaussian_bump"), EX, EY,
                                       (2.0, 4.0, 6.0, 8.0))
    for v in column(table, "I_area"):
        assert abs(v) < 1e-12
    for v in column(table, "I_flux"):
        assert abs(v) < 1e-12


def test_difference_decay_saddle_axes_vanishes():
    table = curvature_difference_decay(make_field("saddle"), EX, EY,
                                       (1.0, 2.0, 3.0))
    for v in column(table, "I_area"):
        assert abs(v) < 1e-12


def test_difference_decay_asym_bump():
    table = curvature_difference_decay(make_field("asym_bump"), EX, EY,
                                       (2.0, 4.0, 6.0, 8.0))
    flux = [abs(v) for v in column(table, "I_flux")]
    assert all(b < a for a, b in zip(flux, flux[1:]))
    assert flux[-1] < 1e-6
    # area and flux columns agree to quadrature accuracy
    for a, f in zip(column(table, "I_area"), column(table, "I_flux")):
        assert abs(a - f) < 1e-8


def test_difference_decay_identity_at_nodes():
    # curvature form and divergence integrate to the same number
    field = make_field("asym_bump")
    V = curvature_difference_field(field, EX, EY)
    for r in (2.0, 5.0):
        a = disk_integral(V.div, r)
        b = disk_integral(V.integrand, r)
        assert abs(a - b) < 1e-12


def test_deviation_decay_radial_field():
    table = principal_deviation_decay(make_field("gaussian_bump"), 0.0,
                                      (2.0, 4.0, 8.0))
    for v in column(table, "I_area_stated"):
        assert abs(v) < 1e-12
    for v in column(table, "I_area"):
        assert abs(v) < 1e-12


def test_deviation_decay_cylinder_identically_zero():
    table = principal_deviation_decay(make_field("cylinder"), 0.0, (1.0, 2.0))
    for name in ("I_area_stated", "I_area", "I_flux", "majorant"):
        for v in column(table, name):
            assert abs(v) < 1e-12


def test_deviation_decay_asym_bump():
    table = principal_deviation_decay(make_field("asym_bump"), 0.0,
                                      (2.0, 4.0, 6.0, 8.0))
    flux = [abs(v) for v in column(table, "I_flux")]
    assert all(b < a for a, b in zip(flux, flux[1:]))
    assert flux[-1] < 1e-6
    assert abs(column(table, "I_area")[-1]) < 1e-6
    # the stated column is reported alongside, and no ratio of the two
    assert table.columns == ("r", "I_area_stated", "I_area", "I_flux", "majorant")
    assert len(column(table, "I_area_stated")) == 4


@pytest.mark.parametrize("ladder", ["thm2", "thm3"])
def test_decay_ladder_rings_match_the_single_ring_rules(ladder):
    # the ladder evaluates all its rings at once; each row's flux and
    # majorant carry the bits of the one-ring rules at that radius
    field, radii, scheme = make_field("asym_bump"), (0.5, 2.0, 3.5, 8.0), QuadScheme(8, 48)
    if ladder == "thm2":
        V = curvature_difference_field(field, EX, EY)
        table = curvature_difference_decay(field, EX, EY, radii, scheme)
    else:
        V = principal_deviation_field(field, 0.3)
        table = principal_deviation_decay(field, 0.3, radii, scheme)
    assert [repr(v) for v in column(table, "I_flux")] == \
        [repr(boundary_flux(V, r, scheme.n_theta)) for r in radii]
    assert [repr(v) for v in column(table, "majorant")] == \
        [repr(boundary_majorant(V, r, scheme.n_theta)) for r in radii]


def test_decay_table_requires_increasing_radii():
    with pytest.raises(ValueError):
        curvature_difference_decay(make_field("asym_bump"), EX, EY, (4.0, 2.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -2.0, 0.0])
@pytest.mark.parametrize("ladder", ["difference", "deviation"])
def test_decay_ladders_check_their_radii(ladder, bad):
    # checked before any quadrature, with the message of the other ladders
    field = make_field("asym_bump")
    with pytest.raises(ValueError, match="radii must be positive and finite"):
        if ladder == "difference":
            curvature_difference_decay(field, EX, EY, (2.0, bad))
        else:
            principal_deviation_decay(field, 0.0, (2.0, bad))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -2.0, 0.0])
@pytest.mark.parametrize("rule", ["disk", "flux", "majorant"])
def test_single_radius_rules_need_a_positive_finite_radius(rule, bad):
    # a negative radius would give a negative majorant, and NaN or inf a
    # failure inside numpy
    V = curvature_difference_field(make_field("asym_bump"), EX, EY)
    call = {"disk": lambda: disk_integral(V.div, bad),
            "flux": lambda: boundary_flux(V, bad),
            "majorant": lambda: boundary_majorant(V, bad)}[rule]
    with pytest.raises(ValueError, match="radii must be positive and finite"):
        call()


def test_pointwise_identity_at_quadrature_nodes():
    # the curvature form equals div V at every disk node, not just on average
    from umbilic.quad import disk_nodes
    field = make_field("asym_bump")
    V = curvature_difference_field(field, EX, EY)
    x, y, _ = disk_nodes(6.0, QuadScheme())
    div = V.div(x, y)
    stated = V.integrand(x, y)
    assert np.all(np.abs(div - stated) <= 1e-12 * np.maximum(1.0, np.abs(div)))
