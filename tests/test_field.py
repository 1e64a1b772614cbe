import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_fields, sample_points
from oracles import decay_profile_per_ring, fd_jet, rotate_frame, uniform_field
from umbilic import (Direction, DomainError, Jet2, decay_profile, invert_local_graph,
                     make_field)
from umbilic.field import directional_arrays


def test_direction_unit_norm():
    for theta in (0.0, 0.3, 2.0, -1.0, 11.0):
        d = Direction(theta)
        assert abs(d.x ** 2 + d.y ** 2 - 1.0) < 1e-14


def test_eval_jet_paraboloid_origin():
    assert make_field("paraboloid").jet((0.0, 0.0)) == Jet2(0, 0, 0, 2, 0, 2)


def test_eval_jet_saddle():
    assert make_field("saddle").jet((1.0, 2.0)) == Jet2(2, 2, 1, 0, 1, 0)


def test_eval_jet_gaussian_origin():
    j = make_field("gaussian_bump").jet((0.0, 0.0))
    assert j == Jet2(1, 0, 0, -2, 0, -2)


def test_directional_reads_jet():
    j = make_field("saddle").jet((1.0, 2.0))
    fX, fXX = directional_arrays(*j[1:], 1.0, 0.0)
    assert (fX, fXX) == (2.0, 0.0)


def test_directional_isotropic():
    j = make_field("paraboloid").jet((0.0, 0.0))
    for theta in (0.0, 0.7, 2.1):
        fX, fXX = directional_arrays(*j[1:], math.cos(theta), math.sin(theta))
        assert abs(fX) < 1e-15
        assert abs(fXX - 2.0) < 1e-13


def test_directional_saddle_diagonal():
    j = make_field("saddle").jet((0.0, 0.0))
    d = Direction(math.pi / 4)
    fX, fXX = directional_arrays(*j[1:], d.x, d.y)
    assert abs(fX) < 1e-15
    assert abs(fXX - 1.0) < 1e-14


def test_rotate_frame_identity_and_flip():
    j = make_field("saddle").jet((0.3, -0.4))
    assert rotate_frame(j, 0.0) == j
    jr = rotate_frame(make_field("saddle").jet((0.0, 0.0)), math.pi / 2)
    assert np.allclose([jr.f11, jr.f12, jr.f22], [0.0, -1.0, 0.0], atol=1e-15)


def test_rotate_frame_full_turn():
    j = make_field("asym_bump").jet((0.4, 0.9))
    jr = rotate_frame(j, 2 * math.pi)
    assert np.allclose(list(jr), list(j), atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2),
       st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
def test_rotate_frame_group_action(x, y, t1, t2):
    j = make_field("asym_bump").jet((x, y))
    a = rotate_frame(rotate_frame(j, t2), t1)
    b = rotate_frame(j, t1 + t2)
    assert np.allclose(list(a), list(b), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 2 * math.pi))
def test_directional_trace_identity(x, y, theta):
    j = make_field("bates_like").jet((x, y))
    X, Y = Direction(theta), Direction(theta + math.pi / 2)
    _, fXX = directional_arrays(*j[1:], X.x, X.y)
    _, fYY = directional_arrays(*j[1:], Y.x, Y.y)
    assert abs(fXX + fYY - (j.f11 + j.f22)) < 1e-12


@pytest.mark.parametrize("field", all_fields(), ids=lambda f: f.name)
def test_analytic_jets_match_finite_differences(field, rng):
    def value(x, y):
        return float(field.value(x, y))

    for x, y in sample_points(field, 100, rng):
        j = field.jet((x, y))
        scale = max(1.0, math.hypot(x, y))
        fd = fd_jet(value, (x, y), grad_step=1e-5 * scale, hess_step=1e-5 * scale)
        assert abs(j.f1 - fd.f1) < 1e-7
        assert abs(j.f2 - fd.f2) < 1e-7
        for a, b in ((j.f11, fd.f11), (j.f12, fd.f12), (j.f22, fd.f22)):
            assert abs(a - b) < 1e-4


def test_decay_profile_inverse_quadratic():
    # analytic: |grad f| = 2r/(1+r^2)^2, so r|grad f| at r=10 is 200/101^2
    prof = decay_profile(make_field("inverse_quadratic"), [10.0])
    expected = 2.0 * 10.0 ** 2 / (1.0 + 10.0 ** 2) ** 2
    assert abs(prof.sup_rgrad[0] - expected) < 1e-12
    assert prof.c_source == "metadata"


def test_decay_profile_constant_field():
    prof = decay_profile(uniform_field(1.0), [1.0, 5.0, 25.0])
    assert prof.sup_dev == (0.0, 0.0, 0.0)
    assert prof.sup_rgrad == (0.0, 0.0, 0.0)


def test_decay_profile_loglog_tail():
    # analytic gradient 1/(r log r) outside the cutoff: r|grad f| = 1/log r
    prof = decay_profile(make_field("loglog_tail"), [100.0])
    assert abs(prof.sup_rgrad[0] - 1.0 / math.log(100.0)) < 1e-12
    assert prof.c_source == "ring-mean"  # family is unbounded, no metadata c


def test_decay_profile_nonnegative_and_validates():
    prof = decay_profile(make_field("gaussian_bump"), [1.0, 2.0, 4.0])
    assert all(v >= 0.0 for v in prof.sup_dev + prof.sup_rgrad)
    with pytest.raises(ValueError):
        decay_profile(make_field("gaussian_bump"), [2.0, 1.0])
    with pytest.raises(ValueError):
        decay_profile(make_field("gaussian_bump"), [1.0], n_theta=4)
    for radii in ([2.0, math.nan], [math.nan], [2.0, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            decay_profile(make_field("gaussian_bump"), radii)


def _exterior(family, r0, normalize=False):
    return invert_local_graph(make_field(family), r0, normalize=normalize).as_field()


# (field, radii, n_theta): c from metadata, the ring mean, a field with a
# domain, exterior fields, and a ladder of two ring groups (3 + 2 rings of
# 20,000 points against the 2^16-point block)
BATCHED_CASES = {
    "gaussian_bump": (lambda: make_field("gaussian_bump"), [0.5, 1.0, 2.0, 4.0, 8.0], 256),
    "loglog_tail": (lambda: make_field("loglog_tail"), [3.0, 10.0, 100.0, 1e4], 256),
    "sphere_cap": (lambda: make_field("sphere_cap"), [0.1, 0.5, 0.9, 0.999], 128),
    "paraboloid-normalized": (lambda: _exterior("paraboloid", 0.3, True),
                              [4.0, 40.0, 400.0], 256),
    "saddle": (lambda: _exterior("saddle", 0.7), [2.0, 10.0, 1e3, 1e5], 64),
    "cylinder": (lambda: _exterior("cylinder", 0.3), [4.0, 40.0, 400.0], 100),
    "two-groups": (lambda: make_field("loglog_tail"), [3.0, 5.0, 10.0, 100.0, 1e4], 20000),
}


@pytest.mark.parametrize("case", sorted(BATCHED_CASES))
def test_decay_profile_batched_matches_per_ring(case):
    make, radii, n_theta = BATCHED_CASES[case]
    field = make()
    got = decay_profile(field, radii, n_theta)
    want = decay_profile_per_ring(field, radii, n_theta)
    # repr round-trips every float, so equal reprs are equal bits
    assert repr(got) == repr(want)


@pytest.mark.parametrize("make, radii", [
    (lambda: make_field("sphere_cap"), [1.5, 2.0]),
    (lambda: _exterior("paraboloid", 0.3), [2.0, 40.0]),
], ids=["sphere_cap", "exterior"])
def test_decay_profile_outside_the_domain_raises_as_per_ring(make, radii):
    field = make()
    with pytest.raises(DomainError) as want:
        decay_profile_per_ring(field, radii, 64)
    with pytest.raises(DomainError) as got:
        decay_profile(field, radii, 64)
    assert str(got.value) == str(want.value)


def test_sphere_cap_domain_error():
    with pytest.raises(DomainError):
        make_field("sphere_cap").jet((0.8, 0.8))
