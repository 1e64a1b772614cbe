import math

import numpy as np
import pytest

from conftest import sample_box
from umbilic import decay_profile, list_families, make_field, parse_field_spec
from umbilic.curvature import residual_arrays


def test_registry_contents():
    names = [s.name for s in list_families()]
    assert len(names) >= 12
    for expected in ("bates_like", "loglog_tail", "ridge", "cone_type",
                     "saddle", "paraboloid", "sphere_cap", "asym_bump"):
        assert expected in names


def test_registry_defaults_and_errors():
    # ridge is 1 + lam*sqrt(1 + x^2): 1 + lam on the y axis
    assert float(make_field("ridge").value(0.0, 2.0)) == 1.0 + 0.1
    with pytest.raises(ValueError):
        make_field("no_such_family")
    with pytest.raises(ValueError):
        make_field("cone_type", lam=-0.1)
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            make_field("ridge", lam=lam)
    with pytest.raises(ValueError):
        make_field("paraboloid", lam=0.2)  # takes no parameters
    with pytest.raises(ValueError):
        make_field("separable", g="sin")


# (asymptotic_c, has a domain) of each family at its defaults
_FIELD_ATTRS = {
    "asym_bump": (0.0, False),
    "bates_like": (None, False),
    "cone_type": (None, False),
    "cylinder": (None, False),
    "gaussian_bump": (0.0, False),
    "inverse_quadratic": (0.0, False),
    "loglog_tail": (None, False),
    "paraboloid": (None, False),
    "ridge": (None, False),
    "saddle": (None, False),
    "separable": (None, False),
    "sphere_cap": (None, True),
}


@pytest.mark.parametrize("spec", list_families(), ids=lambda s: s.name)
def test_registry_builds_each_spec(spec):
    f = make_field(spec.name)
    assert f.name == spec.name
    # the defaults are the parameters a bare name builds with
    lo, hi = sample_box(f)
    x, y = np.meshgrid(np.linspace(lo, hi, 5), np.linspace(lo, hi, 5))
    explicit = make_field(spec.name, **spec.defaults)
    assert all(np.array_equal(a, b) for a, b in zip(f.jet_arrays(x, y),
                                                     explicit.jet_arrays(x, y)))
    assert (f.asymptotic_c, f.domain is not None) == _FIELD_ATTRS[spec.name]
    assert f.grads is None


def test_parse_field_spec():
    # bates_like is 1 + lam*s/sqrt(1 + s^2), s = x + y^2: 1 + lam/sqrt(2) at (1, 0)
    f = parse_field_spec("bates_like:lam=0.25")
    assert float(f.value(1.0, 0.0)) == 1.0 + 0.25 * (1.0 / math.sqrt(2.0))
    # separable is 1 + lam*(g(x) + h(y)), with sqrtlin(t) = sqrt(1 + t^2) + t
    g = parse_field_spec("separable:lam=0.2,g=sqrtlin,h=exp")
    assert float(g.value(1.0, 1.0)) == 1.0 + 0.2 * ((math.sqrt(2.0) + 1.0) + float(np.exp(1.0)))
    with pytest.raises(ValueError):
        parse_field_spec("ridge:lam")
    # a parameter's name is checked before its value is converted
    with pytest.raises(ValueError, match=r"got unknown \['foo'\]"):
        parse_field_spec("bates_like:foo=abc")


def test_bates_bounded_and_umbilic_free(rng):
    lam = 0.1
    f = make_field("bates_like", lam=lam)
    pts = rng.uniform(-10, 10, size=(400, 2))
    vals, f1, f2, f11, f12, f22 = f.jet_arrays(pts[:, 0], pts[:, 1])
    assert np.all(vals >= 1.0 - lam - 1e-12)
    assert np.all(vals <= 1.0 + lam + 1e-12)
    P1, P2, _, _ = residual_arrays(f1, f2, f11, f12, f22)
    assert np.all(np.maximum(np.abs(P1), np.abs(P2)) > 0.0)


def test_bates_directional_limits_differ():
    f = make_field("bates_like", lam=0.1)
    right = float(f.value_polar(1e6, 0.0))
    left = float(f.value_polar(1e6, math.pi))
    assert abs(right - 1.1) < 1e-5
    assert abs(left - 0.9) < 1e-5
    spec, = (s for s in list_families() if s.name == "bates_like")
    assert spec.asymptotically_constant is False


def test_cone_type_positive_curvature(rng):
    f = make_field("cone_type", lam=0.1)
    pts = rng.uniform(-20, 20, size=(1000, 2))
    _, f1, f2, f11, f12, f22 = f.jet_arrays(pts[:, 0], pts[:, 1])
    K = (f11 * f22 - f12 ** 2) / (1.0 + f1 ** 2 + f2 ** 2) ** 2
    assert np.all(K > 0.0)


def test_separable_P1_never_vanishes(rng):
    f = make_field("separable", lam=0.1, g="exp", h="exp")
    pts = rng.uniform(-3, 3, size=(500, 2))
    _, f1, f2, f11, f12, f22 = f.jet_arrays(pts[:, 0], pts[:, 1])
    P1, _, _, _ = residual_arrays(f1, f2, f11, f12, f22)
    assert np.all(P1 < 0.0)


def test_fast_gradient_decay_families():
    for name in ("gaussian_bump", "inverse_quadratic"):
        prof = decay_profile(make_field(name), [10.0])
        assert prof.sup_rgrad[0] < 0.05


def test_loglog_tail_transition_smooth():
    # value and slope stay continuous through the cutoff window
    f = make_field("loglog_tail")
    rs = np.linspace(math.e - 0.2, math.e + 1.2, 400)
    vals, f1, f2 = f.values_and_grads(rs, np.zeros_like(rs))
    assert np.all(np.abs(np.diff(vals)) < 0.01)
    norms = np.hypot(f1, f2)
    assert np.all(np.abs(np.diff(norms)) < 0.02)
    for r in (1.0, 2.0, math.e):
        assert float(f.value(r, 0.0)) == 0.0
