import numpy as np
import pytest

from umbilic.families import list_families, make_field

# the box [lo, hi]^2 where tests sample a family, (-3, 3) unless named here:
# sphere_cap's box lies inside its unit-disk domain, and loglog_tail's
# reaches past its flat disk r < e
SAMPLE_BOXES = {"sphere_cap": (-0.6, 0.6), "loglog_tail": (-6.0, 6.0)}


def sample_box(field):
    """The (lo, hi) sampling box of a family's field."""
    return SAMPLE_BOXES.get(field.name, (-3.0, 3.0))


def all_fields():
    """One instance of every registered family, default parameters."""
    return [make_field(spec.name) for spec in list_families()]


def sample_points(field, n, rng):
    """Random points inside the field's preferred sampling box."""
    lo, hi = sample_box(field)
    return rng.uniform(lo, hi, size=(n, 2))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
