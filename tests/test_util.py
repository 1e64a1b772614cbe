import numpy as np
import pytest

from umbilic.util import local_minima


def brute_minima(values, wrap_cols=False):
    """Reference: a node is kept when it is <= the min of its 3x3 window."""
    n, m = values.shape
    out = []
    for i in range(n):
        for j in range(m):
            i0, i1 = max(i - 1, 0), min(i + 2, n)
            if wrap_cols:
                cols = [(j - 1) % m, j, (j + 1) % m]
            else:
                cols = list(range(max(j - 1, 0), min(j + 2, m)))
            if values[i, j] <= values[i0:i1][:, cols].min():
                out.append((i, j))
    return out


def as_pairs(idx):
    return [(int(i), int(j)) for i, j in idx]


@pytest.mark.parametrize("wrap_cols", [False, True])
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 2), (7, 9), (16, 32)])
def test_local_minima_matches_brute_force(rng, shape, wrap_cols):
    # few distinct levels, so ties and plateaus are common
    values = rng.integers(0, 4, size=shape).astype(float)
    assert as_pairs(local_minima(values, wrap_cols)) == brute_minima(values, wrap_cols)


def test_local_minima_clipped_edges_and_corners():
    values = np.array([[0.0, 5.0, 5.0, 1.0],
                       [5.0, 6.0, 6.0, 5.0],
                       [2.0, 5.0, 5.0, 0.5]])
    assert as_pairs(local_minima(values)) == [(0, 0), (0, 3), (2, 0), (2, 3)]
    # wrapping joins the first and last columns: the corners now compete
    assert as_pairs(local_minima(values, wrap_cols=True)) == [(0, 0), (2, 3)]


def test_local_minima_ties_all_kept():
    values = np.full((3, 4), 2.0)
    assert len(local_minima(values)) == 12
    values[1, 1] = 1.0
    values[1, 2] = 1.0
    assert as_pairs(local_minima(values)) == [(1, 1), (1, 2)]


@pytest.mark.parametrize("wrap_cols", [False, True])
def test_local_minima_nan_node_and_neighbour(rng, wrap_cols):
    values = rng.normal(size=(8, 8))
    values[2, 2] = -100.0          # a clear minimum ...
    values[2, 3] = np.nan          # ... ruled out by a NaN neighbour
    values[5, 5] = np.nan          # a NaN node is never a minimum
    values[0, 7] = -50.0           # minimum whose wrapped window holds no NaN
    got = as_pairs(local_minima(values, wrap_cols))
    with np.errstate(invalid="ignore"):
        assert got == brute_minima(values, wrap_cols)
    assert (2, 2) not in got and (5, 5) not in got
    assert all(not (abs(i - 5) <= 1 and abs(j - 5) <= 1) for i, j in got)
    assert (0, 7) in got
