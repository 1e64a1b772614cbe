import numpy as np
import pytest

from umbilic.util import _solve2, bisect_arrays, local_minima


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


# --- bracketed bisection ----------------------------------------------------

def scalar_bisect(g, lo, hi):
    """Reference: the per-point bisection loop the exterior graph used to run."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid  # interval at float resolution
        gm = g(mid)
        if gm == 0.0:
            return mid
        if gm > 0.0:
            lo = mid
        else:
            hi = mid
    raise AssertionError("reference bisection did not converge")


def brackets(rng, n):
    lo = rng.uniform(0.5, 4.0, n)
    hi = lo + rng.uniform(0.0, 3.0, n)
    hi[:5] = lo[:5]  # zero-width brackets
    # roots inside, outside on both sides, and on dyadic points that some
    # midpoint hits exactly
    t = rng.uniform(-0.2, 1.2, n)
    t[5:40] = rng.integers(0, 17, 35) / 16.0
    return lo, hi, lo + t * (hi - lo)


SIGN_FUNCTIONS = {
    # monotone decreasing: positive left of the root
    "linear": lambda x, root: root - x,
    "cubic-ish": lambda x, root: (root - x) * (1.0 + x * x),
    "sign": lambda x, root: np.where(x < root, 1.0, -1.0),
    "sign-with-ties": lambda x, root: np.where(x < root, 1.0, np.where(x > root, -1.0, 0.0)),
    "nan-right": lambda x, root: np.where(x < root, 1.0, np.nan),
}


@pytest.mark.parametrize("kind", sorted(SIGN_FUNCTIONS))
def test_bisect_arrays_matches_scalar_reference(rng, kind):
    fn = SIGN_FUNCTIONS[kind]
    lo, hi, root = brackets(rng, 300)
    calls = []

    def g(x):
        calls.append(x.shape)
        return fn(x, root)

    got = bisect_arrays(g, lo, hi)
    assert got.shape == lo.shape and all(c == lo.shape for c in calls)
    for k in range(lo.size):
        ref = scalar_bisect(lambda x: float(fn(np.float64(x), root[k])), lo[k], hi[k])
        assert got[k] == ref, (k, lo[k], hi[k], root[k])
    # exact-zero midpoints close their bracket on the midpoint
    if kind in ("linear", "sign-with-ties"):
        assert np.any(got == root)


def test_bisect_arrays_scalars_and_broadcasting():
    r = bisect_arrays(lambda x: 2.0 - x * x, 1.0, 2.0)
    assert np.ndim(r) == 0 and abs(r - np.sqrt(2.0)) <= 4e-16
    out = bisect_arrays(lambda x: np.array([0.25, 0.5, 0.75]) - x, 0.0, np.ones(3))
    assert out.tolist() == [0.25, 0.5, 0.75]
    assert bisect_arrays(lambda x: x, 3.0, 3.0) == 3.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bisect_arrays_rejects_non_finite_brackets(bad):
    calls = []

    def g(x):
        calls.append(x)
        return -x

    with pytest.raises(ValueError):
        bisect_arrays(g, np.array([0.0, bad]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        bisect_arrays(g, 0.0, bad)
    assert not calls


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve2_matches_per_row_solves(rng):
    # zero columns are flagged singular without a solve; every other row,
    # singular, NaN or not, must come out as its own solve leaves it
    J = rng.normal(size=(40, 2, 2))
    J[1:7, :, 0] = 0.0
    J[7:13, :, 1] = 0.0
    J[13, 0] = J[14, 1] = 0.0                 # zero rows
    J[15, 1] = 3.0 * J[15, 0]                 # dependent rows
    J[16:19, 0, 0] = np.nan                   # NaN with and without a zero column
    J[17:19, :, 1] = 0.0
    J[19, 1, 0] = np.inf
    J[20] = 0.0
    J[21, 0, 1] = 0.0                         # one zero entry: not singular
    rhs = rng.normal(size=(40, 2))
    st, solved = _solve2(J, rhs)
    for k in range(len(J)):
        try:
            ref, ok = np.linalg.solve(J[k], rhs[k]), True
        except np.linalg.LinAlgError:
            ref, ok = np.zeros(2), False
        assert solved[k] == ok, k
        assert np.array_equal(st[k], ref, equal_nan=True), k
    assert not solved[1:15].any() and solved[21:].all()
