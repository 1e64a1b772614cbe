import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umbilic.util import (_solve2, bracket_root, greedy_merge, local_minima, pairwise_sum,
                          worker_count)


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


# --- bracketed root solver -------------------------------------------------

_EPS = float(np.finfo(float).eps)


def brackets(rng, n):
    lo = rng.uniform(0.5, 4.0, n)
    hi = lo + rng.uniform(0.0, 3.0, n)
    hi[:5] = lo[:5]  # zero-width brackets
    # roots inside, at both ends, and on dyadic points that a bisection step
    # can hit exactly
    t = rng.uniform(0.0, 1.0, n)
    t[5:40] = rng.integers(0, 17, 35) / 16.0
    return lo, hi, lo + t * (hi - lo)


ROOT_FUNCTIONS = {
    # monotone decreasing: positive left of the root
    "linear": lambda x, root: root - x,
    "cubic-ish": lambda x, root: (root - x) * (1.0 + x * x),
    "sign": lambda x, root: np.where(x < root, 1.0, -1.0),
    "sign-with-ties": lambda x, root: np.where(x < root, 1.0, np.where(x > root, -1.0, 0.0)),
    "nan-right": lambda x, root: np.where(x < root, 1.0, np.nan),
}


def _root(g, lo, hi):
    """bracket_root with the bracket end values evaluated here, on the
    broadcast brackets."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    return bracket_root(g, lo, hi, g(lo), g(hi))


@pytest.mark.parametrize("kind", sorted(ROOT_FUNCTIONS))
def test_bracket_root_matches_per_row_solves(rng, kind):
    fn = ROOT_FUNCTIONS[kind]
    lo, hi, root = brackets(rng, 300)
    calls = []

    def g(x):
        calls.append(x.shape)
        return fn(x, root)

    got = _root(g, lo, hi)
    assert got.shape == lo.shape and all(c == lo.shape for c in calls)
    for k in range(lo.size):
        alone = _root(lambda x: fn(x, root[k]), lo[k], hi[k])
        assert got[k] == alone, (k, lo[k], hi[k], root[k])
    assert np.all((lo <= got) & (got <= hi))
    # a root at an end need not bracket as a sign change (and lo + t (hi - lo)
    # can round past an end for t = 0 or 1)
    ok = (lo < root) & (root < hi)
    got, root = got[ok], root[ok]
    if kind in ("linear", "cubic-ish"):
        # a sign change exactly at the root: the nearer bracket end is kept
        assert np.all(np.abs(got - root) <= 4.0 * np.spacing(root))
    elif kind == "nan-right":
        # NaN is the hi side: the answer is the last point left of the NaNs
        assert np.all(got < root)
        assert np.all(root - got <= 4.0 * _EPS * got)
    else:
        assert np.all(np.abs(got - root) <= 4.0 * _EPS * got)
    if kind in ("linear", "sign-with-ties"):
        assert np.any(got == root)


def test_bracket_root_exact_zero_closes_the_row():
    calls = []

    def g(x):
        calls.append(x.copy())
        return np.array([1.0, 0.3]) - x

    # row 0 meets its root at the first midpoint; row 1 keeps iterating
    # while row 0 stays put
    got = _root(g, 0.0, 2.0)
    assert got[0] == 1.0 and abs(got[1] - 0.3) <= 4.0 * _EPS * 0.3
    assert len(calls) > 3 and all(c[0] == 1.0 for c in calls[3:])
    # a zero at either bracket end is the root
    assert _root(lambda x: 1.0 - x, 1.0, 3.0) == 1.0
    assert _root(lambda x: 3.0 - x, 1.0, 3.0) == 3.0
    assert _root(lambda x: np.where(x < 3.0, 1.0, 0.0), 1.0, 3.0) == 3.0


def test_bracket_root_scalars_and_broadcasting():
    r = _root(lambda x: 2.0 - x * x, 1.0, 2.0)
    assert np.ndim(r) == 0 and abs(r - np.sqrt(2.0)) <= 4.0 * np.spacing(np.sqrt(2.0))
    out = _root(lambda x: np.array([0.25, 0.5, 0.75]) - x, 0.0, np.ones(3))
    assert out.tolist() == [0.25, 0.5, 0.75]
    assert _root(lambda x: x, 3.0, 3.0) == 3.0


SMOOTH_FUNCTIONS = {
    "linear": lambda x, r: r - x,
    "cubic-ish": lambda x, r: (r - x) * (1.0 + x * x),
    "exp": lambda x, r: np.expm1(r - x),
    "log": lambda x, r: np.log(r / x),
    "arctan": lambda x, r: np.arctan(r - x),
}


@pytest.mark.parametrize("kind", sorted(SMOOTH_FUNCTIONS))
def test_bracket_root_is_superlinear_on_smooth_functions(rng, kind):
    fn = SMOOTH_FUNCTIONS[kind]
    lo = rng.uniform(0.5, 4.0, 500)
    hi = lo + rng.uniform(0.1, 3.0, 500)
    root = lo + rng.uniform(0.0, 1.0, 500) * (hi - lo)
    calls = []

    def g(x):
        calls.append(1)
        return fn(x, root)

    got = _root(g, lo, hi)
    # the two bracket ends and at most 10 steps, against about 55 for a
    # bisection to float resolution
    assert len(calls) <= 12
    assert np.all(np.abs(got - root) <= 8.0 * _EPS * root)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bracket_root_rejects_non_finite_brackets(bad):
    calls = []

    def g(x):
        calls.append(x)
        return -x

    with pytest.raises(ValueError):
        bracket_root(g, np.array([0.0, bad]), np.array([1.0, 2.0]),
                     np.array([0.0, -bad]), np.array([-1.0, -2.0]))
    with pytest.raises(ValueError):
        bracket_root(g, 0.0, bad, 0.0, -bad)
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


def greedy_reference(pts):
    """Reference merge: one point at a time, kept unless a point kept
    before it is within 1 of it in both coordinates."""
    kept = []
    for p in pts:
        kept.append(not any(k and abs(p[0] - q[0]) <= 1 and abs(p[1] - q[1]) <= 1
                            for q, k in zip(pts, kept)))
    return kept


def _chebyshev_merge(pts):
    # two tests: the second sees only the pairs the first passed
    x, y = (np.array([p[c] for p in pts], dtype=float) for c in (0, 1))
    return greedy_merge(x, 1.0, lambda i, j: np.abs(x[j] - x[i]) <= 1.0,
                        lambda i, j: np.abs(y[j] - y[i]) <= 1.0).tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=40))
def test_greedy_merge_matches_the_loop(pts):
    # a 7 x 7 lattice: tied keys, clusters and chains are common
    assert _chebyshev_merge(pts) == greedy_reference(pts)


def test_greedy_merge_chains_and_empty():
    # b is close to a and drops; c is close only to b, so it stays; the
    # merge runs in row order, whatever order the keys are in
    assert _chebyshev_merge([(0, 0), (1, 0), (2, 0)]) == [True, False, True]
    assert _chebyshev_merge([(2, 0), (1, 0), (0, 0)]) == [True, False, True]
    assert _chebyshev_merge([(1, 0), (0, 0), (2, 0), (1, 5)]) == [True, False, False, True]
    assert _chebyshev_merge([]) == []


def test_pairwise_sum_of_nothing_is_zero():
    assert pairwise_sum([]) == 0.0
    assert pairwise_sum(np.zeros((0, 3))) == 0.0


@pytest.mark.parametrize("raw, workers", [("abc", 1), ("", 1), ("0", 1), ("3", 3), ("999", 64)])
def test_worker_count_reads_umbilic_threads(monkeypatch, raw, workers):
    # a value that is not an integer means one worker; others are clamped to [1, 64]
    monkeypatch.setenv("UMBILIC_THREADS", raw)
    assert worker_count() == workers
