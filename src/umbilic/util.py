"""Small numeric helpers: deterministic reductions, thread budget, local minima,
bracketed bisection, complex-step derivatives, and row-wise pieces of the
batched Newton solves."""

import os

import numpy as np


def pairwise_sum(values):
    """Sum in a fixed pairwise tree so the result is independent of chunking.

    Parallel and serial runs reduce in the same order, which keeps CSV
    output byte-identical across thread counts.
    """
    a = np.asarray(values, dtype=float).ravel()
    if a.size == 0:
        return 0.0
    while a.size > 1:
        if a.size % 2:
            a = np.concatenate([a, [0.0]])
        a = a[0::2] + a[1::2]
    return float(a[0])


def worker_count():
    """Worker cap from the UMBILIC_THREADS env var, clamped to [1, 64]."""
    raw = os.environ.get("UMBILIC_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, min(n, 64))


def local_minima(values, wrap_cols=False):
    """Row-major (i, j) indices of the 3x3 local minima of a 2-D array.

    A node is kept when it is <= every node of its 3x3 window. The window
    is clipped at the row edges; at the column edges it is clipped too,
    or wraps around with ``wrap_cols``. A NaN node or NaN neighbour rules
    the node out, as with ``window.min()``.
    """
    v = np.asarray(values, dtype=float)
    n, m = v.shape
    # edge padding repeats a node already in the clipped window
    p = np.pad(v, ((1, 1), (0, 0)), mode="edge")
    p = np.pad(p, ((0, 0), (1, 1)), mode="wrap" if wrap_cols else "edge")
    low = v
    for di in range(3):
        for dj in range(3):
            low = np.minimum(low, p[di:di + n, dj:dj + m])
    return np.argwhere(v <= low)


def bisect_arrays(g, lo, hi):
    """Bisect every bracket [lo, hi] at once; the midpoints at the fixed point.

    Each step evaluates g on all midpoints: g > 0 moves lo up to the
    midpoint, g < 0 or NaN moves hi down to it, and g == 0 closes the
    bracket on it. A step is a fixed map of (lo, hi), so the loop stops at
    the first step that changes neither bracket; every later step would
    leave them unchanged too. Brackets must be finite.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("bisection brackets must be finite")
    while True:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        lo_next = np.where(gm >= 0.0, mid, lo)
        hi_next = np.where(gm > 0.0, hi, mid)
        if np.array_equal(lo_next, lo) and np.array_equal(hi_next, hi):
            return mid
        lo, hi = lo_next, hi_next


def _libm(fn, *args):
    """A math-module function applied elementwise, as a float array.

    numpy's hypot and arctan2 can differ from the math module's in the last
    bit (0.6% and 7.4% of random inputs with numpy 2.4 on x86-64); callers
    that must decide as scalar math-module code does use this instead.
    """
    return np.asarray(np.frompyfunc(fn, len(args), 1)(*args), dtype=float)


def _row_norms(x):
    """Euclidean norm of each row, rounded as ``np.linalg.norm`` of the row
    alone rounds it (a dot product of the row with itself), so no Newton
    decision depends on the batch a row sits in."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def _solve2(J, rhs):
    """Solve every 2x2 system J[k] s = rhs[k]; rows with a singular matrix
    come back with solved[k] false."""
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0], np.ones(len(J), bool)
    except np.linalg.LinAlgError:
        # a stacked solve raises for the whole stack: solve row by row. A
        # finite matrix with a zero column is singular to LU whatever the
        # pivoting, so it needs no solve to find out.
        st = np.zeros_like(rhs)
        solved = ~(np.all(np.isfinite(J), axis=(1, 2))
                   & np.any(np.all(J == 0.0, axis=1), axis=1))
        for k in np.flatnonzero(solved):
            try:
                st[k] = np.linalg.solve(J[k], rhs[k])
            except np.linalg.LinAlgError:
                solved[k] = False
        return st, solved


def _floating(x):
    """x as a float64 array, or complex128 if x is complex."""
    x = np.asarray(x)
    return x.astype(np.result_type(x.dtype, np.float64), copy=False)


def complex_step(fn, x, dx):
    """Derivative of fn at x along dx, Im fn(x + i h dx) / h: exact to
    rounding for fn analytic in x, as nothing cancels (Squire & Trapp, SIAM
    Rev. 1998). dx may stack several directions on leading axes."""
    h = 1e-30
    return np.imag(fn(x + 1j * h * dx)) / h


def unit3(v):
    """Normalize a 3-vector (or an array of them along the last axis). The
    norm sqrt(sum(v * v)) rounds as ``np.linalg.norm`` does on real input and
    is analytic on complex input."""
    v = _floating(v)
    return v / np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
