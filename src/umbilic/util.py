"""Small numeric helpers: deterministic reductions, the finiteness,
radius-ladder and offset checks, thread budget, blocks of whole rows,
local minima, the greedy merge, the one bracketed root solver
(Chandrupatla's method on arrays), the one damped Newton solver
(``newton2``, on arrays of rows that step independently), complex-step
derivatives and the eigenvalues of symmetric 2x2 matrices."""

import math
import os

import numpy as np

from .errors import DomainError

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# points per evaluation block: bounds the jet temporaries of grids and ring ladders
_BLOCK_POINTS = 1 << 16


def row_blocks(n_rows: int, row_points: int, block_points: int = _BLOCK_POINTS):
    """Slices of whole rows, at most ``block_points`` points each, or one row."""
    per = max(1, block_points // row_points)
    return [slice(i, i + per) for i in range(0, n_rows, per)]


def pairwise_sum(values):
    """Sum in a fixed pairwise tree: adjacent pairs, level by level.

    The order depends on the length alone, where ``np.sum``'s depends on
    numpy's reduction blocking, so flux and disk-integral bytes do not.
    """
    a = np.asarray(values, dtype=float).ravel()
    if a.size == 0:
        return 0.0
    while a.size > 1:
        if a.size % 2:
            a = np.concatenate([a, [0.0]])
        a = a[0::2] + a[1::2]
    return float(a[0])


def check_finite(result, samples, what: str):
    """``result``, computed from the arrays ``samples``, if it is finite; a
    DomainError otherwise, counting the samples that are not finite (only
    then, so a finite result costs no pass over them)."""
    if np.all(np.isfinite(result)):
        return result
    bad = sum(a.size - int(np.count_nonzero(np.isfinite(a))) for a in samples)
    size = sum(a.size for a in samples)
    raise DomainError(f"{bad} of {size} {what} are not finite" if bad else
                      f"all {size} {what} are finite, but a result computed from them is not")


def check_radii(radii):
    """A radius ladder as a list of floats, checked to be nonempty, positive,
    finite and strictly increasing (``ValueError`` otherwise)."""
    radii = [float(r) for r in radii]
    if not radii or not all(0.0 < r < math.inf for r in radii):
        raise ValueError("radii must be positive and finite")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    return radii


def _check_offset(r):
    """Check an offset distance is finite and nonnegative (``ValueError``)."""
    if not 0.0 <= r < math.inf:
        raise ValueError(f"offset distance must be {'finite' if r > 0 else 'nonnegative'}")


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


def greedy_merge(key, window, *tests):
    """Rows kept by a greedy merge in row order: row j is dropped when an
    earlier kept row i is close to it. Rows whose ``key`` values differ by
    at most ``window`` are close when they pass every ``test(i, j)``, a
    boolean array over the pairs i[k] < j[k] that passed the tests before
    it (so cheap tests go first); rows farther apart in key must not be."""
    order = np.argsort(key)
    ks = key[order]
    # every pair (first, later) of positions in ks at most window apart
    span = np.searchsorted(ks, ks + window, side="right") - np.arange(len(ks)) - 1
    first = np.repeat(np.arange(len(ks)), span)
    later = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(span) - span, span)
    i, j = np.sort([order[first], order[later]], axis=0)
    for test in tests:
        near = test(i, j)
        i, j = i[near], j[near]
    by_j = np.argsort(j)
    keep = np.ones(len(key), bool)
    # in increasing j, a row's fate is settled before any later row reads it
    for a, b in zip(i[by_j].tolist(), j[by_j].tolist()):
        if keep[a]:
            keep[b] = False
    return keep


def bracket_root(g, lo, hi, glo, ghi):
    """Root of g in every bracket [lo, hi] at once, given the end values
    glo = g(lo) and ghi = g(hi) that the caller holds, by Chandrupatla's method
    (Adv. Eng. Softw. 28, 1997): inverse quadratic interpolation through the
    last three points where it is monotone there, bisection otherwise.

    g > 0 marks the lo side of the root, g < 0 or NaN the hi side; a NaN
    among the three points forces a bisection step. An exact zero, at a
    bracket end or met on the way, is the root. Each step evaluates g on the
    whole batch, and a row freezes once its bracket is within 4 eps |x|
    (at least 4 tiny) or it meets a zero, so every row comes out as it would
    alone. Returns the bracket end with the smaller |g|. Brackets must be
    finite.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("root brackets must be finite")
    # a: the newest point; b: the bracket end across the root from a;
    # c: the point dropped last (read only once t comes from interpolation)
    a, fa, b, fb = lo, glo, hi, ghi
    c, fc, t = b, fb, np.full(a.shape, 0.5)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            at_b = (np.abs(fb) < np.abs(fa)) | np.isnan(fa)
            xm, fm = np.where(at_b, b, a), np.where(at_b, fb, fa)
            # half the width at which a row freezes; the floor lets a root at 0 freeze
            tol = 2.0 * (_EPS * np.abs(xm) + _TINY)
            width = np.abs(b - a)
            live = (fm != 0.0) & (width > 2.0 * tol)
            if not live.any():
                return xm
            tl = tol / width
            xt = np.where(live, a + np.clip(t, tl, 1.0 - tl) * (b - a), xm)
            ft = g(xt)
            # on a's side of the root xt drops a; across, a becomes b and b drops
            same = (ft > 0.0) == (fa > 0.0)
            c = np.where(live, np.where(same, a, b), c)
            fc = np.where(live, np.where(same, fa, fb), fc)
            b, fb = np.where(live & ~same, a, b), np.where(live & ~same, fa, fb)
            a, fa = np.where(live, xt, a), np.where(live, ft, fa)
            xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
            iqi = (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)
            t = np.where(iqi, fa / (fa - fb) * fc / (fc - fb)
                         - (c - a) / (b - a) * fa / (fc - fa) * fb / (fb - fc), 0.5)


def _libm(fn, *args):
    """A math-module function applied elementwise, as a float array; it
    serves hypot and atan2 only.

    numpy's hypot and arctan2 can differ from the math module's in the last
    bit (0.6% and 7.4% of random inputs with numpy 2.4 on x86-64); callers
    that must decide as scalar math-module code does use this instead.
    numpy's cos and sin equal libm's bit for bit (1.1M random angles, same
    numpy and platform), so angles take numpy's.
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


def newton2(residual, jacobian, retract, x0, shorter, size, target, accept, max_iter):
    """Damped Newton on a two-component residual from every row of x0 at once,
    each row stepping as it would alone. residual(x) gives (r, *data); the
    per-row data reach jacobian(v, r, *data) and retract(v, s, lam, *data)
    on the rows v still iterating. retract gives the trial points of steps s
    at length lam (1, or ``shorter`` on a leading axis) and which may go on.
    A row takes the full step where it lowers the 2-norm |r|, else the first
    of ``shorter`` that does. It stops converged at size(r) < target;
    unconverged at a singular Jacobian, a step not finite or a trial that
    may not go on; and, where no length lowers |r| or after max_iter steps,
    converged at size(r) < accept. Returns the rows and converged flags."""
    x, ok = np.array(x0, dtype=float), np.zeros(len(x0), bool)
    live, (r, *data) = np.arange(len(x)), residual(x)  # r and data at x[live]
    for _ in range(max_iter):
        conv = size(r) < target
        if conv.any():
            ok[live[conv]] = True
            live, r, *data = (a[~conv] for a in (live, r, *data))
        if not live.size:
            break
        v = x[live]
        s, go = _solve2(jacobian(v, r, *data), -r)
        go &= np.all(np.isfinite(s), axis=-1)
        if not go.all():
            live, v, r, s, *data = (a[go] for a in (live, v, r, s, *data))
            if not live.size:
                break
        xn, keep = retract(v, s, 1.0, *data)
        rn, *dn = residual(xn)
        nr = _row_norms(r)
        down = _row_norms(rn) < nr
        at = np.flatnonzero(~down)  # rows the full step does not take down
        if at.size:
            if len(shorter):
                xs, fits = retract(v[at], s[at], shorter[:, None, None], *(a[at] for a in data))
                rs, *ds = residual(xs.reshape(-1, xs.shape[-1]))
                drop = _row_norms(rs).reshape(len(shorter), -1) < nr[at]
                hit = drop.any(axis=0)
                pick = drop[:, hit].argmax(axis=0) * at.size + np.flatnonzero(hit)
                at, took = at[~hit], at[hit]
                for a, b in zip((xn, rn, keep, *dn), (xs, rs, fits, *ds)):
                    a[took] = b.reshape(-1, *a.shape[1:])[pick]
                down[took] = True
            ok[live[at]] = size(r[at]) < accept
            keep &= down
        x[live[down]] = xn[down]
        live, r, *data = (a[keep] for a in (live, rn, *dn))
    else:
        ok[live] = size(r) < accept
    return x, ok


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


def sym_eigvals(a, b, c):
    """Eigenvalues lo <= hi of the symmetric 2x2 matrices [[a, b], [b, c]]:
    mean -/+ sqrt((a - c)^2 / 4 + b^2), mean = (a + c) / 2."""
    mean = 0.5 * (a + c)
    s = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b ** 2, 0.0))
    return mean - s, mean + s


def unit3(v):
    """Normalize a 3-vector (or an array of them along the last axis). The
    norm sqrt(sum(v * v)) rounds as ``np.linalg.norm`` does on real input and
    is analytic on complex input."""
    v = _floating(v)
    return v / np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
