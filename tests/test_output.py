import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umbilic import output
from umbilic.output import (repr_texts, svg_heatmap, write_csv, write_grid_csv,
                            write_polyline_csv)
from umbilic.scan import Grid, contours


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def grid_of(values, xs=None, ys=None, evaluator=None):
    values = np.asarray(values, dtype=float)
    n, m = values.shape
    xs = np.linspace(-1.5, 2.0, n) if xs is None else np.asarray(xs, dtype=float)
    ys = np.linspace(-1.0, 1.0, m) if ys is None else np.asarray(ys, dtype=float)
    return Grid(xs, ys, values, (xs[0], ys[0], xs[-1], ys[-1]), evaluator)


# the per-cell heatmap loop the array writer replaced, kept as the oracle
_NEG = (33, 102, 172)
_MID = (247, 247, 247)
_POS = (178, 24, 43)


def _lerp(c0, c1, t):
    return tuple(int(round(a + (b - a) * t)) for a, b in zip(c0, c1))


def _color(value, vmax):
    if vmax <= 0.0:
        return _MID
    t = max(-1.0, min(1.0, value / vmax))
    if t >= 0.0:
        return _lerp(_MID, _POS, t)
    return _lerp(_MID, _NEG, -t)


def reference_heatmap(grid, path, size=640):
    values = grid.values
    n, m = values.shape
    vmax = float(np.max(np.abs(values)))
    cw = size / n
    ch = size / m
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    for i in range(n):
        for j in range(m):
            r, g, b = _color(float(values[i, j]), vmax)
            parts.append(f'<rect x="{i * cw:.2f}" y="{(m - 1 - j) * ch:.2f}" '
                         f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" '
                         f'fill="rgb({r},{g},{b})"/>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def test_grid_csv_matches_row_writer(tmp_path):
    # n != m, so a swapped axis shows; values print in every repr style
    special = [-0.0, 1e-5, 1e16, 5e-324, 2.0]
    values = np.random.default_rng(7).standard_normal((5, 3))
    values.flat[:len(special)] = special
    g = grid_of(values, xs=[-2.0, -0.0, 1e-5, 0.1, 3.0], ys=[-1.0, 0.0, 1e16])
    rows = [(x, y, g.values[i, j]) for i, x in enumerate(g.xs)
            for j, y in enumerate(g.ys)]
    for desc in ("K of graph(paraboloid); lengths in plane units", ""):
        write_csv(tmp_path / "rows.csv", ("x", "y", "K"), rows, desc)
        write_grid_csv(tmp_path / "grid.csv", "K", g, desc)
        assert read(tmp_path / "grid.csv") == read(tmp_path / "rows.csv")
    lines = read(tmp_path / "grid.csv").decode().splitlines()
    assert lines[0] == "x,y,K" and lines[1] == "-2.0,-1.0,-0.0"
    assert lines[2:6] == ["-2.0,0.0,1e-05", "-2.0,1e+16,1e+16",
                          "-0.0,-1.0,5e-324", "-0.0,0.0,2.0"]


@pytest.mark.parametrize("case", ["random", "zero", "extremes", "half"])
def test_heatmap_matches_per_cell_loop(tmp_path, case):
    rng = np.random.default_rng(11)
    values = {
        "random": rng.standard_normal((9, 6)),
        # vmax == 0: every cell takes the middle colour
        "zero": np.zeros((4, 7)),
        # values at exactly +-vmax, and a signed zero
        "extremes": np.array([[3.0, -3.0, -0.0], [0.0, 1.5, -2.25]]),
        # t = +-0.5 puts channels on x.5, which round half to even
        "half": np.array([[2.0, 1.0, -1.0, -2.0], [0.5, -0.5, 0.25, -0.25]]),
    }[case]
    g = grid_of(values)
    if case == "half":
        assert 247 + (178 - 247) * 0.5 == 212.5  # lands on a half exactly
    reference_heatmap(g, tmp_path / "old.svg")
    svg_heatmap(g, tmp_path / "new.svg")
    assert read(tmp_path / "new.svg") == read(tmp_path / "old.svg")


def test_polyline_csv_matches_row_writer(tmp_path):
    xs = np.linspace(-2.0, 2.0, 41)
    ys = np.linspace(-1.5, 1.5, 33)
    XX, YY = np.meshgrid(xs, ys, indexing="ij")

    def fn(x, y):
        return x**2 + 2.0 * y**2 - 1.0 - 0.3 * x**3

    cs = contours(grid_of(fn(XX, YY), xs, ys, fn))
    assert len(cs.polylines) >= 1
    polylines = cs.polylines + [np.array([[-0.0, 1e-5], [5e-324, 1e16]])]
    rows = [(pid, x, y) for pid, poly in enumerate(polylines) for x, y in poly]
    desc = "zero contours of dk for custom"
    write_csv(tmp_path / "rows.csv", ("polyline", "x", "y"), rows, desc)
    write_polyline_csv(tmp_path / "poly.csv", polylines, desc)
    assert read(tmp_path / "poly.csv") == read(tmp_path / "rows.csv")
    write_polyline_csv(tmp_path / "empty.csv", [], desc)
    assert read(tmp_path / "empty.csv") == f"# {desc}\npolyline,x,y\n".encode()


# a small pool, so drawn arrays repeat values: both zeros, subnormals, both
# sides of repr's switches to exponent form below 1e-4 and at 1e16, and NaNs
# with different bits that all print as 'nan'
POOL = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e-05,
        9.999999999999999e-05, 0.0001, -0.00010000000000000002, 1 / 3, -2.5,
        9999999999999998.0, 1e16, -1.0000000000000002e16, 1.7976931348623157e308]
NANS = [math.nan, math.copysign(math.nan, -1.0)]


@st.composite
def drawn(draw, shape, values=st.sampled_from(POOL + NANS)):
    n = math.prod(shape)
    picks = draw(st.lists(values, min_size=n, max_size=n))
    return np.array(picks, dtype=float).reshape(shape)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), block=st.integers(1, 7))
def test_writers_match_row_writer_across_blocks(data, block):
    # a block this small cuts every grid, so values repeat within and across
    # blocks; each grid is written twice, with blocks under the crossover to
    # repr and with every block through the kernel
    n, m = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
    g = grid_of(data.draw(drawn((n, m))), xs=data.draw(drawn((n,))),
                ys=data.draw(drawn((m,))))
    sizes = data.draw(st.lists(st.integers(0, 6), max_size=4))
    polylines = [data.draw(drawn((k, 2))) for k in sizes]
    finite = grid_of(data.draw(drawn((n, m), st.sampled_from(POOL))))
    grid_rows = [(x, y, g.values[i, j]) for i, x in enumerate(g.xs)
                 for j, y in enumerate(g.ys)]
    poly_rows = [(pid, x, y) for pid, poly in enumerate(polylines) for x, y in poly]
    for kernel_min in (output._KERNEL_MIN, 0):
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            for name in ("_FORMAT_BLOCK", "_KERNEL_BLOCK", "_LINE_BLOCK"):
                mp.setattr(output, name, block)
            mp.setattr(output, "_KERNEL_MIN", kernel_min)
            tmp = Path(tmp)
            write_csv(tmp / "rows.csv", ("x", "y", "K"), grid_rows, "K")
            write_grid_csv(tmp / "grid.csv", "K", g, "K")
            assert read(tmp / "grid.csv") == read(tmp / "rows.csv")
            write_csv(tmp / "rows.csv", ("polyline", "x", "y"), poly_rows)
            write_polyline_csv(tmp / "poly.csv", polylines)
            assert read(tmp / "poly.csv") == read(tmp / "rows.csv")
            reference_heatmap(finite, tmp / "old.svg")
            svg_heatmap(finite, tmp / "new.svg")
            assert read(tmp / "new.svg") == read(tmp / "old.svg")


def reprs(values):
    return [repr(v).encode() for v in np.ravel(values).tolist()]


# sign, biased exponent and mantissa drawn apart, so that zeros, subnormals,
# powers of two, values of 2^53 and above, infinities, NaN payloads and
# 3-digit exponents all come up, beside raw 64-bit patterns
PATTERNS = st.integers(0, 2**64 - 1) | st.builds(
    lambda sign, biased, mant: sign << 63 | biased << 52 | mant,
    st.integers(0, 1),
    st.sampled_from([0, 1, 2, 1022, 1023, 1072, 1073, 1075, 1076, 2046, 2047])
    | st.integers(0, 2047),
    st.sampled_from([0, 1, 2, (1 << 52) - 1]) | st.integers(0, (1 << 52) - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(PATTERNS, min_size=1, max_size=40))
def test_repr_texts_match_repr_on_bit_patterns(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert repr_texts(values).tolist() == reprs(values)


def _boundary_values():
    values = []
    # repr's switches to exponent form at 1e-4 and 1e16, and 2^53, where
    # the kernel hands over to repr, with 40 neighbours on each side
    for center in (1e-4, 1e-5, 1e16, 2.0**53):
        below = above = center
        values.append(center)
        for _ in range(40):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            values += [below, above]
    values += [2.0**k for k in range(-1074, 1024)]
    values += [float(f"1e{k}") for k in range(-323, 309)]
    values += [float(k) for k in range(-1000, 1001)]
    values += [float(2**53 - k) for k in range(1, 100)] + [2.0**52 + 0.5, 2.0**51 + 0.25]
    # 1- to 17-digit values at every decimal point position repr prints,
    # and in exponent form on both sides
    for digits in ("1", "12", "123", "9" * 4, "31415", "271828", "1234567", "98765432",
                   "123456789", "1" * 10, "9" * 11, "123456789012", "7" * 13,
                   "12345678901234", "999999999999999", "1234567890123456",
                   "12345678901234567", "9" * 17):
        for k in range(-30, 25):
            values.append(float(f"{digits}e{k}"))
        values += [float(f"0.{digits}e{k}") for k in (-310, -300, -100, 100, 300)]
    return values + [-v for v in values]


def test_repr_texts_match_repr_on_boundary_values():
    values = np.array(_boundary_values())
    assert repr_texts(values).tolist() == reprs(values)


def test_repr_texts_fall_back_to_repr_on_big_endian(monkeypatch):
    # no test machine is big-endian, so the branch is reached by patching
    monkeypatch.setattr(output.np, "little_endian", False)
    monkeypatch.setattr(output, "_repr_block", None)  # the kernel is not run
    values = np.array(_boundary_values())
    assert repr_texts(values).tolist() == reprs(values)


def test_repr_texts_match_repr_on_a_random_sweep():
    # 2^20 patterns; three in four get an exponent within 2^+-60, where
    # repr prints most values positionally
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2**64, 1 << 20, dtype=np.uint64)
    near = rng.integers(1023 - 60, 1023 + 60, 3 << 18).astype(np.uint64)
    bits[:3 << 18] = bits[:3 << 18] & np.uint64(0x800FFFFFFFFFFFFF) | near << np.uint64(52)
    values = bits.view(np.float64)
    assert repr_texts(values).tolist() == reprs(values)
    strided = values.reshape(1024, 1024)[::-7, ::3]
    assert repr_texts(strided).tolist() == reprs(strided)


def test_grid_csv_memory(tmp_path):
    # like test_pipeline_ladder_memory: a 501 x 501 map of distinct values
    # peaks at 2.0 MiB; with the lines of a whole 2^14-value block in one
    # byte matrix it peaked at 5.8 MiB, with one kernel call per block at
    # 5.1 MiB, and with both at 2^16 values at 22.6 and 19.0 MiB; the
    # heatmap of the same map peaks at 1.9 MiB, and at 19.5 MiB when it
    # coloured the whole map at once and formatted its fills per row
    g = grid_of(np.random.default_rng(3).standard_normal((501, 501)))
    for writer in (lambda path: write_grid_csv(path, "K", g, "K"),
                   lambda path: svg_heatmap(g, path)):
        tracemalloc.start()
        try:
            writer(tmp_path / "map")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
