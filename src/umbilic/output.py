"""CSV and SVG writers with deterministic, locale-free formatting.

Every float in a CSV prints as its ``repr``. The grid and polyline CSVs
get that text from ``repr_texts``, a numpy kernel for Ryu's shortest
round-trip digits (Adams, *Ryu: fast float-to-string conversion*, PLDI
2018) that lays the digits out as ``repr`` does and hands ``repr`` the
values outside its common case. Their values go through one distinct-value
pass: the array is cut into blocks of ``_FORMAT_BLOCK`` (2^14) elements,
and each value of a block is formatted once however often it repeats
there, values being compared bit for bit. Repeats are common (symmetric
fields, contour vertices on grid lines). A block with fewer distinct values
than ``_KERNEL_MIN`` goes to ``repr``, which is faster there than a kernel
call. Lines are built ``_LINE_BLOCK`` at a time as one byte matrix of text
columns and separators, whose NUL padding one mask strips. The heatmap's
``<rect>`` lines come from the same byte matrix: their colours are computed
one line block at a time, and each channel's text is read from a table
indexed by the channel's value, so they need no distinct-value pass.
"""

from __future__ import annotations

import functools

import numpy as np

# elements per block of the distinct-value pass: bounds the texts alive, at
# 24 bytes a value; blocks of 2^16 found 12% fewer distinct map values, but
# their 1.5 MiB text arrays raised dense-maps' peak RSS by about 3 MB
_FORMAT_BLOCK = 1 << 14
# values per kernel call: bounds its temporaries (about 1 MiB)
_KERNEL_BLOCK = 1 << 12
# distinct values below which repr beats a kernel call: at 512 both took
# about 0.33 ms, at 1024 the kernel 0.40 ms and repr 0.64 ms (one core of a
# shared 2-core Xeon, Python 3.11, numpy 2.4)
_KERNEL_MIN = 1 << 9
# lines per byte matrix of the grid and polyline CSVs and the heatmap
_LINE_BLOCK = 1 << 12
_TEXT = np.dtype("S24")  # the longest repr: '-2.2250738585072014e-308'
_U = np.uint64


def format_float(v) -> str:
    """Shortest decimal that round-trips the float ('.' decimal point);
    every NaN prints as 'nan'."""
    return repr(float(v))


def _format_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    if isinstance(v, (int, np.integer)):  # bool too
        return str(int(v))
    text = str(v)
    if any(c in text for c in ',"\r\n'):  # quoted as RFC 4180 does
        return '"' + text.replace('"', '""') + '"'
    return text


@functools.cache
def _ryu_tables():
    """Ryu's 5^i to 125 bits, i < 326 (low and high words); the masks of a
    word's bytes from byte t up, t <= 8; and 10^k, k < 20."""
    word = (1 << 64) - 1
    pow5 = [5**i for i in range(326)]
    split = [p >> p.bit_length() - 125 if p.bit_length() > 125 else p << 125 - p.bit_length()
             for p in pow5]
    return (np.array([s & word for s in split], np.uint64),
            np.array([s >> 64 for s in split], np.uint64),
            np.array([word << 8 * t & word for t in range(9)], np.uint64),
            np.array([10**k for k in range(20)], np.uint64))


def _umul128(a, b):
    """Low and high words of a * b for uint64 arrays, a < 2^54, from
    32-bit halves."""
    a_lo, a_hi = a & _U(0xFFFFFFFF), a >> _U(32)
    b_lo, b_hi = b & _U(0xFFFFFFFF), b >> _U(32)
    low = a_lo * b_lo
    mid = a_hi * b_lo + (low >> _U(32))
    mid2 = a_lo * b_hi + (mid & _U(0xFFFFFFFF))
    return ((mid2 << _U(32)) | (low & _U(0xFFFFFFFF)),
            a_hi * b_hi + (mid >> _U(32)) + (mid2 >> _U(32)))


def _ascii8(x):
    """The 8 decimal digits of each uint64 x < 10^8 as ASCII bytes of one
    little-endian word, first digit lowest (SWAR: 4-, 2-, then 1-digit
    lanes, each split by a multiply-shift)."""
    hi = x // _U(10000)
    v = hi | (x - hi * _U(10000)) << _U(32)
    hi = (v * _U(5243)) >> _U(19) & _U(0x0000007F0000007F)  # // 100 per lane
    v = hi | (v - hi * _U(100)) << _U(16)
    hi = (v * _U(103)) >> _U(10) & _U(0x000F000F000F000F)  # // 10 per lane
    return hi | (v - hi * _U(10)) << _U(8) | _U(0x3030303030303030)


def _shortest(m2, e2n):
    """Ryu's shortest digits * 10^exp10 of m2 * 2^(2 - e2n), for
    53-bit m2 > 2^52 and e2n = -e2 in [2, 1076]: the d2s common case, in
    which vr, vp and vm come from one product of 2 m2 and the 5^i row, vp
    and vm by adding and subtracting the row. Returns (digits, exp10,
    exact); exact is True on the rows that Ryu's trailing-zero tests may
    flag, which the common case does not cover."""
    lo_t, hi_t, _, _ = _ryu_tables()
    q = ((e2n * 732923) >> 20) - 1  # log10(5^e2n) - 1
    mv = m2 << _U(2)
    low_bits = (_U(1) << np.minimum(q, 63).astype(np.uint64)) - _U(1)
    exact = (q <= 1) | ((q < 63) & (mv & low_bits == 0))
    i = e2n - q
    shift = (q - ((i * 1217359) >> 19) + 59).astype(np.uint64)  # Ryu's j - 65
    mul_lo, mul_hi = lo_t[i], hi_t[i]
    a = m2 << _U(1)
    lo, mid = _umul128(a, mul_lo)
    mid2, hi = _umul128(a, mul_hi)
    mid = mid + mid2
    hi = hi + (mid < mid2)
    lo_p = lo + mul_lo
    mid_p = mid + mul_hi + (lo_p < lo)
    hi_p = hi + (mid_p < mid)
    lo_m = lo - mul_lo
    mid_m = mid - mul_hi - (lo_m > lo)
    hi_m = hi - (mid_m > mid)
    back = _U(64) - shift
    vr = hi << back | mid >> shift
    vp = hi_p << back | mid_p >> shift
    vm = hi_m << back | mid_m >> shift
    # drop digits while vp and vm still differ above them: two at once
    # first, then one at a time on the rows still live
    vp100, vm100 = vp // _U(100), vm // _U(100)
    two = vp100 > vm100
    vr100 = vr // _U(100)
    round_up = two & (vr - vr100 * _U(100) >= _U(50))
    vr = np.where(two, vr100, vr)
    vp = np.where(two, vp100, vp)
    vm = np.where(two, vm100, vm)
    removed = 2 * two
    live = np.flatnonzero(vp // _U(10) > vm // _U(10))
    while live.size:
        r = vr[live]
        r10 = r // _U(10)
        round_up[live] = r - r10 * _U(10) >= _U(5)
        vr[live] = r10
        vp[live] //= _U(10)
        vm[live] //= _U(10)
        removed[live] += 1
        live = live[vp[live] // _U(10) > vm[live] // _U(10)]
    return vr + ((vr == vm) | round_up), removed - e2n + q, exact


def _layout(digits, exp10, neg):
    """``S24`` texts as repr prints (-1)^neg digits * 10^exp10, digits <
    10^17: positional for decimal points -3..16, else d.ddde-XX. The digit
    run R (the digits with the zeros repr prints) is set by SWAR to end at
    byte 24 of each row's 48, the bytes after the point move up one, the
    point, sign and exponent go in, and each text is read from where it
    starts."""
    _, _, from_byte, pow10 = _ryu_tables()
    n = digits.size
    log2 = (digits.astype(np.float64).view(np.uint64) >> _U(52)).astype(np.int64) - 1023
    nd = ((log2 + 1) * 1233) >> 12  # log10 2 = 1233 / 2^12, low by at most one
    nd += digits >= pow10[nd]
    point = nd + exp10
    sci = (point < -3) | (point > 16)
    # R is "0" and -point zeros before the digits when point <= 0, and the
    # digits and zeros up to one past the point when point >= nd
    run = np.where(sci, nd, np.maximum(nd, point + 1) - np.minimum(point, 1) + 1)
    frac = run - np.where(sci, 1, np.maximum(point, 1))  # digits after the point
    rv = digits * pow10[np.where(sci, 0, np.maximum(point + 1 - nd, 0))]
    word = np.empty((4, n), np.uint64)  # bytes 0-31 of each row's text
    low = rv % _U(10**16)
    word[1] = low // _U(10**8)
    word[2] = low - word[1] * _U(10**8)
    word[1:3] = _ascii8(word[1:3])
    word[0] = rv // _U(10**16) << _U(56) | _U(0x3030303030303030)
    cut = np.minimum(np.maximum(24 - frac - np.array([[0], [8], [16]]), 0), 8)
    tail = word[:3] & from_byte[cut]
    word[:3] ^= tail
    word[:3] |= tail << _U(8)
    word[1:3] |= tail[:2] >> _U(56)
    word[3] = tail[2] >> _U(56)
    dot = frac > 0
    sci = np.flatnonzero(sci)
    if sci.size:  # e, its sign and 2 or 3 digits, after the digits and point
        e = np.abs(point[sci] - 1).astype(np.uint64)
        exp = (e // _U(10) % _U(10) | e % _U(10) << _U(8)) + _U(0x3030)
        exp = np.where(e >= _U(100), _U(0x30) + e // _U(100) | exp << _U(8), exp)
        sign = np.where(point[sci] > 0, _U(ord("+")), _U(ord("-")))
        word[3, sci] |= (_U(ord("e")) | sign << _U(8) | exp << _U(16)) << (
            dot[sci].astype(np.uint64) * _U(8))
    rows = np.empty((n, 6), np.uint64)
    rows[:, :4] = word.T
    rows[:, 4:] = 0
    text = rows.view(np.uint8).ravel()  # byte b of row k at 48 k + b
    at = np.arange(0, 48 * n, 48)
    text[(at + 24 - frac)[dot]] = ord(".")
    start = at + 24 - run - neg
    text[start[neg]] = ord("-")
    return np.ndarray((max(text.size - 23, 0),), _TEXT, text, 0, (1,))[start]


def _reprs(x):
    """repr's text of every value of a 1-d float64 array, as ``S24``."""
    return np.array([repr(v) for v in x.tolist()], _TEXT)


def _repr_block(x):
    """``repr_texts`` of a 1-d float64 array of at most ``_KERNEL_BLOCK``.
    The kernel runs on every row; repr overwrites the rows it does not
    cover."""
    bits = x.view(np.uint64)
    biased = (bits >> _U(52) & _U(0x7FF)).astype(np.int64)
    mant = bits & _U((1 << 52) - 1)
    # e2n = -e2 clipped to the kernel's range, so the rows left to repr
    # stay in its tables
    digits, exp10, exact = _shortest(mant | _U(1 << 52), np.clip(1077 - biased, 2, 1076))
    texts = _layout(digits, exp10, bits >> _U(63) != 0)
    # zero, subnormals, |x| >= 2^53, inf and nan, and powers of two
    rest = np.flatnonzero(exact | (biased == 0) | (biased >= 1076) | (mant == 0))
    texts[rest] = _reprs(x[rest])
    return texts


def repr_texts(values):
    """repr(float(v)) of every element of a float array, in C order, as a
    1-d ``S24`` array (ASCII, NUL padded): Ryu's d2s digits in numpy on
    little-endian machines, ``repr`` itself for zero, subnormals, values of
    magnitude 2^53 and above, inf, nan, powers of two and the rows whose
    interval ends may be exact."""
    x = np.ravel(np.asarray(values, dtype=np.float64))
    if not np.little_endian:
        return _reprs(x)
    texts = np.empty(x.size, _TEXT)
    for i in range(0, x.size, _KERNEL_BLOCK):
        texts[i:i + _KERNEL_BLOCK] = _repr_block(x[i:i + _KERNEL_BLOCK])
    return texts


def _distinct_texts(block):
    """(texts, inverse): ``repr_texts`` of each distinct bit pattern of a
    1-d float64 block (so -0.0 and 0.0 stay apart), by ``repr`` itself below
    ``_KERNEL_MIN`` of them, and the index of each element's text."""
    keys, inverse = np.unique(block.view(np.int64), return_inverse=True)
    keys = keys.view(np.float64)
    if len(keys) < _KERNEL_MIN:
        return _reprs(keys), inverse
    return repr_texts(keys), inverse


def _lines(columns):
    """ASCII bytes of the lines whose every column is a fixed-width ``S``
    array (NUL padded, one row a line) or bytes that every line repeats.
    The columns fill one byte matrix, and one mask drops its NULs."""
    widths = [c.itemsize if isinstance(c, np.ndarray) else len(c) for c in columns]
    rows = next(len(c) for c in columns if isinstance(c, np.ndarray))
    matrix = np.empty((rows, sum(widths)), np.uint8)
    at = 0
    for column, width in zip(columns, widths):
        if isinstance(column, np.ndarray):
            matrix[:, at:at + width].view(column.dtype)[:, 0] = column
        else:
            matrix[:, at:at + width] = np.frombuffer(column, np.uint8)
        at += width
    return matrix[matrix != 0].tobytes()


def _open_csv(path, columns, description):
    """The CSV opened for text, its optional '#' description line and its
    header written."""
    fh = open(path, "w", newline="\n")
    if description:
        fh.write(f"# {description}\n")
    fh.write(",".join(columns) + "\n")
    return fh


def write_csv(path, columns, rows, description: str = "") -> None:
    """Write rows with a header; an optional '#' description line on top
    names the computed quantity and its units. Every row is formatted
    before the file opens, so rows that raise leave no file."""
    body = "".join([",".join(map(_format_cell, row)) + "\n" for row in rows])
    with _open_csv(path, columns, description) as fh:
        fh.write(body)


def _write_blocks(path, columns, description, blocks) -> None:
    """The CSV header, then each block of ASCII line bytes as it comes."""
    with _open_csv(path, columns, description) as fh:
        fh.flush()
        for block in blocks:
            fh.buffer.write(block)


def _float_rows(heads, values):
    """Line bytes, ``_LINE_BLOCK`` lines at a time, of the rows of a 2-d
    float array: line k holds the columns ``heads(rows)`` gives for it, then
    the texts of values[k], comma separated. The values go through the
    distinct-value pass one ``_FORMAT_BLOCK`` at a time."""
    width = values.shape[1]
    ends = [b","] * (width - 1) + [b"\n"]
    per = max(1, _FORMAT_BLOCK // width)
    for start in range(0, len(values), per):
        texts, inverse = _distinct_texts(np.ravel(values[start:start + per]))
        inverse = inverse.reshape(-1, width)
        for i in range(0, len(inverse), _LINE_BLOCK):
            block = inverse[i:i + _LINE_BLOCK]
            # a generator, so no value texts outlive the line block
            cells = (cell for col, end in zip(block.T, ends) for cell in (texts[col], end))
            yield _lines([*heads(np.arange(start + i, start + i + len(block))), *cells])
        # freed before the next block is formatted (block is a view of inverse)
        del texts, inverse, block


def write_grid_csv(path, column, grid, description: str = "") -> None:
    """The bytes of ``write_csv`` over the rows (x, y, values[i, j]), x
    outer: each coordinate and distinct value is formatted once, and at most
    one ``_FORMAT_BLOCK`` of value texts and one ``_LINE_BLOCK`` of lines are
    held at a time."""
    m = len(grid.ys)
    xs, ys = (texts[inverse] for texts, inverse in map(_distinct_texts, (grid.xs, grid.ys)))
    _write_blocks(path, ("x", "y", column), description,
                  _float_rows(lambda rows: [xs[rows // m], b",", ys[rows % m], b","],
                              np.reshape(grid.values, (-1, 1))))


def write_polyline_csv(path, polylines, description: str = "") -> None:
    """The bytes of ``write_csv`` over the rows (index, x, y) of every
    vertex of every polyline. A contour vertex has one coordinate on a grid
    line, which repeats at that line's every crossing, so the coordinates go
    through the distinct-value pass."""
    index = np.repeat(np.arange(len(polylines)), [len(p) for p in polylines])
    labels = np.array([f"{i}," for i in range(len(polylines))], "S")
    coords = np.concatenate([np.empty((0, 2)), *polylines])
    _write_blocks(path, ("polyline", "x", "y"), description,
                  _float_rows(lambda rows: [labels[index[rows]]], coords))


# fixed two-sided palette so sign changes are visible and goldens stable
_NEG = np.array([33.0, 102.0, 172.0])
_MID = np.array([247.0, 247.0, 247.0])
_POS = np.array([178.0, 24.0, 43.0])
_SVG_SIZE = 640  # pixels per side of every SVG
_SVG_OPEN = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_SVG_SIZE}" '
             f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">')


def _colors(values, vmax):
    """(k, 3) integer RGB of each value of a 1-d array on the palette scaled by
    vmax, the max |value| of its grid: t = value / vmax clipped to [-1, 1]
    runs from _MID to _POS (t >= 0) or to _NEG, rounded half to even. One
    slope serves both sides, as (_MID - _NEG) * t is -((_NEG - _MID) * -t)
    bit for bit."""
    if vmax <= 0.0:
        return np.broadcast_to(_MID.astype(np.int64), values.shape + (3,))
    t = np.clip(values / vmax, -1.0, 1.0)[..., None]
    return np.rint(_MID + np.where(t >= 0.0, _POS - _MID, _MID - _NEG) * t).astype(np.int64)


def svg_heatmap(grid, path) -> None:
    """Diverging heatmap of a sampled grid (finite values), scaled by
    max |value|: a ``<rect>`` line per value, x outer, written
    ``_LINE_BLOCK`` lines at a time. The x texts carry each line's head and
    the y texts everything up to its fill's channels."""
    n, m = grid.values.shape
    values = np.ravel(grid.values)
    vmax = float(np.max(np.abs(values)))
    cw = _SVG_SIZE / n
    ch = _SVG_SIZE / m
    xs = np.array([f'<rect x="{i * cw:.2f}" y="' for i in range(n)], "S")
    # svg y axis points down; flip j so larger y draws higher
    ys = np.array([f'{(m - 1 - j) * ch:.2f}" width="{cw + 0.5:.2f}" '
                   f'height="{ch + 0.5:.2f}" fill="rgb(' for j in range(m)], "S")
    # each channel's text with what follows it, by channel value
    head = np.array([f"{c}," for c in range(256)], "S")
    last = np.array([f'{c})"/>\n' for c in range(256)], "S")
    with open(path, "wb") as fh:
        fh.write(_SVG_OPEN.encode() + b"\n")
        for start in range(0, values.size, _LINE_BLOCK):
            i, j = np.divmod(np.arange(start, min(start + _LINE_BLOCK, values.size)), m)
            rgb = _colors(values[start:start + _LINE_BLOCK], vmax)
            fh.write(_lines([xs[i], ys[j], head[rgb[:, 0]], head[rgb[:, 1]], last[rgb[:, 2]]]))
        fh.write(b"</svg>\n")


def svg_contours(contour_set, region, path) -> None:
    """Zero-level polylines as SVG paths over the sampling region."""
    x0, y0, x1, y1 = region
    sx = _SVG_SIZE / (x1 - x0)
    sy = _SVG_SIZE / (y1 - y0)
    parts = [_SVG_OPEN, f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>']
    for poly in contour_set.polylines:
        px = ((poly[:, 0] - x0) * sx).tolist()
        py = ((y1 - poly[:, 1]) * sy).tolist()
        d = "M " + " L ".join([f"{x:.3f} {y:.3f}" for x, y in zip(px, py)])
        parts.append(f'<path d="{d}" fill="none" stroke="#1a1a1a" '
                     f'stroke-width="1.2"/>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
