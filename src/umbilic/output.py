"""CSV and SVG writers with deterministic, locale-free formatting.

Grid and polyline CSVs, and the heatmap's fill colours, go through one
distinct-value pass: the array is cut into blocks of ``_FORMAT_BLOCK``
(2^16) elements, and each value of a block is formatted once however often
it repeats there, values being compared bit for bit. Repeats are common
(symmetric fields, contour vertices on grid lines, a small palette), and the
block bound keeps the strings of one block alive at a time.
"""

from __future__ import annotations

import itertools

import numpy as np

# elements per block of the distinct-value pass: bounds the strings alive
_FORMAT_BLOCK = 1 << 16


def format_float(v) -> str:
    """Shortest decimal that round-trips the float ('.' decimal point);
    every NaN prints as 'nan'."""
    return repr(float(v))


def _format_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    if isinstance(v, (int, np.integer)):  # bool too
        return str(int(v))
    return str(v)


def _format_block(block, fmt):
    """[fmt(v) for v in block.tolist()], with fmt run once per distinct bit
    pattern (so -0.0 and 0.0 stay apart) of a 1-d float64 or int64 array."""
    keys, inverse = np.unique(block.view(np.int64), return_inverse=True)
    if len(keys) == len(block):  # nothing repeats: skip the gather
        return [fmt(v) for v in block.tolist()]
    texts = np.array([fmt(v) for v in keys.view(block.dtype).tolist()], dtype=object)
    return texts[inverse].tolist()


def _formatted(values, fmt=repr):
    """Iterator over fmt(v) of every element of a float64 or int64 array in
    C order, formatted one block of ``_FORMAT_BLOCK`` elements at a time."""
    flat = np.ravel(values)
    # a block's strings live only in the list chain is reading, so they are
    # freed before the next block is formatted
    return itertools.chain.from_iterable(
        _format_block(flat[i:i + _FORMAT_BLOCK], fmt)
        for i in range(0, flat.size, _FORMAT_BLOCK))


def _write_lines(path, columns, description, blocks) -> None:
    """Header, optional '#' description on top, then each block of lines
    (every line ending in a newline) as it comes."""
    with open(path, "w", newline="\n") as fh:
        if description:
            fh.write(f"# {description}\n")
        fh.write(",".join(columns) + "\n")
        for block in blocks:
            fh.write(block)


def write_csv(path, columns, rows, description: str = "") -> None:
    """Write rows with a header; an optional '#' description line on top
    names the computed quantity and its units. Every row is formatted
    before the file opens, so rows that raise leave no file."""
    body = "".join([",".join(map(_format_cell, row)) + "\n" for row in rows])
    _write_lines(path, columns, description, [body])


def write_grid_csv(path, column, grid, description: str = "") -> None:
    """The bytes of ``write_csv`` over the rows (x, y, values[i, j]), x
    outer: each coordinate and distinct value is formatted once, and at most
    one ``_FORMAT_BLOCK`` of value strings and one joined x-row are held at
    a time."""
    m = len(grid.ys)

    def blocks():
        values = _formatted(grid.values)
        parts = [None, None, None, "\n"] * m
        parts[1::4] = [f"{y!r}," for y in grid.ys.tolist()]
        for x in grid.xs.tolist():
            parts[0::4] = [f"{x!r},"] * m
            parts[2::4] = itertools.islice(values, m)
            yield "".join(parts)
    _write_lines(path, ("x", "y", column), description, blocks())


def write_polyline_csv(path, polylines, description: str = "") -> None:
    """The bytes of ``write_csv`` over the rows (index, x, y) of every
    vertex of every polyline, one polyline at a time. A contour vertex
    has one coordinate on a grid line, which repeats at that line's every
    crossing, so the coordinates go through the distinct-value pass."""
    def blocks():
        coords = _formatted(np.concatenate(polylines)) if polylines else iter(())
        for pid, poly in enumerate(polylines):
            texts = list(itertools.islice(coords, 2 * len(poly)))
            parts = [f"{pid},", None, ",", None, "\n"] * len(poly)
            parts[1::5] = texts[0::2]
            parts[3::5] = texts[1::2]
            yield "".join(parts)
    _write_lines(path, ("polyline", "x", "y"), description, blocks())


# fixed two-sided palette so sign changes are visible and goldens stable
_NEG = np.array([33.0, 102.0, 172.0])
_MID = np.array([247.0, 247.0, 247.0])
_POS = np.array([178.0, 24.0, 43.0])
_SVG_SIZE = 640  # pixels per side of every SVG
_SVG_OPEN = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_SVG_SIZE}" '
             f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">')


def _colors(values):
    """(n, m, 3) integer RGB of each value on the palette scaled by max |value|:
    t = value / vmax clipped to [-1, 1] runs from _MID to _POS (t >= 0) or to
    _NEG, rounded half to even."""
    vmax = float(np.max(np.abs(values)))
    if vmax <= 0.0:
        return np.broadcast_to(_MID.astype(np.int64), values.shape + (3,))
    t = np.clip(values / vmax, -1.0, 1.0)[..., None]
    rgb = np.where(t >= 0.0, _MID + (_POS - _MID) * t, _MID + (_NEG - _MID) * -t)
    return np.rint(rgb).astype(np.int64)


def svg_heatmap(grid, path) -> None:
    """Diverging heatmap of a sampled grid (finite values), scaled by
    max |value|."""
    values = grid.values
    n, m = values.shape
    cw = _SVG_SIZE / n
    ch = _SVG_SIZE / m
    rgb = _colors(values)
    fills = _formatted(rgb[..., 0] << 16 | rgb[..., 1] << 8 | rgb[..., 2],
                       lambda c: f'fill="rgb({c >> 16},{c >> 8 & 255},{c & 255})"/>\n')
    parts = [None, None, f'" width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" ', None] * m
    # svg y axis points down; flip j so larger y draws higher
    parts[1::4] = [f"{(m - 1 - j) * ch:.2f}" for j in range(m)]
    with open(path, "w", newline="\n") as fh:
        fh.write(_SVG_OPEN + "\n")
        for i in range(n):
            parts[0::4] = [f'<rect x="{i * cw:.2f}" y="'] * m
            parts[3::4] = itertools.islice(fills, m)
            fh.write("".join(parts))
        fh.write("</svg>\n")


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
