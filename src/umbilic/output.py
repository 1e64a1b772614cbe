"""CSV and SVG writers with deterministic, locale-free formatting."""

from __future__ import annotations

import numpy as np


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
    outer: each coordinate and value is formatted once, and one x-row of
    strings is held at a time."""
    ys = [repr(y) for y in grid.ys.tolist()]

    def blocks():
        for x, row in zip(grid.xs.tolist(), grid.values):
            prefix = f"{x!r},"
            yield "".join([f"{prefix}{y},{v!r}\n" for y, v in zip(ys, row.tolist())])
    _write_lines(path, ("x", "y", column), description, blocks())


def write_polyline_csv(path, polylines, description: str = "") -> None:
    """The bytes of ``write_csv`` over the rows (index, x, y) of every
    vertex of every polyline, one polyline at a time."""
    def blocks():
        for pid, poly in enumerate(polylines):
            prefix = f"{pid},"
            yield "".join([f"{prefix}{x!r},{y!r}\n" for x, y in poly.tolist()])
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
    colors = _colors(values)
    extent = f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}"'
    # svg y axis points down; flip j so larger y draws higher
    ys = [f"{(m - 1 - j) * ch:.2f}" for j in range(m)]
    with open(path, "w", newline="\n") as fh:
        fh.write(_SVG_OPEN + "\n")
        for i in range(n):
            prefix = f'<rect x="{i * cw:.2f}" y="'
            fh.write("".join([f'{prefix}{y}" {extent} fill="rgb({r},{g},{b})"/>\n'
                              for y, (r, g, b) in zip(ys, colors[i].tolist())]))
        fh.write("</svg>\n")


def svg_contours(contour_set, region, path) -> None:
    """Zero-level polylines as SVG paths over the sampling region."""
    x0, y0, x1, y1 = region
    sx = _SVG_SIZE / (x1 - x0)
    sy = _SVG_SIZE / (y1 - y0)
    parts = [_SVG_OPEN, f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>']
    for poly in contour_set.polylines:
        if len(poly) < 2:
            continue
        px = ((poly[:, 0] - x0) * sx).tolist()
        py = ((y1 - poly[:, 1]) * sy).tolist()
        d = "M " + " L ".join([f"{x:.3f} {y:.3f}" for x, y in zip(px, py)])
        parts.append(f'<path d="{d}" fill="none" stroke="#1a1a1a" '
                     f'stroke-width="1.2"/>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
