"""CSV and SVG writers with deterministic, locale-free formatting."""

from __future__ import annotations

import numpy as np


def format_float(v) -> str:
    """Shortest decimal that round-trips the float ('.' decimal point)."""
    f = float(v)
    if f != f:
        return "nan"
    return repr(f)


def write_csv(path, columns, rows, description: str = "") -> None:
    """Write rows with a header; an optional '#' description line on top
    names the computed quantity and its units."""
    lines = []
    if description:
        lines.append(f"# {description}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(
            format_float(v) if isinstance(v, (float, np.floating))
            else str(int(v)) if isinstance(v, (int, np.integer))  # bool too
            else str(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# fixed two-sided palette so sign changes are visible and goldens stable
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


def svg_heatmap(grid, path, size: int = 640) -> None:
    """Diverging heatmap of a sampled grid, scaled by max |value|."""
    values = grid.values
    n, m = values.shape
    x0, y0, x1, y1 = grid.region
    vmax = float(np.max(np.abs(values)))
    cw = size / n
    ch = size / m
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    for i in range(n):
        for j in range(m):
            r, g, b = _color(float(values[i, j]), vmax)
            # svg y axis points down; flip j so larger y draws higher
            parts.append(f'<rect x="{i * cw:.2f}" y="{(m - 1 - j) * ch:.2f}" '
                         f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" '
                         f'fill="rgb({r},{g},{b})"/>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def svg_contours(contour_set, region, path, size: int = 640,
                 stroke: str = "#1a1a1a") -> None:
    """Zero-level polylines as SVG paths over the sampling region."""
    x0, y0, x1, y1 = region
    sx = size / (x1 - x0)
    sy = size / (y1 - y0)

    def to_px(p):
        return (p[0] - x0) * sx, (y1 - p[1]) * sy

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for poly in contour_set.polylines:
        if len(poly) < 2:
            continue
        coords = [to_px(p) for p in poly]
        d = "M " + " L ".join(f"{x:.3f} {y:.3f}" for x, y in coords)
        parts.append(f'<path d="{d}" fill="none" stroke="{stroke}" '
                     f'stroke-width="1.2"/>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
