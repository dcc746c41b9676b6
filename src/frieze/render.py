"""ASCII staircases and SVG polygon diagrams.

Output is deterministic byte for byte: fixed column widths, fixed float
formatting, entries emitted in sorted order.
"""

from __future__ import annotations

import math

from .core import FriezeMap, _texts, grid_from_polygon
from .triangulation import Triangulation, frieze_from_triangulation

SVG_MAX_VERTICES = 64


def render_ascii(f: FriezeMap) -> str:
    """One glide period of the pattern as a staircase of fixed-width columns.

    Row i shows c(i, i) .. c(i, i+m) including the two bounding zeros,
    shifted one column right of the row above; the infinite repetition is
    left to the imagination.
    """
    big, ints = grid_from_polygon(f)._ints
    texts = _texts(big, ints)
    width = max(map(len, texts.values()))
    cells = {x: text.rjust(width) for x, text in texts.items()}
    return "".join(" " * (i * (width + 1)) + " ".join(map(cells.__getitem__, row)) + "\n"
                   for i, row in enumerate(ints))


def _vertex_position(m: int, v: int, radius: float, center: float) -> tuple[float, float]:
    angle = math.pi / 2 - 2 * math.pi * (v - 1) / m
    return (center + radius * math.cos(angle), center - radius * math.sin(angle))


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_svg(obj: FriezeMap | Triangulation, mark: tuple[int, int, int] | None = None) -> str:
    """Labelled polygon diagram of a frieze map or a triangulation.

    For a frieze map every edge and diagonal is drawn with its value at the
    segment midpoint.  For a triangulation only the polygon edges and its
    diagonals are drawn, labelled with the values of the classic frieze
    (all of them 1 by construction).  ``mark`` highlights three distinct
    vertices: their three connecting segments are drawn on top in red with
    their frieze values.
    """
    if not isinstance(obj, (FriezeMap, Triangulation)):
        raise TypeError("render_svg draws FriezeMap or Triangulation objects")
    m = obj.m
    if m > SVG_MAX_VERTICES:
        raise ValueError(f"refusing to draw more than {SVG_MAX_VERTICES} vertices")
    if isinstance(obj, Triangulation):
        fz = frieze_from_triangulation(obj)
        segments = sorted(
            [(p, p + 1) for p in range(1, m)] + [(1, m)]
            + [tuple(pair) for pair in obj.diagonals]
        )
    else:
        fz = obj
        segments = [(p, q) for p in range(1, m) for q in range(p + 1, m + 1)]
    if mark is not None:
        if len(mark) != 3 or len(set(mark)) != 3 or any(not 1 <= v <= m for v in mark):
            raise ValueError("mark must be a triple of distinct polygon vertices")

    big, ints = fz._ints
    texts = _texts(big, ints)
    size, radius = 500.0, 200.0
    center = size / 2
    pos = {v: _vertex_position(m, v, radius, center) for v in range(1, m + 1)}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(size)}" '
        f'height="{_fmt(size)}" viewBox="0 0 {_fmt(size)} {_fmt(size)}">'
    ]

    def line(p: int, q: int, color: str, width: str) -> str:
        (x1, y1), (x2, y2) = pos[p], pos[q]
        return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                f'y2="{_fmt(y2)}" stroke="{color}" stroke-width="{width}"/>')

    def label(p: int, q: int, color: str) -> str:
        (x1, y1), (x2, y2) = pos[p], pos[q]
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        text = texts[ints[p][q]]
        return (f'<text x="{_fmt(mx)}" y="{_fmt(my)}" fill="{color}" '
                f'font-size="14" text-anchor="middle">{text}</text>')

    for p, q in segments:
        parts.append(line(p, q, "black", "1"))
    marked_segments = []
    if mark is not None:
        i, j, k = mark
        marked_segments = sorted(
            (min(p, q), max(p, q)) for p, q in ((i, j), (j, k), (k, i))
        )
        for p, q in marked_segments:
            parts.append(line(p, q, "red", "2"))
    for p, q in segments:
        parts.append(label(p, q, "black"))
    for p, q in marked_segments:
        if (p, q) not in segments:
            parts.append(label(p, q, "red"))
    for v in range(1, m + 1):
        x, y = _vertex_position(m, v, radius + 18, center)
        parts.append(f'<circle cx="{_fmt(pos[v][0])}" cy="{_fmt(pos[v][1])}" '
                     f'r="3" fill="black"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="12" '
                     f'text-anchor="middle">{v}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
