import pytest

import frieze.render
from frieze import (Triangulation, ValidationFailure, build_pattern, frieze_from_triangulation,
                    realize_triangle, render_ascii, render_svg, to_polygon)

SQUARE_3753 = """\
0 3 4 3 0
  0 7 9 3 0
    0 5 4 7 0
      0 3 9 5 0
"""


def test_ascii_square_staircase():
    f = to_polygon(build_pattern([3, 7, 5, 3], [4, 9, 4, 9]))
    assert render_ascii(f) == SQUARE_3753


def test_ascii_triangle_staircase():
    f = to_polygon(build_pattern([2, 3, 5], [5, 2, 3]))
    assert render_ascii(f) == "0 2 5 0\n  0 3 2 0\n    0 5 3 0\n"


def test_ascii_hexagon_shape(hexagon_frieze):
    text = render_ascii(hexagon_frieze)
    lines = text.splitlines()
    assert len(lines) == 6
    assert all(line.strip().startswith("0") and line.endswith("0")
               for line in lines)
    assert lines[1].split() == ["0", "1", "4", "3", "2", "1", "0"]


def test_ascii_fixed_width_alignment():
    f = to_polygon(build_pattern([3, 7, 5, 3], [36, 1, 36, 1]))
    lines = render_ascii(f).splitlines()
    # every column slot is width 2: single digits are right-justified
    assert lines[0].startswith(" 0  3 36")


def test_rendering_is_deterministic(hexagon_frieze, hexagon_fan):
    assert render_ascii(hexagon_frieze) == render_ascii(hexagon_frieze)
    assert render_svg(hexagon_fan) == render_svg(hexagon_fan)
    assert render_svg(hexagon_frieze) == render_svg(hexagon_frieze)


def test_svg_triangulation_structure(hexagon_fan):
    svg = render_svg(hexagon_fan)
    assert svg.count("<circle") == 6
    assert svg.count("<line") == 6 + 3  # edges + diagonals
    # all drawn segments of a triangulation carry frieze value 1
    assert svg.count('font-size="14" text-anchor="middle">1</text>') == 9


def test_svg_frieze_labels():
    # the square with edges (1, 1, 2, 2) and diagonals 1, 4
    square = to_polygon(build_pattern([2, 1, 1, 2], [1, 4, 1, 4]))
    svg = render_svg(square)
    for label in ("1", "2", "4"):
        assert f">{label}</text>" in svg
    assert svg.count("<line") == 6


def test_svg_marked_realized_triangle():
    tri, (i, j, k) = realize_triangle(2, 3, 1)
    svg = render_svg(tri, mark=(i, j, k))
    assert 'stroke="red"' in svg
    for label in ("2", "3"):
        assert f'fill="red" font-size="14" text-anchor="middle">{label}</text>' in svg


def test_svg_guardrail():
    fan = Triangulation(65, [(1, k) for k in range(3, 65)])
    with pytest.raises(ValueError):
        render_svg(fan)
    with pytest.raises(ValueError):
        render_svg(fan.reflected(), mark=(1, 2, 3))
    with pytest.raises(ValueError):
        render_svg(Triangulation(6, [(2, 4), (2, 5), (2, 6)]), mark=(0, 1, 2))


def test_svg_cap_is_a_validation_failure(monkeypatch):
    """Above SVG_MAX_VERTICES, read at call time, a triangulation and its frieze
    are refused with one ``ValidationFailure``, before the mark is looked at."""
    fan = Triangulation(65, [(1, k) for k in range(3, 65)])
    for obj in (fan, frieze_from_triangulation(fan)):
        for mark in (None, (1, 2, 3), (1, 2)):
            with pytest.raises(ValidationFailure) as raised:
                render_svg(obj, mark=mark)
            assert str(raised.value) == ("the drawing of a 65-gon is above the limit of "
                                         "SVG_MAX_VERTICES = 64 vertices")
    monkeypatch.setattr(frieze.render, "SVG_MAX_VERTICES", 12)
    assert render_svg(Triangulation(12, [(1, k) for k in range(3, 12)])).startswith("<svg")
    with pytest.raises(ValidationFailure) as raised:
        render_svg(Triangulation(13, [(1, k) for k in range(3, 13)]))
    assert str(raised.value) == ("the drawing of a 13-gon is above the limit of "
                                 "SVG_MAX_VERTICES = 12 vertices")
