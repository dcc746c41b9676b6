"""Checks on what stands next to the package: the bench tracer, the README
and the source text.

``bench/tracer.py`` wraps functions and methods by name; a rename in
``src/`` would otherwise only show up when the benchmark runs.  The
README's CLI examples that name their result (``# false``, ``# exits 1``)
are replayed, so they cannot go stale.  The package's sources are scanned
for floats, which only SVG geometry may use.
"""

import ast
import re
import shlex
from pathlib import Path

import frieze
from frieze.cli import main  # the tracer wraps cli.main when it is loaded

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
#: a README example line that names its result, ``frieze ARGS  # false`` or ``# exits N``
EXAMPLE = re.compile(r"frieze (?P<args>[^#]+?) +# (?P<result>true|false|exits \d+)")
#: the ``math`` functions the package imports, exact on ints and ``Fraction``s
EXACT_MATH = {"comb", "floor", "gcd", "lcm"}


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    originals = (frieze.core.grid_from_polygon, frieze.Triangulation.triangles)
    with Tracer().installed() as tracer:
        assert frieze.core.grid_from_polygon is not originals[0]
        frieze.grid_from_polygon(frieze.frieze_from_triangulation(frieze.accordion(4, 3)[0]))
    assert (frieze.core.grid_from_polygon, frieze.Triangulation.triangles) == originals
    assert tracer.metrics()["core.grid_from_polygon.calls"] == 1


def test_readme_cli_examples_give_their_annotated_result(capsys):
    lines = (ROOT / "README.md").read_text().splitlines()
    examples = [match.groups() for match in map(EXAMPLE.fullmatch, lines) if match]
    assert len(examples) >= 2
    for args, result in examples:
        code = main(shlex.split(args))
        out = capsys.readouterr().out
        if result.startswith("exits "):
            assert code == int(result.split()[1]), args
        else:
            assert (code, out) == (0, result + "\n"), args


def _float_lines(path: Path) -> list[int]:
    """Lines holding a float literal, the name ``float`` or ``math``, or a
    ``from math import`` of a function that is not exact."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex)
            or isinstance(node, ast.Name) and node.id in ("float", "math")
            or isinstance(node, ast.ImportFrom) and node.module == "math"
            and {alias.name for alias in node.names} - EXACT_MATH]


def test_floats_stay_in_svg_geometry():
    """Exact rational equality is the only oracle: no module of the package
    but ``render.py``, which places SVG vertices on a circle, uses a float."""
    found = {path.name: lines for path in sorted((ROOT / "src" / "frieze").glob("*.py"))
             if (lines := _float_lines(path))}
    assert list(found) == ["render.py"], found
