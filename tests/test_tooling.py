"""Checks on what stands next to the package: the bench tracer, the README
and the source text.

``bench/tracer.py`` wraps functions and methods by name; a rename in
``src/`` would otherwise only show up when the benchmark runs.  The
README's CLI examples that name their result (``# false``, ``# exits 1``)
are replayed, so they cannot go stale.  The package's sources are scanned
for floats, which only SVG geometry may use.
"""

import ast
import os
import re
import shlex
import subprocess
import sys
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


def test_readme_library_sketch_runs():
    """The README's "Library sketch" block runs as written; its map, cut and
    rescale equal, to the ints, what the validating constructor builds."""
    text = (ROOT / "README.md").read_text()
    sketch = text.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(sketch, "README.md", "exec"), names)
    f, hexagon, square, found, half = (names[key] for key in
                                       ("f", "hexagon", "square", "found", "half"))
    assert f.boundary_sequence == (3, 7, 5, 3) and len(found) == 3
    expected = [frieze.FriezeMap(f.m, dict(f.pairs())),
                frieze.FriezeMap(4, {(p, q): hexagon.value(a, b) for (p, q), (a, b) in
                                     zip([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
                                         [(1, 2), (1, 3), (1, 5), (2, 3), (2, 5), (3, 5)])}),
                frieze.FriezeMap(found[0].m, {pair: v / 2 for pair, v in found[0].pairs()})]
    for got, want in zip((f, square, half), expected):
        assert got == want and got._ints == want._ints and hash(got) == hash(want)


def test_cli_import_loads_no_heavy_stdlib_modules():
    """A fresh interpreter without ``site`` (which may load ``typing`` on its
    own) imports ``frieze.cli`` without ``dataclasses``, ``inspect``, ``ast``,
    ``dis`` or ``typing``: the records are plain classes and the annotations
    name ``collections.abc``."""
    probe = "import sys, frieze.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert "frieze.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "typing"} == set()
