"""The bench tracer still finds every name it patches in the package.

``bench/tracer.py`` wraps functions and methods by name; a rename in
``src/`` would otherwise only show up when the benchmark runs.
"""

from pathlib import Path

import frieze
import frieze.cli  # noqa: F401  (the tracer wraps cli.main when it is loaded)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    originals = (frieze.core.grid_from_polygon, frieze.Triangulation.triangles)
    with Tracer().installed() as tracer:
        assert frieze.core.grid_from_polygon is not originals[0]
        frieze.grid_from_polygon(frieze.frieze_from_triangulation(frieze.accordion(4, 3)[0]))
    assert (frieze.core.grid_from_polygon, frieze.Triangulation.triangles) == originals
    assert tracer.metrics()["core.grid_from_polygon.calls"] == 1
