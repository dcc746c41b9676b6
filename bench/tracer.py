"""In-memory span tracer that wraps the package's functions from outside.

``Tracer.installed()`` replaces each traced function in every ``frieze``
module whose namespace holds it (``frieze.classify.accordion`` as well as
``frieze.triangulation.accordion``), plus a few methods on the package's
classes.  A span wrapper records (name, start, end, parent); a counter
wrapper only counts, for hot helpers.  On exit every original is put back
and the restore is checked.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from math import comb

MODULES = ("frieze", "frieze.scalars", "frieze.core", "frieze.propagation",
           "frieze.ptolemy", "frieze.triangulation", "frieze.classify",
           "frieze.enumeration", "frieze.render", "frieze.cli")

#: function -> span name, wrapped in every module namespace that holds it
SPANS = {
    "validate_local": "core.validate_local",
    "validate_tame": "core.validate_tame",
    "check_glide": "core.check_glide",
    "to_polygon": "core.to_polygon",
    "grid_from_polygon": "core.grid_from_polygon",
    "frieze_to_json": "core.json",
    "frieze_from_json": "core.json",
    "build_pattern": "propagation.build_pattern",
    "closure_product": "propagation.closure_product",
    "entry_via_product": "propagation.entry_via_product",
    "verify_all_ptolemy": "ptolemy.verify_all_ptolemy",
    "cc_labels_from": "triangulation.cc_labels_from",
    "frieze_from_triangulation": "triangulation.frieze_from_triangulation",
    "accordion": "triangulation.accordion",
    "glue_three": "triangulation.glue_three",
    "classify_triangle": "classify.classify_triangle",
    "coefficient_witness": "classify.coefficient_witness",
    "iceberg_descent": "classify.iceberg_descent",
    "realize_triangle": "classify.realize_triangle",
    "decompose_triangle": "classify.decompose_triangle",
    "enumerate_friezes": "enumeration.enumerate_friezes",
    "render_ascii": "render.render_ascii",
    "render_svg": "render.render_svg",
    "main": "cli.main",
}

#: hot helpers: function -> counter name
COUNTERS = {
    "as_scalar": "scalars.as_scalar.calls",
    "propagate_row": "propagation.propagate_row.calls",
}


def self_times(spans) -> dict[str, float]:
    """Per name, the sum of span durations minus their direct children's.

    ``spans`` holds (name, start, end, parent_index) tuples with parent -1
    at the top.  Children of one span never overlap, so subtracting their
    durations leaves exactly the time the span covered alone.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, _, _, _), t in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + t
    return totals


class Tracer:
    """Spans, counters and maxima recorded while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._open: list[str] = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, after=None):
        spans, stack, opened, counts = self.spans, self._stack, self._open, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            opened.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                opened.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            counts[name + ".calls"] += 1
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def note_max(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def inside(self, name: str) -> bool:
        """True while a span called ``name`` is open."""
        return name in self._open

    # -- install / remove ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package for the duration of the block, then restore it."""
        patched: list[tuple[object, str, object]] = []

        def put(owner, attr, new):
            patched.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            self._install(put)
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
            for owner, attr, original in patched:
                if owner.__dict__[attr] is not original:
                    raise RuntimeError(f"tracer left {owner.__name__}.{attr} wrapped")

    def _install(self, put) -> None:
        modules = [sys.modules[name] for name in MODULES if name in sys.modules]
        names = {**SPANS, **COUNTERS}
        for name, label in names.items():
            holders = [m for m in modules if name in vars(m)]
            defining = [m for m in holders if m.__name__ != "frieze"]
            if not defining:
                continue  # e.g. frieze.cli when the workload never imports it
            original = vars(defining[0])[name]
            if name in SPANS:
                wrapper = self.span(label, original, AFTER.get(name))
            else:
                wrapper = self.counter(label, original)
            for module in holders:
                if vars(module)[name] is not original:
                    continue
                if module.__name__ == "frieze.enumeration" and name == "check_glide":
                    # the search calls the glide check once per leaf
                    put(module, name, self.counter("enumeration.leaves", wrapper))
                else:
                    put(module, name, wrapper)
        classify = sys.modules["frieze.classify"]
        enumeration = sys.modules["frieze.enumeration"]
        put(classify, "descent_steps",
            _counting_generator(self.counts, "classify.descent_steps",
                                classify.descent_steps))
        put(enumeration, "quiddity_bound", _noting_bound(self, enumeration.quiddity_bound))
        triangulation = sys.modules["frieze.triangulation"].Triangulation
        put(triangulation, "__init__",
            self.span("triangulation.init", triangulation.__init__, _note_polygon))
        put(triangulation, "triangles",
            self.span("triangulation.triangles", triangulation.triangles))
        mat2 = sys.modules["frieze.propagation"].Mat2
        put(mat2, "__init__", self.counter("propagation.mat2.calls", mat2.__init__))
        domain = sys.modules["frieze.scalars"].DomainSpec
        put(domain, "__contains__",
            self.counter("scalars.domain_contains.calls", domain.__contains__))
        put(domain, "enumerate_bounded", _counting_candidates(self, domain.enumerate_bounded))

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {name: float(n) for name, n in self.counts.items()}
        for name, t in self_times(self.spans).items():
            out[name + ".self_s"] = t
        out.update(self.maxima)
        return out


def _counting_generator(counts, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            counts[name] += 1
            yield item
    return wrapper


def _noting_bound(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.note_max("enumeration.bound_B", float(result.B))
        return result
    return wrapper


def _counting_candidates(tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, bound):
        result = fn(self, bound)
        tracer.counts["scalars.candidates"] += len(result)
        return result
    return wrapper


def _count_violations(tracer, args, report) -> None:
    tracer.counts["core.violations"] += len(report.violations)


def _count_ptolemy(tracer, args, report) -> None:
    tracer.counts["core.violations"] += len(report.violations)
    tracer.counts["ptolemy.relations"] += comb(args[0].m, 4)


def _count_results(tracer, args, results) -> None:
    if tracer.inside("enumeration.enumerate_friezes"):
        return  # the rescaling path recurses; count the outer call only
    tracer.counts["enumeration.results"] += len(results)
    for f in results:
        for q in f.quiddity_cycle:
            tracer.note_max("enumeration.max_quiddity", float(abs(q)))


def _note_polygon(tracer, args, result) -> None:
    tracer.note_max("triangulation.polygon_m.max", float(args[1]))


AFTER = {
    "validate_local": _count_violations,
    "validate_tame": _count_violations,
    "verify_all_ptolemy": _count_ptolemy,
    "enumerate_friezes": _count_results,
}
