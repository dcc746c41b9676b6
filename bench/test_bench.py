"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s bench        (about a minute)

Synthetic checks of the tail percentile, self time with nested spans and
failure counting; the reference math against the package; and, on every
workload, traced and untraced passes giving byte-identical outputs with
the package source left untouched.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import frieze  # noqa: E402
import frieze.cli  # noqa: E402,F401  (the cli workload imports it; snapshot it loaded)

import harness  # noqa: E402
import inputs as gen  # noqa: E402
from tracer import MODULES, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _namespaces() -> dict:
    return {name: dict(vars(sys.modules[name])) for name in MODULES if name in sys.modules}


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 101))
        random.Random(0).shuffle(values)
        self.assertEqual(harness.tail_percentile(values), (90, 90))
        self.assertEqual(harness.tail_percentile(range(1, 21)), (50, 10))
        self.assertEqual(harness.tail_percentile(range(1, 12)), (9, 1))

    def test_too_few_values(self):
        self.assertIsNone(harness.tail_percentile(range(10)))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
                 ("b", 5.0, 7.0, 0), ("a", 20.0, 21.0, -1)]
        self.assertEqual(self_times(spans), {"a": 6.0, "b": 4.0, "c": 1.0})

    def test_wrappers_record_parents(self):
        tracer = Tracer()
        inner = tracer.span("inner", lambda: None)
        outer = tracer.span("outer", lambda: [inner() for _ in range(3)])
        outer()
        parents = [(name, parent) for name, _, _, parent in tracer.spans]
        self.assertEqual(parents, [("outer", -1)] + [("inner", 0)] * 3)
        self.assertEqual(tracer.counts["inner.calls"], 3)
        totals = self_times(tracer.spans)
        _, start, end, _ = tracer.spans[0]
        self.assertAlmostEqual(totals["outer"] + totals["inner"], end - start)


class FailureCount(unittest.TestCase):
    def test_failures_are_counted_not_raised(self):
        def boom():
            raise ValueError("no")

        times, results, _ = harness.run_pass([lambda: 1, boom, lambda: 3])
        self.assertEqual(len(times), 3)
        self.assertIsInstance(results[1], harness.ItemError)
        self.assertEqual(results[2], 3)

    def test_failed_fraction(self):
        outcomes = harness.Outcomes(list("abcde"), lambda i, r: str(r),
                                    lambda i, r: "bad" if r == "bad" else None)
        error = harness.ItemError(ValueError("x"))
        outcomes.record(["ok", error, "bad", "ok", "ok"])
        outcomes.record(["ok", error, "bad", "changed", "ok"])
        outcomes.finish()
        self.assertEqual(outcomes.attempted, 10)
        self.assertEqual(outcomes.failed, 5)  # items b, c twice; d once


class ReferenceMath(unittest.TestCase):
    def test_classic_frieze_matches_package(self):
        rng = random.Random(1)
        for m in range(3, 15):
            diagonals = gen.random_triangulation(rng, m)
            self.assertTrue(gen.noncrossing(m, diagonals))
            f = frieze.frieze_from_triangulation(frieze.Triangulation(m, diagonals))
            self.assertEqual(dict(f.pairs()), gen.classic_frieze(m, diagonals))

    def test_noncrossing_rejects_crossing(self):
        self.assertFalse(gen.noncrossing(6, [(1, 4), (2, 5), (2, 4)]))

    def test_predicted_polygon_size(self):
        rng = random.Random(2)
        for _ in range(60):
            a, b, c = gen.random_realizable(rng, 300, range(80))
            tri, _ = frieze.realize_triangle(a, b, c)
            self.assertEqual(gen.predicted_polygon_size(a, b, c), tri.m, (a, b, c))

    def test_predicate_matches_package(self):
        for a in range(1, 13):
            for b in range(1, 13):
                for c in range(1, 13):
                    self.assertEqual(gen.realizable(a, b, c),
                                     frieze.classify_triangle(a, b, c))

    def test_gauge_rescaled_frieze_rebuilds(self):
        rng = random.Random(3)
        m = 9
        classic = gen.classic_frieze(m, gen.random_triangulation(rng, m))
        w = gen.gauge_weights(rng, m)
        entries = {(p, q): v * w[p] * w[q] for (p, q), v in classic.items()}
        d = [gen.grid_value(m, entries, i, i + 1) for i in range(m)]
        q = [gen.grid_value(m, entries, i, i + 2) for i in range(m)]
        rows = [list(r) for r in frieze.build_pattern(d, q).rows]
        self.assertEqual(rows, gen.grid_rows(m, entries))
        self.assertEqual(gen.grid_rows(m, entries)[0][0], Fraction(0))


class TracedOutputsIdentical(unittest.TestCase):
    def test_every_workload(self):
        before_src, before_ns = _source_digest(), _namespaces()
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                workload = cls(3, frieze)
                calls = workload.calls()
                _, plain, _ = harness.run_pass(calls)
                tracer = Tracer()
                with tracer.installed():
                    _, traced, _ = harness.run_pass(calls)
                self.assertEqual([workload.serialize(i, r) for i, r in enumerate(plain)],
                                 [workload.serialize(i, r) for i, r in enumerate(traced)])
                self.assertTrue(tracer.spans)
                self.assertEqual(_namespaces(), before_ns)
        self.assertEqual(_source_digest(), before_src)
        if (ROOT / ".git").exists() and shutil.which("git"):
            diff = subprocess.run(["git", "diff", "--quiet", "--", "src"], cwd=ROOT)
            self.assertEqual(diff.returncode, 0)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            done = subprocess.run([sys.executable, "bench/run.py", "--workload", "check",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
