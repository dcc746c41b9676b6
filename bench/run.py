"""Benchmark for the ``frieze`` package in ``src/``.

    python3 bench/run.py --workload {enumerate,check,realize,cli} --seed N \\
        --seconds S --trace {0,1}

Builds the workload's inputs from the seed, repeats passes over them for
about S seconds and checks every output against an oracle.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, timed with no instrumentation; with ``--trace 1`` half the
time runs plain passes and half runs passes under the tracer, and the
metrics are the per-layer ones plus the tracing overhead.  Times are
scaled to a reference machine speed (see ``harness.scaled_call``).  The
lines before it print every metric with its unit and a JSON record of the
environment, pass times, the tail percentile used and any failures.

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2.  Self-tests:
``python3 -m unittest discover -s bench``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import INTERPRETER, Outcomes, item_medians, run_for, scaled_call, tail_percentile
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = (("wall_s", "s"), ("item_p50_ms", "ms"), ("item_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("scalars.as_scalar.calls", "count"), ("scalars.domain_contains.calls", "count"),
    ("scalars.candidates", "count"),
    ("core.validate_local.self_s", "s"), ("core.validate_tame.self_s", "s"),
    ("core.check_glide.self_s", "s"), ("core.check_glide.calls", "count"),
    ("core.to_polygon.self_s", "s"), ("core.grid_from_polygon.self_s", "s"),
    ("core.json.self_s", "s"), ("core.violations", "count"),
    ("propagation.build_pattern.self_s", "s"), ("propagation.closure_product.self_s", "s"),
    ("propagation.entry_via_product.self_s", "s"),
    ("propagation.entry_via_product.calls", "count"),
    ("propagation.propagate_row.calls", "count"), ("propagation.mat2.calls", "count"),
    ("ptolemy.verify_all_ptolemy.self_s", "s"), ("ptolemy.relations", "count"),
    ("triangulation.init.self_s", "s"), ("triangulation.triangles.self_s", "s"),
    ("triangulation.cc_labels_from.self_s", "s"),
    ("triangulation.cc_labels_from.calls", "count"),
    ("triangulation.frieze_from_triangulation.self_s", "s"),
    ("triangulation.accordion.self_s", "s"), ("triangulation.glue_three.self_s", "s"),
    ("triangulation.polygon_m.max", "vertices"),
    ("classify.classify_triangle.self_s", "s"), ("classify.coefficient_witness.self_s", "s"),
    ("classify.iceberg_descent.self_s", "s"), ("classify.descent_steps", "count"),
    ("classify.realize_triangle.self_s", "s"), ("classify.decompose_triangle.self_s", "s"),
    ("enumeration.enumerate_friezes.self_s", "s"), ("enumeration.leaves", "count"),
    ("enumeration.results", "count"), ("enumeration.useful_ratio", "ratio"),
    ("enumeration.bound_B", "value"), ("enumeration.max_quiddity", "value"),
    ("render.render_ascii.self_s", "s"), ("render.render_svg.self_s", "s"),
    ("cli.startup_ms", "ms"), ("cli.main.self_s", "s"), ("cli.traceback_inputs", "count"),
    ("trace_overhead_frac", "ratio"),
)


def load_frieze():
    """Import the package from ``src/`` of this checkout, or exit with 2."""
    package = ROOT / "src" / "frieze"
    if not (package / "__init__.py").is_file():
        sys.stderr.write(f"bench: no frieze package at {package}\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import frieze
    if Path(frieze.__file__).resolve().parent != package.resolve():
        sys.stderr.write(f"bench: imported frieze from {frieze.__file__}, not {package}\n")
        sys.exit(2)
    return frieze


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    src_lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in sorted((ROOT / "src" / "frieze").glob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "src_lines": src_lines}


def child_seconds(argv, reps: int) -> float:
    """Median wall time of a fresh interpreter running ``argv``, scaled by
    the time of a bare interpreter start next to it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(reps):
        done, scaled, _, _ = scaled_call(lambda: subprocess.run(
            [sys.executable, *argv], stdout=subprocess.DEVNULL, env=env, cwd=ROOT,
            timeout=120), INTERPRETER)
        if getattr(done, "returncode", 1) != 0:
            raise RuntimeError(f"{' '.join(argv)} failed: {done}")
        times.append(scaled)
    return statistics.median(times)


def timed_run(workload, args, record) -> tuple[Outcomes, dict]:
    """End-to-end metrics, with the package left uninstrumented."""
    outcomes = Outcomes(workload.labels, workload.serialize, workload.check)
    peaks = []

    def on_pass(results):
        outcomes.record(results)
        if not peaks:  # after the first pass, whatever number of passes fits
            peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    passes, raw_walls = run_for(workload.calls(), args.seconds, on_pass, repeats=3)
    peak_rss_mb = peaks[0]
    outcomes.finish()
    medians = item_medians(passes)
    percentile, tail = tail_percentile(medians)
    record.update(pass_walls=[round(sum(p), 4) for p in passes],
                  raw_pass_walls=[round(w, 4) for w in raw_walls],
                  items=len(medians), tail_percentile=percentile)
    setup_s = child_seconds([__file__, "--workload", args.workload, "--seed",
                             str(args.seed), "--setup-only"], reps=9)
    return outcomes, {
        "wall_s": sum(medians),
        "item_p50_ms": statistics.median(medians) * 1000,
        "item_tail_ms": tail * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def traced_run(workload, args, record) -> tuple[Outcomes, dict]:
    """Per-layer metrics: plain passes, then the same passes under the tracer."""
    outcomes = Outcomes(workload.labels, workload.serialize, workload.check)
    calls = workload.calls()
    plain, _ = run_for(calls, args.seconds / 2, outcomes.record)
    tracers: list[Tracer] = []

    def traced_pass():
        tracers.append(Tracer())
        return tracers[-1].installed()

    traced, traced_raw = run_for(calls, args.seconds / 2, outcomes.record, traced_pass)
    outcomes.finish()
    per_pass = []
    for tracer, times, raw in zip(tracers, traced, traced_raw):
        speed = sum(times) / raw  # span times scaled like the pass's item times
        per_pass.append({name: value * speed if name.endswith(".self_s") else value
                         for name, value in tracer.metrics().items()})
    metrics = {name: statistics.median(m.get(name, 0.0) for m in per_pass)
               for name, _ in PER_LAYER}
    leaves = metrics["enumeration.leaves"]
    metrics["enumeration.useful_ratio"] = metrics["enumeration.results"] / leaves if leaves else 0.0
    metrics["trace_overhead_frac"] = (statistics.median(sum(p) for p in traced)
                                      / statistics.median(sum(p) for p in plain) - 1)
    if args.workload == "cli":
        bare = child_seconds(["-c", "pass"], reps=5)
        metrics["cli.startup_ms"] = (child_seconds(["-c", "import frieze.cli"], reps=5)
                                     - bare) * 1000
        metrics["cli.traceback_inputs"] = sum(p["traceback"] for p in record["malformed"])
    record.update(plain_walls=[round(sum(p), 4) for p in plain],
                  traced_walls=[round(sum(p), 4) for p in traced])
    return outcomes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("enumerate", "check",
                                                              "realize", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, build the inputs and exit")
    args = parser.parse_args(argv)

    frieze = load_frieze()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, frieze)
    if args.setup_only:
        return 0

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment()}
    if args.workload == "cli":
        record["malformed"] = workload.probe_malformed()
    run = traced_run if args.trace else timed_run
    outcomes, values = run(workload, args, record)
    record["problems"] = outcomes.problems
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:50s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": outcomes.failed == 0, "attempted": outcomes.attempted,
                      "failed": outcomes.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
