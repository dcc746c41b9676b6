"""Timing loop, order statistics and failure accounting, free of ``frieze``."""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction


class ItemError:
    """Stands in for the result of an item that raised; never equals an output."""

    def __init__(self, exc: BaseException) -> None:
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()

    def __repr__(self) -> str:
        return f"ItemError({self.text})"


def _calibration_work() -> int:
    """Fixed exact-arithmetic work: 1.3 to 2.5 ms on a loaded 2-core Xeon sandbox."""
    x, acc = Fraction(1), 0
    for i in range(1, 300):
        x = x * Fraction(i + 1, i) - Fraction(1, i + 2)
        acc += x.numerator % 97
    return acc


class _SpeedProbe:
    """Times the calibration work every ``interval`` seconds from SIGALRM.

    Long calls see the machine speed change while they run; sampling it
    during the call, not only around it, keeps their scaling honest.  The
    time spent in the probe is recorded so callers can take it out.
    """

    def __init__(self, interval: float = 0.25) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(_best_time(_calibration_work, 1))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _best_time(task, reps: int) -> float:
    best = math.inf
    for _ in range(reps):
        start = time.perf_counter()
        task()
        best = min(best, time.perf_counter() - start)
    return best


def _bare_interpreter() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)


class Gauge:
    """A fixed task whose time tracks the machine's current speed.

    ``reference`` is the time the task is scaled to; any fixed value would
    do.  In-process work is gauged by exact arithmetic, sampled also during
    the call; the start of a child interpreter by starting a bare one, which
    tracks process start costs that arithmetic does not.
    """

    def __init__(self, task, reps: int, reference: float, sample_during: bool) -> None:
        self.task, self.reps = task, reps
        self.reference, self.sample_during = reference, sample_during

    def seconds(self) -> float:
        return _best_time(self.task, self.reps)


ARITHMETIC = Gauge(_calibration_work, reps=3, reference=0.002, sample_during=True)
INTERPRETER = Gauge(_bare_interpreter, reps=1, reference=0.04, sample_during=False)


def scaled_call(call, gauge: Gauge = ARITHMETIC, before: float | None = None):
    """Run ``call`` and time it at a fixed reference speed.

    Returns (result, scaled seconds, raw seconds, gauge time after).  The
    gauge is timed before the call (unless the caller passes the reading
    it just took) and after it, and for arithmetic sampled during it; the
    raw time, probe time taken out, is multiplied by the gauge's reference
    over its mean time.  On a shared machine whose speed drifts by tens of
    percent within minutes this keeps runs comparable; the raw time is kept
    for the record.
    """
    if before is None:
        before = gauge.seconds()
    probe = _SpeedProbe() if gauge.sample_during else None
    with probe or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an item that raises is a failure, not an abort
            result = ItemError(exc)
        raw = time.perf_counter() - start
    after = gauge.seconds()
    speeds = [before, after]
    if probe:
        raw -= probe.spent
        speeds += probe.samples
    return result, raw * gauge.reference * len(speeds) / sum(speeds), raw, after


#: calls faster than this are timed ``repeats`` times per pass
SHORT_S = 0.05


def run_pass(calls, repeats: int = 1):
    """Run every call once, timing short ones up to ``repeats`` times.

    Returns each call's scaled time (the median of its timings), the
    results of the first runs and the raw total of the first runs.  Each
    gauge reading serves the call before it and the call after it.
    """
    times, results, raw_total = [], [], 0.0
    reading = None
    for call in calls:
        result, scaled, raw, reading = scaled_call(call, ARITHMETIC, reading)
        samples = [scaled]
        while scaled < SHORT_S and len(samples) < repeats:
            _, again, _, reading = scaled_call(call, ARITHMETIC, reading)
            samples.append(again)
        times.append(statistics.median(samples))
        results.append(result)
        raw_total += raw
    return times, results, raw_total


def run_for(calls, seconds: float, on_pass, around=contextlib.nullcontext, repeats: int = 1):
    """Repeat passes while the next one is expected to end within ``seconds``.

    At least one pass always runs, each inside the context ``around()``
    returns, with ``repeats`` as in :func:`run_pass`.  ``on_pass(results)``
    sees each pass's results outside the timed region.  Returns the scaled
    per-item times of every pass and the raw wall time of each pass.
    """
    passes, raw_walls = [], []
    began = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        with around():
            times, results, raw = run_pass(calls, repeats)
        passes.append(times)
        raw_walls.append(raw)
        on_pass(results)
        now = time.perf_counter()
        if now - began + (now - pass_began) > seconds:
            return passes, raw_walls


def tail_percentile(values) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten values beyond it.

    Uses the nearest-rank definition: percentile p is the value of rank
    ceil(p/100 * n), and n - rank values lie beyond it.  None when there
    are fewer than eleven values.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def item_medians(passes: list[list[float]]) -> list[float]:
    """Each item's median time over the passes."""
    return [statistics.median(column) for column in zip(*passes)]


class Outcomes:
    """Counts attempted and failed item runs across every pass of a run.

    The first pass's outputs go through the workload's oracle; every later
    pass must reproduce them byte for byte.  An item run fails if it raised,
    if the oracle rejects its item, or if it differs from the first pass.
    Failures are counted and described, and the run goes on.
    """

    def __init__(self, labels, serialize, check) -> None:
        self.labels = labels
        self._serialize = serialize
        self._check = check
        self.reference: list[str] | None = None
        self._first: list = []
        self._mismatches: list[set[int]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, results) -> None:
        outputs = [r.text if isinstance(r, ItemError) else self._serialize(i, r)
                   for i, r in enumerate(results)]
        self.attempted += len(outputs)
        if self.reference is None:
            self.reference, self._first = outputs, results
        else:
            self._mismatches.append(
                {i for i, (a, b) in enumerate(zip(outputs, self.reference)) if a != b})

    def finish(self) -> None:
        """Apply the oracle to the first pass and total the failures."""
        bad = set()
        for index, result in enumerate(self._first):
            if isinstance(result, ItemError):
                problem = result.text
            else:
                try:
                    problem = self._check(index, result)
                except Exception as exc:  # a crashing oracle fails the item too
                    problem = f"oracle raised {ItemError(exc).text}"
            if problem:
                bad.add(index)
                self._describe(index, problem)
        self.failed = len(bad)
        for mismatch in self._mismatches:
            for index in mismatch - bad:
                self._describe(index, "output differs from the first pass")
            self.failed += len(mismatch | bad)
        self._first = []

    def _describe(self, index: int, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{self.labels[index]}: {problem}")
