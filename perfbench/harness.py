"""Running, checking and timing operations for one workload run.

Imported by ``run.py`` once ``src/`` is on the import path.
"""

from __future__ import annotations

import contextlib
import io as stdio
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from calibration import Calibration
from mcap import cli, generate
from workloads import CheckFailed, reachable_states, useful_states

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# metric name -> unit, as BENCHMARK.json defines them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# set-up is measured this many times and the median reported
SETUP_REPEATS = 3
IMPORT_REPEATS = 7
# The traced run cycles through this many corpus items, at least twice, so
# every counter is seen to repeat exactly and is the same for a seed however
# many operations fit in the run.
TRACE_ITEMS = 4

# Times ``import mcap.cli`` inside a fresh interpreter, calibrated there, so
# the interpreter's start-up and the process spawn, which are noisier than
# the import itself, stay out of the figure.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "from calibration import Calibration; cal = Calibration(); "
    "started = time.perf_counter(); import mcap.cli; "
    "print((time.perf_counter() - started) * cal.factor())"
)


def import_seconds() -> float:
    """Median time, in reference seconds, for a fresh interpreter to import ``mcap.cli``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE)],
            env=env, cwd=ROOT, check=True, capture_output=True, text=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


class Runner:
    """Runs and checks operations, counting attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        # corpus item index -> quality, so every item counts once however
        # many times it ran
        self.qualities: dict[int, float] = {}

    def run(self, index: int, item) -> tuple[float, bool]:
        """Run corpus item ``index`` and check its output.

        Returns its wall time and whether it passed.
        """
        self.attempted += 1
        outputs = []
        started = time.perf_counter()
        try:
            for argv in item.steps:
                buf = stdio.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["--format", "json", *argv])
                outputs.append((code, buf.getvalue()))
                if code != 0:
                    break
        # an uncaught error or an argument error is a failed operation, not a stop
        except (Exception, SystemExit):
            elapsed = time.perf_counter() - started
            self._fail(traceback.format_exc())
            return elapsed, False
        elapsed = time.perf_counter() - started
        try:
            quality = self.workload.check(item, self._reports(outputs))
            if self.qualities.setdefault(index, quality) != quality:
                raise CheckFailed(f"quality {quality} != {self.qualities[index]} of an earlier pass")
        except CheckFailed as exc:
            self._fail(str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            self._fail(f"malformed report: {exc!r}")
        else:
            return elapsed, True
        return elapsed, False

    def _reports(self, outputs) -> list[dict]:
        reports = []
        for code, text in outputs:
            if code != 0:
                raise CheckFailed(f"exit code {code}: {text.strip()[:300]}")
            try:
                report = json.loads(text)
            except ValueError:
                raise CheckFailed(f"stdout is not exactly one JSON object: {text[:300]!r}")
            if not isinstance(report, dict) or "error" in report:
                raise CheckFailed(f"error report: {text[:300]}")
            reports.append(report)
        return reports

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {self.workload.name} op {self.attempted}: {reason}", file=sys.stderr)


def recorded_items(workload, seed: int) -> list[dict]:
    """Fitness and matrix hash per corpus item, recorded for dp-grid seeds 0-99.

    The DP's tie-break makes its matrices byte-identical, so any change to
    the DP must reproduce these exactly.
    """
    recorded = json.loads((HERE / "expected.json").read_text())
    return recorded.get(workload.name, {}).get(str(seed), [])


def build_corpus(workload, seed: int, workdir: Path, repeats: int, cal: Calibration):
    """Build the corpus and compute its references, ``repeats`` times.

    Returns the last build's items, the median set-up time in reference
    seconds, and the calibration factor of the last build alone.
    """
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        items = workload.build(seed, workdir)
        factor = cal.factor()
        setup_s = (time.perf_counter() - started) * factor
        for item in items:
            # calibrated per item, since a reference can take a second or more
            started = time.perf_counter()
            workload.reference(item)
            setup_s += (time.perf_counter() - started) * cal.factor()
        times.append(setup_s)
    for item, values in zip(items, recorded_items(workload, seed)):
        item.ref["recorded"] = values
    return items, statistics.median(times), factor


def timed_run(workload, seed: int, seconds: float, workdir: Path):
    cal = Calibration()
    setup_s = import_seconds()
    items, corpus_s, _ = build_corpus(workload, seed, workdir, SETUP_REPEATS, cal)
    setup_s += corpus_s
    runner = Runner(workload)
    walls, times, passed = [], [], []
    started = time.perf_counter()
    # at least one full pass, so quality covers every corpus item
    for op in itertools.count():
        wall, ok = runner.run(op % len(items), items[op % len(items)])
        walls.append(wall)
        times.append(wall * cal.factor())
        if ok:
            passed.append(times[-1])
        if op + 1 >= len(items) and time.perf_counter() - started >= seconds:
            break
    metrics = {
        "setup_s": setup_s,
        # operations that passed their checks, over the time of all of them
        "ops_per_s": len(passed) / sum(times),
        "op_p50_s": statistics.median(passed or times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "quality": statistics.fmean(runner.qualities.values()) if runner.qualities else 0.0,
    }
    notes = [
        f"{len(times)} timed operations over {len(items)} corpus items,"
        f" op p50 over the {len(passed)} that passed",
        f"times in reference seconds; wall clock op p50 {statistics.median(walls):.4g} s,"
        f" {len(passed) / sum(walls):.4g} ops/s",
    ]
    return runner, {name: (metrics[name], unit) for name, unit in END_TO_END.items()}, notes, []


def traced_run(workload, seed: int, seconds: float, workdir: Path):
    problems = []
    # the closed forms reproduce the state counts measured on seed-1 30x4
    inst = generate.random_instance(seed=1, n=30, k=4)
    if (useful_states(inst), reachable_states(inst)) != (1_662_712, 2_723_272):
        problems.append("closed-form state counts disagree with seed-1 30x4")

    cal = Calibration()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        items, _, setup_factor = build_corpus(workload, seed, workdir, 1, cal)
    finally:
        tracer.uninstall()
    items = items[:TRACE_ITEMS]
    runner = Runner(workload)
    plain, traced, factors = [], [], {}
    started = time.perf_counter()
    for op in itertools.count():
        index = op % len(items)
        # alternate which run goes first, so warm-up favours neither side
        for with_spans in (op % 2 == 0, op % 2 != 0):
            if not with_spans:
                plain.append(runner.run(index, items[index])[0] * cal.factor())
                continue
            tracer.op = op
            tracer.install()
            try:
                wall, _ = runner.run(index, items[index])
            finally:
                tracer.uninstall()
                tracer.op = None
            factors[op] = cal.factor()
            traced.append(wall * factors[op])
        if op + 1 >= 2 * len(items) and time.perf_counter() - started >= seconds:
            break

    counters = [tracing.op_counters(tracer.calls[op]) for op in factors]
    for op, counts in enumerate(counters):
        if counts != counters[op % len(items)]:
            problems.append(f"counters of corpus item {op % len(items)} changed between passes")
            break
    values = tracing.layer_metrics(
        tracer, factors, setup_factor, counters[: len(items)], PER_LAYER
    )
    # paired by operation, so corpus items of different sizes cancel out
    values["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
    notes = [
        f"{len(factors)} traced operations over the first {len(items)} corpus items",
        "times in reference seconds",
    ]
    return runner, {name: (values[name], unit) for name, unit in PER_LAYER.items()}, notes, problems
