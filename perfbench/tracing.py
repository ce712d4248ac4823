"""Spans around the public functions of each mcap module, from outside.

:class:`Tracer` replaces module attributes (the names the CLI and the
solvers call through) with wrappers that record a span per call: name,
start, end, parent span and operation id.  Spans stay in memory; the
per-layer metrics are derived from them when the run ends.  Nothing under
``src/`` is edited, and :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from fractions import Fraction

from mcap import capacity, cli, core, generate, io, learning, reduction, solvers
from workloads import useful_states

# Modules whose attributes are rebound.  Each of these imported the core
# functions by name, so the same function is wrapped wherever it is called.
CALLERS = (cli, solvers, reduction, io, learning, generate)

# span name -> the original function; the name is "<layer>.<function>"
TRACED = {
    "solvers.dp_solve": solvers.dp_solve,
    "solvers.greedy_construct": solvers.greedy_construct,
    "solvers.local_search": solvers.local_search,
    "core.validate_instance": core.validate_instance,
    "core.evaluate_fitness": core.evaluate_fitness,
    "core.check_feasibility": core.check_feasibility,
    "io.load_json": io.load_json,
    "io.read_instance": io.read_instance,
    "io.read_matrix": io.read_matrix,
    "io.write_instance": io.write_instance,
    "io.write_matrix": io.write_matrix,
    "reduction.parse_dimacs": reduction.parse_dimacs,
    "reduction.reduce_3sat": reduction.reduce_3sat,
    "reduction.extract_assignment": reduction.extract_assignment,
    "reduction.property_failures": reduction.property_failures,
    "learning.records_from_json": learning.records_from_json,
    "learning.fit_suppression": learning.fit_suppression,
    "generate.random_instance": generate.random_instance,
    "generate.random_planted_formula": generate.random_planted_formula,
}

# Counters must repeat exactly for the same input, run to run.
COUNTERS = (
    "solvers.dp_solve.explored",
    "solvers.dp_solve.useful_ratio",
    "capacity.box_states",
    "solvers.local_search.moves_checked",
    "solvers.local_search.gain",
    "solvers.greedy_construct.pops",
    "learning.conditions_total",
    "learning.search_space",
)


# span names whose calls are kept, with their arguments and result, for the
# counters; the counters are derived after the run, outside every span
COUNTED = ("solvers.dp_solve", "solvers.local_search", "solvers.greedy_construct",
           "learning.fit_suppression")


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        # span: [name, start, end, parent index or None, op id or None]
        self.spans: list[list] = []
        # op id -> [(span name, args, kwargs, result)] for COUNTED spans
        self.calls: dict = defaultdict(list)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        return len(self.spans) - 1

    def _wrap(self, name, func):
        counted = name in COUNTED

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self._open(name)
            self._stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if counted:
                self.calls[self.op].append((name, args, kwargs, result))
            return result

        return traced

    def _wrap_iter_range(self, func):
        @functools.wraps(func)
        def traced(box, lower):
            # a generator: the span runs from the call until the scan is
            # exhausted or dropped, and is never a parent of other spans
            idx = self._open("capacity.iter_range")
            try:
                yield from func(box, lower)
            finally:
                self.spans[idx][2] = time.perf_counter()

        return traced

    def _rebind(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for name, original in TRACED.items():
            wrapper = self._wrap(name, original)
            for module in CALLERS:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapper)
        self._rebind(cli, "main", self._wrap("cli.main", cli.main))
        self._rebind(
            capacity.CapacityBox,
            "iter_range",
            self._wrap_iter_range(capacity.CapacityBox.iter_range),
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def per_op(self) -> dict:
        """op id -> {"<name>_s": inclusive seconds, "<name>.self_s": self seconds}."""
        covered = defaultdict(float)  # span index -> seconds covered by children
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if op is None:
                continue
            out[op][f"{name}_s"] += end - start
            out[op][f"{name}.self_s"] += end - start - covered[idx]
        return out

    def setup_seconds(self, name: str) -> float:
        """Seconds spent in ``name`` outside any operation (the corpus build)."""
        return sum(
            (end - start for n, start, end, _, op in self.spans if n == name and op is None), 0.0
        )


def _ratio(numerator, denominator) -> float:
    return float(Fraction(numerator) / Fraction(denominator)) if denominator else 0.0


def op_counters(calls: list) -> dict:
    """The per-layer counters of one operation from its recorded calls."""
    counts: dict = defaultdict(int)
    for name, args, kwargs, result in calls:
        if name == "solvers.dp_solve":
            inst = args[0]
            counts["solvers.dp_solve.explored"] += result.stats.explored
            counts["useful"] += useful_states(inst)
            counts["capacity.box_states"] += capacity.CapacityBox.from_caps(inst.upper_bounds).size
        elif name == "solvers.local_search":
            counts["solvers.local_search.moves_checked"] += result.stats.explored
            counts["start_fitness"] += core.evaluate_fitness(args[0], args[1])
            counts["fitness"] += result.fitness
        elif name == "solvers.greedy_construct":
            counts["solvers.greedy_construct.pops"] += result.stats.explored
        elif name == "learning.fit_suppression":
            counts["learning.conditions_total"] += result.total
            counts["learning.search_space"] += (kwargs["grid"] + 1) ** kwargs["max_h"]
    counts["solvers.dp_solve.useful_ratio"] = _ratio(
        counts["useful"], counts["solvers.dp_solve.explored"]
    )
    counts["solvers.local_search.gain"] = _ratio(counts["fitness"], counts["start_fitness"])
    return {name: counts[name] for name in COUNTERS}


def layer_metrics(
    tracer: Tracer, factors: dict, setup_factor: float, counters: list[dict], names
) -> dict:
    """Every per-layer metric in ``names`` but ``trace.overhead_s``.

    ``factors`` maps each traced operation to its calibration factor, which
    turns its span times into reference seconds.  Times are medians over the
    operations of the per-operation sums; counters are means over
    ``counters``, one :func:`op_counters` per corpus item; ``generate``
    times are the corpus build's totals.
    """
    times = tracer.per_op()
    metrics = {}
    for name in names:
        if name.endswith("_s") and name.split(".")[0] not in ("generate", "trace"):
            # the CLI's own time is the self time of its entry point
            key = "cli.main.self_s" if name == "cli.self_s" else name
            metrics[name] = statistics.median(
                times[op].get(key, 0.0) * factor for op, factor in factors.items()
            )
    for name in ("generate.random_instance", "generate.random_planted_formula"):
        metrics[f"{name}_s"] = tracer.setup_seconds(name) * setup_factor
    for name in COUNTERS:
        metrics[name] = statistics.fmean(c[name] for c in counters)
    return metrics
