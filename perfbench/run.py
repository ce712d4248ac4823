"""Seeded benchmark of the mcap command-line interface.

    python3 perfbench/run.py --workload dp-grid --seed 1 --seconds 15 --trace 0

One process, one client, no threads: each operation calls
``mcap.cli.main([...])`` in-process with ``--format json`` (a closed loop:
the next operation starts when the previous one returns), and every output
is checked against references built in set-up.  The corpus is cycled, at
least once through, until ``--seconds`` of operations have run.

``--trace 0`` times operations with nothing wrapped and reports the
end-to-end metrics.  ``--trace 1`` runs each operation twice, plain and then
with spans around the public functions of every layer (see ``tracing.py``),
and reports the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Sources are read from
``src/`` next to this directory; the run writes only to ``.perfbench_work/``
there and removes what it wrote.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mcap" / "__init__.py").is_file():
        print(f"perfbench: no mcap package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = harness.traced_run if args.trace else harness.timed_run
        runner, metrics, notes, problems = run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for problem in problems:
        print(f"FAILED {workload.name}: {problem}", file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: {'; '.join(notes)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    print(
        f"  {'error_rate':<36} {runner.failed / max(runner.attempted, 1):>16.6g} ratio"
        f" ({runner.failed} of {runner.attempted} operations failed)"
    )
    print(json.dumps({
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
