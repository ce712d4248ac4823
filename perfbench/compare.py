"""Compare two sets of benchmark runs: a parent commit and a change.

Run pairs, alternating which side goes first, then report::

    python3 perfbench/compare.py pairs --parent ../parent --change . \\
        --workload dp-grid --workload fit-history --seeds 10 --out runs.jsonl
    python3 perfbench/compare.py report runs.jsonl

``pairs`` runs ``perfbench/run.py`` inside each checkout with the same
workload, seeds 1 to ``--seeds`` and BENCHMARK.json's run length, appending
one JSON line per run to ``--out``, and then prints the report.  ``report`` prints, per workload and end-to-end
metric, each side's median and quartiles, the spread (quartile distance
over median) against the metric's bound, the share of pairs the change won,
a verdict, and each side's failure ratio.  With one side only, it prints the
spreads, which is how the benchmark's own steadiness is checked.

Verdicts follow the measuring rules for a small shared machine.  A run that
failed as a whole, or whose checks failed, gives no values; where the
change's run of a seed failed and the parent's did not, the pair counts as
lost.

* ``worse``: the change has a higher failure ratio than the parent, which
  is decided before any other verdict;
* ``better``: the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's quartile
  distance;
* ``worse``: the change's median is worse than the parent's by more than
  the bound, with both spreads within the bound, or the change loses nine
  tenths of the pairs by more than the bound;
* ``unresolved``: a spread is wider than the bound, unless every run of the
  change reads better than every run of the parent;
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")


def load_runs(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "error": proc.stderr.strip()[-500:]}
    return json.loads(lines[-1])


def cmd_pairs(args) -> None:
    seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    with open(args.out, "a") as out:
        for workload in args.workload:
            for seed in range(1, args.seeds + 1):
                order = SIDES if seed % 2 else SIDES[::-1]
                for side in order:
                    result = run_once(checkouts[side], workload, seed, seconds)
                    line = {"side": side, "workload": workload, "seed": seed, "result": result}
                    out.write(json.dumps(line) + "\n")
                    out.flush()
                    print(f"{workload} seed {seed} {side}: correct={result['correct']}",
                          file=sys.stderr)
    report(load_runs(Path(args.out)))


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def failure_ratio(results: list[dict]) -> float:
    """Failed operations over attempted; a run that failed as a whole counts one."""
    failed = sum(r["failed"] or (0 if r["correct"] else 1) for r in results)
    return failed / max(sum(r["attempted"] for r in results), 1)


def verdict(parent: dict, change: dict, name: str, better: str, bound: float) -> tuple[str, float]:
    """``parent``/``change`` map seed -> run result; returns (verdict, share of pairs won)."""
    sign = 1 if better == "lower" else -1

    def values(results):
        return {seed: r["metrics"][name]["value"] for seed, r in results.items()
                if r["correct"] and name in r["metrics"]}

    p_by_seed, c_by_seed = values(parent), values(change)
    seeds = sorted(parent.keys() & change.keys())
    won = lost = 0
    for s in seeds:
        if s in p_by_seed and s not in c_by_seed:
            lost += 1
        elif s in p_by_seed and s in c_by_seed:
            diff = sign * (c_by_seed[s] - p_by_seed[s])
            won += diff < 0
            lost += diff > 0
    share_won = won / len(seeds) if seeds else 0.0
    if failure_ratio(list(change.values())) > failure_ratio(list(parent.values())):
        return "worse", share_won
    p_values, c_values = list(p_by_seed.values()), list(c_by_seed.values())
    if min(len(p_values), len(c_values)) < 2:
        return "unresolved", share_won
    p_med, c_med = statistics.median(p_values), statistics.median(c_values)
    q1, _, q3 = statistics.quantiles(p_values, n=4)
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    widest = max(spread(p_values), spread(c_values))
    gained = sign * (c_med - p_med) < 0 and abs(c_med - p_med) > q3 - q1
    if seeds and won >= 0.9 * len(seeds) and gained:
        return "better", share_won
    if worse_by > bound and (widest <= bound or lost >= 0.9 * len(seeds)):
        return "worse", share_won
    all_better = (max(c_values) < min(p_values)) if sign > 0 else (min(c_values) > max(p_values))
    if widest > bound and not all_better:
        return "unresolved", share_won
    return "unchanged", share_won


def report(runs: list[dict]) -> None:
    spec = json.loads(BENCHMARK.read_text())
    # workload -> side -> seed -> run result
    results: dict = defaultdict(lambda: defaultdict(dict))
    for run in runs:
        results[run["workload"]][run["side"]][run["seed"]] = run["result"]

    def quartiles(vals):
        q1, _, q3 = statistics.quantiles(vals, n=4)
        return f"{statistics.median(vals):.6g} [{q1:.6g}, {q3:.6g}]"

    for workload, sides in results.items():
        present = [s for s in SIDES if s in sides]
        fail_text = ", ".join(
            f"{s} failure ratio {failure_ratio(list(sides[s].values())):.3g}"
            f" over {len(sides[s])} runs" for s in present
        )
        print(f"\n== {workload} ({fail_text})")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols, medians = [], []
            for side in present:
                vals = [r["metrics"][name]["value"] for r in sides[side].values()
                        if r["correct"] and name in r["metrics"]]
                if vals:
                    medians.append(statistics.median(vals))
                if len(vals) < 2:
                    cols.append(f"{side}: n={len(vals)}")
                    continue
                cols.append(
                    f"{side}: {quartiles(vals)} n={len(vals)} spread {spread(vals):.3f}"
                )
            line = f"  {name:<12} bound {bound:<5} " + " | ".join(cols)
            if len(present) == 2:
                outcome, share = verdict(
                    sides["parent"], sides["change"], name, metric["better"], bound
                )
                if len(medians) == 2 and medians[0]:
                    line += f" | change/parent {medians[1] / medians[0]:.4f}"
                line += f" won {share:.0%} -> {outcome}"
            print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs", help="run parent/change pairs, then report")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=int, default=10, help="run seeds 1 to this")
    p.add_argument("--out", required=True, help="JSON-lines file runs are appended to")
    p = sub.add_parser("report", help="report runs already made")
    p.add_argument("runs", type=Path)
    args = parser.parse_args(argv)
    if args.command == "pairs":
        cmd_pairs(args)
    else:
        report(load_runs(args.runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
