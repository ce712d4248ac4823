"""The five workloads: seeded corpora, the CLI calls of one operation, and
the checks every operation's output must pass.

A corpus is a list of :class:`Item`.  Its shape comes from fixed size rules
(dimensions, bound ranges, record counts), cycled by item index so every
seed gets the same mix; the seed only picks the random contents.  Each item
carries its reference values, computed in set-up from the in-memory inputs,
so a check never trusts the output it is checking.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from math import prod
from pathlib import Path

from mcap import generate, io, reduction, solvers
from mcap.core import AssignmentMatrix, check_feasibility, evaluate_fitness

# `mcap solve --method auto` runs the DP at or below this many states per layer.
DP_GUARD = solvers.DEFAULT_DP_STATE_LIMIT


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


@dataclasses.dataclass
class Item:
    """One operation: the CLI argument lists it runs, in order, and its references."""

    steps: list[list[str]]
    ref: dict


def item_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.getrandbits(32) for _ in range(count)]


def with_bounds(inst, lower, upper):
    return dataclasses.replace(inst, lower_bounds=tuple(lower), upper_bounds=tuple(upper))


def reachable_states(inst) -> int:
    """DP states visited by a sweep that keeps every reachable state.

    Before customer ``i`` every vector with ``c_j <= min(i, upper_j)`` is
    reachable, so the count is a product per layer.
    """
    return sum(
        prod(min(i, u) + 1 for u in inst.upper_bounds) for i in range(inst.n)
    )


def useful_states(inst) -> int:
    """Reachable states that can still meet every lower bound.

    A state before customer ``i`` is useful when ``c_j + (n - i) >= lower_j``
    for every campaign, because each later customer adds at most one to a
    column.
    """
    n = inst.n
    return sum(
        prod(
            max(0, min(i, u) - max(0, lo - (n - i)) + 1)
            for lo, u in zip(inst.lower_bounds, inst.upper_bounds)
        )
        for i in range(n)
    )


def relaxation_bound(inst) -> Fraction:
    """Optimum with every bound relaxed to ``[0, n]``: an upper bound on any feasible fitness."""
    relaxed = with_bounds(inst, (0,) * inst.k, (inst.n,) * inst.k)
    return solvers.solve_unbounded(relaxed).fitness


def check_solution(inst, path: str, report: dict) -> tuple[Fraction, bytes]:
    """The written matrix reads back, is feasible and has the reported fitness.

    Returns the fitness and the file's bytes.
    """
    raw = Path(path).read_bytes()
    rows = json.loads(raw)["rows"]
    if not all(isinstance(r, str) and set(r) <= {"0", "1"} for r in rows):
        raise CheckFailed(f"{path}: rows are not 0/1 strings")
    matrix = AssignmentMatrix.from_rows([int(c) for c in r] for r in rows)
    feas = check_feasibility(inst, matrix)
    if not feas.feasible:
        raise CheckFailed(f"infeasible matrix: {feas.violations}")
    fitness = evaluate_fitness(inst, matrix)
    if Fraction(report["fitness"]) != fitness:
        raise CheckFailed(f"reported fitness {report['fitness']} != evaluated {fitness}")
    if report["rows"] != rows:
        raise CheckFailed("reported rows differ from the written matrix")
    return fitness, raw


class Workload:
    name: str
    # items in one corpus; a run cycles through them until its time is up
    corpus_size: int

    def build(self, seed: int, workdir: Path) -> list[Item]:
        """Generate the corpus and write its input files."""
        raise NotImplementedError

    def reference(self, item: Item) -> None:
        """Add the references that need a solver run to ``item.ref``."""

    def check(self, item: Item, reports: list[dict]) -> float:
        """Raise :class:`CheckFailed` or return the operation's quality."""
        raise NotImplementedError


class DpGrid(Workload):
    """``solve --method dp``: the capacity-vector DP sweep is over 99% of each call."""

    name = "dp-grid"
    corpus_size = 4
    # (n, k, upper bounds), alternated by item index.  Uppers are shuffled per
    # item, which keeps the box and the sweep's work the same for every seed;
    # both shapes sweep about 4.73M (state, subset) pairs, so the median
    # operation does not depend on which shape is more frequent in a run.
    shapes = ((30, 4, (6, 9, 12, 15)), (60, 3, (16, 26, 31)))

    def build(self, seed, workdir):
        items = []
        for idx, s in enumerate(item_seeds(self.name, seed, self.corpus_size)):
            n, k, uppers = self.shapes[idx % len(self.shapes)]
            rng = random.Random(s)
            upper = rng.sample(uppers, k)
            lower = [rng.randint(0, u) for u in upper]
            inst = with_bounds(generate.random_instance(seed=s, n=n, k=k), lower, upper)
            path = workdir / f"dp{idx}.json"
            io.write_instance(inst, path)
            out = workdir / f"dp{idx}.out.json"
            items.append(Item(
                steps=[["solve", "--instance", str(path), "--method", "dp", "--out", str(out)]],
                ref={"inst": inst, "out": str(out)},
            ))
        return items

    def reference(self, item):
        best = solvers.dp_solve(item.ref["inst"])
        item.ref["optimum"] = best.fitness
        item.ref["rows"] = ["".join(map(str, row)) for row in best.matrix.entries]

    def check(self, item, reports):
        (report,) = reports
        ref = item.ref
        if report["method"] != "dp" or not report["optimal"]:
            raise CheckFailed(f"method {report['method']!r} is not the exact DP")
        fitness, raw = check_solution(ref["inst"], ref["out"], report)
        if fitness != ref["optimum"]:
            raise CheckFailed(f"fitness {fitness} != optimum {ref['optimum']}")
        if report["rows"] != ref["rows"]:
            raise CheckFailed("matrix differs from the DP's tie-broken optimum")
        sha = hashlib.sha256(raw).hexdigest()
        if ref.setdefault("sha256", sha) != sha:
            raise CheckFailed("the written matrix changed between runs of one instance")
        recorded = ref.get("recorded")
        if recorded and (recorded["fitness"], recorded["sha256"]) != (str(fitness), sha):
            raise CheckFailed(f"differs from the value recorded for this seed: {recorded}")
        return float(fitness / ref["optimum"])


class SatReduction(Workload):
    """``reduce``, ``solve --method dp``, ``extract``, ``verify`` on a planted 3-CNF.

    The same DP with 128-256 subsets over only 2-4k states, exact-count bounds
    and values up to 10^(k-1); an optimum equal to the threshold certifies
    itself.
    """

    name = "sat-reduction"
    corpus_size = 8
    num_vars, num_clauses = 5, 3

    def build(self, seed, workdir):
        items = []
        for idx, s in enumerate(item_seeds(self.name, seed, self.corpus_size)):
            formula, planted = generate.random_planted_formula(s, self.num_vars, self.num_clauses)
            cnf = workdir / f"sat{idx}.cnf"
            cnf.write_text(reduction.format_dimacs(formula))
            inst, side, out = (workdir / f"sat{idx}.{ext}.json" for ext in ("inst", "side", "out"))
            common = ["--instance", str(inst), "--sidecar", str(side), "--matrix", str(out)]
            red = reduction.reduce_3sat(formula)
            if not reduction.satisfies(formula, planted):
                raise RuntimeError(f"planted assignment does not satisfy formula {idx}")
            items.append(Item(
                steps=[
                    ["reduce", "--cnf", str(cnf), "--out-instance", str(inst),
                     "--out-sidecar", str(side)],
                    ["solve", "--instance", str(inst), "--method", "dp", "--out", str(out)],
                    ["extract", *common],
                    ["verify", *common],
                ],
                ref={"formula": formula, "red": red, "out": str(out)},
            ))
        return items

    def check(self, item, reports):
        reduced, solved, extracted, verified = reports
        red, formula = item.ref["red"], item.ref["formula"]
        if solved["method"] != "dp" or not solved["optimal"]:
            raise CheckFailed(f"method {solved['method']!r} is not the exact DP")
        threshold = str(red.threshold)
        if reduced["threshold"] != threshold or (reduced["n"], reduced["k"]) != (
            red.instance.n, red.instance.k,
        ):
            raise CheckFailed("reduce wrote another instance than the reference reduction")
        fitness, _ = check_solution(red.instance, item.ref["out"], solved)
        if fitness != red.threshold:
            raise CheckFailed(f"optimum {fitness} != threshold {threshold} of a satisfiable formula")
        assignment = [c == "1" for c in extracted["assignment"]]
        if len(assignment) != formula.num_vars or not reduction.satisfies(formula, assignment):
            raise CheckFailed(f"extracted {extracted['assignment']!r} does not satisfy the formula")
        if verified["verified"] is not True:
            raise CheckFailed(f"verify failed: {verified}")
        return float(fitness / red.threshold)


class HeuristicWorkload(Workload):
    """A workload whose quality is its fitness over the relaxation bound."""

    # the method the CLI report must name
    method: str

    def reference(self, item):
        item.ref["bound"] = relaxation_bound(item.ref["inst"])

    def check(self, item, reports):
        (report,) = reports
        ref = item.ref
        if report["method"] != self.method or report["optimal"]:
            raise CheckFailed(f"method {report['method']!r}, expected heuristic {self.method!r}")
        fitness, _ = check_solution(ref["inst"], ref["out"], report)
        if fitness > ref["bound"]:
            raise CheckFailed(f"fitness {fitness} above the relaxation bound {ref['bound']}")
        return float(fitness / ref["bound"])


class HeuristicAuto(HeuristicWorkload):
    """``solve --method auto`` over the DP guard: greedy, then local search."""

    name = "heuristic-auto"
    method = "greedy+local"
    corpus_size = 110
    n, k = 80, 4
    # uppers of at least 57 put the box at >= 58^4 > 10M states, over the guard
    upper_min = 57

    def build(self, seed, workdir):
        items = []
        for idx, s in enumerate(item_seeds(self.name, seed, self.corpus_size)):
            rng = random.Random(s)
            upper = [rng.randint(self.upper_min, self.n) for _ in range(self.k)]
            # Without lower bounds greedy usually ends at a local optimum and
            # local search makes one full scan; every third item has lower
            # bounds, and its search improves a varying number of times.  The
            # median operation is then a single scan in every run, while the
            # mean still carries the improving searches.
            lower = [rng.randint(0, u // 2) if idx % 3 == 2 else 0 for u in upper]
            if prod(u + 1 for u in upper) <= DP_GUARD:
                raise RuntimeError(f"heuristic-auto item {idx} is under the DP guard")
            inst = with_bounds(generate.random_instance(seed=s, n=self.n, k=self.k), lower, upper)
            path, out = workdir / f"ha{idx}.json", workdir / f"ha{idx}.out.json"
            io.write_instance(inst, path)
            items.append(Item(
                steps=[["solve", "--instance", str(path), "--method", "auto", "--out", str(out)]],
                ref={"inst": inst, "out": str(out)},
            ))
        return items


class GreedyScale(HeuristicWorkload):
    """``solve --method greedy`` on the largest instances of the benchmark."""

    name = "greedy-scale"
    method = "greedy"
    corpus_size = 16
    n, k = 600, 10

    def build(self, seed, workdir):
        items = []
        for idx, s in enumerate(item_seeds(self.name, seed, self.corpus_size)):
            # uppers of n/4..n/3 bind, so greedy's work and its share of the
            # relaxation bound vary little from instance to instance
            rng = random.Random(s)
            upper = [rng.randint(self.n // 4, self.n // 3) for _ in range(self.k)]
            lower = [rng.randint(0, u // 4) for u in upper]
            inst = with_bounds(generate.random_instance(seed=s, n=self.n, k=self.k), lower, upper)
            path, out = workdir / f"gs{idx}.json", workdir / f"gs{idx}.out.json"
            io.write_instance(inst, path)
            items.append(Item(
                steps=[["solve", "--instance", str(path), "--method", "greedy", "--out", str(out)]],
                ref={"inst": inst, "out": str(out)},
            ))
        return items


class FitHistory(Workload):
    """``fit`` on noisy response histories: condition building, then the table search."""

    name = "fit-history"
    corpus_size = 8
    records, campaigns, max_h, grid = 4500, 4, 4, 20

    def history(self, seed: int, count: int) -> list[dict]:
        """Records whose response odds follow a hidden table plus noise."""
        rng = random.Random(seed)
        hidden = [0.0] + [rng.randint(2, 10) / 10 for _ in range(self.max_h)]
        records = []
        for _ in range(count):
            p, h = rng.randint(0, 9), rng.randint(1, self.max_h)
            odds = 0.6 * (p / 9) * hidden[h] + 0.1 * rng.random()
            records.append({
                "customer": rng.randrange(count // 3),
                "campaign": rng.randrange(self.campaigns),
                "preference": p,
                "h": h,
                "responded": rng.random() < odds,
            })
        return records

    def build(self, seed, workdir):
        items = []
        for idx, s in enumerate(item_seeds(self.name, seed, self.corpus_size)):
            records = self.history(s, self.records)
            path = workdir / f"fit{idx}.json"
            path.write_text(json.dumps(records))
            yes, no = [0] * self.campaigns, [0] * self.campaigns
            for rec in records:
                (yes if rec["responded"] else no)[rec["campaign"]] += 1
            items.append(Item(
                steps=[["fit", "--records", str(path), "--max-h", str(self.max_h),
                        "--grid", str(self.grid)]],
                ref={"total": sum(y * n for y, n in zip(yes, no))},
            ))
        return items

    def check(self, item, reports):
        (report,) = reports
        (category,) = report["categories"]
        total, satisfied = category["total"], category["satisfied"]
        if total != item.ref["total"]:
            raise CheckFailed(f"total {total} != responder x non-responder count {item.ref['total']}")
        if not 0 < satisfied <= total:
            raise CheckFailed(f"satisfied {satisfied} outside (0, {total}]")
        if len(category["table"]) != self.max_h + 1:
            raise CheckFailed(f"table has {len(category['table'])} entries")
        return satisfied / total


WORKLOADS = {w.name: w for w in (DpGrid(), SatReduction(), HeuristicAuto(), GreedyScale(), FitHistory())}
