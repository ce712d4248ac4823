"""Command-line interface: evaluate, solve, reduce, embed, extract, verify,
gen, fit, bench.

Reports print as human-readable text (default) or as a single JSON object
(``--format json``); exact rationals travel as ``"num/den"`` strings either
way.  Exit codes: 0 success, 1 failed verification or unsupported input
class, 2 parse/input error, 3 infeasible, 4 size guard exceeded (every guard
is a module constant; no option sets one).  Every error in JSON mode is an
object ``{"error": {"type", "message"}}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import io, learning, reduction, solvers
from .core import (
    GuardExceededError,
    InfeasibleError,
    Instance,
    McapError,
    PreconditionError,
    ValidationError,
    check_feasibility,
    evaluate_fitness,
)
from .generate import BOUND_STYLES, SUPPRESSION_FAMILIES, random_instance
from .reduction import ReducedInstance

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_GUARD = 4


def _exact(value) -> str:
    """The decimal text of an exact number in a report.

    Python refuses to print an integer of more digits than
    ``sys.get_int_max_str_digits()``; such a result is an input error.
    """
    try:
        return str(value)
    except ValueError as exc:
        raise ValidationError(f"result too large to print: {exc}") from exc


def _read_reduced(instance_path: str, sidecar_path: str) -> ReducedInstance:
    red = reduction.recover_reduction(io.read_instance(instance_path))
    if io.load_json(sidecar_path) != reduction.sidecar_dict(red):
        raise ValidationError("sidecar does not match the reduced instance")
    return red


def _result_report(result: solvers.SolveResult, method: str) -> dict:
    return {
        "method": method,
        "fitness": _exact(result.fitness),
        "optimal": result.optimal,
        "rows": io.matrix_to_dict(result.matrix)["rows"],
        "elapsed_s": round(result.stats.elapsed_s, 6),
        "explored": result.stats.explored,
    }


def _local(inst: Instance, start) -> solvers.SolveResult:
    """Local search from ``start``, or from greedy's matrix when it is None.

    Local search starts its clock after greedy ends, so a start built here
    adds greedy's time to the report; ``explored`` stays local search's.
    """
    if start is not None:
        return solvers.local_search(inst, start)
    greedy = solvers.greedy_construct(inst)
    result = solvers.local_search(inst, greedy.matrix)
    elapsed_s = greedy.stats.elapsed_s + result.stats.elapsed_s
    return dataclasses.replace(result, stats=dataclasses.replace(result.stats, elapsed_s=elapsed_s))


# name -> solve(inst, start), in bench order; only local search reads the
# start matrix (None: greedy's).  Entries look their solver up on the module
# at call time, so a rebound module attribute (such as a tracing wrapper) is
# the one that runs.
SOLVERS = {
    "brute": lambda inst, start: solvers.brute_force_solve(inst),
    "dp": lambda inst, start: solvers.dp_solve(inst),
    "const": lambda inst, start: solvers.solve_constant_suppression(inst),
    "unbounded": lambda inst, start: solvers.solve_unbounded(inst),
    "greedy": lambda inst, start: solvers.greedy_construct(inst),
    "local": _local,
}
METHODS = (*SOLVERS, "auto")


def _solve_with(method: str, inst: Instance, start) -> tuple[str, solvers.SolveResult]:
    if method == "auto":
        try:
            solvers.dp_guard(inst)
        except GuardExceededError:
            return "greedy+local", SOLVERS["local"](inst, start)
        method = "dp"
    return method, SOLVERS[method](inst, start)


def _violations(report) -> list[dict]:
    return [{"campaign": j, "sum": s, "side": side} for j, s, side in report.violations]


def cmd_evaluate(args) -> dict:
    inst = io.read_instance(args.instance)
    matrix = io.read_matrix(args.matrix)
    fitness = evaluate_fitness(inst, matrix)
    report = check_feasibility(inst, matrix)
    return {
        "fitness": _exact(fitness),
        "feasible": report.feasible,
        "column_sums": list(report.column_sums),
        "violations": _violations(report),
    }


def cmd_solve(args) -> dict:
    inst = io.read_instance(args.instance)
    method, result = _solve_with(args.method, inst, args.start)
    report = _result_report(result, method)
    if args.out:
        io.write_matrix(result.matrix, args.out)
        report["out"] = args.out
    return report


def cmd_reduce(args) -> dict:
    formula = reduction.parse_dimacs(io.read_text(args.cnf))
    red = reduction.reduce_3sat(formula)
    io.write_instance(red.instance, args.out_instance)
    io.dump_json(reduction.sidecar_dict(red), args.out_sidecar)
    return {
        "num_vars": formula.num_vars,
        "num_clauses": len(formula.clauses),
        "n": red.instance.n,
        "k": red.instance.k,
        "threshold": _exact(red.threshold),
        "out_instance": args.out_instance,
        "out_sidecar": args.out_sidecar,
    }


def _parse_assignment(text: str, num_vars: int) -> tuple[bool, ...]:
    bits = text.strip()
    if len(bits) != num_vars or any(c not in "01" for c in bits):
        raise ValidationError(
            f"assignment must be {num_vars} characters of '0'/'1', got {text!r}"
        )
    return tuple(c == "1" for c in bits)


def cmd_embed(args) -> dict:
    red = _read_reduced(args.instance, args.sidecar)
    assignment = _parse_assignment(args.assignment, red.layout.num_vars)
    matrix = reduction.embed_assignment(red, assignment)
    io.write_matrix(matrix, args.out)
    fitness = evaluate_fitness(red.instance, matrix)
    return {
        "assignment": args.assignment.strip(),
        "fitness": _exact(fitness),
        "threshold": _exact(red.threshold),
        "meets_threshold": fitness >= red.threshold,
        "out": args.out,
    }


def cmd_extract(args) -> dict:
    red = _read_reduced(args.instance, args.sidecar)
    matrix = io.read_matrix(args.matrix)
    assignment = reduction.extract_assignment(red, matrix)
    return {
        "assignment": "".join("1" if a else "0" for a in assignment),
        "fitness": _exact(evaluate_fitness(red.instance, matrix)),
        "threshold": _exact(red.threshold),
    }


def cmd_verify(args) -> dict:
    red = _read_reduced(args.instance, args.sidecar)
    matrix = io.read_matrix(args.matrix)
    feas = check_feasibility(red.instance, matrix)
    fitness = evaluate_fitness(red.instance, matrix)
    failures = reduction.property_failures(red, matrix) if feas.feasible else []
    verified = feas.feasible and fitness >= red.threshold and not failures
    report = {
        "feasible": feas.feasible,
        "fitness": _exact(fitness),
        "threshold": _exact(red.threshold),
        "meets_threshold": fitness >= red.threshold,
        "property_failures": failures,
        "verified": verified,
    }
    if not feas.feasible:
        report["violations"] = _violations(feas)
    return report


def cmd_gen(args) -> dict:
    inst = random_instance(
        seed=args.seed,
        n=args.n,
        k=args.k,
        pref_max=args.pref_max,
        weight_max=args.weight_max,
        family=args.family,
        grid=args.grid,
        bounds=args.bounds,
    )
    if args.out:
        io.write_instance(inst, args.out)
        return {"out": args.out, "n": inst.n, "k": inst.k, "seed": args.seed}
    return io.instance_to_dict(inst)


def cmd_fit(args) -> dict:
    labels = io.load_json(args.labels) if args.labels else None
    groups = learning.records_from_json(io.load_json(args.records), labels)
    results = learning.fit_categories(
        groups, max_h=args.max_h, grid=args.grid, monotone=args.monotone
    )
    report = {
        "categories": [
            {
                "label": label,
                "table": [_exact(v) for v in fit.table.values],
                "satisfied": fit.satisfied,
                "upper_bound": fit.upper_bound,
                "total": fit.total,
            }
            for label, fit in results.items()
        ]
    }
    if args.out:
        io.dump_json(report, args.out)
        report["out"] = args.out
    return report


def run_bench(inst: Instance) -> list[dict]:
    """Run every applicable solver on the instance; one row per solver.

    Exact methods are skipped (with a reason) when their guard or
    precondition fails; the gap column is relative to the best exact fitness
    when one exists.
    """
    rows: list[dict] = []
    results: dict[str, solvers.SolveResult] = {}
    for method, solve in SOLVERS.items():
        try:
            results[method] = solve(inst, None)
        except (GuardExceededError, PreconditionError) as exc:
            rows.append({"method": method, "skipped": str(exc)})

    exact = [r.fitness for r in results.values() if r.optimal]
    best = max(exact) if exact else None
    for method, result in results.items():
        gap = None
        if best is not None and best > 0:
            gap = _exact((best - result.fitness) / best)
        elif best is not None:
            gap = "0"
        rows.append(
            {
                "method": method,
                "fitness": _exact(result.fitness),
                "optimal": result.optimal,
                "gap": gap,
                "elapsed_s": round(result.stats.elapsed_s, 6),
                "explored": result.stats.explored,
            }
        )
    return rows


def cmd_bench(args) -> dict:
    return {"rows": run_bench(io.read_instance(args.instance))}


def _render_human(command: str, report: dict) -> str:
    if command == "bench":
        lines = [f"{'method':<10} {'fitness':>16} {'optimal':>8} {'gap':>12} {'time_s':>10} {'explored':>10}"]
        for row in report["rows"]:
            if "skipped" in row:
                lines.append(f"{row['method']:<10} skipped: {row['skipped']}")
            else:
                lines.append(
                    f"{row['method']:<10} {row['fitness']:>16} {str(row['optimal']):>8} "
                    f"{str(row['gap']):>12} {row['elapsed_s']:>10} {row['explored']:>10}"
                )
        return "\n".join(lines)
    if command == "solve":
        lines = [
            f"method: {report['method']}",
            f"fitness: {report['fitness']}",
            f"optimal: {report['optimal']}",
            f"elapsed_s: {report['elapsed_s']}",
            f"explored: {report['explored']}",
        ]
        lines.extend(f"  {row}" for row in report["rows"])
        return "\n".join(lines)
    return "\n".join(f"{key}: {value}" for key, value in report.items())


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise :class:`ValidationError` instead of exiting."""

    def error(self, message):
        raise ValidationError(message)


def _int_option(parser, flag: str, **kwargs) -> None:
    """Add an integer option, read by the file integer grammar."""
    parser.add_argument(flag, type=lambda text: io.parse_int(text, flag), **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call."""
    parser = _Parser(
        prog="mcap",
        description="Multicampaign assignment: solve instances, run the 3-CNF "
        "reduction, and fit suppression tables from history.",
    )
    parser.add_argument("--format", choices=("human", "json"), default="human")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="fitness and feasibility of a matrix")
    p.add_argument("--instance", required=True)
    p.add_argument("--matrix", required=True)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--out", help="write the matrix here")
    # a lambda, so io.read_matrix is looked up per call and a rebound one runs
    p.add_argument("--start", type=lambda path: io.read_matrix(path),
                   help="starting matrix for --method local and auto's local search")

    p = sub.add_parser("reduce", help="3-CNF (DIMACS) to instance + sidecar")
    p.add_argument("--cnf", required=True)
    p.add_argument("--out-instance", required=True)
    p.add_argument("--out-sidecar", required=True)

    p = sub.add_parser("embed", help="satisfying assignment to threshold matrix")
    p.add_argument("--instance", required=True)
    p.add_argument("--sidecar", required=True)
    p.add_argument("--assignment", required=True, help="bit string, one char per variable")
    p.add_argument("--out", required=True)

    p = sub.add_parser("extract", help="threshold matrix to satisfying assignment")
    p.add_argument("--instance", required=True)
    p.add_argument("--sidecar", required=True)
    p.add_argument("--matrix", required=True)

    p = sub.add_parser("verify", help="check a matrix against the reduction contract")
    p.add_argument("--instance", required=True)
    p.add_argument("--sidecar", required=True)
    p.add_argument("--matrix", required=True)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    _int_option(p, "--seed", required=True)
    _int_option(p, "--n", required=True)
    _int_option(p, "--k", required=True)
    _int_option(p, "--pref-max", default=9)
    _int_option(p, "--weight-max", default=5)
    p.add_argument("--family", choices=SUPPRESSION_FAMILIES, default="grid")
    _int_option(p, "--grid", default=4)
    p.add_argument("--bounds", choices=BOUND_STYLES, default="random")
    p.add_argument("--out")

    p = sub.add_parser("fit", help="fit suppression tables from response history")
    p.add_argument("--records", required=True)
    p.add_argument("--labels", help="JSON object mapping customer id to category label")
    _int_option(p, "--max-h", required=True)
    _int_option(p, "--grid", default=learning.DEFAULT_GRID)
    p.add_argument("--monotone", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("bench", help="run all applicable solvers, print a table")
    p.add_argument("--instance", required=True)

    return parser


COMMANDS = {
    "evaluate": cmd_evaluate,
    "solve": cmd_solve,
    "reduce": cmd_reduce,
    "embed": cmd_embed,
    "extract": cmd_extract,
    "verify": cmd_verify,
    "gen": cmd_gen,
    "fit": cmd_fit,
    "bench": cmd_bench,
}

_EXIT_CODES = (
    (ValidationError, EXIT_PARSE),
    (InfeasibleError, EXIT_INFEASIBLE),
    (GuardExceededError, EXIT_GUARD),
    (PreconditionError, EXIT_FAILURE),
    (McapError, EXIT_FAILURE),
    (OSError, EXIT_PARSE),
)


def main(argv=None) -> int:
    # parsed into a namespace made before the parse, so a usage error after
    # --format json is still reported as JSON
    args = argparse.Namespace(format="human")
    try:
        build_parser().parse_args(argv, namespace=args)
        report = COMMANDS[args.command](args)
    except tuple(exc for exc, _ in _EXIT_CODES) as exc:
        code = next(code for klass, code in _EXIT_CODES if isinstance(exc, klass))
        if args.format == "json":
            print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return code
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(_render_human(args.command, report))
    if args.command == "verify" and not report["verified"]:
        return EXIT_INFEASIBLE if not report["feasible"] else EXIT_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
