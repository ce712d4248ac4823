"""Acceptance gate: the headline guarantees, one printed PASS/FAIL line each.

Every test runs a sized random corpus (seeded, so reruns are identical)
against an independent oracle; the summary line is printed even when the
suite is quiet, via ``capsys.disabled()``.
"""

import random
import time
from dataclasses import replace
from fractions import Fraction

from mcap.cli import run_bench
from mcap.core import AssignmentMatrix, check_feasibility, evaluate_fitness
from mcap.generate import random_instance, random_planted_formula
from mcap.learning import fit_suppression
from mcap.reduction import (
    CnfFormula,
    embed_assignment,
    extract_assignment,
    reduce_3sat,
    satisfies,
)
from mcap.solvers import (
    brute_force_solve,
    dp_solve,
    greedy_construct,
    local_search,
    solve_constant_suppression,
    solve_unbounded,
)
from strategies import random_feasible_matrix, random_formula, sat_brute_force
from test_learning import exhaustive_best, noise_free_records

FOUR_CLAUSE = CnfFormula(
    num_vars=3, clauses=((1, 2, 3), (1, -2, 3), (-1, 2, 3), (-1, 2, -3))
)
SMALL_SHAPES = [(3, 1), (3, 2), (3, 3), (4, 2), (4, 3)]


def announce(capsys, ok, line):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok, line


def oracle_suite(count, base_seed=1000):
    rng = random.Random(base_seed)
    return [
        random_instance(
            seed=rng.randrange(2**32),
            n=rng.randint(1, 5),
            k=rng.randint(1, 3),
            family="grid",
            grid=4,
        )
        for _ in range(count)
    ]


def test_exact_solvers_agree_on_random_corpus(capsys):
    started = time.perf_counter()
    instances = oracle_suite(220)
    matches = sum(
        1
        for inst in instances
        if dp_solve(inst).fitness == brute_force_solve(inst).fitness
    )
    elapsed = time.perf_counter() - started
    ok = matches == len(instances) and elapsed < 60
    announce(
        capsys, ok,
        f"dynamic program matches brute force on {matches}/{len(instances)} "
        f"random instances in {elapsed:.1f}s",
    )


def test_special_case_solvers_agree(capsys):
    rng = random.Random(2000)
    const_hits = unbounded_hits = 0
    for _ in range(110):
        inst = random_instance(
            seed=rng.randrange(2**32),
            n=rng.randint(1, 6),
            k=rng.randint(1, 3),
            family="constant",
        )
        const_hits += solve_constant_suppression(inst).fitness == dp_solve(inst).fitness
    for _ in range(110):
        inst = random_instance(
            seed=rng.randrange(2**32),
            n=rng.randint(1, 5),
            k=rng.randint(1, 3),
            bounds="unbounded",
        )
        unbounded_hits += solve_unbounded(inst).fitness == brute_force_solve(inst).fitness
    ok = const_hits == 110 and unbounded_hits == 110
    announce(
        capsys, ok,
        f"closed-form solvers match the exact ones on {const_hits}/110 "
        f"constant-suppression and {unbounded_hits}/110 unbounded instances",
    )


def test_satisfiability_equals_threshold_reachability(capsys):
    red = reduce_3sat(FOUR_CLAUSE)
    assert (red.instance.n, red.instance.k) == (18, 7)
    assert red.threshold == 1114444

    # Note: every valid 3-CNF at these shapes is satisfiable (a 3-literal
    # clause falsifies 1/8 of assignments, so unsatisfiability needs at least
    # 8 clauses; the 8 polarities of 3 variables reduce to 30x11, whose
    # 3,125,000 states per layer make 168.75M cells against dp_guard's 10^8
    # limit, so the DP refuses it).  The unsat direction is covered by its
    # contrapositive: every matrix that reaches the threshold extracts to a
    # verified satisfying assignment.
    rng = random.Random(3000)
    formulas = [FOUR_CLAUSE] + [
        random_formula(rng.randrange(2**32), *rng.choice(SMALL_SHAPES))
        for _ in range(50)
    ]
    satisfiable = 0
    for formula in formulas:
        red = reduce_3sat(formula)
        result = dp_solve(red.instance)
        assignment = sat_brute_force(formula)
        if assignment is None:
            assert result.fitness < red.threshold
        else:
            satisfiable += 1
            assert result.fitness == red.threshold
            assert satisfies(formula, extract_assignment(red, result.matrix))
    announce(
        capsys, True,
        f"satisfiability matched threshold reachability on {len(formulas)} formulas "
        f"({satisfiable} satisfiable), optimum exactly at threshold each time",
    )


def test_planted_embeddings_hit_threshold_exactly(capsys):
    rng = random.Random(4000)
    slowest = 0.0
    largest = 0
    for _ in range(22):
        num_vars = rng.randint(3, 10)
        num_clauses = rng.randint((num_vars + 2) // 3, 8)
        formula, planted = random_planted_formula(
            rng.randrange(2**32), num_vars, num_clauses
        )
        red = reduce_3sat(formula)
        largest = max(largest, red.threshold)
        started = time.perf_counter()
        matrix = embed_assignment(red, planted)
        elapsed = time.perf_counter() - started
        slowest = max(slowest, elapsed)
        assert elapsed < 1.0
        assert check_feasibility(red.instance, matrix).feasible
        assert evaluate_fitness(red.instance, matrix) == red.threshold
    announce(
        capsys, True,
        f"22 planted assignments embedded to threshold-exact feasible matrices "
        f"(largest threshold {largest}, slowest embed {slowest * 1000:.2f}ms)",
    )


def test_feasible_matrices_never_exceed_threshold(capsys):
    reduced = [reduce_3sat(FOUR_CLAUSE)]
    for seed, num_vars, num_clauses in ((11, 5, 4), (12, 8, 6), (13, 10, 8)):
        formula, _ = random_planted_formula(seed, num_vars, num_clauses)
        reduced.append(reduce_3sat(formula))
    rng = random.Random(5000)
    checked = 0
    for red in reduced:
        for _ in range(260):
            matrix = random_feasible_matrix(rng.randrange(2**32), red.instance)
            assert evaluate_fitness(red.instance, matrix) <= red.threshold
            checked += 1
    announce(
        capsys, True,
        f"{checked} random feasible matrices on reduced instances stayed at or "
        f"below their thresholds",
    )


def test_heuristics_feasible_dominated_and_improving(capsys):
    instances = oracle_suite(120, base_seed=6000)
    rng = random.Random(6500)
    greedy_ratios = []
    local_ratios = []
    for inst in instances:
        optimum = dp_solve(inst).fitness
        greedy = greedy_construct(inst)
        assert check_feasibility(inst, greedy.matrix).feasible
        assert greedy.fitness <= optimum
        improved = local_search(inst, greedy.matrix)
        assert check_feasibility(inst, improved.matrix).feasible
        assert greedy.fitness <= improved.fitness <= optimum
        start = random_feasible_matrix(rng.randrange(2**32), inst)
        restarted = local_search(inst, start)
        assert evaluate_fitness(inst, start) <= restarted.fitness <= optimum
        if optimum > 0:
            # bench reports the same numbers as one gap column
            rows = {row["method"]: row for row in run_bench(inst)}
            greedy_ratios.append(1 - Fraction(rows["greedy"]["gap"]))
            local_ratios.append(1 - Fraction(rows["local"]["gap"]))
    mean_greedy = sum(greedy_ratios) / len(greedy_ratios)
    mean_local = sum(local_ratios) / len(local_ratios)
    announce(
        capsys, True,
        f"heuristics stayed feasible and below the optimum on {len(instances)} "
        f"instances; mean optimality ratio greedy {float(mean_greedy):.4f}, "
        f"greedy+local {float(mean_local):.4f}",
    )


def test_noise_free_fits_are_perfect(capsys):
    rng = random.Random(7000)
    fits = conditions = 0
    for _ in range(30):
        grid = rng.randint(2, 4)
        max_h = rng.randint(2, 3)
        true = [Fraction(0)] + [
            Fraction(rng.randint(0, grid), grid) for _ in range(max_h)
        ]
        records = noise_free_records(
            true, prefs=(1, 2, 3, 4), threshold=rng.randint(1, 3)
        )
        result = fit_suppression(records, max_h=max_h, grid=grid)
        assert result.satisfied == result.total
        assert exhaustive_best(records, max_h=max_h, grid=grid) == result.total
        fits += 1
        conditions += result.total
    assert conditions > 0
    announce(
        capsys, True,
        f"{fits} noise-free response histories fitted perfectly "
        f"({conditions} pairwise conditions, all satisfied, matching exhaustive search)",
    )


def test_fitness_laws_hold_at_scale(capsys):
    rng = random.Random(8000)
    pairs = zero_checks = linear_checks = integral_checks = 0
    families = ("grid", "constant", "indicator", "linear")
    for index in range(1050):
        family = families[index % len(families)]
        inst = random_instance(
            seed=rng.randrange(2**32),
            n=rng.randint(1, 5),
            k=rng.randint(1, 3),
            family=family,
        )
        matrix = AssignmentMatrix(
            tuple(
                tuple(rng.randint(0, 1) for _ in range(inst.k))
                for _ in range(inst.n)
            )
        )
        pairs += 1
        assert evaluate_fitness(inst, AssignmentMatrix.zero(inst.n, inst.k)) == 0
        zero_checks += 1
        factor = rng.randint(2, 5)
        scaled = replace(inst, weights=tuple(w * factor for w in inst.weights))
        base = evaluate_fitness(inst, matrix)
        assert evaluate_fitness(scaled, matrix) == factor * base
        linear_checks += 1
        if family == "indicator":
            assert base.denominator == 1
            integral_checks += 1
    announce(
        capsys, True,
        f"fitness laws held on {pairs} instance/matrix pairs "
        f"(zero {zero_checks}, weight-scaling {linear_checks}, "
        f"integrality {integral_checks})",
    )
