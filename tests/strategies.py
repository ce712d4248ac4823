"""Shared hypothesis strategies and seeded generators for test inputs."""

import random
from fractions import Fraction

import hypothesis.strategies as st

from mcap.core import AssignmentMatrix, Instance, SuppressionTable, validate_instance
from mcap.generate import _clause_variables
from mcap.reduction import BooleanAssignment, CnfFormula, satisfies, validate_formula

FAMILIES = ("grid", "constant", "zero_one")


def _table(draw, family: str, k: int) -> SuppressionTable:
    if family == "constant":
        return SuppressionTable.constant(Fraction(draw(st.integers(0, 4)), 4), k)
    if family == "zero_one":
        levels = [draw(st.integers(0, 1)) for _ in range(k)]
    else:
        levels = [Fraction(draw(st.integers(0, 4)), 4) for _ in range(k)]
    return SuppressionTable((Fraction(0),) + tuple(Fraction(v) for v in levels))


@st.composite
def instances(draw, max_n=4, max_k=3, pref_max=9, families=FAMILIES, bounds="random"):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    weights = tuple(draw(st.integers(1, 5)) for _ in range(k))
    prefs = tuple(tuple(draw(st.integers(0, pref_max)) for _ in range(k)) for _ in range(n))
    tables = tuple(_table(draw, draw(st.sampled_from(families)), k) for _ in range(n))
    if bounds == "unbounded":
        lower, upper = (0,) * k, (n,) * k
    else:
        pairs = [sorted((draw(st.integers(0, n)), draw(st.integers(0, n)))) for _ in range(k)]
        lower = tuple(p[0] for p in pairs)
        upper = tuple(p[1] for p in pairs)
    return validate_instance(
        Instance(n=n, k=k, weights=weights, preferences=prefs, suppression=tables,
                 lower_bounds=lower, upper_bounds=upper)
    )


@st.composite
def wide_instances(draw, max_n=3, min_k=5, max_k=8, pref_max=9, max_states=2048):
    """An instance over many campaigns whose DP box stays small.

    Each upper bound is drawn from 0 up to the largest value that keeps
    ``prod(upper + 1)`` within ``max_states``, so zero uppers fall between
    active campaigns, and every campaign after the box fills has upper 0.
    """
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(min_k, max_k))
    weights = tuple(draw(st.integers(1, 5)) for _ in range(k))
    prefs = tuple(tuple(draw(st.integers(0, pref_max)) for _ in range(k)) for _ in range(n))
    tables = tuple(_table(draw, draw(st.sampled_from(FAMILIES)), k) for _ in range(n))
    upper, states = [], 1
    for _ in range(k):
        upper.append(draw(st.integers(0, min(n, max_states // states - 1))))
        states *= upper[-1] + 1
    lower = tuple(draw(st.integers(0, u)) for u in upper)
    return validate_instance(
        Instance(n=n, k=k, weights=weights, preferences=prefs, suppression=tables,
                 lower_bounds=lower, upper_bounds=tuple(upper))
    )


@st.composite
def sparse_instances(draw, pref_max=9, max_n=4, min_k=5, max_k=8, max_states=512):
    """An instance over many campaigns whose rows are mostly zero-score subsets.

    Each row is *sparse* (an indicator table at ``h`` 1 or 2, and a nonzero
    preference in at most two campaigns), as a reduced 3-CNF's rows are, or
    *dense* (a grid table and every preference drawn), so sparse and dense
    layers mix in one sweep.  Upper bounds are mostly positive, so many
    campaigns are active; up to two trailing campaigns have upper 0, and the
    box stays within ``max_states``.
    """
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(min_k, max_k))
    trailing = draw(st.integers(0, 2))
    weights = tuple(draw(st.integers(1, 5)) for _ in range(k))
    prefs, tables = [], []
    for _ in range(n):
        if draw(st.booleans()) or draw(st.booleans()):
            nonzero = draw(st.sets(st.integers(0, k - 1), max_size=2))
            prefs.append(tuple(
                draw(st.integers(0, pref_max)) if j in nonzero else 0 for j in range(k)
            ))
            tables.append(SuppressionTable.indicator(draw(st.integers(1, 2)), k))
        else:
            prefs.append(tuple(draw(st.integers(0, pref_max)) for _ in range(k)))
            tables.append(_table(draw, "grid", k))
    upper, states = [], 1
    for j in range(k):
        high = 0 if j >= k - trailing else min(n, max_states // states - 1)
        upper.append(draw(st.integers(min(1, high), high)))
        states *= upper[-1] + 1
    lower = tuple(draw(st.integers(0, u)) for u in upper)
    return validate_instance(
        Instance(n=n, k=k, weights=weights, preferences=tuple(prefs), suppression=tuple(tables),
                 lower_bounds=lower, upper_bounds=tuple(upper))
    )


@st.composite
def instance_matrix_pairs(draw, **kwargs):
    """An instance plus an arbitrary (not necessarily feasible) binary matrix."""
    inst = draw(instances(**kwargs))
    rows = tuple(
        tuple(draw(st.integers(0, 1)) for _ in range(inst.k)) for _ in range(inst.n)
    )
    return inst, AssignmentMatrix(rows)


@st.composite
def feasible_pairs(draw, **kwargs):
    """An instance plus a feasible matrix, built column by column."""
    inst = draw(instances(**kwargs))
    rows = [[0] * inst.k for _ in range(inst.n)]
    for j in range(inst.k):
        count = draw(st.integers(inst.lower_bounds[j], inst.upper_bounds[j]))
        order = draw(st.permutations(range(inst.n)))
        for i in order[:count]:
            rows[i][j] = 1
    return inst, AssignmentMatrix.from_rows(rows)


def random_formula(seed: int, num_vars: int, num_clauses: int) -> CnfFormula:
    """A valid random 3-CNF formula (not necessarily satisfiable)."""
    rng = random.Random(seed)
    triples = _clause_variables(rng, num_vars, num_clauses)
    clauses = tuple(
        tuple(v if rng.random() < 0.5 else -v for v in triple) for triple in triples
    )
    return validate_formula(CnfFormula(num_vars=num_vars, clauses=clauses))


def sat_brute_force(formula: CnfFormula) -> BooleanAssignment | None:
    """Lexicographically smallest satisfying assignment, or None.

    The independent oracle for the reduction's satisfiable <=> threshold
    equivalence; it tries all 2^num_vars assignments.
    """
    l = formula.num_vars
    for code in range(1 << l):
        assignment = tuple(bool((code >> (l - 1 - i)) & 1) for i in range(l))
        if satisfies(formula, assignment):
            return assignment
    return None


def random_feasible_matrix(seed: int, inst: Instance) -> AssignmentMatrix:
    """A uniform-ish feasible matrix: per campaign, a random in-bounds column.

    Each campaign independently draws a column sum within its bounds and
    assigns that many distinct customers, so feasibility holds by
    construction.
    """
    rng = random.Random(seed)
    rows = [[0] * inst.k for _ in range(inst.n)]
    for j in range(inst.k):
        count = rng.randint(inst.lower_bounds[j], inst.upper_bounds[j])
        for i in rng.sample(range(inst.n), count):
            rows[i][j] = 1
    return AssignmentMatrix.from_rows(rows)
