"""Seeded random generation of instances and planted formulas.

There is no published benchmark data for this problem, so test corpora are
generated explicitly.  Everything here is a pure function of its seed: two
calls with equal arguments return equal objects, byte-for-byte once written.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Callable
from fractions import Fraction

from . import reduction
from .core import GuardExceededError, Instance, SuppressionTable, ValidationError, check_int
from .reduction import BooleanAssignment, CnfFormula

SUPPRESSION_FAMILIES = ("constant", "indicator", "linear", "grid")
BOUND_STYLES = ("random", "unbounded")


def _random_suppression(
    rng: random.Random,
    family: str,
    k: int,
    grid: int,
    level: Callable[[int], Fraction],
    linear: SuppressionTable,
) -> SuppressionTable:
    # level(q) is the shared Fraction q / grid
    if family == "constant":
        return SuppressionTable.constant(level(rng.randint(0, grid)), k)
    if family == "indicator":
        return SuppressionTable.indicator(rng.randint(1, k), k)
    if family == "linear":
        return linear
    if family == "grid":
        return SuppressionTable(
            (level(0),) + tuple(level(rng.randint(0, grid)) for _ in range(k))
        )
    raise ValidationError(
        f"unknown suppression family {family!r}; expected one of {SUPPRESSION_FAMILIES}"
    )


def random_instance(
    seed: int,
    n: int,
    k: int,
    pref_max: int = 9,
    weight_max: int = 5,
    family: str = "grid",
    grid: int = 4,
    bounds: str = "random",
) -> Instance:
    """A validated random instance.

    ``bounds="random"`` draws each campaign's pair uniformly from valid
    ``0 <= lower <= upper <= n``; ``bounds="unbounded"`` fixes them to
    ``[0, n]`` (the class :func:`mcap.solvers.solve_unbounded` accepts).

    The sizes must be ``int``.  Raises :class:`GuardExceededError` before any
    draw when ``n * k`` exceeds :data:`mcap.reduction.REDUCTION_CELL_LIMIT`,
    the largest instance the reduction writes.
    """
    if bounds not in BOUND_STYLES:
        raise ValidationError(f"unknown bound style {bounds!r}; expected one of {BOUND_STYLES}")
    # indicator tables draw their position from [1, k], so k is checked here too
    for name, value, least in (
        ("n", n, 1), ("k", k, 1), ("pref_max", pref_max, 0), ("weight_max", weight_max, 1),
        ("grid", grid, 1),
    ):
        if check_int(value, name) < least:
            raise ValidationError(f"{name} must be >= {least}, got {value}")
    if n * k > reduction.REDUCTION_CELL_LIMIT:
        raise GuardExceededError(
            f"{n} customers x {k} campaigns = {n * k} cells, "
            f"over the {reduction.REDUCTION_CELL_LIMIT} limit"
        )
    rng = random.Random(seed)
    weights = tuple(rng.randint(1, weight_max) for _ in range(k))
    prefs = tuple(tuple(rng.randint(0, pref_max) for _ in range(k)) for _ in range(n))
    # one Fraction per distinct level and one linear table, not one per cell:
    # validation and Instance.scaled then handle each value object once.  The
    # linear table draws nothing, so sharing it leaves every draw in place
    level = functools.cache(lambda q: Fraction(q, grid))
    # full response for one recommendation, decaying linearly to 1/k
    linear = SuppressionTable((Fraction(0),) + tuple(Fraction(h, k) for h in range(k, 0, -1)))
    suppression = tuple(
        _random_suppression(rng, family, k, grid, level, linear) for _ in range(n)
    )
    if bounds == "unbounded":
        lower, upper = (0,) * k, (n,) * k
    else:
        pairs = [sorted((rng.randint(0, n), rng.randint(0, n))) for _ in range(k)]
        lower = tuple(p[0] for p in pairs)
        upper = tuple(p[1] for p in pairs)
    return Instance(
        n=n,
        k=k,
        weights=weights,
        preferences=prefs,
        suppression=suppression,
        lower_bounds=tuple(lower),
        upper_bounds=tuple(upper),
    )


def _clause_variables(rng: random.Random, num_vars: int, num_clauses: int) -> list[list[int]]:
    """Variable triples covering every variable at least once."""
    if num_vars < 3:
        raise ValidationError(f"need at least 3 variables for 3-literal clauses, got {num_vars}")
    if 3 * num_clauses < num_vars:
        raise ValidationError(
            f"{num_clauses} clauses cannot mention all {num_vars} variables"
        )
    order = list(range(1, num_vars + 1))
    rng.shuffle(order)
    triples = []
    for start in range(0, num_vars, 3):
        chunk = order[start : start + 3]
        while len(chunk) < 3:
            extra = rng.randint(1, num_vars)
            if extra not in chunk:
                chunk.append(extra)
        triples.append(chunk)
    while len(triples) < num_clauses:
        triples.append(rng.sample(range(1, num_vars + 1), 3))
    return triples[:num_clauses]


def random_planted_formula(
    seed: int, num_vars: int, num_clauses: int
) -> tuple[CnfFormula, BooleanAssignment]:
    """A random formula together with an assignment planted to satisfy it.

    One literal per clause is signed to agree with the planted assignment;
    the other two are signed at random.  The sizes must be ``int``.
    """
    check_int(num_vars, "num_vars")
    check_int(num_clauses, "num_clauses")
    rng = random.Random(seed)
    planted = tuple(rng.random() < 0.5 for _ in range(num_vars))
    triples = _clause_variables(rng, num_vars, num_clauses)
    clauses = []
    for triple in triples:
        anchor = rng.randrange(3)
        clause = []
        for pos, v in enumerate(triple):
            if pos == anchor:
                clause.append(v if planted[v - 1] else -v)
            else:
                clause.append(v if rng.random() < 0.5 else -v)
        clauses.append(tuple(clause))
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses)), planted
