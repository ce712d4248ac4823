"""From 3-CNF satisfiability to multicampaign assignment, and back.

Given a 3-CNF formula with ``l`` variables and ``m`` clauses (every clause
three distinct variables, every variable used somewhere), :func:`reduce_3sat`
builds an instance whose optimum answers satisfiability (a
:class:`CnfFormula` that exists is valid: in that class, with ``int`` literals):

* customers, in order: ``u_1, u_1', ..., u_l, u_l'`` for the variables, then
  ``s_1, s_1', s_1'', ..., s_m, s_m', s_m''`` for the clauses (``n = 2l+3m``);
* campaigns, in order: one per clause ``C_1..C_m``, then one per variable
  ``x_1..x_l`` (``k = m + l``);
* every campaign weight is 1; preferences are powers of ten chosen so each
  campaign column owns one decimal digit: column ``C_j`` pays ``10^(j-1)``
  (to ``s_j, s_j', s_j''`` and to the ``u``/``u'`` customers of its three
  literals), column ``x_i`` pays ``10^(m+i-1)`` to ``u_i`` and ``u_i'``;
* suppression tables are indicators: the ``s`` customers respond only at
  ``h = 1``, while ``u_i`` responds only at ``h = alpha_i`` — one variable
  campaign plus every clause containing the literal ``x_i`` (``alpha_i'``
  and ``u_i'`` likewise for ``~x_i``);
* both capacity bound vectors equal ``(4, ..., 4, 1, ..., 1)``, and the
  threshold ``t`` is the base-10 number with exactly those digits
  (clause campaigns least significant).

The formula is satisfiable if and only if some feasible matrix reaches
fitness ``t``, and no feasible matrix can exceed ``t``.
:func:`embed_assignment` turns a satisfying assignment into a matrix with
fitness exactly ``t``; :func:`extract_assignment` inverts the construction,
double-checking the structural facts that make the inversion sound (see
:func:`property_failures`).

A reduced instance describes itself: :func:`recover_reduction` rebuilds the
layout, formula and threshold from the instance alone, so the sidecar
(:func:`sidecar_dict`) is a derived copy that readers check, never read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    AssignmentMatrix,
    GuardExceededError,
    Instance,
    InternalCheckError,
    PreconditionError,
    SuppressionTable,
    ValidationError,
    check_feasibility,
    check_tuple,
    evaluate_fitness,
)
from .io import parse_int

BooleanAssignment = tuple[bool, ...]

# reduce_3sat builds n * k = (2l + 3m)(m + l) preference cells, quadratic in
# the formula; above this many it refuses before building any, and so does
# generate.random_instance.  Read at call time; SATLIB's uf100-430 needs 789,700
REDUCTION_CELL_LIMIT = 10**6


@dataclass(frozen=True)
class CnfFormula:
    """A 3-CNF formula; clauses hold signed 1-based variable numbers (``int``).

    Construction runs :func:`validate_formula` and converts nothing, so a
    ``CnfFormula`` that exists is valid.
    """

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        validate_formula(self)


def validate_formula(formula: CnfFormula) -> CnfFormula:
    """Enforce the input class the reduction is defined on.

    Every :class:`CnfFormula` runs this when it is built.  The variable count
    and the literals must be ``int`` (``bool`` is not one) and the clauses a
    tuple of tuples; every clause must
    mention exactly three distinct variables in range, no clause may contain a
    variable and its negation, and every variable must appear in a clause.
    """
    if type(formula.num_vars) is not int:
        raise ValidationError(f"num_vars must be an integer, got {formula.num_vars!r}")
    if formula.num_vars < 1:
        raise ValidationError(f"formula must have at least one variable, got {formula.num_vars}")
    check_tuple(formula.clauses, "clauses")
    seen = set()
    for idx, clause in enumerate(formula.clauses, start=1):
        check_tuple(clause, f"clause {idx}")
        if len(clause) != 3:
            raise ValidationError(f"clause {idx} has {len(clause)} literals, expected 3")
        for lit in clause:
            if type(lit) is not int:
                raise ValidationError(f"clause {idx}: literal {lit!r} must be an integer")
        variables = set()
        for lit in clause:
            v = abs(lit)
            if lit == 0 or v > formula.num_vars:
                raise ValidationError(f"clause {idx}: literal {lit} out of range")
            if -lit in clause:
                raise ValidationError(
                    f"clause {idx} is tautological: contains both {v} and its negation"
                )
            variables.add(v)
        if len(variables) != 3:
            raise ValidationError(f"clause {idx} repeats a variable")
        seen |= variables
    for v in range(1, formula.num_vars + 1):
        if v not in seen:
            raise ValidationError(f"variable {v} appears in no clause")
    return formula


def satisfies(formula: CnfFormula, assignment: Sequence[bool]) -> bool:
    """Whether ``assignment`` (``x_1`` first, each a ``bool``) satisfies every clause."""
    if len(assignment) != formula.num_vars:
        raise ValidationError(
            f"assignment has {len(assignment)} values for {formula.num_vars} variables"
        )
    for i, value in enumerate(assignment, start=1):
        if type(value) is not bool:
            raise ValidationError(f"assignment value of x{i} must be true or false, got {value!r}")
    return all(
        any((lit > 0) == assignment[abs(lit) - 1] for lit in clause)
        for clause in formula.clauses
    )


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF ("p cnf <vars> <clauses>", 0-terminated clauses).

    Header counts and literals are integers under :func:`mcap.io.parse_int`.
    A ``%`` line ends the clause data, so the SATLIB trailer (``%`` then
    ``0``) is ignored.
    """
    header: tuple[int, ...] | None = None
    tokens: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ValidationError("multiple header lines")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise ValidationError(f"malformed header line {line!r}")
            header = tuple(parse_int(part, "a header count") for part in parts[2:])
            continue
        if header is None:
            raise ValidationError("clause data before the 'p cnf' header")
        tokens.extend(parse_int(tok, "a literal") for tok in line.split())
    if header is None:
        raise ValidationError("missing 'p cnf' header")
    num_vars, num_clauses = header
    if num_vars < 1 or num_clauses < 1:
        raise ValidationError("header must declare at least one variable and one clause")

    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            clauses.append(tuple(current))
            current = []
        else:
            current.append(tok)
    if current:
        raise ValidationError("last clause is not 0-terminated")
    if len(clauses) != num_clauses:
        raise ValidationError(
            f"header declares {num_clauses} clauses, found {len(clauses)}"
        )

    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def format_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    lines.extend(" ".join(str(lit) for lit in cl) + " 0" for cl in formula.clauses)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReductionLayout:
    """Who is who in a reduced instance.

    Customer order: ``u_1, u_1', ..., u_l, u_l'`` then ``s_1, s_1', s_1'',
    ...``; campaign order: ``C_1..C_m`` then ``x_1..x_l``.  ``alphas[i-1]``
    is the unique recommendation count at which ``u_i`` responds, and
    ``alphas_prime`` the same for ``u_i'``.
    """

    num_vars: int
    num_clauses: int
    alphas: tuple[int, ...]
    alphas_prime: tuple[int, ...]

    @property
    def customers(self) -> tuple[str, ...]:
        names = []
        for i in range(1, self.num_vars + 1):
            names += [f"u{i}", f"u{i}'"]
        for j in range(1, self.num_clauses + 1):
            names += [f"s{j}", f"s{j}'", f"s{j}''"]
        return tuple(names)

    @property
    def campaigns(self) -> tuple[str, ...]:
        return tuple(f"C{j}" for j in range(1, self.num_clauses + 1)) + tuple(
            f"x{i}" for i in range(1, self.num_vars + 1)
        )

    # customer indices (variables and clauses are 1-based, copies 0-based)
    @staticmethod
    def literal_index(lit: int) -> int:
        """``u_i`` for the literal ``x_i`` (``lit = i``), ``u_i'`` for ``~x_i`` (``-i``)."""
        return 2 * (abs(lit) - 1) + (lit < 0)

    def s_index(self, j: int, copy: int) -> int:
        return 2 * self.num_vars + 3 * (j - 1) + copy

    # campaign indices
    @staticmethod
    def clause_column(j: int) -> int:
        return j - 1

    def variable_column(self, i: int) -> int:
        return self.num_clauses + i - 1


@dataclass(frozen=True)
class ReducedInstance:
    instance: Instance
    layout: ReductionLayout
    formula: CnfFormula

    @property
    def threshold(self) -> int:
        """The capacity vector read as base-10 digits, clause campaigns least significant."""
        return sum(b * 10**j for j, b in enumerate(self.instance.lower_bounds))


def reduce_3sat(formula: CnfFormula) -> ReducedInstance:
    """Build the assignment instance whose optimum decides the formula.

    Raises :class:`GuardExceededError` before building anything when the
    instance's ``n * k`` preference cells exceed :data:`REDUCTION_CELL_LIMIT`.
    """
    l, m = formula.num_vars, len(formula.clauses)
    n, k = 2 * l + 3 * m, m + l
    if n * k > REDUCTION_CELL_LIMIT:
        raise GuardExceededError(
            f"the reduction needs {n} customers x {k} campaigns = {n * k} cells, "
            f"over the {REDUCTION_CELL_LIMIT} limit"
        )

    # the row count at which each literal customer (the first 2l) responds
    responds_at = [1] * (2 * l)
    for clause in formula.clauses:
        for lit in clause:
            responds_at[ReductionLayout.literal_index(lit)] += 1
    layout = ReductionLayout(l, m, tuple(responds_at[0::2]), tuple(responds_at[1::2]))

    prefs = [[0] * k for _ in range(n)]
    for i in range(1, l + 1):
        col = layout.variable_column(i)
        for lit in (i, -i):
            prefs[layout.literal_index(lit)][col] = 10 ** col
    for j, clause in enumerate(formula.clauses, start=1):
        col = layout.clause_column(j)
        pay = 10 ** col
        for lit in clause:
            prefs[layout.literal_index(lit)][col] = pay
        for copy in range(3):
            prefs[layout.s_index(j, copy)][col] = pay

    suppression = [SuppressionTable.indicator(h, k) for h in responds_at]
    suppression += [SuppressionTable.indicator(1, k)] * (3 * m)

    bounds = (4,) * m + (1,) * l
    inst = Instance(
        n=n,
        k=k,
        weights=(1,) * k,
        preferences=tuple(tuple(row) for row in prefs),
        suppression=tuple(suppression),
        lower_bounds=bounds,
        upper_bounds=bounds,
    )
    return ReducedInstance(instance=inst, layout=layout, formula=formula)


def recover_reduction(inst: Instance) -> ReducedInstance:
    """The reduction ``inst`` is the output of, rebuilt from ``inst`` alone.

    ``n = 2l + 3m`` and ``k = m + l`` fix the layout; a clause holds the
    literals whose customer has a positive preference in its column, in
    variable order.  Raises :class:`ValidationError` unless reducing that
    formula gives back ``inst`` exactly.
    """
    l, m = 3 * inst.k - inst.n, inst.n - 2 * inst.k
    if l < 1 or m < 1:
        raise ValidationError(f"instance does not match a reduction: {l} variables, {m} clauses")
    clauses = tuple(
        tuple(
            lit
            for i in range(1, l + 1)
            for lit in (i, -i)
            if inst.preferences[ReductionLayout.literal_index(lit)][j] > 0
        )
        for j in range(m)  # clause columns come first
    )
    try:
        red = reduce_3sat(CnfFormula(num_vars=l, clauses=clauses))
    except ValidationError as exc:
        raise ValidationError(f"instance does not match a reduction: {exc}") from exc
    if red.instance != inst:
        raise ValidationError(
            "instance does not match the reduction of the formula its preferences encode"
        )
    return red


def embed_assignment(red: ReducedInstance, assignment: Sequence[bool]) -> AssignmentMatrix:
    """Matrix with fitness exactly ``threshold`` from a satisfying assignment.

    ``u_i`` (or ``u_i'`` when ``x_i`` is false) takes its variable column and
    every clause column where its literal is true; clause columns are then
    topped up to four recommendations using ``s_j, s_j', s_j''`` in that
    order.  As in :func:`satisfies`, every value must be a ``bool``.
    """
    formula = red.formula
    if not satisfies(formula, assignment):
        for j, clause in enumerate(formula.clauses, start=1):
            if not any((lit > 0) == assignment[abs(lit) - 1] for lit in clause):
                raise PreconditionError(
                    f"assignment does not satisfy the formula: clause {j} is false"
                )
    layout = red.layout
    n, k = red.instance.n, red.instance.k
    rows = [[0] * k for _ in range(n)]
    for i in range(1, layout.num_vars + 1):
        customer = layout.literal_index(i if assignment[i - 1] else -i)
        rows[customer][layout.variable_column(i)] = 1
    for j, clause in enumerate(formula.clauses, start=1):
        col = layout.clause_column(j)
        true_literals = 0
        for lit in clause:
            if (lit > 0) == assignment[abs(lit) - 1]:
                rows[layout.literal_index(lit)][col] = 1
                true_literals += 1
        for copy in range(4 - true_literals):
            rows[layout.s_index(j, copy)][col] = 1
    return AssignmentMatrix.from_rows(rows)


def property_failures(red: ReducedInstance, matrix: AssignmentMatrix) -> list[str]:
    """Structural facts every feasible threshold-reaching matrix must obey.

    Checked: (1) set cells sit on positive preferences only; (2) every
    recommended customer has suppression value exactly 1 at its row count;
    (3) each row takes either all of its positive-preference cells or none;
    and each variable column recommends exactly one of ``u_i``, ``u_i'``.
    Returns human-readable descriptions of any violations.
    """
    layout = red.layout
    inst = red.instance
    failures = []
    counts = matrix.row_sums()
    names = layout.customers
    for i, row in enumerate(matrix.entries):
        name = names[i]
        positive = {j for j in range(inst.k) if inst.preferences[i][j] > 0}
        chosen = {j for j in range(inst.k) if row[j] == 1}
        if not chosen <= positive:
            bad = min(chosen - positive)
            failures.append(
                f"{name} is recommended in campaign {layout.campaigns[bad]} "
                "but has zero preference there"
            )
        if chosen and inst.suppression[i][counts[i]] != 1:
            failures.append(
                f"{name} is recommended {counts[i]} time(s) where its "
                "suppression value is not 1"
            )
        if chosen and chosen != positive:
            failures.append(
                f"{name} takes only part of its positive-preference cells"
            )
    for i in range(1, layout.num_vars + 1):
        col = layout.variable_column(i)
        u = matrix.entries[layout.literal_index(i)][col]
        up = matrix.entries[layout.literal_index(-i)][col]
        if u + up != 1:
            failures.append(
                f"column x{i} must recommend exactly one of u{i}, u{i}'"
            )
    return failures


def extract_assignment(red: ReducedInstance, matrix: AssignmentMatrix) -> BooleanAssignment:
    """Read a satisfying assignment off a feasible matrix with fitness >= t.

    ``x_i`` is true exactly when ``u_i`` is recommended in its variable
    column.  The preconditions (feasibility, fitness) are enforced; the
    structural checks of :func:`property_failures` and a final clause-level
    verification are run as internal consistency guards, since the
    construction makes them impossible to fail.
    """
    inst = red.instance
    report = check_feasibility(inst, matrix)
    if not report.feasible:
        raise PreconditionError(
            f"matrix is infeasible for the reduced instance: {report.violations}"
        )
    fitness = evaluate_fitness(inst, matrix)
    if fitness < red.threshold:
        raise PreconditionError(
            f"fitness {fitness} is below the threshold {red.threshold}"
        )
    failures = property_failures(red, matrix)
    if failures:
        raise InternalCheckError(
            "matrix reaches the threshold but breaks reduction structure: "
            + "; ".join(failures)
        )
    layout = red.layout
    assignment = tuple(
        matrix.entries[layout.literal_index(i)][layout.variable_column(i)] == 1
        for i in range(1, layout.num_vars + 1)
    )
    if not satisfies(red.formula, assignment):
        raise InternalCheckError("extracted assignment fails the formula")
    return assignment


def sidecar_dict(red: ReducedInstance) -> dict:
    """Companion object for a written reduced instance: threshold + layout."""
    layout = red.layout
    return {
        "threshold": str(red.threshold),
        "num_vars": layout.num_vars,
        "num_clauses": layout.num_clauses,
        "customers": list(layout.customers),
        "campaigns": list(layout.campaigns),
        "alphas": list(layout.alphas),
        "alphas_prime": list(layout.alphas_prime),
    }
