"""Domain types and exact evaluation for multicampaign assignment.

A problem instance assigns each of ``n`` customers to some subset of ``k``
campaigns.  Customer ``i`` carries an integer preference ``p[i][j]`` for each
campaign ``j`` and a response suppression table ``r_i``: when the customer
receives ``h`` recommendations in total, every one of their preferences is
scaled by ``r_i(h)``.  Campaign ``j`` has an integer weight ``w[j]`` and its
column sum in the assignment matrix must lie in ``[lower_bounds[j],
upper_bounds[j]]``.

The fitness of an assignment matrix ``M`` is

    F(M) = sum_j sum_i  w[j] * r_i(h_i) * p[i][j] * M[i][j],
    h_i  = sum_j M[i][j].

All arithmetic here is exact: preferences and weights are arbitrary-precision
integers, suppression values and fitness are ``fractions.Fraction``.  There is
deliberately no floating point in this module; downstream solvers compare
fitness values for exact equality against thresholds with dozens of digits.
:func:`evaluate_fitness` sums in integers over the least common multiple of
the denominators of the rates a matrix uses and builds one ``Fraction``.
:attr:`Instance.scaled` holds the integer scores every solver works with,
built once per instance and kept; the evaluation does not read it, so it
checks the solvers independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, cycle
from math import lcm
from operator import mul
from typing import Iterable, Sequence


# for the one-call checks: ``issuperset`` walks an iterable in C, stops at
# the first miss and builds no set
_INT = frozenset({int})
_RATE_TYPES = frozenset({int, Fraction})
_BITS = frozenset({0, 1})


class McapError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(McapError):
    """Input data breaks a structural invariant (instance, matrix, or file)."""


class InfeasibleError(McapError):
    """A matrix violates capacity bounds where feasibility is required."""


class GuardExceededError(McapError):
    """A size guard was hit; the requested computation would be too large."""


class PreconditionError(McapError):
    """An operation was invoked outside its supported input class."""


class InternalCheckError(McapError):
    """A self-check that should be impossible to fail has failed."""


def check_tuple(value, what: str) -> None:
    """Raise :class:`ValidationError` unless ``value`` is a ``tuple``.

    Domain values hold tuples, so they are immutable, hashable and equal to
    their twins; a list is refused, not converted.
    """
    if not isinstance(value, tuple):
        raise ValidationError(f"{what} must be a tuple, got {type(value).__name__}")


def check_int(value, what: str) -> int:
    """Return ``value``; raise :class:`ValidationError` unless it is an ``int`` (not ``bool``)."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class SuppressionTable:
    """Response multipliers ``r(0), r(1), ..., r(max_h)`` for one customer.

    ``r(h)`` scales the customer's preferences when they receive ``h``
    recommendations; ``r(0) = 0`` by convention (an unrecommended customer
    contributes nothing) and every value lies in ``[0, 1]``.  ``values`` must
    be a tuple of ``int`` or ``Fraction``; construction raises
    :class:`ValidationError` on anything else (a list, a float, a string, a
    bool).
    """

    values: tuple[Fraction | int, ...]

    def __post_init__(self) -> None:
        check_tuple(self.values, "suppression values")
        # one check for the whole table; the loop names the first bad value
        if _RATE_TYPES.issuperset(map(type, self.values)):
            return
        for v in self.values:
            if type(v) is not int and not isinstance(v, Fraction):
                raise ValidationError(f"suppression value {v!r} is not an int or a Fraction")

    def __getitem__(self, h: int) -> Fraction | int:
        return self.values[h]

    def __len__(self) -> int:
        return len(self.values)

    def is_constant_above_zero(self) -> bool:
        """True when r(1) = r(2) = ... = r(max_h)."""
        tail = self.values[1:]
        return all(v == tail[0] for v in tail)

    @classmethod
    def constant(cls, value: Fraction | int, max_h: int) -> "SuppressionTable":
        return cls((Fraction(0),) + (value,) * max_h)

    @classmethod
    def indicator(cls, active_h: int, max_h: int) -> "SuppressionTable":
        """Table that is 1 exactly at ``active_h`` and 0 elsewhere."""
        if not 1 <= active_h <= max_h:
            raise ValidationError(f"indicator position {active_h} outside 1..{max_h}")
        # two value objects, not one per entry: a reduced instance holds a
        # million entries
        zero, one = Fraction(0), Fraction(1)
        return cls(tuple(one if h == active_h else zero for h in range(max_h + 1)))


@dataclass(frozen=True)
class Instance:
    """A full multicampaign assignment instance.

    Construction checks every invariant with :func:`validate_instance` and
    converts nothing, so an ``Instance`` that exists is valid.  Every field
    holds tuples, as annotated, so instances are immutable, hashable and safe
    to share across concurrent solver invocations.
    """

    n: int
    k: int
    weights: tuple[int, ...]
    preferences: tuple[tuple[int, ...], ...]
    suppression: tuple[SuppressionTable, ...]
    lower_bounds: tuple[int, ...]
    upper_bounds: tuple[int, ...]

    def __post_init__(self) -> None:
        validate_instance(self)

    @cached_property
    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """The instance's scores as exact integers: ``(scale, rates, weighted)``.

        ``scale`` is the least common denominator of every suppression value,
        ``rates[i][h] = r_i(h) * scale`` and ``weighted[i][j] = w_j * p_ij``, so
        a row holding ``h`` cells of weighted sum ``v`` scores ``rates[i][h] *
        v``, its fitness times ``scale``.  Computed on first use and kept on
        the instance; it is no dataclass field, so equality, hashing and
        ``repr`` ignore it, and ``dataclasses.replace`` computes it afresh.
        """
        # one conversion per distinct value object: a read instance shares
        # one Fraction per distinct literal.  Keyed by id, since hashing a
        # Fraction runs Python code; every value lives on this instance, so
        # no id is reused while the dict is alive
        distinct = {id(v): v for t in self.suppression for v in t.values}
        scale = lcm(*{v.denominator for v in distinct.values()})
        # scale is a multiple of every denominator, so this is int(v * scale)
        # without a Fraction multiply
        scaled = {key: v.numerator * (scale // v.denominator) for key, v in distinct.items()}
        # every table has k + 1 values and every row k preferences: each
        # matrix is one flat pass, chunked into rows
        values = chain.from_iterable(t.values for t in self.suppression)
        rates = tuple(zip(*[map(scaled.__getitem__, map(id, values))] * (self.k + 1)))
        cells = chain.from_iterable(self.preferences)
        weighted = tuple(zip(*[map(mul, cycle(self.weights), cells)] * self.k))
        return scale, rates, weighted


@dataclass(frozen=True)
class AssignmentMatrix:
    """An n-by-k binary matrix; ``entries[i][j] = 1`` assigns campaign j to customer i.

    Construction raises :class:`ValidationError` unless ``entries`` is a tuple
    of equal-length tuples whose entries are the ``int`` 0 or 1; it converts
    nothing, so ``True``, ``1.0`` and numpy values are refused, as
    :class:`Instance` refuses them.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        entries = self.entries
        check_tuple(entries, "matrix rows")
        for i, row in enumerate(entries):
            # one check per row; the loop below names the first offending entry
            if (
                type(row) is tuple
                and len(row) == len(entries[0])
                and _INT.issuperset(map(type, row))
                and _BITS.issuperset(row)
            ):
                continue
            check_tuple(row, f"matrix row {i}")
            if len(row) != len(entries[0]):
                raise ValidationError(
                    f"matrix row {i} has {len(row)} entries, row 0 has {len(entries[0])}"
                )
            for j, m in enumerate(row):
                if type(m) is not int or m not in (0, 1):
                    raise ValidationError(f"matrix entry ({i}, {j}) must be 0 or 1, got {m!r}")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def k(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.entries)

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.entries)) if self.entries else ()

    @classmethod
    def zero(cls, n: int, k: int) -> "AssignmentMatrix":
        return cls(tuple((0,) * k for _ in range(n)))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "AssignmentMatrix":
        """The matrix of ``rows``, any iterable of int sequences; only containers change."""
        return cls(tuple(map(tuple, rows)))


@dataclass(frozen=True)
class FeasibilityReport:
    """Column-sum check of a matrix against an instance's capacity bounds."""

    feasible: bool
    column_sums: tuple[int, ...]
    violations: tuple[tuple[int, int, str], ...]  # (campaign, sum, "lower" | "upper")


def validate_instance(inst: Instance) -> Instance:
    """Return ``inst`` unchanged iff every instance invariant holds.

    Every :class:`Instance` runs this when it is built.  Raises
    :class:`ValidationError` naming the first violated invariant, in the
    order: sizes, weights, preferences, suppression tables, bounds.  Sizes,
    weights, preferences and bounds must be ``int`` (``bool`` is not one), and
    every vector, matrix and matrix row a ``tuple``.
    """
    if type(inst.n) is not int or type(inst.k) is not int:
        raise ValidationError(f"n and k must be integers, got {inst.n!r} and {inst.k!r}")
    if inst.n < 1:
        raise ValidationError(f"n must be >= 1, got {inst.n}")
    if inst.k < 1:
        raise ValidationError(f"k must be >= 1, got {inst.k}")
    check_tuple(inst.weights, "weights")
    if len(inst.weights) != inst.k:
        raise ValidationError(f"expected {inst.k} weights, got {len(inst.weights)}")
    for j, w in enumerate(inst.weights):
        if type(w) is not int:
            raise ValidationError(f"campaign {j}: weight must be an integer, got {w!r}")
        if w <= 0:
            raise ValidationError(f"campaign {j}: weight must be positive, got {w}")
    prefs = inst.preferences
    check_tuple(prefs, "preferences")
    if len(prefs) != inst.n:
        raise ValidationError(f"expected {inst.n} preference rows, got {len(prefs)}")
    # one check for the whole matrix (n, k >= 1, so no row is empty); the
    # loop runs only to name the first offending row or cell
    if not (
        set(map(type, prefs)) == {tuple}
        and set(map(len, prefs)) == {inst.k}
        and _INT.issuperset(map(type, chain.from_iterable(prefs)))
        and min(map(min, prefs)) >= 0
    ):
        for i, row in enumerate(prefs):
            check_tuple(row, f"customer {i}: preference row")
            if len(row) != inst.k:
                raise ValidationError(
                    f"customer {i}: expected {inst.k} preferences, got {len(row)}"
                )
            for j, p in enumerate(row):
                if type(p) is not int or p < 0:
                    raise ValidationError(
                        f"customer {i}: preference for campaign {j} must be a nonnegative "
                        f"integer, got {p!r}"
                    )
    check_tuple(inst.suppression, "suppression tables")
    if len(inst.suppression) != inst.n:
        raise ValidationError(
            f"expected {inst.n} suppression tables, got {len(inst.suppression)}"
        )
    # ids of values found in [0, 1]: read and generated instances share one
    # value object per distinct value, so few are checked.  Every value lives
    # on ``inst``, so no id is reused while the set is alive
    checked: set[int] = set()
    for i, table in enumerate(inst.suppression):
        if not isinstance(table, SuppressionTable):
            raise ValidationError(f"customer {i}: {table!r} is not a SuppressionTable")
        values = table.values
        if len(values) != inst.k + 1:
            raise ValidationError(
                f"customer {i}: suppression table must have {inst.k + 1} entries, "
                f"got {len(values)}"
            )
        if values[0] != 0:
            raise ValidationError(f"customer {i}: r(0) must be 0, got {values[0]}")
        if checked.issuperset(map(id, values)):
            continue
        for h, v in enumerate(values):
            # a Fraction's denominator is positive: this is 0 <= v <= 1
            if not 0 <= v.numerator <= v.denominator:
                raise ValidationError(
                    f"customer {i}: suppression value r({h}) = {v} outside [0, 1]"
                )
        checked.update(map(id, values))
    check_tuple(inst.lower_bounds, "lower bounds")
    check_tuple(inst.upper_bounds, "upper bounds")
    if len(inst.lower_bounds) != inst.k or len(inst.upper_bounds) != inst.k:
        raise ValidationError("bound vectors must have one entry per campaign")
    for j in range(inst.k):
        lo, up = inst.lower_bounds[j], inst.upper_bounds[j]
        if type(lo) is not int or type(up) is not int:
            raise ValidationError(f"campaign {j}: bounds must be integers, got {lo!r} and {up!r}")
        if lo < 0:
            raise ValidationError(f"campaign {j}: lower bound must be nonnegative, got {lo}")
        if lo > up:
            raise ValidationError(
                f"campaign {j}: lower bound exceeds upper bound ({lo} > {up})"
            )
        if up > inst.n:
            raise ValidationError(
                f"campaign {j}: upper bound exceeds customer count ({up} > {inst.n})"
            )
    return inst


def check_matrix(inst: Instance, matrix: AssignmentMatrix) -> AssignmentMatrix:
    """Validate that ``matrix`` is dimensioned for ``inst``."""
    if matrix.n != inst.n or matrix.k != inst.k:
        raise ValidationError(
            f"dimension mismatch: instance is {inst.n}x{inst.k}, "
            f"matrix is {matrix.n}x{matrix.k}"
        )
    return matrix


def evaluate_fitness(inst: Instance, matrix: AssignmentMatrix) -> Fraction:
    """Exact fitness F(M) of the matrix for the instance.

    Runs in O(n * k): each nonempty row contributes ``r_i(h_i)`` times the
    sum ``v_i`` of ``w[j] * p[i][j]`` over its assigned cells.  The sum is
    taken in integers over ``L``, the least common multiple of the
    denominators of the rates used, and ``Fraction(sum(r_i(h_i) * L * v_i),
    L)`` is built once.  It reads the instance's fields only, never
    :attr:`Instance.scaled`, so it checks the solvers' scaled totals
    independently.
    """
    check_matrix(inst, matrix)
    weights = inst.weights
    terms = []
    for row, prefs, table in zip(matrix.entries, inst.preferences, inst.suppression):
        h = sum(row)
        if h:
            terms.append((table.values[h], sum(compress(map(mul, weights, prefs), row))))
    scale = lcm(*{r.denominator for r, _ in terms})
    return Fraction(sum(r.numerator * (scale // r.denominator) * v for r, v in terms), scale)


def check_feasibility(inst: Instance, matrix: AssignmentMatrix) -> FeasibilityReport:
    """Compare the matrix's column sums against the instance's capacity bounds."""
    check_matrix(inst, matrix)
    sums = matrix.column_sums()
    violations = []
    for j, s in enumerate(sums):
        if s < inst.lower_bounds[j]:
            violations.append((j, s, "lower"))
        elif s > inst.upper_bounds[j]:
            violations.append((j, s, "upper"))
    return FeasibilityReport(
        feasible=not violations, column_sums=sums, violations=tuple(violations)
    )
