"""Learning the inputs: response suppression tables from history.

A response history counts single-campaign outcomes, which are added up per
customer category; within a category, a responder should look more
attractive than a non-responder after suppression.  For every campaign and
every (responder ``i``, non-responder ``j``) pair this yields one strict
condition ``p_i * r(h_i) > p_j * r(h_j)``, and :func:`fit_suppression`
searches a grid-valued table for ``r`` that satisfies as many conditions as
possible.  A condition mentions two levels ``h >= 1`` only (``r(0) = 0``), so
the satisfied count is a sum over pairs ``(h_i, h_j)`` of ``(grid+1) x
(grid+1)`` tables, built once per fit from the sorted outcome counts without
listing a pair; small spaces are enumerated in one gather, and a hill-climb
step scores every value of one level ``r(h)`` by slices.  The categories come
from the caller's labels (:func:`fit_categories`).

Everything is deterministic: the fit's random starts come from a fixed seed,
and condition evaluation is exact integer arithmetic (a grid value ``q/Q``
satisfies ``p_i*q_i > p_j*q_j`` independently of ``Q``).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .core import GuardExceededError, SuppressionTable, ValidationError
from .io import parse_int

CustomerId = int | str
CampaignId = int | str

DEFAULT_GRID = 20

# up to this many candidate tables the fit enumerates them all instead of
# hill climbing, making small fits exactly optimal
EXHAUSTIVE_SPACE = 4096

# the fit's level tables hold max_h^2 * (grid + 1)^2 cells, one per pair of
# levels 1..max_h and pair of grid values, and each step of their build works
# on distinct responder (campaign, preference) x max_h x (grid + 1), linear in
# the input; a fit over either is refused up front.  A climb pass slices
# max_h x (grid + 1) x (2 * max_h - 1) cells, the pairs that mention each
# level it moves, so it does at most about twice the table's cells of work
TABLE_CELL_LIMIT = 10**7

# above EXHAUSTIVE_SPACE the climb starts from the all-ones table and from
# this many random starts drawn from random.Random(0)
RESTARTS = 3


# a customer recommended h campaigns in total did (not) respond to campaign
Outcome = tuple[CampaignId, int, int, bool]  # (campaign, preference, h, responded)


def _check_int(value, what: str) -> int:
    """Return ``value``; raise :class:`ValidationError` unless it is an ``int`` (not ``bool``)."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _check_outcome(preference, h, responded) -> None:
    """Raise :class:`ValidationError` unless an outcome's fields are valid.

    ``preference`` and ``h`` must be integers, ``responded`` a ``bool``.
    """
    if type(preference) is not int or type(h) is not int:
        raise ValidationError(f"preference and h must be integers, got {preference!r} and {h!r}")
    if preference < 0:
        raise ValidationError("preference must be nonnegative")
    if h < 1:
        raise ValidationError(f"h must be >= 1, got {h}")
    if not isinstance(responded, bool):
        raise ValidationError(f"responded must be true or false, got {responded!r}")


@dataclass(frozen=True)
class FitResult:
    table: SuppressionTable
    satisfied: int
    total: int


def _tables(counts: Mapping[Outcome, int], max_h: int, grid: int) -> np.ndarray:
    """Pairwise level tables: the satisfied count of a fit is a sum of lookups.

    ``tables[a - 1, b - 1, x, y]`` counts the responder/non-responder pairs
    of a campaign at ``h = a`` and ``h = b`` with ``p_i * x > p_j * y`` (read
    on the diagonal ``x == y`` only when ``a == b``); ``r(0) = 0`` has none.
    No pair is listed; they are counted by sorting, as in Knight's method for
    Kendall's tau.  The non-responders are sorted by ``(campaign rank * max_h
    + h - 1) * (top + 1) + p``, a block of keys per campaign and level, with
    cumulative counts.  For each ``x`` one ``searchsorted`` counts, for each
    distinct responder ``(campaign, p)`` and block, the keys up to ``min((p*x
    - 1) // y, top)`` (for ``y == 0``, the whole block when ``p*x > 0``), and
    the responders' counts per level times those fill ``tables[:, :, x]``.
    Entries are int64 when every key, product ``p * x``, each side's count
    sum and their product fit, and Python integers (``dtype=object``) if not.
    """
    top = max((preference for _, preference, _, _ in counts), default=0)
    ranks: dict[CampaignId, int] = {}
    yes: dict[tuple[int, int], list[int]] = {}
    no = []
    for (campaign, preference, h, responded), count in counts.items():
        rank = ranks.setdefault(campaign, len(ranks))
        if responded:
            yes.setdefault((rank, preference), [0] * max_h)[h - 1] += count
        else:
            no.append(((rank * max_h + h - 1) * (top + 1) + preference, count))
    no.sort()
    yes_total, no_total = sum(map(sum, yes.values())), sum(count for _, count in no)
    key_end = len(ranks) * max_h * (top + 1)
    largest = max(key_end, top * grid, yes_total, no_total, yes_total * no_total)
    dtype = np.int64 if largest < 2**63 else object
    keys = np.array([key for key, _ in no], dtype=dtype)
    cumulative = np.array([0, *(count for _, count in no)], dtype=dtype).cumsum()
    weights = np.array(list(yes.values()), dtype=dtype).reshape(-1, max_h).T
    column_rank, column_p = np.array(list(yes), dtype=dtype).reshape(-1, 2).T
    # base[b - 1, column] is the first key of the column's block at level b
    base = (column_rank * max_h + np.arange(max_h)[:, None]) * (top + 1)
    start = cumulative[np.searchsorted(keys, base)]
    divisors = np.arange(1, grid + 1, dtype=dtype)
    thresholds = np.empty((len(yes), grid + 1), dtype=dtype)
    tables = np.zeros((max_h, max_h, grid + 1, grid + 1), dtype=dtype)
    for x in range(grid + 1):
        product = column_p * x
        thresholds[:, 0] = -1
        thresholds[product > 0, 0] = top
        thresholds[:, 1:] = np.minimum((product[:, None] - 1) // divisors, top)
        found = np.searchsorted(keys, base[:, :, None] + thresholds, side="right")
        tables[:, :, x] = (weights @ (cumulative[found] - start[:, :, None])).swapaxes(0, 1)
    return tables


def _satisfied(tables: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """The satisfied count of each row of the levels matrix ``levels``.

    ``levels[row, h - 1]`` is ``r(h) * grid``; one broadcast gather looks up
    every level pair's table at the row's two levels, and the lookups add up.
    """
    h = np.arange(len(tables))
    return tables[h[:, None], h, levels[:, :, None], levels[:, None, :]].sum((1, 2))


def _climb(
    levels: list[int], tables: np.ndarray, grid: int, monotone: bool
) -> tuple[int, list[int]]:
    """Coordinate ascent from ``levels``; returns (count, final levels).

    Each step re-optimizes one coordinate over its whole admissible range by
    the key ``(count, level)``, so a move happens when it satisfies strictly
    more conditions or the same number at a higher level.  Every accepted
    move increases the lexicographic objective ``(count, levels)``, which
    bounds the climb and guarantees termination.

    Moving ``r(h)`` changes only the ``2 * max_h - 1`` level pairs that
    mention ``h``: slices of ``(h, b)`` and ``(b, h)`` at each other level's
    value, and the diagonal of ``(h, h)``, score all of its levels at once.
    The first maximum over the range in descending order is the largest
    level among the best counts; a move adds the difference of two scores.
    """
    levels = np.array(levels)
    best = int(_satisfied(tables, levels[None])[0])
    size = len(levels)
    changed = True
    while changed:
        changed = False
        for h in range(size):
            lo = levels[h + 1] if monotone and h + 1 < size else 0
            hi = levels[h - 1] if monotone and h > 0 else grid
            rest = np.arange(size) != h
            at = levels[rest]
            mentions = tables[h, rest, :, at].sum(0) + tables[rest, h, at, :].sum(0)
            mentions += tables[h, h].diagonal()
            level = hi - int(np.argmax(mentions[lo : hi + 1][::-1]))
            if level != levels[h]:
                best += int(mentions[level] - mentions[levels[h]])
                levels[h] = level
                changed = True
    return best, levels.tolist()


def _check_fit_options(max_h: int, grid: int) -> None:
    """Raise unless the fit options are in range and the level tables fit the guard."""
    if max_h < 1:
        raise ValidationError(f"max_h must be >= 1, got {max_h}")
    if grid < 1:
        raise ValidationError(f"grid resolution must be >= 1, got {grid}")
    cells = max_h**2 * (grid + 1) ** 2
    if cells > TABLE_CELL_LIMIT:
        raise GuardExceededError(
            f"the fit needs {cells} table cells, over the {TABLE_CELL_LIMIT} limit"
        )


def fit_suppression(
    counts: Mapping[Outcome, int],
    max_h: int,
    grid: int = DEFAULT_GRID,
    monotone: bool = False,
) -> FitResult:
    """Fit one category's suppression table to its response history.

    ``counts`` maps each outcome ``(campaign, preference, h, responded)`` to
    how many times it happened, with ``1 <= h <= max_h`` and ``responded`` a
    ``bool``.  The table takes
    values in ``{0, 1/grid, ..., 1}`` with ``r(0) = 0``, and maximizes the
    number of satisfied responder/non-responder conditions (ties count as
    unsatisfied).  Small spaces (at most :data:`EXHAUSTIVE_SPACE` candidate
    tables) are enumerated exactly; otherwise the search is
    coordinate-ascent hill climbing from the all-ones table plus
    :data:`RESTARTS` random starts drawn from ``random.Random(0)``, so every
    fit of the same counts gives the same table.  Among equal-count optima the
    lexicographically largest table wins (larger values at smaller ``h``
    preferred).  With ``monotone=True`` the search is restricted to
    non-increasing tables.

    Every count comes from the pairwise level tables of :func:`_tables`,
    built once per fit from the sorted outcome counts: a candidate's count
    is one lookup per pair of levels.  They hold ``max_h^2 * (grid + 1)^2``
    cells, and each of the ``grid + 1`` steps of their build works on
    the distinct responder ``(campaign, preference)`` times ``max_h * (grid
    + 1)`` cells; over :data:`TABLE_CELL_LIMIT` either way, the fit raises
    :class:`GuardExceededError` before building anything.
    """
    _check_fit_options(max_h, grid)
    sides: dict[CampaignId, list[int]] = {}  # campaign -> [non-responders, responders]
    columns = set()
    for (campaign, preference, h, responded), count in counts.items():
        _check_outcome(preference, h, responded)
        if h > max_h:
            raise ValidationError(f"h={h} exceeds max_h={max_h}")
        if type(count) is not int or count < 1:
            raise ValidationError(f"count must be a positive integer, got {count!r}")
        sides.setdefault(campaign, [0, 0])[responded] += count
        if responded:
            columns.add((campaign, preference))
    cells = len(columns) * max_h * (grid + 1)
    if cells > TABLE_CELL_LIMIT:
        raise GuardExceededError(
            f"the fit has {len(columns)} distinct responder (campaign, preference) outcomes, "
            f"{cells} cells per table build step at grid {grid}, over the {TABLE_CELL_LIMIT} limit"
        )
    total = sum(no * yes for no, yes in sides.values())
    if total == 0:
        return FitResult(SuppressionTable.constant(1, max_h), satisfied=0, total=0)

    tables = _tables(counts, max_h, grid)
    if (grid + 1) ** max_h <= EXHAUSTIVE_SPACE:
        # descending enumeration: the first table reaching the maximum count
        # is automatically the lexicographically largest one
        candidates = np.array(list(itertools.product(range(grid, -1, -1), repeat=max_h)))
        if monotone:
            candidates = candidates[(np.diff(candidates) <= 0).all(axis=1)]
        scores = _satisfied(tables, candidates)
        top = int(np.argmax(scores))
        best_count, best_levels = int(scores[top]), candidates[top].tolist()
    else:
        rng = random.Random(0)
        starts = [[grid] * max_h]
        for _ in range(RESTARTS):
            levels = [rng.randint(0, grid) for _ in range(max_h)]
            starts.append(sorted(levels, reverse=True) if monotone else levels)
        best_count, best_levels = max(_climb(levels, tables, grid, monotone) for levels in starts)
    table = SuppressionTable((Fraction(0), *(Fraction(q, grid) for q in best_levels)))
    return FitResult(table=table, satisfied=best_count, total=total)


def _record_id(value, what: str) -> CustomerId:
    # bool is an int subclass, but JSON true/false is no identifier
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValidationError(f"{what} must be a string or an integer, got {value!r}")
    return value


def records_from_json(data) -> Counter:
    """Count the records of each ``(customer, campaign, preference, h, responded)``."""
    if not isinstance(data, list):
        raise ValidationError("historical data must be a JSON array of records")
    history: Counter = Counter()
    for idx, obj in enumerate(data):
        try:
            customer = _record_id(obj["customer"], "customer")
            campaign = _record_id(obj["campaign"], "campaign")
            preference = parse_int(obj["preference"], "preference")
            h = parse_int(obj["h"], "h")
            responded = obj["responded"]
            _check_outcome(preference, h, responded)
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"record {idx} is malformed: {exc}") from exc
        except ValidationError as exc:
            raise ValidationError(f"record {idx}: {exc}") from exc
        history[customer, campaign, preference, h, responded] += 1
    return history


def fit_categories(
    history: Mapping[tuple[CustomerId, CampaignId, int, int, bool], int],
    labels_by_customer: Mapping[CustomerId, int] | None,
    max_h: int,
    grid: int = DEFAULT_GRID,
    monotone: bool = False,
) -> dict[int, FitResult]:
    """Fit one table per category of ``history``; without labels, everyone is category 0.

    Labels must be ``int`` (``bool`` is not one), so no two labels merge.
    The options are checked as :func:`fit_suppression` checks them, also for
    an empty history.  The search has no knobs: the result depends on the
    history, the labels and the options only.
    """
    _check_fit_options(max_h, grid)
    groups: dict[int, dict[Outcome, int]] = {}
    for key, count in history.items():
        if labels_by_customer is None:
            label = 0
        else:
            try:
                label = labels_by_customer[key[0]]
            except KeyError as exc:
                raise ValidationError(
                    f"customer {key[0]!r} has records but no category label"
                ) from exc
            _check_int(label, f"label of customer {key[0]!r}")
        group = groups.setdefault(label, {})
        outcome = key[1:]
        group[outcome] = group.get(outcome, 0) + count
    return {
        label: fit_suppression(group, max_h=max_h, grid=grid, monotone=monotone)
        for label, group in sorted(groups.items())
    }
