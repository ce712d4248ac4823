"""Learning the inputs: suppression tables from history, preferences via CF.

Two independent estimation problems feed the assignment model:

* **Response suppression.**  A response history counts single-campaign
  outcomes, which are added up per customer category; within a category, a
  responder should look more attractive than a non-responder after
  suppression.  For every campaign and every (responder ``i``, non-responder
  ``j``) pair this yields one strict condition ``p_i * r(h_i) > p_j *
  r(h_j)``, and :func:`fit_suppression` searches a grid-valued table for
  ``r`` that satisfies as many conditions as possible.  Its hill climb re-optimizes one level ``r(h)`` per step: one
  pass over the conditions that mention ``h`` gives the count at every grid
  level, then O(grid) picks the best.  :func:`categorize_customers`
  supplies the grouping (small seeded k-means over numeric profiles, or
  externally computed labels).

* **Preferences.**  :func:`predict_preferences_cf` fills one missing entry
  of a sparse ratings matrix by nearest-neighbor collaborative filtering:
  cosine similarity over co-rated campaigns, weighted average over the most
  similar customers who rated the target campaign.

Everything is deterministic for a fixed seed; condition evaluation is exact
integer arithmetic (a grid value ``q/Q`` satisfies ``p_i*q_i > p_j*q_j``
independently of ``Q``).
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .core import PreconditionError, SuppressionTable, ValidationError
from .io import parse_int

CustomerId = int | str
CampaignId = int | str

DEFAULT_GRID = 20
DEFAULT_RESTARTS = 3
DEFAULT_NEIGHBORS = 10
MIN_OVERLAP = 2

# up to this many candidate tables the fit enumerates them all instead of
# hill climbing, making small fits exactly optimal
EXHAUSTIVE_SPACE = 4096


# a customer recommended h campaigns in total did (not) respond to campaign
Outcome = tuple[CampaignId, int, int, bool]  # (campaign, preference, h, responded)


def _check_int(value, what: str) -> int:
    """Return ``value``; raise :class:`ValidationError` unless it is an ``int`` (not ``bool``)."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _check_outcome(preference, h) -> None:
    """Raise :class:`ValidationError` unless ``preference >= 0`` and ``h >= 1`` are integers."""
    if type(preference) is not int or type(h) is not int:
        raise ValidationError(f"preference and h must be integers, got {preference!r} and {h!r}")
    if preference < 0:
        raise ValidationError("preference must be nonnegative")
    if h < 1:
        raise ValidationError(f"h must be >= 1, got {h}")


@dataclass(frozen=True)
class FitResult:
    table: SuppressionTable
    satisfied: int
    total: int


def _conditions(counts: Mapping[Outcome, int]) -> dict[tuple[int, int, int, int], int]:
    """Collapse responder/non-responder pairs into weighted conditions.

    Key ``(p_i, h_i, p_j, h_j)`` means: satisfied iff
    ``p_i * r(h_i) > p_j * r(h_j)``; the value is how many pairs share it,
    the product of the two outcome counts summed over the campaigns.
    """
    by_campaign: dict[CampaignId, tuple[dict, dict]] = {}
    for (campaign, preference, h, responded), count in counts.items():
        yes, no = by_campaign.setdefault(campaign, ({}, {}))
        (yes if responded else no)[preference, h] = count
    conditions: dict[tuple[int, int, int, int], int] = {}
    for yes, no in by_campaign.values():
        for (p_i, h_i), yes_count in yes.items():
            for (p_j, h_j), no_count in no.items():
                key = (p_i, h_i, p_j, h_j)
                conditions[key] = conditions.get(key, 0) + yes_count * no_count
    return conditions


def _satisfied_count(
    levels: Sequence[int], conditions: Mapping[tuple[int, int, int, int], int]
) -> int:
    # levels[h] is r(h) * Q; the grid denominator cancels from the strict
    # inequality, so this is pure integer arithmetic
    return sum(
        mult
        for (p_i, h_i, p_j, h_j), mult in conditions.items()
        if p_i * levels[h_i] > p_j * levels[h_j]
    )


Condition = tuple[int, int, int, int, int]


def _touching(
    conditions: Mapping[tuple[int, int, int, int], int], size: int
) -> list[list[Condition]]:
    """``groups[h]``: the conditions ``(p_i, h_i, p_j, h_j, mult)`` with ``h`` on a side."""
    groups: list[list[Condition]] = [[] for _ in range(size)]
    for (p_i, h_i, p_j, h_j), mult in conditions.items():
        groups[h_i].append((p_i, h_i, p_j, h_j, mult))
        if h_j != h_i:
            groups[h_j].append((p_i, h_i, p_j, h_j, mult))
    return groups


def _level_counts(
    levels: Sequence[int], h: int, touching: Sequence[Condition], grid: int
) -> list[int]:
    """Satisfied count of ``touching`` at every level ``x in 0..grid`` of ``h``.

    Every condition must have ``h`` on a side; the other levels stay fixed,
    so each one holds on a range of ``x``, found by integer floor division.
    The ranges go into a difference array whose prefix sums are the counts.
    """
    diff = [0] * (grid + 2)
    for p_i, h_i, p_j, h_j, mult in touching:
        if h_i == h_j:
            # p_i*x > p_j*x
            if p_i <= p_j:
                continue
            lo, hi = 1, grid
        elif h_i == h:
            # p_i*x > p_j*L[h_j]
            if p_i == 0:
                continue
            lo, hi = p_j * levels[h_j] // p_i + 1, grid
        else:
            # p_i*L[h_i] > p_j*x
            lhs = p_i * levels[h_i]
            if p_j == 0:
                if lhs == 0:
                    continue
                lo, hi = 0, grid
            else:
                lo, hi = 0, min((lhs - 1) // p_j, grid)
        if lo <= hi:
            diff[lo] += mult
            diff[hi + 1] -= mult
    return list(itertools.accumulate(diff[:-1]))


def _climb(
    levels: list[int],
    conditions: Mapping[tuple[int, int, int, int], int],
    groups: Sequence[Sequence[Condition]],
    grid: int,
    monotone: bool,
) -> tuple[int, list[int]]:
    """Coordinate ascent from ``levels``; returns (count, final levels).

    Each step re-optimizes one coordinate over its whole admissible range by
    the key ``(count, level)``, so a move happens when it satisfies strictly
    more conditions or the same number at a higher level.  Every accepted
    move increases the lexicographic objective ``(count, levels)``, which
    bounds the climb and guarantees termination.

    ``groups`` is :func:`_touching` of ``conditions``.  One pass over the
    conditions that mention ``h`` gives the count at every level of ``h``
    (:func:`_level_counts`); the conditions without ``h`` add the same
    amount to each level.  A step costs O(conditions + grid).
    """
    best = _satisfied_count(levels, conditions)
    changed = True
    while changed:
        changed = False
        for h in range(1, len(levels)):
            current = levels[h]
            lo = levels[h + 1] if monotone and h + 1 < len(levels) else 0
            hi = levels[h - 1] if monotone and h > 1 else grid
            counts = _level_counts(levels, h, groups[h], grid)
            others = best - counts[current]
            top_count, top_level = best, current
            for candidate in range(lo, hi + 1):
                count = others + counts[candidate]
                if candidate != current and (count, candidate) > (top_count, top_level):
                    top_count, top_level = count, candidate
            levels[h] = top_level
            if top_level != current:
                best = top_count
                changed = True
    return best, levels


def fit_suppression(
    counts: Mapping[Outcome, int],
    max_h: int,
    grid: int = DEFAULT_GRID,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    monotone: bool = False,
) -> FitResult:
    """Fit one category's suppression table to its response history.

    ``counts`` maps each outcome ``(campaign, preference, h, responded)`` to
    how many times it happened, with ``1 <= h <= max_h``.  The table takes
    values in ``{0, 1/grid, ..., 1}`` with ``r(0) = 0``, and maximizes the number of satisfied responder/non-responder conditions
    (ties count as unsatisfied).  Small spaces (at most
    :data:`EXHAUSTIVE_SPACE` candidate tables) are enumerated exactly;
    otherwise the search is coordinate-ascent hill climbing from the
    all-ones table plus ``restarts`` random starts.  Among equal-count
    optima the lexicographically largest table wins (larger values at
    smaller ``h`` preferred).  With ``monotone=True`` the search is
    restricted to non-increasing tables.
    """
    if max_h < 1:
        raise ValidationError(f"max_h must be >= 1, got {max_h}")
    if grid < 1:
        raise ValidationError(f"grid resolution must be >= 1, got {grid}")
    if restarts < 0:
        raise ValidationError(f"restarts must be >= 0, got {restarts}")
    for (_, preference, h, _), count in counts.items():
        _check_outcome(preference, h)
        if h > max_h:
            raise ValidationError(f"h={h} exceeds max_h={max_h}")
        if type(count) is not int or count < 1:
            raise ValidationError(f"count must be a positive integer, got {count!r}")
    conditions = _conditions(counts)
    total = sum(conditions.values())
    if total == 0:
        return FitResult(SuppressionTable.constant(1, max_h), satisfied=0, total=0)

    if (grid + 1) ** max_h <= EXHAUSTIVE_SPACE:
        # descending enumeration: the first table reaching the maximum count
        # is automatically the lexicographically largest one
        best_count, best_levels = -1, [0] * (max_h + 1)
        for combo in itertools.product(range(grid, -1, -1), repeat=max_h):
            if monotone and any(combo[i] < combo[i + 1] for i in range(max_h - 1)):
                continue
            levels = [0, *combo]
            count = _satisfied_count(levels, conditions)
            if count > best_count:
                best_count, best_levels = count, levels
        table = SuppressionTable(tuple(Fraction(q, grid) for q in best_levels))
        return FitResult(table=table, satisfied=best_count, total=total)

    rng = random.Random(seed)
    starts = [[0] + [grid] * max_h]
    for _ in range(restarts):
        levels = [0] + [rng.randint(0, grid) for _ in range(max_h)]
        if monotone:
            levels[1:] = sorted(levels[1:], reverse=True)
        starts.append(levels)

    groups = _touching(conditions, max_h + 1)
    best_count = -1
    best_levels: list[int] = []
    for levels in starts:
        count, final = _climb(levels, conditions, groups, grid, monotone)
        if count > best_count or (count == best_count and final > best_levels):
            best_count = count
            best_levels = list(final)
    table = SuppressionTable(tuple(Fraction(q, grid) for q in best_levels))
    return FitResult(table=table, satisfied=best_count, total=total)


def categorize_customers(
    profiles: Sequence[Sequence[float]],
    category_count: int,
    seed: int = 0,
    labels: Sequence[int] | None = None,
) -> list[int]:
    """Partition customers into at most ``category_count`` categories.

    Externally supplied ``labels`` are passed through unchanged after a
    length check; each must be an ``int`` (``bool`` is not one).  Otherwise
    profiles are clustered with seeded k-means; labels are renumbered
    densely in order of first appearance, so the result is deterministic
    for a fixed seed.
    """
    if labels is not None:
        if len(labels) != len(profiles):
            raise ValidationError(
                f"{len(labels)} labels supplied for {len(profiles)} customers"
            )
        return [_check_int(c, f"label of customer {i}") for i, c in enumerate(labels)]
    if len(profiles) == 0:
        raise ValidationError("no profiles to categorize")
    if category_count < 1:
        raise ValidationError(f"category_count must be >= 1, got {category_count}")

    points = np.asarray(profiles, dtype=float)
    if points.ndim != 2:
        raise ValidationError("profiles must all have the same number of features")
    count = min(category_count, len(points))
    rng = np.random.default_rng(seed)
    centers = points[rng.choice(len(points), size=count, replace=False)].copy()
    assignment = None
    for _ in range(100):
        distances = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        nearest = distances.argmin(axis=1)
        if assignment is not None and np.array_equal(nearest, assignment):
            break
        assignment = nearest
        for c in range(count):
            members = points[assignment == c]
            if len(members):
                centers[c] = members.mean(axis=0)

    dense: dict[int, int] = {}
    out = []
    for c in assignment:
        dense.setdefault(int(c), len(dense))
        out.append(dense[int(c)])
    return out


@dataclass(frozen=True)
class RatingsMatrix:
    """Sparse observed preferences: ``rows[customer][campaign] = rating``.

    Every rating is a nonnegative ``int`` (``bool`` is not one).
    """

    rows: Mapping[CustomerId, Mapping[CampaignId, int]]

    @classmethod
    def from_triplets(
        cls, triplets: Sequence[tuple[CustomerId, CampaignId, int]]
    ) -> "RatingsMatrix":
        rows: dict[CustomerId, dict[CampaignId, int]] = {}
        for customer, campaign, rating in triplets:
            _check_int(rating, f"rating for ({customer!r}, {campaign!r})")
            if rating < 0:
                raise ValidationError(
                    f"rating for ({customer!r}, {campaign!r}) must be nonnegative"
                )
            row = rows.setdefault(customer, {})
            if campaign in row:
                raise ValidationError(
                    f"duplicate rating for ({customer!r}, {campaign!r})"
                )
            row[campaign] = rating
        return cls(rows=rows)

    def all_ratings(self) -> list[int]:
        return [v for row in self.rows.values() for v in row.values()]


def _round_half_up(value: Fraction) -> int:
    return math.floor(value + Fraction(1, 2))


def _cosine(a: Mapping[CampaignId, int], b: Mapping[CampaignId, int]) -> float | None:
    shared = sorted(set(a) & set(b), key=str)
    if len(shared) < MIN_OVERLAP:
        return None
    dot = sum(a[c] * b[c] for c in shared)
    norm_a = math.sqrt(sum(a[c] ** 2 for c in shared))
    norm_b = math.sqrt(sum(b[c] ** 2 for c in shared))
    if norm_a == 0 or norm_b == 0:
        return None
    return dot / (norm_a * norm_b)


def predict_preferences_cf(
    ratings: RatingsMatrix,
    customer: CustomerId,
    campaign: CampaignId,
    neighbors: int = DEFAULT_NEIGHBORS,
) -> int:
    """Predict one missing rating by nearest-neighbor collaborative filtering.

    Neighbors need a co-rating overlap of at least 2 with the target and
    strictly positive cosine similarity; among them, the ``neighbors`` most
    similar ones who rated the target campaign vote with similarity weights.
    The weighted average is rounded half-up.  Fallbacks when no neighbor
    qualifies: the target's mean rating, then the global mean, then 0.
    """
    target_row = ratings.rows.get(customer, {})
    if campaign in target_row:
        raise PreconditionError(
            f"({customer!r}, {campaign!r}) is already rated; nothing to predict"
        )
    scored = []
    for other, row in ratings.rows.items():
        if other == customer or campaign not in row:
            continue
        sim = _cosine(target_row, row)
        if sim is not None and sim > 0:
            scored.append((sim, other, row[campaign]))
    # deterministic neighbor ranking: similarity desc, then customer id
    scored.sort(key=lambda s: (-s[0], str(s[1])))
    top = scored[:neighbors]
    if top:
        num = sum(Fraction(sim).limit_denominator(10**9) * r for sim, _, r in top)
        den = sum(Fraction(sim).limit_denominator(10**9) for sim, _, _ in top)
        return _round_half_up(num / den)
    if target_row:
        return _round_half_up(Fraction(sum(target_row.values()), len(target_row)))
    everything = ratings.all_ratings()
    if everything:
        return _round_half_up(Fraction(sum(everything), len(everything)))
    return 0


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
            responded = obj["responded"]
            if not isinstance(responded, bool):
                raise ValidationError(f"responded must be true or false, got {responded!r}")
            customer = _record_id(obj["customer"], "customer")
            campaign = _record_id(obj["campaign"], "campaign")
            preference = parse_int(obj["preference"], "preference")
            h = parse_int(obj["h"], "h")
            _check_outcome(preference, h)
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
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    monotone: bool = False,
) -> dict[int, FitResult]:
    """Fit one table per category of ``history``; without labels, everyone is category 0.

    Labels must be ``int`` (``bool`` is not one), so no two labels merge.
    """
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
        label: fit_suppression(
            group, max_h=max_h, grid=grid, restarts=restarts, seed=seed, monotone=monotone
        )
        for label, group in sorted(groups.items())
    }
