"""Learning the inputs: response suppression tables from history.

A response history counts single-campaign outcomes, which are added up per
customer category; within a category, a responder should look more
attractive than a non-responder after suppression.  For every campaign and
every (responder ``i``, non-responder ``j``) pair this yields one strict
condition ``p_i * r(h_i) > p_j * r(h_j)``, and :func:`fit_suppression`
searches a grid-valued table for ``r`` that satisfies as many conditions as
possible.  A condition mentions two levels ``h >= 1`` only (``r(0) = 0``), so
the satisfied count is a sum over level pairs ``a <= b`` of ``(grid+1) x
(grid+1)`` tables, built once per fit from the sorted outcome counts without
listing a pair; a branch and bound over the levels, bounded by slices of
those tables, finds the best table and certifies it.  The records are
counted per category label in whole-column passes, with a record-by-record
count behind them that names the first bad record
(:func:`records_from_json`), and :func:`fit_categories` fits one table per
label.

Everything is deterministic: the search has no random part, and condition
evaluation is exact integer arithmetic (a grid value ``q/Q`` satisfies
``p_i*q_i > p_j*q_j`` independently of ``Q``).

numpy is imported by the table build and the search only (:func:`_tables`,
:func:`_search`), so importing this module, decoding records and a fit with
no conditions run without it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING, Mapping

from .core import GuardExceededError, SuppressionTable, ValidationError, check_int
from .io import json_object, parse_int

if TYPE_CHECKING:
    import numpy as np

CustomerId = int | str
CampaignId = int | str

DEFAULT_GRID = 20

# the fit's level tables hold max_h^2 * (grid + 1)^2 cells, one per pair of
# levels 1..max_h and pair of grid values, and each step of their build works
# on distinct responder (campaign, preference) x max_h x (grid + 1), linear in
# the input; a fit over either is refused up front.  A search node reads one
# slice of them, the pairs from its level on: at most max_h x (grid + 1)^2 cells
TABLE_CELL_LIMIT = 10**7

# once it has found a table, the search stops after this many nodes and
# reports the largest bound it left unvisited
SEARCH_NODE_LIMIT = 100_000


# a customer recommended h campaigns in total did (not) respond to campaign
Outcome = tuple[CampaignId, int, int, bool]  # (campaign, preference, h, responded)


def _check_outcome(preference, h, responded) -> None:
    """Raise :class:`ValidationError` unless an outcome's fields have valid types and values."""
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
    # no table satisfies more; equal to satisfied unless the search stopped
    upper_bound: int


def _tables(counts: Mapping[Outcome, int], max_h: int, grid: int) -> np.ndarray:
    """Pairwise level tables: the satisfied count of a fit is a sum of lookups.

    For ``a <= b``, ``tables[a - 1, b - 1, x, y]`` counts the pairs of a
    campaign at levels ``a`` and ``b``, either way round, satisfied at
    ``r(a) = x/grid`` and ``r(b) = y/grid`` (read at ``x == y`` only when
    ``a == b``); no block below the diagonal is read.  No pair is listed;
    they are counted by sorting, as in Knight's method for Kendall's tau.
    The distinct non-responder outcomes are keyed and sorted by ``campaign
    rank * (top + 1) + p``, a block of keys per campaign, with one
    cumulative row of counts per level.  So a threshold is ranked once per
    campaign, not once per campaign and level: for each ``x >= 1`` one
    ``searchsorted`` finds, for each distinct responder ``(campaign, p)``
    and each ``y``, the last key up to ``min((p*x - 1) // y, top)`` in its
    campaign's block (for ``y == 0``, the whole block when ``p > 0``), and
    one gather reads every level's count there.  The responders' counts per
    level times those fill ``tables[:, :, x]``, one direction each (at
    ``x == 0`` no pair holds); a last pass adds each lower block,
    transposed, to its mirror.  Memory is linear in the distinct outcomes.
    Entries are int64 when every key, product ``p * x``, each side's count
    sum and their product fit, and Python integers if not.
    """
    import numpy as np

    top = max((preference for _, preference, _, _ in counts), default=0)
    ranks: dict[CampaignId, int] = {}
    yes: dict[tuple[int, int], list[int]] = {}
    no: dict[int, list[int]] = {}
    for (campaign, preference, h, responded), count in counts.items():
        rank = ranks.setdefault(campaign, len(ranks))
        if responded:
            yes.setdefault((rank, preference), [0] * max_h)[h - 1] += count
        else:
            no.setdefault(rank * (top + 1) + preference, [0] * max_h)[h - 1] += count
    yes_total, no_total = sum(map(sum, yes.values())), sum(map(sum, no.values()))
    largest = max(len(ranks) * (top + 1), top * grid, yes_total, no_total, yes_total * no_total)
    dtype = np.int64 if largest < 2**63 else object
    keys = sorted(no)
    # cumulative[b - 1, i]: the non-responders at level b among the first i keys
    cumulative = np.zeros((max_h, len(keys) + 1), dtype=dtype)
    cumulative[:, 1:] = np.array([no[key] for key in keys], dtype=dtype).reshape(-1, max_h).T
    cumulative = cumulative.cumsum(1)
    keys = np.array(keys, dtype=dtype)
    weights = np.array(list(yes.values()), dtype=dtype).reshape(-1, max_h).T
    column_rank, column_p = np.array(list(yes), dtype=dtype).reshape(-1, 2).T
    # base[column] is the first key of the column's campaign
    base = column_rank * (top + 1)
    start = cumulative[:, np.searchsorted(keys, base), None]
    divisors = np.arange(1, grid + 1, dtype=dtype)
    # at x = 0 no pair holds, so tables[:, :, 0] stays 0; from x = 1 on,
    # y = 0 takes the whole campaign under a positive p and none under 0
    thresholds = np.empty((len(yes), grid + 1), dtype=dtype)
    thresholds[:, 0] = -1
    thresholds[column_p > 0, 0] = top
    column_p = column_p[:, None]
    # below[b - 1, column, y]: the non-responders at level b up to the threshold
    below = np.empty((max_h, len(yes), grid + 1), dtype=dtype)
    tables = np.zeros((max_h, max_h, grid + 1, grid + 1), dtype=dtype)
    for x in range(1, grid + 1):
        np.minimum((column_p * x - 1) // divisors, top, out=thresholds[:, 1:])
        found = np.searchsorted(keys, base[:, None] + thresholds, side="right")
        np.take(cumulative, found, axis=1, out=below)
        tables[:, :, x] = (weights @ (below - start)).swapaxes(0, 1)
    for a in range(max_h - 1):
        tables[a, a + 1 :] += tables[a + 1 :, a].swapaxes(1, 2)
    return tables


def _search(tables: np.ndarray, grid: int, monotone: bool) -> tuple[int, list[int], int]:
    """Branch and bound over ``r(1..max_h)``: (count, levels, upper bound).

    ``levels[h - 1]`` is ``r(h) * grid``.  A table's count sums each level's
    diagonal ``tables[b, b]`` and each pair's ``tables[a, b]``, ``a < b``, at
    its values; a node at depth ``d`` reads only ``tables[d, d + 1 :]``.  Depth
    first, it keeps the count among its set levels, ``partial``, and a row
    ``V[b]`` per unset level: its diagonal plus the pair slices at the set
    levels.  Child ``x`` is bounded by ``partial + V[d][x] + sum over b > d of
    max_y (V[b][y] + tables[d, b][x, y] + R[b][y])``, with ``R[b][y] = sum
    over c > b of max_z tables[b, c][y, z]`` computed once; under
    ``monotone``, ``y`` and ``z`` go up to the previous level only.  Children
    are visited by descending ``(bound, x)`` and skipped unless they can beat
    the incumbent's ``(count, levels)``; the last level is scored as one
    vector.  So the result has the most satisfied conditions and, among those,
    the largest levels.  Past :data:`SEARCH_NODE_LIMIT` nodes, once it has a
    table, the search returns it with the largest bound it left unvisited; a
    finished search's upper bound is its count.
    """
    import numpy as np

    size = len(tables)
    span = np.arange(grid + 1)
    # below[x, y]: a later level may take y after x
    below = span <= (span[:, None] if monotone else grid)
    rest = np.zeros((size, grid + 1), dtype=tables.dtype)
    for b in range(size - 1):
        rest[b] = np.where(below, tables[b, b + 1 :], 0).max(2).sum(0)
    h = np.arange(size)[:, None]
    levels, partial, rows = [], 0, tables[h, h, span, span]
    best, best_levels, nodes = -1, [], 0
    stack = []  # (levels, partial, rows, children by ascending (bound, x))
    while True:
        nodes += 1
        depth = len(levels)
        top = levels[-1] if monotone and levels else grid
        if depth == size - 1:
            count, x = max(zip((partial + rows[0, : top + 1]).tolist(), range(top + 1)))
            if (count, [*levels, x]) > (best, best_levels):
                best, best_levels = count, [*levels, x]
        else:
            later = (rows[1:] + rest[depth + 1 :])[:, None, :]
            ahead = np.where(below, tables[depth, depth + 1 :] + later, 0)
            bounds = (partial + rows[0] + ahead.max(2).sum(0))[: top + 1].tolist()
            stack.append((levels, partial, rows, sorted(zip(bounds, range(top + 1)))))
        while stack:
            levels, partial, rows, children = stack[-1]
            if not children:
                stack.pop()
                continue
            bound, x = children.pop()
            depth = len(levels)
            if bound < best or (bound == best and [*levels, x] < best_levels[: depth + 1]):
                # children pop by descending (bound, x), so every child left in
                # the frame is pruned too: none of them is a node the search
                # or the node-limit bound still needs
                stack.pop()
                continue
            if best_levels and nodes >= SEARCH_NODE_LIMIT:
                return best, best_levels, max(bound, *(c[-1][0] for *_, c in stack if c))
            # rebuilt on descent, not kept per child: a frame holds one set of rows
            levels, partial, rows = (
                [*levels, x],
                partial + int(rows[0, x]),
                rows[1:] + tables[depth, depth + 1 :, x],
            )
            break
        else:
            return best, best_levels, best


def _check_fit_options(max_h: int, grid: int, monotone: bool) -> None:
    """Raise unless the fit options have their types and ranges and the tables fit the guard."""
    if check_int(max_h, "max_h") < 1:
        raise ValidationError(f"max_h must be >= 1, got {max_h}")
    if check_int(grid, "grid resolution") < 1:
        raise ValidationError(f"grid resolution must be >= 1, got {grid}")
    if type(monotone) is not bool:
        raise ValidationError(f"monotone must be true or false, got {monotone!r}")
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
    ``bool``.  The table takes values in ``{0, 1/grid, ..., 1}`` with
    ``r(0) = 0``, and maximizes the number of satisfied responder/non-responder
    conditions (ties count as unsatisfied).  The search is an exact branch and
    bound (:func:`_search`), so every fit of the same counts gives the same
    table.  Among equal-count optima the lexicographically largest table wins
    (larger values at smaller ``h`` preferred).  With ``monotone=True`` the
    search is restricted to non-increasing tables.  Past
    :data:`SEARCH_NODE_LIMIT` nodes it stops with the best table found, and
    ``upper_bound`` states how many conditions a table could satisfy at most;
    it equals ``satisfied`` when the search finished.

    ``max_h`` and ``grid`` must be ``int`` and ``monotone`` a ``bool``.  The
    level tables of :func:`_tables` hold ``max_h^2 * (grid + 1)^2`` cells,
    and each of the ``grid + 1`` steps of their build works on the distinct
    responder ``(campaign, preference)`` times ``max_h * (grid + 1)`` cells;
    over :data:`TABLE_CELL_LIMIT` either way, the fit raises
    :class:`GuardExceededError` before building anything.
    """
    _check_fit_options(max_h, grid, monotone)
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
        return FitResult(SuppressionTable.constant(1, max_h), satisfied=0, total=0, upper_bound=0)

    best_count, best_levels, upper_bound = _search(_tables(counts, max_h, grid), grid, monotone)
    table = SuppressionTable((Fraction(0), *(Fraction(q, grid) for q in best_levels)))
    return FitResult(table, satisfied=best_count, total=total, upper_bound=upper_bound)


def _record_id(value, what: str) -> CustomerId:
    if type(value) not in (int, str):
        raise ValidationError(f"{what} must be a string or an integer, got {value!r}")
    return value


# the exact types each record field may hold.  ``1``, ``1.0`` and ``true``
# are equal dict keys, so the column counter needs the types checked first
_FIELD_TYPES = (
    ("customer", frozenset({int, str})),
    ("campaign", frozenset({int, str})),
    ("preference", frozenset({int, str})),
    ("h", frozenset({int, str})),
    ("responded", frozenset({bool})),
)
_OUTCOME_FIELDS = itemgetter("campaign", "preference", "h", "responded")


def _count_columns(data: list, labels: dict[str, int] | None) -> dict[int, Counter] | None:
    """:func:`records_from_json`'s counts in whole-column passes, or ``None`` if a record is bad.

    Each field's types are checked in one C pass.  One ``Counter`` then
    counts the records' raw outcome fields, paired with their labels when
    there are labels (looked up in C as well), and each distinct key is
    parsed and checked once.  The distinct keys come in the order of their
    first records, so every returned ``Counter`` has its keys in the order
    a record-by-record count inserts them.
    """
    try:
        for field, types in _FIELD_TYPES:
            if not types.issuperset(map(type, map(itemgetter(field), data))):
                return None
        outcomes = map(_OUTCOME_FIELDS, data)
        if labels is None:
            distinct = ((outcome, 0, count) for outcome, count in Counter(outcomes).items())
        else:
            record_labels = map(labels.__getitem__, map(str, map(itemgetter("customer"), data)))
            raw = Counter(zip(outcomes, record_labels))
            distinct = ((outcome, label, count) for (outcome, label), count in raw.items())
        groups: defaultdict[int, Counter] = defaultdict(Counter)
        for (campaign, preference, h, responded), label, count in distinct:
            preference, h = parse_int(preference, "preference"), parse_int(h, "h")
            _check_outcome(preference, h, responded)
            groups[label][campaign, preference, h, responded] += count
    except (KeyError, TypeError, ValidationError):
        return None
    return dict(groups)


def records_from_json(data, labels=None) -> dict[int, Counter]:
    """Count each label's outcomes ``(campaign, preference, h, responded)``.

    ``labels`` is the decoded object customer -> label, or ``None`` for one
    category 0.  Every label is parsed, and a record's is ``labels[str(customer)]``:
    JSON object keys are always strings, record customers need not be.

    The records are counted in whole-column passes (:func:`_count_columns`);
    if that fails on any record, they are counted again one at a time, which
    names the first bad record by its index.  So the counts, their key order
    and every error are those of the record-by-record count.
    """
    if not isinstance(data, list):
        raise ValidationError("historical data must be a JSON array of records")
    if labels is not None:
        if not isinstance(labels, dict):
            raise ValidationError("labels must be a JSON object customer -> label")
        labels = {key: parse_int(value, f"label of {key!r}") for key, value in labels.items()}
    counted = _count_columns(data, labels)
    if counted is not None:
        return counted
    groups: defaultdict[int, Counter] = defaultdict(Counter)
    for idx, obj in enumerate(data):
        json_object(obj, f"record {idx} is malformed")
        try:
            customer = _record_id(obj["customer"], "customer")
            campaign = _record_id(obj["campaign"], "campaign")
            preference = parse_int(obj["preference"], "preference")
            h = parse_int(obj["h"], "h")
            responded = obj["responded"]
            _check_outcome(preference, h, responded)
        except KeyError as exc:
            field = exc.args[0]
            raise ValidationError(f"record {idx} is malformed: missing field {field!r}") from exc
        except ValidationError as exc:
            raise ValidationError(f"record {idx}: {exc}") from exc
        label = 0 if labels is None else labels.get(str(customer))
        if label is None:
            raise ValidationError(f"record {idx}: customer {customer!r} has no category label")
        groups[label][campaign, preference, h, responded] += 1
    return dict(groups)


def fit_categories(
    groups: Mapping[int, Mapping[Outcome, int]],
    max_h: int,
    grid: int = DEFAULT_GRID,
    monotone: bool = False,
) -> dict[int, FitResult]:
    """Fit one table per category: ``groups`` maps each label to its outcome counts.

    Labels must be ``int`` (``bool`` is not one), so no two labels merge.
    The options are checked as :func:`fit_suppression` checks them, also
    without categories.  The search has no knobs: the result depends on the
    counts and the options only.
    """
    _check_fit_options(max_h, grid, monotone)
    for label in groups:
        check_int(label, "category label")
    return {
        label: fit_suppression(counts, max_h=max_h, grid=grid, monotone=monotone)
        for label, counts in sorted(groups.items())
    }
