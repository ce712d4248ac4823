"""Exact and heuristic solvers for multicampaign assignment.

Exact routes:

* :func:`brute_force_solve` enumerates every assignment matrix, guarded by
  :data:`DEFAULT_BRUTE_FORCE_CELLS`: an independent oracle for the others.
* :func:`dp_solve` runs dynamic programming over capacity vectors: the state
  after the first ``m`` customers is the vector of column sums, and the layer
  transition tries every campaign subset for customer ``m``.  The transition
  is a mask-major numpy sweep over the flat layer, with no masked ufunc:
  subsets are walked depth first, and each ORs one poison array into its
  parent's sources (``floor``, a single high bit, on the states whose new
  campaign is at capacity), then takes one shifted add and one unmasked
  ``np.maximum``.  The subsets holding the outermost active campaign skip the
  OR: they read only states below its capacity.  A layer can instead add its
  subsets by one *count pass* per subset size ``h`` of positive rate: a
  size-``h`` subset's packed score is a sum of one share per campaign,
  ``rate[h] * weighted << bits | 1 << b``, whose mask bits never carry, so
  one OR, add and maximum per (campaign, count) step extends the subsets of
  ``c - 1`` campaigns into those of ``c``.  The sizes of rate 0 score 0, and
  one *rank pass* on the layer itself, one step per campaign, adds every
  subset at its mask first.  A layer, customer 0's included, takes the
  passes when they make fewer ufunc calls than the walk, as every reduced
  3-CNF layer does, with the same keys and tie-breaks.  Each walking layer
  packs its subsets' scores into one array of the key type, and a subset
  adds a 0-d view of its cell, so no step's add converts a Python integer.
  The layer buffers are updated in place, so the steps of the walk and of
  each pass, views into them, are planned once per reach of the box and
  reused by every layer at that reach.  Both run one step loop: two or
  three ufunc calls per step on prebuilt views.
  Integer keys pack each value with its subset's mask, which ascends with
  the subset's index offset and so serves as its rank: the maximum is
  order-free, and the documented tie-break (ascending predecessor, then
  ascending subset) holds exactly.
  :func:`dp_guard` is its size check (:data:`DEFAULT_DP_STATE_LIMIT` and
  :data:`DP_CELL_LIMIT`, which counts the choices and the sweep's working
  set), shared with the CLI's ``auto`` method.
* :func:`solve_constant_suppression` and :func:`solve_unbounded` handle the
  two polynomially solvable special classes (per-customer constant
  suppression; no capacity constraints) by direct sorting arguments.

Heuristic routes (no optimality guarantee, always feasible):

* :func:`greedy_construct` fills lower bounds first, then keeps adding the
  cell with the best marginal fitness gain while one exists, on a heap that
  holds each row's best open cell.
* :func:`local_search` improves a feasible start by two moves.  The row move
  replaces one row by its best row under the column bounds (:func:`_best_row`
  with the row's cells in columns at their lower bound kept), which covers
  every single-cell flip; the within-column swap moves a 1 to another row.
  It alternates a sweep of row moves over the rows with a first-improvement
  swap scan until a swap scan applies nothing.  The swap scan keeps a table
  of every cell's flip gain, updates only the rows a move touches, and tests
  each set cell against its column's best free-row gain before walking swap
  partners, so each step is O(nk).  A row's ceiling is its best score with
  no column bound, and the ceilings sum to the ``[0, n]`` relaxation bound: a
  row move on a row at its ceiling returns at once, and a sweep that leaves
  the total on that bound ends the search, since no swap can gain, counting
  the skipped scan in closed form so ``explored`` is unchanged.

Internally every solver scores with plain integers: every suppression value
is multiplied by the least common denominator of all table entries, so row
scores and move gains (:func:`_gain`) are exact integers and no inner loop
does Fraction arithmetic.  :attr:`mcap.core.Instance.scaled` computes these
integers once per instance and keeps them, so ``auto`` and ``bench``, which
run several solvers on one instance, scale it once.  The scale is positive,
so every comparison, heap order and tie is the same as for the unscaled
fitness.  The DP keeps its keys in the narrowest signed integer dtype that
holds its negative ``floor``, the bit just above a precomputed bound (the
sum of every customer's best row score, :func:`_best_row`) shifted past the
subset mask bits: int8, int16, int32 or int64, and ``dtype=object`` arrays
of Python integers beyond int64.  No key and no scalar of the sweep leaves
that type's range, so no width overflows.  Every solver passes its own
scaled total, as a Fraction, to the final check: the returned fitness is
recomputed from the matrix with :func:`mcap.core.evaluate_fitness`, which
sums in integers of its own and never reads ``Instance.scaled``, and must
equal it.

Only :func:`dp_solve` uses numpy, and it imports numpy once :func:`dp_guard`
has passed.  Importing this module, a refused DP and every other solver run
without loading it, so a CLI call above the guard starts without numpy.

All solvers are deterministic: every tie-breaking rule is fixed and
documented on the operation.  Fitness equality across solvers is guaranteed;
matrix equality is not, because optima are generically non-unique.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import prod
from typing import Sequence

from .capacity import CapacityBox
from .core import (
    AssignmentMatrix,
    GuardExceededError,
    InfeasibleError,
    Instance,
    InternalCheckError,
    PreconditionError,
    check_feasibility,
    evaluate_fitness,
)

# size guards, constants read at call time: cells (n x k) brute force may
# enumerate and DP states per layer
DEFAULT_BRUTE_FORCE_CELLS = 20
DEFAULT_DP_STATE_LIMIT = 10_000_000
# cells the DP may hold in total: (customers + its working set) x states per layer
DP_CELL_LIMIT = 100_000_000


@dataclass(frozen=True)
class SolveStats:
    elapsed_s: float
    explored: int


@dataclass(frozen=True)
class SolveResult:
    """A feasible assignment with its independently recomputed fitness."""

    matrix: AssignmentMatrix
    fitness: Fraction
    optimal: bool
    stats: SolveStats


def _gain(rates_i: Sequence[int], value: int, h: int, delta: int, step: int) -> int:
    """Scaled score change of a row when one cell joins (``step = 1``) or leaves (``-1``).

    The row holds ``h`` cells of weighted sum ``value``; ``delta`` is the
    change of that sum, negative for a removal.
    """
    return rates_i[h + step] * (value + delta) - rates_i[h] * value


def _subset_scores(
    weighted_prefs: Sequence[int], rates: Sequence[int], campaign_of_bit: list[int]
) -> list[int]:
    """Scaled score of every campaign subset for one customer.

    Subsets are bitmasks over ``campaign_of_bit``; entry ``mask`` holds
    ``rate[popcount(mask)] * sum(weighted_prefs[j] for set bits)``.  The sum
    is built with the lowest-bit recurrence so the whole table costs O(2^b).
    """
    nmasks = 1 << len(campaign_of_bit)
    weighted = [0] * nmasks
    scores = [0] * nmasks
    for mask in range(1, nmasks):
        low = mask & -mask
        weighted[mask] = weighted[mask ^ low] + weighted_prefs[campaign_of_bit[low.bit_length() - 1]]
        scores[mask] = rates[mask.bit_count()] * weighted[mask]
    return scores


def _best_row(
    weighted_i: Sequence[int], rates_i: Sequence[int], campaigns, kept: Sequence[int] = ()
) -> tuple[int, list[int]]:
    """The best scaled score of one row that holds ``kept`` plus a subset of ``campaigns``.

    Returns the score and the row's cells, ``kept`` first.  Rates are
    nonnegative, so the best row with ``t`` cells of ``campaigns`` holds their
    ``t`` largest weighted preferences (ties to the earlier campaign); among
    counts ``t`` with equal scores the smallest wins.  With ``kept`` empty
    this is ``max(_subset_scores(weighted_i, rates_i, campaigns))`` in
    O(b log b).
    """
    # a reversed sort is stable too: equal preferences keep their order
    ranked = sorted(campaigns, key=weighted_i.__getitem__, reverse=True)
    return _best_ranked_row(weighted_i, rates_i, ranked, kept)


def _best_ranked_row(
    weighted_i: Sequence[int], rates_i: Sequence[int], ranked: Sequence[int], kept: Sequence[int]
) -> tuple[int, list[int]]:
    """:func:`_best_row` over campaigns already ranked as it ranks them."""
    h = len(kept)
    prefix = sum(map(weighted_i.__getitem__, kept))
    best, best_t = rates_i[h] * prefix, 0
    for t, j in enumerate(ranked, 1):
        prefix += weighted_i[j]
        score = rates_i[h + t] * prefix
        if score > best:
            best, best_t = score, t
    return best, [*kept, *ranked[:best_t]]


def _finish(
    inst: Instance,
    rows: list[list[int]],
    optimal: bool,
    started: float,
    explored: int,
    expected_fitness: Fraction,
) -> SolveResult:
    matrix = AssignmentMatrix.from_rows(rows)
    fitness = evaluate_fitness(inst, matrix)
    if fitness != expected_fitness:
        raise InternalCheckError(
            f"solver bookkeeping disagrees with evaluation: {expected_fitness} != {fitness}"
        )
    report = check_feasibility(inst, matrix)
    if not report.feasible:
        raise InternalCheckError(f"solver produced an infeasible matrix: {report.violations}")
    return SolveResult(
        matrix=matrix,
        fitness=fitness,
        optimal=optimal,
        stats=SolveStats(elapsed_s=time.perf_counter() - started, explored=explored),
    )


def brute_force_solve(inst: Instance) -> SolveResult:
    """Globally optimal solve by enumerating every binary matrix.

    Guarded by ``n * k <= DEFAULT_BRUTE_FORCE_CELLS`` (the search is 2^(n*k)).
    Among equal-fitness optima the lexicographically smallest matrix wins,
    comparing the row-major concatenation of rows as a bit string.
    """
    started = time.perf_counter()
    n, k = inst.n, inst.k
    if n * k > DEFAULT_BRUTE_FORCE_CELLS:
        raise GuardExceededError(
            f"brute force over {n}x{k} cells exceeds the {DEFAULT_BRUTE_FORCE_CELLS}-cell guard"
        )
    scale, rates, weighted = inst.scaled
    # bit (k-1-j) holds campaign j, so ascending masks enumerate rows in
    # lexicographic order of their '0'/'1' strings
    campaign_of_bit = [k - 1 - j for j in range(k)]
    scores = [_subset_scores(weighted[i], rates[i], campaign_of_bit) for i in range(n)]
    bits_of_mask = [
        [(mask >> (k - 1 - j)) & 1 for j in range(k)] for mask in range(1 << k)
    ]
    lower, upper = inst.lower_bounds, inst.upper_bounds

    best_value: int | None = None
    best_masks: list[int] = []
    chosen = [0] * n
    cols = [0] * k
    explored = 0

    def descend(i: int, value: int) -> None:
        nonlocal best_value, best_masks, explored
        remaining = n - i
        for j in range(k):
            if cols[j] + remaining < lower[j]:
                return
        if i == n:
            explored += 1
            if best_value is None or value > best_value:
                best_value = value
                best_masks = chosen[:i]
            return
        row_scores = scores[i]
        for mask in range(1 << k):
            bits = bits_of_mask[mask]
            ok = True
            for j in range(k):
                if bits[j] and cols[j] + 1 > upper[j]:
                    ok = False
                    break
            if not ok:
                continue
            for j in range(k):
                cols[j] += bits[j]
            chosen[i] = mask
            descend(i + 1, value + row_scores[mask])
            for j in range(k):
                cols[j] -= bits[j]

    descend(0, 0)
    if best_value is None:
        raise InternalCheckError("no feasible matrix found; instance invariants broken")
    rows = [list(bits_of_mask[mask]) for mask in best_masks]
    return _finish(inst, rows, True, started, explored, Fraction(best_value, scale))


def dp_guard(inst: Instance) -> None:
    """Raise :class:`GuardExceededError` when :func:`dp_solve` would be too large.

    The DP keeps ``prod(upper_bounds[j] + 1)`` states per layer, so the
    layer is bounded by :data:`DEFAULT_DP_STATE_LIMIT`.  Its memory in total
    is bounded by :data:`DP_CELL_LIMIT` cells, one per state in each of
    ``n + 2 * active + 2`` arrays: the ``n`` layers of recorded subsets and
    the full-layer arrays the sweep holds at once (this layer, a candidate,
    the lower-bound mask, and per active campaign one stacked source array
    and, for all but the last, one poison array), where ``active`` counts the
    campaigns with a positive upper bound, and at least 1 since the stack
    keeps its base.  A cell counts once at any width, from a bool or an int8
    key to a Python integer.
    """
    states = prod(b + 1 for b in inst.upper_bounds)
    if states > DEFAULT_DP_STATE_LIMIT:
        raise GuardExceededError(
            f"DP needs {states} states per layer, over the {DEFAULT_DP_STATE_LIMIT} limit"
        )
    working = 2 * max(sum(1 for b in inst.upper_bounds if b > 0), 1) + 2
    if (inst.n + working) * states > DP_CELL_LIMIT:
        raise GuardExceededError(
            f"DP needs {inst.n} x {states} choice cells and a {working} x {states} working set,"
            f" over the {DP_CELL_LIMIT} limit"
        )


def dp_solve(inst: Instance) -> SolveResult:
    """Globally optimal solve by dynamic programming over capacity vectors.

    ``best[m][c]`` is the maximum fitness over the first ``m`` customers whose
    column sums equal the capacity vector ``c``.  Customer ``m`` transitions
    by every subset of campaigns that still has column headroom, and the
    answer maximizes ``best[n][c]`` over the box ``lower_bounds <= c <=
    upper_bounds``.

    Each state holds one integer key ``value << bits | mask``.  Active
    strides at least double, so subset offsets ``d`` ascend with the mask
    and the mask is the subset's rank.  Per layer, subsets are walked depth
    first, each extending its parent by one campaign above the parent's
    highest, and a stack indexed by depth holds their sources: ``sources[t]
    = sources[t - 1][:m] | poison[b][:m]``, where ``poison[b]`` is ``floor``
    on the states whose campaign ``b`` is at capacity and 0 elsewhere, and
    ``[:m]`` trims the sources ``[0, size - d)`` of a subset with index
    offset ``d`` to the box that the customers so far can reach.  Offsets
    grow down the stack, so a parent's sources cover its children's.  The
    sources plus the subset's packed score go into
    the next layer's ``[d, size)`` by one unmasked ``np.maximum``; the
    maximum is the same in any subset order.  Then the layer's masks are
    recorded through the candidate buffer and dropped.

    The packed scores ``score << bits | mask`` of a walking layer are one
    array of the key type, ``nmasks`` cells long, refilled in place from
    Python integers packed as ``part``'s are.  Each step holds the 0-d view
    ``packed[mask, ...]``, so no ``np.add`` of the sweep converts a Python
    integer; the passes' steps hold 0-d views of ``part``, an array of the
    key type too.

    A layer may add its subsets by *passes* over its campaigns instead of
    the walk.  For a size ``h`` with ``rate[h] > 0``, the packed
    score of a subset ``S`` of ``h`` campaigns is the sum over ``b`` in
    ``S`` of ``part[h, b] = rate[h] * weighted[b] << bits | 1 << b``: the
    mask bits are distinct, so they never carry.  The *count pass* of size
    ``h`` keeps ``h + 1`` count arrays: ``A_0``, the sources
    (``sources[0]``), ``A_1`` to ``A_{h-1}``, the stack's next arrays filled
    with ``floor``, and ``A_h``, which is ``keys``.  For each active
    campaign ``b`` in ascending order, and each count ``c`` in descending
    order from ``min(h, b + 1)`` down to ``max(1, h - (bits - 1 - b))``
    (``c - 1`` campaigns below ``b``, room for ``h - c`` above it), it ORs
    ``poison[b][:m]`` into ``A_{c-1}[:m]`` (no OR for the last campaign),
    adds the 0-d view ``part[h, b, ...]`` and takes the ``np.maximum`` into
    ``A_c[d_b:d_b + m]``, all through ``cand``.  Here ``d_b`` is the
    campaign's stride and ``m = min(size - d_b, reach)``, where ``reach``
    starts at ``hi`` and grows by ``d_b`` after each campaign.  Descending
    counts keep ``A_{c-1}`` free of subsets holding ``b`` while ``A_c``
    reads it, so each path adds each campaign once and ``A_c`` holds, per
    state, the best source plus the score of some ``c`` campaigns that
    reach it.  No digit carries on a path with headroom, so each
    intermediate state has the source's digit ``b`` and the poison there is
    the source's.  ``keys`` thus takes exactly the walk's maximum over the
    subsets of size ``h``.

    The sizes of rate 0 take no count pass.  Their subsets score 0, so
    their packed score is the rank ``rank(S) = sum(1 << b for b in S)``.
    The *rank pass* adds them right after the sources are copied into
    ``keys``, as a pass with ``A_0 = A_1 = keys`` and ``part[0, b] = 1 <<
    b``: one step per campaign, each reading the states the earlier ones
    just reached.  It leaves in each state the maximum over every source and
    subset ``S`` of ``source + rank(S)``.  That is exact for the sizes of
    rate 0 and at most the packed score for the others, whose count passes
    then add them exactly.  The rank pass reads ``keys`` in place, so it
    runs before any count pass writes there; the count passes read the
    sources, which nothing overwrites.  Every reachable state then ends on
    the walk's key and mask; an unreachable one stays negative, though
    perhaps at another negative key, which nothing reads.  The passes use
    ``keys``, ``cand``, the poison arrays and the stack, which the walk
    alone uses otherwise, so :func:`dp_guard`'s array count is unchanged.

    The walk makes ``2 * 2^(bits - 1) + 3 * (2^(bits - 1) - 1)`` ufunc
    calls per layer: 2 per subset holding the last campaign and 3 per other
    nonempty one.  The passes make ``3 * bits`` for the rank pass, when
    some size has rate 0, plus ``3 * h * (bits - h + 1)`` calls and ``h -
    1`` fills per count pass.  A layer over 4 or more campaigns takes the
    passes when they make fewer.  One over 3 or fewer always walks by a
    guard on ``bits``, not by the count: at 2 or 3 campaigns with every
    rate 0 the rank pass alone makes fewer calls (6 < 7, 9 < 17).
    Customer 0's layer follows the same rule: only state 0 is reachable
    before it, at reach 1, and every active campaign has headroom there.
    On the benchmark's corpora of seeds 1-10 the passes take every
    sat-reduction layer (1,520 of 1,520, 8 campaigns, a rank pass and one
    count pass) and 17 of dp-grid's 1,800 (4 campaigns and one size of
    positive rate); a layer with every rate positive takes them from 7
    campaigns up.

    The last active campaign is the most significant digit, so a subset
    holding it has ``d`` at least that campaign's stride and reads only
    sources below ``size - d``, where the campaign is under its capacity:
    its poison would be all 0 and its OR a copy.  Those subsets, half of
    them, add their score straight to their parent's sources, and since no
    subset extends them, they take no stack slot; that campaign has no
    poison array.  ``keys``, the stack and the candidate are allocated once
    and updated in place (``keys & -(1 << bits)`` into ``sources[0]``, then
    copied back into ``keys``), so every view into them stays valid across
    layers.  A step's views depend on its layer only through their length,
    ``min(size - d, hi)`` with ``hi`` the reach bound, so one dict keeps the
    plan of the walk (key None), of the rank pass (0) and of each count pass
    (``h``) at the current ``hi``, each built when a layer first needs it,
    and drops them all when ``hi`` grows, which it does in the first
    ``max(upper_bounds)`` layers.  Every step of either path is ``(source,
    poison, ored, score, candidate, target)``: the OR of the poison into
    the source, when there is one, writes ``ored``, which is the source
    otherwise; the add writes the candidate and the maximum the target.

    ``floor`` is the single high bit ``-(1 << L)``, ``L`` the bit length of
    ``(bound + 1) << bits`` and ``bound`` the sum of every customer's best
    subset score.  Unreached states start at ``floor``.  ORing ``floor``
    into a nonnegative key subtracts ``1 << L`` and leaves a negative key
    unchanged, so every negative key is ``floor`` plus a sum of packed
    scores, one per layer, with rank bits from the last layer only.  That
    sum is below ``(bound + 1) << bits <= 1 << L``, so a poisoned or
    unreached key never turns nonnegative, and ``key >= 0`` is exactly
    reachability.  Keys take ``np.min_scalar_type(floor)``: the narrowest of
    int8, int16, int32 and int64 that holds ``floor``, and Python integers
    (``dtype=object``) beyond int64, so no float enters.  That type holds
    all of ``[floor, 1 << L)``, where every key and every packed score
    lies, and the three Python scalars the sweep feeds to a ufunc once per
    layer, ``bits``, ``-(1 << bits)`` and ``nmasks - 1``, so no ufunc
    overflows or casts a wider result into ``out=`` at any width.  Choices are masks in one ``(n, states)``
    array of the smallest unsigned dtype; :func:`dp_guard` bounds the states
    per layer, and the choice cells and working set in total.

    ``explored`` counts the states reachable before each customer.  Before
    customer ``i`` those are exactly the vectors with ``c_j <= min(i, u_j)``,
    so the count is ``sum(prod(min(i, u_j) + 1 for j) for i < n)``.

    Ties go to the earliest candidate in scan order (ascending predecessor
    index, then ascending subset mask, then ascending terminal index).
    Offsets are distinct, so of equal values into one state the earliest
    has the largest mask and key; the terminal scan takes the first maximum
    of the values, not the keys.
    """
    dp_guard(inst)
    # numpy loads on the first call past the guard, so a refused DP and the
    # other solvers run without it; the clock starts after the import, as it
    # did when the module loaded numpy
    import numpy as np

    started = time.perf_counter()
    n, k = inst.n, inst.k
    box = CapacityBox.from_caps(inst.upper_bounds)
    scale, rates, weighted = inst.scaled

    # campaigns with a zero upper bound can never be assigned; subsets range
    # over the remaining ones only
    active = [j for j in range(k) if inst.upper_bounds[j] > 0]
    bits = len(active)
    nmasks = 1 << bits
    deltas = [0] * nmasks
    for mask in range(1, nmasks):
        low = mask & -mask
        deltas[mask] = deltas[mask ^ low] + box.strides[active[low.bit_length() - 1]]
    # depth first: every subset right after the prefix it extends by its
    # highest bit, the lexicographic order of the masks' ascending bit lists
    walk = []
    for b in reversed(range(bits)):
        walk = [1 << b, *[1 << b | mask for mask in walk], *walk]
    # ufunc calls per layer: the walk's 2 per subset holding the last
    # campaign and 3 per other nonempty one, against 3 per campaign for the
    # rank pass and, per count pass of size h, 3 per (campaign, count) step
    # plus h - 1 fills
    walk_calls = 5 * (nmasks >> 1) - 3
    pass_calls = [3 * bits] + [3 * h * (bits - h + 1) + h - 1 for h in range(1, bits + 1)]
    # scores are nonnegative, so no reachable value exceeds this bound
    bound = sum(_best_row(weighted[i], rates[i], active)[0] for i in range(n))
    floor = -(1 << ((bound + 1) << bits).bit_length())
    dtype = np.min_scalar_type(floor)
    mask_dtype = np.min_scalar_type(nmasks - 1)

    # per active campaign but the last: floor where it is at capacity, 0
    # elsewhere; per state: whether every column meets its lower bound
    size = box.size
    state = np.arange(size)
    poison = []
    meets_lower = np.ones(size, dtype=bool)
    for j, (cap, stride, lower) in enumerate(zip(box.caps, box.strides, inst.lower_bounds)):
        digit = state // stride % (cap + 1)
        meets_lower &= digit >= lower
        if cap and j != active[-1]:
            poison.append(np.zeros(size, dtype=dtype))
            poison[-1][digit == cap] = floor
    del state, digit

    # keys pack value << bits | mask; key >= 0 is reachability
    keys = np.full(size, floor, dtype=dtype)
    keys[0] = 0
    choices = np.zeros((n, size), dtype=mask_dtype)
    # sources[t] holds the sources of the walk's subset at depth t; a subset
    # holding the last bit reads its parent's, so none needs a slot of its own
    sources = [np.empty(size, dtype=dtype) for _ in range(max(bits, 1))]
    cand = np.empty(size, dtype=dtype)
    # packed[mask] is score << bits | mask, with score the layer's score of
    # subset mask, packed in Python as part's shares are; each step adds its
    # 0-d view, so no step's add converts a Python integer
    packed = np.empty(nmasks, dtype=dtype)
    # part[h, b] is campaign b's share of a size-h subset's packed score,
    # rate[h] * weighted << bits | 1 << b; row 0, the rank pass's, is 1 << b
    part = np.zeros((bits + 1, bits), dtype=dtype)
    part[0] = [1 << b for b in range(bits)]

    def plan(key, hi):
        """The arrays to fill with ``floor`` and the steps of plan ``key`` at reach ``hi``."""
        steps = []
        if key is None:
            for mask in walk:
                # state s moves to s + d; a poisoned source, one without
                # headroom in some campaign of the mask, stays negative
                d = deltas[mask]
                m = min(size - d, hi)
                depth, top = mask.bit_count(), mask.bit_length() - 1
                src = sources[depth - 1][:m]
                # the sources [0, size - d) of a subset holding the last
                # campaign hold it below its capacity, so its poison would be
                # all 0 and the OR a copy
                blocked = poison[top][:m] if top < bits - 1 else None
                steps.append((
                    src, blocked, src if blocked is None else sources[depth][:m],
                    packed[mask, ...], cand[:m], keys[d:d + m],
                ))
            return [], steps
        # a count pass of size h extends, per campaign b, the subsets of c - 1
        # campaigns in counts[c - 1] into counts[c]: the sources, h - 1 arrays
        # of the stack, idle outside the walk, and keys; the rank pass adds
        # every subset at its rank within keys itself
        counts = [*sources[:key], keys] if key else [keys, keys]
        # each campaign also reads the states that the campaigns before it
        # reached
        reach = hi
        for b in range(bits):
            d = deltas[1 << b]
            m = min(size - d, reach)
            blocked = poison[b][:m] if b < bits - 1 else None
            # one view both ORed into and added into: two views of the same
            # cells would make each ufunc check them for overlap
            out = cand[:m]
            # descending, so counts[c - 1] holds no subset with b yet; a count
            # c needs c - 1 campaigns below b and leaves room for key - c above
            for c in range(min(key, b + 1), max(1, key - bits + 1 + b) - 1, -1) if key else (1,):
                src = counts[c - 1][:m]
                steps.append((
                    src, blocked, src if blocked is None else out, part[key, b, ...], out,
                    counts[c][d:d + m],
                ))
            reach += d
        return counts[1:key], steps

    # the steps of the walk (key None) and of each pass (key 0 or h) at the
    # reach planned; keys, the stack and cand are updated in place, so the
    # views stay valid, and they depend on the layer only through the reach,
    # which stops growing once i reaches the largest upper bound
    plans = {}
    planned = 0
    for i in range(n):
        rates_i, weighted_i = rates[i], weighted[i]
        # the walk, or the passes in order; over 3 or fewer campaigns the
        # layer walks, though with every rate 0 the rank pass would make fewer
        # calls
        layer = [None]
        if bits > 3:
            sizes = [h for h in range(1, bits + 1) if rates_i[h]]
            # every subset of a size of rate 0 scores 0: the rank pass, key
            # 0, adds them, first
            if len(sizes) < bits:
                sizes.insert(0, 0)
            if sum(pass_calls[h] for h in sizes) < walk_calls:
                layer = sizes
        if layer[0] is None:
            scores = _subset_scores(weighted_i, rates_i, active)
            packed[:] = [score << bits | mask for mask, score in enumerate(scores)]
        else:
            row = [weighted_i[j] for j in active]
            for h in layer:
                if h:
                    part[h] = [rates_i[h] * w << bits | 1 << b for b, w in enumerate(row)]
        hi = sum(min(i, cap) * stride for cap, stride in zip(box.caps, box.strides)) + 1
        if hi != planned:
            plans, planned = {}, hi
        np.bitwise_and(keys, -(1 << bits), out=sources[0])
        # the empty subset scores 0 with mask 0: the previous layer itself
        np.copyto(keys, sources[0])
        for key in layer:
            if key not in plans:
                plans[key] = plan(key, hi)
            fills, steps = plans[key]
            for counts in fills:
                counts.fill(floor)
            for src, blocked, ored, score, out, tgt in steps:
                if blocked is not None:
                    np.bitwise_or(src, blocked, out=ored)
                np.add(ored, score, out=out)
                np.maximum(tgt, out, out=tgt)
        np.bitwise_and(keys, nmasks - 1, out=cand)
        choices[i] = cand

    terminals = np.flatnonzero((keys >= 0) & meets_lower)
    if terminals.size == 0:
        raise InternalCheckError("no terminal capacity vector reachable")
    # the first maximum of the values, not the keys: the smallest terminal index
    idx = int(terminals[np.argmax(keys[terminals] >> bits)])
    best = Fraction(int(keys[idx]) >> bits, scale)

    rows = [[0] * k for _ in range(n)]
    for i in reversed(range(n)):
        mask = int(choices[i, idx])
        for b, j in enumerate(active):
            if (mask >> b) & 1:
                rows[i][j] = 1
        idx -= deltas[mask]
    if idx != 0:
        raise InternalCheckError("DP reconstruction did not land on the empty state")
    explored = sum(prod(min(i, cap) + 1 for cap in box.caps) for i in range(n))
    return _finish(inst, rows, True, started, explored, best)


def solve_constant_suppression(inst: Instance) -> SolveResult:
    """Optimal solve when every customer's suppression is constant above zero.

    With ``r_i(h) = rho_i`` for all ``h >= 1`` the fitness separates into
    independent per-cell terms ``rho_i * w_j * p_ij``, so each campaign just
    takes its ``upper_bounds[j]`` best customers by ``rho_i * p_ij``
    (descending, ties to the smaller customer index).  All terms are
    nonnegative, so filling to the upper bound is optimal and automatically
    covers the lower bound.
    """
    started = time.perf_counter()
    for i, table in enumerate(inst.suppression):
        if not table.is_constant_above_zero():
            raise PreconditionError(
                f"customer {i}: suppression is not constant for h >= 1"
            )
    n, k = inst.n, inst.k
    scale, rates, weighted = inst.scaled
    rows = [[0] * k for _ in range(n)]
    total = 0
    for j in range(k):
        # rho_i * w_j * p_ij ranks the column as rho_i * p_ij does
        ranked = sorted(range(n), key=lambda i: (-(rates[i][1] * weighted[i][j]), i))
        for i in ranked[: inst.upper_bounds[j]]:
            rows[i][j] = 1
            total += rates[i][1] * weighted[i][j]
    return _finish(inst, rows, True, started, n * k, Fraction(total, scale))


def solve_unbounded(inst: Instance) -> SolveResult:
    """Optimal solve when no capacity constraints bind.

    Requires ``lower_bounds = 0`` and ``upper_bounds = n`` everywhere; rows
    are then independent.  Per customer, sort the values ``w_j * p_ij``
    descending (ties to the smaller campaign index), and pick the count
    ``h`` maximizing ``r_i(h) * prefix_sum(h)`` (ties to the smaller ``h``):
    that is :func:`_best_row` over all campaigns.
    """
    started = time.perf_counter()
    n, k = inst.n, inst.k
    if any(b != 0 for b in inst.lower_bounds) or any(b != n for b in inst.upper_bounds):
        raise PreconditionError("instance has nontrivial capacity bounds")
    scale, rates, weighted = inst.scaled
    rows = [[0] * k for _ in range(n)]
    total = 0
    for i in range(n):
        score, cells = _best_row(weighted[i], rates[i], range(k))
        total += score
        for j in cells:
            rows[i][j] = 1
    return _finish(inst, rows, True, started, n * k, Fraction(total, scale))


def greedy_construct(inst: Instance) -> SolveResult:
    """Feasible construction: meet lower bounds, then take positive gains.

    Phase 1 repeatedly sets the unassigned cell with the largest marginal
    gain among campaigns still below their lower bound (even when the best
    gain is negative, since those columns must be filled).  Phase 2 continues
    among campaigns below their upper bound while the best gain is strictly
    positive.  Ties break toward the smaller customer index, then the smaller
    campaign index.

    Both phases run on a min-heap holding one entry ``(-gain, i, j)`` per
    row: the row's best open cell.  A cell's gain is ``rates[i][h+1]`` times
    its weighted preference plus a term shared by the whole row, and rates
    are nonnegative, so the best open cell is the open campaign with the
    largest weighted preference (ties to the smaller ``j``) when
    ``rates[i][h+1] > 0``, and the smallest open ``j`` when it is 0 (every
    gain in the row is then equal).  Each row's campaign order is computed
    once.  Setting a cell changes only its own row, which is re-ranked and
    pushed again.  A popped entry whose column has closed is re-ranked and
    pushed again: columns only close within a phase, so such a stale key is
    never worse than the row's true one, and the first entry popped with an
    open column is the global best by ``(gain desc, i asc, j asc)``, the
    same cell a heap over every cell would pick.  A popped row is re-ranked
    in place of its entry (``heapreplace``); a row has one entry, so no two
    entries tie and the pop order is the same as a pop and a push.
    ``explored`` counts the row-heap pops.  Once every column of a phase has
    closed, each entry left would pop and re-rank to no entry, so the phase
    adds the heap's length to the count and stops: on binding 600x10
    instances that is about 580 of some 2,200 pops.
    """
    started = time.perf_counter()
    n, k = inst.n, inst.k
    scale, rates, weighted = inst.scaled
    # campaigns by descending weighted preference; a reversed sort is still
    # stable, so equal preferences keep the smaller campaign first
    ranked = [sorted(range(k), key=row.__getitem__, reverse=True) for row in weighted]
    rows = [[0] * k for _ in range(n)]
    h = [0] * n
    row_value = [0] * n
    cols = [0] * k
    pops = 0
    total = 0

    def best_cell(i: int, limit: tuple[int, ...]) -> tuple[int, int, int] | None:
        # heap entry for row i's best open cell, or None when it has none
        row, h_i, rates_i = rows[i], h[i], rates[i]
        if h_i == k:
            return None
        for j in ranked[i] if rates_i[h_i + 1] else range(k):
            if not row[j] and cols[j] < limit[j]:
                return (-_gain(rates_i, row_value[i], h_i, weighted[i][j], 1), i, j)
        return None

    def fill(limit: tuple[int, ...], positive_only: bool) -> None:
        nonlocal pops, total
        heap = [entry for i in range(n) if (entry := best_cell(i, limit)) is not None]
        heapq.heapify(heap)
        open_cols = sum(c < b for c, b in zip(cols, limit))
        while heap:
            if not open_cols:
                # each entry left would pop and re-rank to None
                pops += len(heap)
                break
            neg_gain, i, j = heap[0]
            pops += 1
            if cols[j] < limit[j]:
                if positive_only and neg_gain >= 0:
                    break
                rows[i][j] = 1
                cols[j] += 1
                open_cols -= cols[j] == limit[j]
                row_value[i] += weighted[i][j]
                h[i] += 1
                total -= neg_gain
            # the row changed, or the entry's column closed: re-rank the row
            # in place of its entry, the only one it has
            if (entry := best_cell(i, limit)) is not None:
                heapq.heapreplace(heap, entry)
            else:
                heapq.heappop(heap)

    fill(inst.lower_bounds, positive_only=False)
    fill(inst.upper_bounds, positive_only=True)
    return _finish(inst, rows, False, started, pops, Fraction(total, scale))


def local_search(inst: Instance, start: AssignmentMatrix) -> SolveResult:
    """First-improvement local search from a feasible starting matrix.

    Move set: (a) the row move, which replaces one row by its best row under
    the column bounds, and (b) the swap, which moves a 1 to another row of
    the same column (column sums unchanged).  A row move keeps the row's set
    cells in columns at their lower bound, may drop its other set cells and
    may add free cells in columns below their upper bound, so every column
    changes by at most 1 and the matrix stays feasible.  The best such row
    is the kept cells plus the top ``t`` of the others by ``w_j * p_ij``
    (ties to the smaller campaign), maximized over ``t`` (ties to the
    smaller ``t``): :func:`_best_row` with ``kept``.  That ranking never
    changes, so each row's campaigns are ranked once per search and a row
    move filters the row's ranking.  A single-cell flip changes one cell of
    one row, so it is a row move too.

    The search alternates two phases until a swap phase applies nothing:

    1. The row sweep visits rows 0, 1, ..., n - 1, 0, ... and applies each
       row move whose score is strictly above the row's current score; it
       stops after ``n`` visits in a row that apply none, so no row move
       and no flip gains when it ends.
    2. The swap scan visits the set cells in row-major order, walks swap
       partners by ascending row, applies the first swap that strictly
       increases fitness and restarts from row 0, until no swap gains.

    The result admits no improving row move, flip or swap, and is
    deterministic; fitness strictly increases with every move over a finite
    lattice, so the search ends.

    The swap scan keeps a gain table: ``gains[j][i]`` is the scaled score
    change of flipping cell ``(i, j)`` (:func:`_gain`), the add gain of a 0
    and the remove gain of a 1.  A move changes only its own rows' scores,
    so after a move only those rows are recomputed.  Two cells of one column
    lie in different rows, so a swap gains the sum of its two flip gains.
    Each scan first takes ``best_in[j]``, the largest gain over the free rows
    of column ``j``: a set cell has an improving swap iff its gain plus
    ``best_in[j]`` is positive, and only then are its partners walked, up to
    the first improving one.  A scan step is O(nk).

    A row's ceiling is its best score with no column bound, ``_best_row``
    over all campaigns, computed once per search from the same ranking.
    Rates are nonnegative, and every row a move can pick is a subset of the
    row's campaigns, so none scores above the ceiling: a row move on a row
    that already scores its ceiling returns 0 before filtering anything.
    The ceilings sum to the ``[0, n]`` relaxation bound.  When a sweep
    leaves the total on it, every row is at its ceiling and no swap can
    gain, so the search skips the gain table's refresh and the final scan
    and stops.  ``optimal`` stays false there too, as for every heuristic
    answer.

    ``explored`` counts one per row visited in a sweep, idle rows included,
    plus, in the swap scans, one per set cell visited and one per free row
    tried as a partner, as a scan that walks every partner would: a set cell
    without an improving swap adds ``n - cols[j]``.  The scan a stop skips
    would find no improving swap, so it adds its count in closed form,
    ``sum(cols[j] * (1 + n - cols[j]))``, and ``explored`` is the same as
    without the stop.
    """
    report = check_feasibility(inst, start)
    if not report.feasible:
        raise InfeasibleError(f"starting matrix violates bounds: {report.violations}")
    started = time.perf_counter()
    n, k = inst.n, inst.k
    lower, upper = inst.lower_bounds, inst.upper_bounds
    scale, rates, weighted = inst.scaled
    rows = [list(row) for row in start.entries]
    h = [sum(row) for row in rows]
    row_value = [sum(compress(weighted[i], rows[i])) for i in range(n)]
    cols = list(report.column_sums)
    total = sum(rates[i][h[i]] * row_value[i] for i in range(n))
    # each row's campaigns as _best_row ranks them, by descending weighted
    # preference, ties to the smaller campaign; the order never changes
    ranked = [sorted(range(k), key=row.__getitem__, reverse=True) for row in weighted]
    # each row's best score with no column bound; their sum is the [0, n]
    # relaxation bound, which no feasible matrix exceeds
    ceiling = [_best_ranked_row(weighted[i], rates[i], ranked[i], ())[0] for i in range(n)]
    bound = sum(ceiling)
    moves_checked = 0
    # column-major, so a column's best free gain is one C-level max; a sweep
    # leaves them to be refreshed, for the rows it changed, before the swaps
    gains = [[0] * n for _ in range(k)]
    free = [[0] * n for _ in range(k)]
    stale = set(range(n))

    def set_gains(i: int) -> None:
        rates_i, value, h_i, weighted_i = rates[i], row_value[i], h[i], weighted[i]
        for j, cell in enumerate(rows[i]):
            step = 1 - 2 * cell
            gains[j][i] = _gain(rates_i, value, h_i, step * weighted_i[j], step)
            free[j][i] = 1 - cell

    def flip(i: int, j: int) -> None:
        step = 1 - 2 * rows[i][j]
        rows[i][j] += step
        cols[j] += step
        row_value[i] += step * weighted[i][j]
        h[i] += step
        set_gains(i)

    def row_move(i: int) -> int:
        # replace row i by its best row under the column bounds when that
        # scores strictly more, and return the gain (0 when it does not)
        current = rates[i][h[i]] * row_value[i]
        if current >= ceiling[i]:
            # every row the move can pick scores at most the ceiling
            return 0
        row, weighted_i = rows[i], weighted[i]
        # filtering the row's ranking keeps _best_row's order
        kept, campaigns = [], []
        for j in ranked[i]:
            if row[j]:
                (kept if cols[j] == lower[j] else campaigns).append(j)
            elif cols[j] < upper[j]:
                campaigns.append(j)
        best, cells = _best_ranked_row(weighted_i, rates[i], campaigns, kept)
        if best <= current:
            return 0
        for j in range(k):
            cols[j] -= row[j]
            row[j] = 0
        for j in cells:
            cols[j] += 1
            row[j] = 1
        h[i] = len(cells)
        row_value[i] = sum(map(weighted_i.__getitem__, cells))
        stale.add(i)
        return best - current

    def sweep() -> int:
        # visit rows cyclically from row 0, applying each improving row
        # move, until n visits in a row apply none; return the total gain
        nonlocal moves_checked
        gained, idle, i = 0, 0, 0
        while idle < n:
            moves_checked += 1
            gain = row_move(i)
            gained += gain
            idle = 0 if gain else idle + 1
            i = (i + 1) % n
        return gained

    def improve() -> int:
        # apply the first improving swap in scan order and return its gain,
        # or return 0 when no swap gains
        nonlocal moves_checked
        best_in = [max(compress(gains[j], free[j]), default=None) for j in range(k)]
        for i, row in enumerate(rows):
            for j in compress(range(k), row):
                moves_checked += 1
                gain = gains[j][i]
                best = best_in[j]
                if best is None or gain + best <= 0:
                    moves_checked += n - cols[j]
                    continue
                for i2, partner in compress(enumerate(gains[j]), free[j]):
                    moves_checked += 1
                    if gain + partner > 0:
                        flip(i, j)
                        flip(i2, j)
                        return gain + partner
        return 0

    while True:
        total += sweep()
        if total == bound:
            # every row is at its ceiling, so no swap gains: count the
            # final scan as improve() would, one per set cell plus its
            # column's free rows, and stop
            moves_checked += sum(c * (1 + n - c) for c in cols)
            break
        for i in stale:
            set_gains(i)
        stale.clear()
        swapped = False
        while (applied := improve()) > 0:
            total += applied
            swapped = True
        if not swapped:
            break
    return _finish(inst, rows, False, started, moves_checked, Fraction(total, scale))
