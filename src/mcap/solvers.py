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
  OR: they read only states below its capacity.  A layer whose subsets
  mostly score 0, as a reduced 3-CNF's do, adds those by one *rank pass*
  instead: a zero-score subset's packed score is the sum of its mask bits, so
  one OR, add and maximum per campaign, on the layer itself, adds every
  subset at that rank, and only the positive-score subsets are walked, with
  the same keys and tie-breaks.  Each layer packs its subsets' scores into
  one array of the key type, and a subset adds a 0-d view of its cell, so no
  step's add converts a Python integer.  The first layer,
  where only the empty vector is reachable, is one scatter of that array.
  The layer buffers are updated in place, so each subset's views into them
  are planned once and reused by every later layer; while the reachable box
  grows, only the views whose length changes are planned again.  The inner
  loop is two or three ufunc calls on prebuilt views.  Integer keys pack each
  value with its subset's mask, which ascends with the subset's index offset
  and so serves as its rank: the maximum is order-free, and the documented
  tie-break (ascending predecessor, then ascending subset) holds exactly.
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
from itertools import combinations, compress
from math import comb, prod
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


def _positive_subsets(
    weighted_prefs: Sequence[int], rates: Sequence[int], campaign_of_bit: list[int]
) -> list[tuple[int, int]]:
    """``(mask, score)`` of every subset that :func:`_subset_scores` scores above 0.

    Weighted preferences and rates are nonnegative, so a subset of ``h``
    campaigns scores above 0 exactly when ``rate[h] > 0`` and it holds some
    campaign of positive weighted preference: ``q >= 1`` of those and
    ``h - q`` of the rest.  Only those subsets are built, in no fixed order.
    """
    cells = [(1 << b, weighted_prefs[j]) for b, j in enumerate(campaign_of_bit)]
    positive = [cell for cell in cells if cell[1]]
    zero = [bit for bit, value in cells if not value]
    found = []
    for h, rate in enumerate(rates[1:len(cells) + 1], 1):
        if not rate:
            continue
        for q in range(max(1, h - len(zero)), min(h, len(positive)) + 1):
            rests = [sum(rest) for rest in combinations(zero, h - q)]
            for chosen in combinations(positive, q):
                mask = sum(bit for bit, _ in chosen)
                score = rate * sum(value for _, value in chosen)
                found.extend((mask | rest, score) for rest in rests)
    return found


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

    The packed scores ``score << bits | mask`` of a layer are one array of
    the key type, ``nmasks`` cells long, refilled in place: the subset
    scores, a left shift by ``bits`` and an add of ``arange(nmasks)``, an
    add rather than an OR, so the sweep ORs only poison arrays.  Each step
    holds the 0-d view ``packed[mask, ...]``, so no ``np.add`` of the sweep
    converts a Python integer.  Before customer 0 only state 0 is reachable,
    and every active campaign has an upper bound of at least 1, so every
    subset has headroom there: that layer is the scatter ``keys[offsets] =
    packed``, one ufunc-free assignment, and needs no step plan.

    A later layer whose subsets mostly score 0 takes the *rank pass* for
    them.  A zero-score subset's packed score is its rank ``rank(S) =
    sum(1 << b for b in S)``, which is additive over campaigns.  So right
    after the sources are copied into ``keys``, one pass per active campaign
    ``b``, in ascending order, ORs ``poison[b]`` into ``keys[:m]`` (no OR for
    the last campaign), adds ``1 << b`` and takes the ``np.maximum`` into
    ``keys[d_b:d_b + m]``, all through ``cand``.  Here ``d_b`` is the
    campaign's stride and ``m = min(size - d_b, reach)``, where ``reach``
    starts at ``hi`` and grows by ``d_b`` after each campaign, since each
    campaign also reads the states the earlier ones just reached.  The pass
    leaves in each state the maximum over every source and subset ``S`` of
    ``source + rank(S)``.  Rank bits cannot carry, so a path with headroom
    reaches each intermediate state with the source's digit ``b``, and the
    poison there is the source's.  The zero-score subsets are added exactly.
    A positive-score subset has ``rank(S) < packed(S)``, so the layer still
    takes the walk's steps for those subsets, in walk order, plus the OR of
    every prefix they extend.  Every reachable state then ends on the walk's
    key and mask; an unreachable one stays negative, though perhaps at
    another negative key, which nothing reads.  The pass uses ``keys``,
    ``cand`` and the poison arrays, so :func:`dp_guard`'s array count is
    unchanged.  Its scores are built for the positive subsets only
    (:func:`_positive_subsets`), and the rank adds take 0-d views of
    ``arange(nmasks)`` in the key type.

    The walk makes 2 or 3 ufunc calls per subset, and the pass at most 3 per
    campaign and per positive-score subset, plus the prefix ORs.  A layer
    takes the pass when ``3 * (bits + positives) <= nmasks``, with
    ``positives``, the sum over ``h`` with ``rate[h] > 0`` of ``C(bits, h) -
    C(zero, h)``, counted from its rates and its ``zero`` active campaigns of
    weighted preference 0.  So a layer over 3 or fewer campaigns always
    walks, and one over 8 takes the pass with up to 77 of its 255 subsets
    positive.  On the benchmark's corpora of seeds 1-10 it takes every
    sat-reduction layer after the first (1,440 of 1,440) and 5 of dp-grid's
    1,760, whose layers have 3 or 4 campaigns.

    The last active campaign is the most significant digit, so a subset
    holding it has ``d`` at least that campaign's stride and reads only
    sources below ``size - d``, where the campaign is under its capacity:
    its poison would be all 0 and its OR a copy.  Those subsets, half of
    them, add their score straight to their parent's sources, and since no
    subset extends them, they take no stack slot; that campaign has no
    poison array.  ``keys``, the stack and the candidate are allocated once
    and updated in place (``keys & -(1 << bits)`` into ``sources[0]``, then
    copied back into ``keys``), so every view into them stays valid across
    layers.  A step's views depend on its layer only through their length
    ``min(size - d, hi)``, with ``hi`` the reach bound, so the list of steps,
    ``(parent, poison, sources, score, candidate, target)`` views in walk
    order, is built for the first ``hi`` and, while ``hi`` grows in the first
    ``max(upper_bounds)`` layers, extended: only the steps whose length
    changes get new views.  Every later layer reuses it.

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
    position = [0] * nmasks
    for t, mask in enumerate(walk):
        position[mask] = t
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
    # packed[mask] is the layer's score of subset mask, shifted, plus mask;
    # each step adds its 0-d view, so no step's add converts a Python integer
    packed = np.empty(nmasks, dtype=dtype)
    ranks = np.arange(nmasks).astype(dtype)
    offsets = np.array(deltas)
    steps = [None] * len(walk)
    lengths = [0] * len(walk)
    # the reach before customer 0, state 0 alone, takes the scatter, not a plan
    planned = 1
    rank_planned = 0
    for i in range(n):
        rates_i, weighted_i = rates[i], weighted[i]
        # the walk makes 2 or 3 ufunc calls per subset, the rank pass at most
        # 3 per campaign and per positive-score subset plus the ORs of their
        # prefixes; a layer takes the pass where that bound is at most one
        # call per subset, which no layer over 1 to 3 campaigns meets
        ranked = False
        if i and 3 * bits < nmasks:
            # a subset of h campaigns scores 0 when rate[h] is 0 or all its
            # campaigns have weighted preference 0
            zero = sum(1 for j in active if not weighted_i[j])
            positives = sum(
                comb(bits, h) - comb(zero, h) for h in range(1, bits + 1) if rates_i[h]
            )
            ranked = 3 * (bits + positives) <= nmasks
        if ranked:
            scored = _positive_subsets(weighted_i, rates_i, active)
            for mask, score in scored:
                packed[mask] = score << bits | mask
        else:
            packed[:] = _subset_scores(weighted_i, rates_i, active)
            np.left_shift(packed, bits, out=packed)
            np.add(packed, ranks, out=packed)
        if i == 0:
            # only state 0 is reachable, and every active campaign has
            # headroom there, so subset mask lands on its offset alone
            keys[offsets] = packed
        else:
            hi = sum(min(i, cap) * stride for cap, stride in zip(box.caps, box.strides)) + 1
            if hi != planned:
                # keys, the stack and cand are updated in place, so views
                # into them stay valid; they depend on the layer only
                # through each step's length, which stops growing once i
                # reaches the largest upper bound
                planned = hi
                for t, mask in enumerate(walk):
                    # state s moves to s + d; a poisoned source, one without
                    # headroom in some campaign of the mask, stays negative
                    d = deltas[mask]
                    m = min(size - d, hi)
                    if m == lengths[t]:
                        continue
                    lengths[t] = m
                    depth = mask.bit_count()
                    top = mask.bit_length() - 1
                    parent = sources[depth - 1][:m]
                    score = packed[mask, ...]
                    if top == bits - 1:
                        # the sources [0, size - d) hold the last campaign
                        # below its capacity, so its poison is all 0 and the
                        # OR a copy
                        steps[t] = (parent, None, parent, score, cand[:m], keys[d:d + m])
                    else:
                        steps[t] = (
                            parent, poison[top][:m], sources[depth][:m], score,
                            cand[:m], keys[d:d + m],
                        )
            np.bitwise_and(keys, -(1 << bits), out=sources[0])
            # the empty subset scores 0 with mask 0: the previous layer itself
            np.copyto(keys, sources[0])
            if ranked:
                if rank_planned != hi:
                    # planned only for layers that take the pass; each
                    # campaign adds to keys itself, so it reads the states
                    # that the campaigns before it reached
                    rank_planned = hi
                    rank_steps = []
                    reach = hi
                    for b in range(bits):
                        d = deltas[1 << b]
                        m = min(size - d, reach)
                        blocked = poison[b][:m] if b < bits - 1 else None
                        rank_steps.append(
                            (keys[:m], blocked, cand[:m], ranks[1 << b, ...], keys[d:d + m])
                        )
                        reach += d
                # every subset S at rank(S), the sum of its bits: the zero-score
                # subsets exactly, the others below their packed scores
                for src, blocked, out, rank, tgt in rank_steps:
                    if blocked is not None:
                        np.bitwise_or(src, blocked, out=out)
                        src = out
                    np.add(src, rank, out=out)
                    np.maximum(tgt, out, out=tgt)
                # the positive-score subsets walk as below, in walk order, with
                # the OR of every prefix they extend
                run = {}
                for mask, _ in scored:
                    run[position[mask]] = True
                    prefix = mask ^ (1 << (mask.bit_length() - 1))
                    while prefix and position[prefix] not in run:
                        run[position[prefix]] = False
                        prefix ^= 1 << (prefix.bit_length() - 1)
                for t in sorted(run):
                    parent, blocked, src, score, out, tgt = steps[t]
                    if blocked is not None:
                        np.bitwise_or(parent, blocked, out=src)
                    if run[t]:
                        np.add(src, score, out=out)
                        np.maximum(tgt, out, out=tgt)
            else:
                for parent, blocked, src, score, out, tgt in steps:
                    if blocked is not None:
                        np.bitwise_or(parent, blocked, out=src)
                    np.add(src, score, out=out)
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
