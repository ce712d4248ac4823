import hashlib
import heapq
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import lcm

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from mcap import generate, io, reduction, solvers
from mcap.capacity import CapacityBox
from mcap.cli import run_bench
from mcap.core import (
    AssignmentMatrix,
    GuardExceededError,
    InfeasibleError,
    Instance,
    PreconditionError,
    SuppressionTable,
    check_feasibility,
    evaluate_fitness,
    validate_instance,
)
from mcap.solvers import (
    brute_force_solve,
    dp_solve,
    greedy_construct,
    local_search,
    solve_constant_suppression,
    solve_unbounded,
)
from strategies import (
    feasible_pairs, instances, random_feasible_matrix, sparse_instances, wide_instances,
)


def single_customer_instance(lower=(0, 0)):
    return Instance(
        n=1, k=2, weights=(2, 3), preferences=((5, 7),),
        suppression=(SuppressionTable((0, 1, Fraction(1, 2))),),
        lower_bounds=lower, upper_bounds=(1, 1),
    )


def oracle_enumerate(inst):
    """Reference optimum by direct enumeration over all binary matrices."""
    best = None
    for cells in product((0, 1), repeat=inst.n * inst.k):
        rows = tuple(
            cells[i * inst.k : (i + 1) * inst.k] for i in range(inst.n)
        )
        matrix = AssignmentMatrix(rows)
        if not check_feasibility(inst, matrix).feasible:
            continue
        fitness = evaluate_fitness(inst, matrix)
        if best is None or fitness > best:
            best = fitness
    return best


class TestBruteForce:
    def test_single_customer_prefers_one_campaign(self):
        result = brute_force_solve(single_customer_instance())
        assert result.matrix.entries == ((0, 1),)
        assert result.fitness == 21
        assert result.optimal

    def test_forced_bounds_take_both(self):
        result = brute_force_solve(single_customer_instance(lower=(1, 1)))
        assert result.matrix.entries == ((1, 1),)
        assert result.fitness == Fraction(31, 2)

    def test_zero_preferences_lexicographically_smallest(self):
        inst = Instance(
            n=2, k=1, weights=(1,), preferences=((0,), (0,)),
            suppression=(SuppressionTable((0, 1)),) * 2,
            lower_bounds=(1,), upper_bounds=(1,),
        )
        result = brute_force_solve(inst)
        assert result.fitness == 0
        # "01" < "10" in row-major bit order
        assert result.matrix.entries == ((0,), (1,))

    def test_tie_broken_toward_smaller_rows_last(self):
        inst = Instance(
            n=2, k=1, weights=(1,), preferences=((5,), (5,)),
            suppression=(SuppressionTable((0, 1)),) * 2,
            lower_bounds=(0,), upper_bounds=(1,),
        )
        assert brute_force_solve(inst).matrix.entries == ((0,), (1,))

    def test_guard(self, monkeypatch):
        inst = single_customer_instance()  # 1 x 2 cells
        monkeypatch.setattr(solvers, "DEFAULT_BRUTE_FORCE_CELLS", 2)
        assert brute_force_solve(inst).fitness == 21
        monkeypatch.setattr(solvers, "DEFAULT_BRUTE_FORCE_CELLS", 1)
        with pytest.raises(GuardExceededError, match="1-cell guard"):
            brute_force_solve(inst)


class TestDpSolve:
    def test_matches_hand_examples(self):
        assert dp_solve(single_customer_instance()).fitness == 21
        assert dp_solve(single_customer_instance(lower=(1, 1))).fitness == Fraction(31, 2)

    def test_picks_best_pair_of_three(self):
        inst = Instance(
            n=3, k=1, weights=(1,), preferences=((4,), (6,), (5,)),
            suppression=(SuppressionTable((0, 1)),) * 3,
            lower_bounds=(2,), upper_bounds=(2,),
        )
        result = dp_solve(inst)
        assert result.fitness == 11
        assert result.matrix.entries == ((0,), (1,), (1,))

    def test_state_guard(self, monkeypatch):
        inst = single_customer_instance()  # 4 states per layer
        monkeypatch.setattr(solvers, "DEFAULT_DP_STATE_LIMIT", 4)
        assert dp_solve(inst).fitness == 21
        monkeypatch.setattr(solvers, "DEFAULT_DP_STATE_LIMIT", 3)
        with pytest.raises(GuardExceededError, match="states per layer"):
            dp_solve(inst)

    def test_total_cell_guard(self, monkeypatch):
        # (1 customer + the sweep's 2 x 2 active + 2 arrays) x 4 states
        inst = single_customer_instance()
        monkeypatch.setattr(solvers, "DP_CELL_LIMIT", 28)
        assert dp_solve(inst).fitness == 21
        monkeypatch.setattr(solvers, "DP_CELL_LIMIT", 27)
        with pytest.raises(GuardExceededError, match="choice cells"):
            dp_solve(inst)

    def test_deterministic(self):
        inst = Instance(
            n=3, k=2, weights=(1, 1), preferences=((5, 5), (5, 5), (5, 5)),
            suppression=(SuppressionTable((0, 1, 1)),) * 3,
            lower_bounds=(0, 0), upper_bounds=(2, 2),
        )
        assert dp_solve(inst).matrix == dp_solve(inst).matrix


def huge_preference_instance():
    """Preferences near 10^20: the DP's value bound exceeds 2^63."""
    rng = random.Random(2009)
    n, k = 5, 3
    prefs = tuple(tuple(rng.randint(0, 10**20) for _ in range(k)) for _ in range(n))
    tables = tuple(
        SuppressionTable(
            (Fraction(0),) + tuple(Fraction(rng.randint(0, 4), 4) for _ in range(k))
        )
        for _ in range(n)
    )
    return validate_instance(Instance(
        n=n, k=k, weights=(3, 1, 2), preferences=prefs, suppression=tables,
        lower_bounds=(1, 0, 2), upper_bounds=(4, 3, 3),
    ))


def binding_instance(seed, n, k):
    """A random instance with uppers n/4..n/3 and lowers 0..u/4, as the benchmark's greedy-scale.

    Every column of greedy's lower-bound phase closes with hundreds of rows
    still on its heap.
    """
    rng = random.Random(seed)
    upper = tuple(rng.randint(n // 4, n // 3) for _ in range(k))
    lower = tuple(rng.randint(0, u // 4) for u in upper)
    return replace(
        generate.random_instance(seed=seed, n=n, k=k), lower_bounds=lower, upper_bounds=upper
    )


PIN_INSTANCES = {
    "grid-30x4": lambda: generate.random_instance(seed=4, n=30, k=4),
    # upper bounds (23, 0, 25, 15): campaign 1 can never be assigned
    "zero-upper": lambda: generate.random_instance(seed=7, n=30, k=4),
    "reduced-3sat": lambda: reduction.reduce_3sat(
        generate.random_planted_formula(3, 5, 3)[0]
    ).instance,
    "huge-prefs": huge_preference_instance,
    # greedy's lower-bound phase applies nine negative gains here
    "negative-phase-1": lambda: generate.random_instance(seed=15, n=20, k=4),
    "constant-30x4": lambda: generate.random_instance(seed=5, n=30, k=4, family="constant"),
    "unbounded-30x4": lambda: generate.random_instance(seed=6, n=30, k=4, bounds="unbounded"),
    # local search climbs 48% above its greedy start over 187,257 checked moves
    "improving-100x8": lambda: generate.random_instance(seed=6, n=100, k=8),
    "binding-600x10": lambda: binding_instance(seed=1, n=600, k=10),
}

PIN_SOLVERS = {
    "dp": dp_solve,
    "greedy": greedy_construct,
    "local": lambda inst: local_search(inst, greedy_construct(inst).matrix),
    "const": solve_constant_suppression,
    "unbounded": solve_unbounded,
}

# (solver, instance) -> fitness, SHA-256 of the '\n'-joined row strings and
# explored, as recorded from the Fraction-scoring heuristics and closed forms
# and from the per-state reference implementation of dp_solve; greedy's
# explored counts the pops of its one-entry-per-row heap.  The local entries
# were recorded with the row move and its sweep, which rescan_local_search
# reproduces
PINS = {
    ("dp", "grid-30x4"): (
        "3095/4", "7e8cb33531c5fde0b9ec5248511708f48e8b4d0c530e9bdaaeb1767cd86df666", 396566,
    ),
    ("dp", "zero-upper"): (
        "2925/4", "81ab21df8e84e2e0bd9befcac93f1ac481d29ef1a4d55e0e4d77364e8fd3a607", 132480,
    ),
    ("dp", "reduced-3sat"): (
        "11111444", "638452d3ce669ed0f20e23e014c01d5c68df3a1471fc77fb7e3aa2d81f47586a", 63169,
    ),
    ("dp", "huge-prefs"): (
        "2123777523131295373481/2",
        "5563f3b2e5de95352b7cd39655fb761ef8ba7cdbe53214ab84eb3db5eb4079ca", 180,
    ),
    ("greedy", "grid-30x4"): (
        "2379/4", "0ec08759af45da03b3aab3039b890a7529cb91d7f22cc8cf86246c2f33f03836", 84,
    ),
    ("greedy", "negative-phase-1"): (
        "1045/2", "4c06fa0312697f310f12f103f5257ba4c4e66b414906b111c02cea1b12829cec", 79,
    ),
    ("greedy", "huge-prefs"): (
        "2032298738718956958493/2",
        "c915328d41948a860abd4e26ab64eb5700c3272224815d4cfc247673f17b22b4", 13,
    ),
    ("local", "grid-30x4"): (
        "2787/4", "53a2ec2f9b92724c0b2cc80c0b95de879077d96b5ebabdc788594600633262cf", 703,
    ),
    ("local", "negative-phase-1"): (
        "1181/2", "c783cef6c6d62104135954fec548f00b730a108fedb13a336fd19472b53d3a47", 667,
    ),
    ("local", "huge-prefs"): (
        "2032298738718956958493/2",
        "c915328d41948a860abd4e26ab64eb5700c3272224815d4cfc247673f17b22b4", 32,
    ),
    ("greedy", "binding-600x10"): (
        "82995/4", "c75b82afc01a7330874ce0865412d7602f47128e9334aaf327c345f067a77c8b", 2127,
    ),
    ("greedy", "improving-100x8"): (
        "14183/4", "8677dcbfd747222e8d606203d17dba2568116dae6012feba68795d424c53f353", 410,
    ),
    ("local", "improving-100x8"): (
        "10481/2", "9f1330bea279b17a00b12ba0b80436e28a2cf24a04a02890d8538f234acc2124", 187257,
    ),
    ("const", "constant-30x4"): (
        "3453/4", "b5e3e5f7ec408e47f7e0db268887c8c4c7ad9c8b0d426c34e603d6a15104bc1c", 120,
    ),
    ("unbounded", "unbounded-30x4"): (
        "5219/4", "63c049328a404453e8dedd69e5abbd508ba636e9345835221e9eb81e3eeb641c", 120,
    ),
}


@pytest.mark.parametrize("solver, name", sorted(PINS))
def test_matches_recorded_tie_break(solver, name):
    fitness, sha, explored = PINS[solver, name]
    result = PIN_SOLVERS[solver](PIN_INSTANCES[name]())
    rows = "\n".join("".join(map(str, row)) for row in result.matrix.entries)
    assert str(result.fitness) == fitness
    assert hashlib.sha256(rows.encode()).hexdigest() == sha
    assert result.stats.explored == explored


@given(
    st.lists(st.integers(0, 10**20), min_size=1, max_size=6),
    st.lists(st.integers(0, 12), min_size=7, max_size=7),
)
@settings(max_examples=100, deadline=None)
def test_best_subset_score_is_the_maximum(weighted, rates):
    campaigns = list(range(len(weighted)))
    best, cells = solvers._best_row(weighted, rates, campaigns)
    assert best == max(solvers._subset_scores(weighted, rates, campaigns))
    assert len(set(cells)) == len(cells) and set(cells) <= set(campaigns)
    assert rates[len(cells)] * sum(weighted[j] for j in cells) == best


@given(
    st.integers(1, 7).flatmap(lambda k: st.tuples(
        st.lists(st.sampled_from((0, 1, 2, 5, 10**20)), min_size=k, max_size=k),
        st.lists(st.integers(0, 12), min_size=k + 1, max_size=k + 1),
        # per campaign: left out, kept, or free to join
        st.lists(st.sampled_from(("out", "kept", "free")), min_size=k, max_size=k),
    ))
)
@settings(max_examples=300, deadline=None)
def test_best_row_with_kept_cells_matches_enumeration(case):
    weighted, rates, roles = case
    kept = [j for j, role in enumerate(roles) if role == "kept"]
    campaigns = [j for j, role in enumerate(roles) if role == "free"]
    best, cells = solvers._best_row(weighted, rates, campaigns, kept)
    # every superset of kept within kept + campaigns, keyed by the tie rule:
    # the best score, then the fewest cells, then the cells first by
    # descending weighted preference and ascending campaign
    expected = min(
        (
            -rates[len(kept) + len(chosen)] * sum(weighted[j] for j in kept + chosen),
            len(chosen),
            sorted((-weighted[j], j) for j in chosen),
            chosen,
        )
        for mask in range(1 << len(campaigns))
        for chosen in [[j for b, j in enumerate(campaigns) if mask >> b & 1]]
    )
    assert best == -expected[0]
    assert cells[:len(kept)] == kept
    assert sorted(cells[len(kept):]) == expected[3]


def test_dp_exact_beyond_int64():
    inst = huge_preference_instance()
    assert dp_solve(inst).fitness == brute_force_solve(inst).fitness


def dense_dp_sweep(inst):
    """The capacity-vector DP with an explicit reachability array: the oracle for the packed keys.

    Returns the rows, the scaled optimum and the explored states.  Each
    (layer, subset) step compares the reached, unblocked sources plus the
    subset's score against the next layer and copies the strictly better
    ones; subsets are visited by descending index offset, so the first
    candidate of a maximum wins.
    """
    n, k = inst.n, inst.k
    box = CapacityBox.from_caps(inst.upper_bounds)
    scale, rates, weighted = inst.scaled

    # campaigns with a zero upper bound can never be assigned; subsets range
    # over the remaining ones only
    active = [j for j in range(k) if inst.upper_bounds[j] > 0]
    nmasks = 1 << len(active)
    deltas = [0] * nmasks
    for mask in range(1, nmasks):
        low = mask & -mask
        deltas[mask] = deltas[mask ^ low] + box.strides[active[low.bit_length() - 1]]
    order = sorted(range(nmasks), key=deltas.__getitem__, reverse=True)
    # scores are nonnegative, so no reachable value exceeds this bound
    bound = sum(solvers._best_row(weighted[i], rates[i], active)[0] for i in range(n))
    dtype = np.int64 if bound < 2**63 else object
    mask_dtype = np.min_scalar_type(nmasks - 1)

    # per state: bitmask of active campaigns already at capacity, and
    # whether every column meets its lower bound
    size = box.size
    state = np.arange(size)
    full_mask = np.zeros(size, dtype=mask_dtype)
    meets_lower = np.ones(size, dtype=bool)
    bit = 0
    for cap, stride, lower in zip(box.caps, box.strides, inst.lower_bounds):
        digit = state // stride % (cap + 1)
        meets_lower &= digit >= lower
        if cap:
            full_mask |= (digit == cap).astype(mask_dtype) << bit
            bit += 1
    del state, digit

    explored = 0
    values = np.zeros(size, dtype=dtype)
    reached = np.zeros(size, dtype=bool)
    reached[0] = True
    choices = np.zeros((n, size), dtype=mask_dtype)
    for i in range(n):
        explored += int(np.count_nonzero(reached))
        prev_values, prev_reached = values, reached
        values = np.zeros(size, dtype=dtype)
        reached = np.zeros(size, dtype=bool)
        chosen = choices[i]
        scores = solvers._subset_scores(weighted[i], rates[i], active)
        for mask in order:
            # state s moves to s + d; a source needs headroom in every
            # campaign of the mask, so no digit carries
            d = deltas[mask]
            m = size - d
            ok = prev_reached[:m] & ((full_mask[:m] & mask) == 0)
            cand = prev_values[:m] + scores[mask]
            better = ok & (~reached[d:] | (cand > values[d:]))
            np.copyto(values[d:], cand, where=better)
            reached[d:] |= better
            np.copyto(chosen[d:], mask, where=better)

    terminals = np.flatnonzero(reached & meets_lower)
    # argmax returns the first maximum: the smallest terminal index
    best_idx = int(terminals[np.argmax(values[terminals])])
    best_value = int(values[best_idx])

    rows = [[0] * k for _ in range(n)]
    idx = best_idx
    for i in reversed(range(n)):
        mask = int(choices[i, idx])
        for b, j in enumerate(active):
            if (mask >> b) & 1:
                rows[i][j] = 1
        idx -= deltas[mask]
    return rows, Fraction(best_value, scale), explored


def assert_dp_matches_dense_sweep(inst):
    rows, fitness, explored = dense_dp_sweep(inst)
    result = dp_solve(inst)
    assert result.matrix == AssignmentMatrix.from_rows(rows)
    assert result.fitness == fitness
    assert result.stats.explored == explored


# pref_max 0 and 1 tie every row; 9 draws int8 and int16 keys, 2**40 mostly
# int32 and int64 ones, and 2**66 preferences above 2^64, so the keys can need
# dtype=object; random bounds include zero upper bounds
@given(st.sampled_from((0, 1, 9, 2**40, 2**66)).flatmap(
    lambda pref_max: instances(max_n=6, max_k=4, pref_max=pref_max)
))
@settings(max_examples=300, deadline=None)
def test_dp_matches_dense_sweep(inst):
    assert_dp_matches_dense_sweep(inst)


# five to eight campaigns put up to eight bits of mask in the keys and stack
# the DP's sources up to eight deep; the preference ceilings draw keys of
# every width, as above
@given(st.sampled_from((9, 2**40, 2**66)).flatmap(
    lambda pref_max: wide_instances(pref_max=pref_max)
))
@settings(max_examples=100, deadline=None)
def test_dp_matches_dense_sweep_on_many_campaigns(inst):
    assert_dp_matches_dense_sweep(inst)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_subset_offsets_ascend_with_the_mask(caps):
    # active strides at least double, so dp_solve can rank a subset by its mask
    box = CapacityBox.from_caps(caps)
    active = [box.strides[j] for j, cap in enumerate(caps) if cap]
    offsets = [
        sum(stride for b, stride in enumerate(active) if mask >> b & 1)
        for mask in range(1 << len(active))
    ]
    assert sorted(range(len(offsets)), key=offsets.__getitem__) == list(range(len(offsets)))
    assert len(set(offsets)) == len(offsets)


def key_switch_instance(bound):
    """Two rows over two campaigns whose value bound is ``bound``.

    Both rates are 1, so each row's best score is its preference sum; both
    campaigns are active, so the keys carry two rank bits and ``floor`` is
    ``-(1 << L)`` with ``L`` the bit length of ``(bound + 1) << 2``.  The keys
    widen from int8 to int16, int32, int64 and ``dtype=object`` where that
    shift reaches ``2**7``, ``2**15``, ``2**31`` and ``2**63``, so the last
    bound of each width is ``2**5 - 2``, ``2**13 - 2``, ``2**29 - 2`` and
    ``2**61 - 2``.
    """
    q = bound // 4
    return validate_instance(Instance(
        n=2, k=2, weights=(1, 1), preferences=((q, q), (q, bound - 3 * q)),
        suppression=(SuppressionTable((0, 1, 1)),) * 2,
        lower_bounds=(1, 0), upper_bounds=(2, 1),
    ))


# the last and first bound of each key width: int8/int16, int16/int32,
# int32/int64 and int64/object
@pytest.mark.parametrize("bound", [
    2**5 - 2, 2**5 - 1, 2**13 - 2, 2**13 - 1, 2**29 - 2, 2**29 - 1, 2**61 - 2, 2**61 - 1,
])
def test_dp_matches_dense_sweep_at_key_dtype_switch(bound):
    inst = key_switch_instance(bound)
    _, rates, weighted = inst.scaled
    assert sum(solvers._best_row(row, r, [0, 1])[0] for row, r in zip(weighted, rates)) == bound
    assert_dp_matches_dense_sweep(inst)
    assert dp_solve(inst).fitness == brute_force_solve(inst).fitness


def test_dp_matches_dense_sweep_with_no_active_campaign():
    inst = validate_instance(Instance(
        n=3, k=2, weights=(1, 2), preferences=((4, 5), (0, 7), (3, 3)),
        suppression=(SuppressionTable((0, 1, Fraction(1, 2))),) * 3,
        lower_bounds=(0, 0), upper_bounds=(0, 0),
    ))
    assert_dp_matches_dense_sweep(inst)
    assert dp_solve(inst).matrix == AssignmentMatrix.zero(3, 2)


def sweep_instance(n, lower, upper, seed=0):
    """A seeded instance with the given bounds and grid-family tables."""
    rng = random.Random(seed)
    k = len(upper)
    return validate_instance(Instance(
        n=n, k=k, weights=tuple(rng.randint(1, 5) for _ in range(k)),
        preferences=tuple(tuple(rng.randint(0, 9) for _ in range(k)) for _ in range(n)),
        suppression=tuple(
            SuppressionTable((Fraction(0),) + tuple(Fraction(rng.randint(0, 4), 4) for _ in range(k)))
            for _ in range(n)
        ),
        lower_bounds=tuple(lower), upper_bounds=tuple(upper),
    ))


def assert_dp_matches_oracles(inst):
    assert_dp_matches_dense_sweep(inst)
    assert dp_solve(inst).fitness == brute_force_solve(inst).fitness


# the sweep's last active campaign takes no poison array and no stack slot;
# each case is one path through its step plan
SWEEP_PATHS = {
    # trailing zero uppers: the last active campaign is 2 of 0-3, free or
    # filled to capacity by its lower bound
    "last-active-free": (5, (0, 0, 0, 0), (2, 0, 3, 0)),
    "last-active-filled": (5, (1, 0, 3, 0), (2, 0, 3, 0)),
    # the largest upper is n, so the reachable box grows and the steps are
    # planned again in every layer
    "box-grows-every-layer": (4, (0, 1, 0, 2), (4, 1, 2, 3)),
    # every upper is below n, so the steps are planned in the first layers
    # and reused by the rest
    "box-full-early": (6, (0, 1, 0), (1, 2, 1)),
    # one active campaign: no poison array, every step adds to the base
    "single-active": (5, (0, 2, 0), (0, 3, 0)),
    "single-campaign": (7, (3,), (5,)),
    # one customer: the layer is the scatter from state 0 alone, with no plan
    "one-customer": (1, (0, 0, 0, 0), (1, 0, 1, 0)),
    "one-customer-filled": (1, (1, 0, 1, 0), (1, 0, 1, 0)),
    "one-customer-no-active": (1, (0, 0), (0, 0)),
}


@pytest.mark.parametrize("name", sorted(SWEEP_PATHS))
@pytest.mark.parametrize("seed", range(4))
def test_dp_sweep_paths_match_oracles(name, seed):
    n, lower, upper = SWEEP_PATHS[name]
    assert_dp_matches_oracles(sweep_instance(n, lower, upper, seed))


def test_dp_back_to_back_solves_share_nothing():
    # object keys, then small keys over other boxes and campaign counts: no
    # buffer, view or step plan of one call may reach the next
    big = huge_preference_instance()
    small = sweep_instance(4, (0, 1, 0), (4, 2, 1), seed=3)
    trailing = sweep_instance(5, (0, 0, 3, 0), (2, 0, 3, 0), seed=1)
    for inst in (big, small, trailing, small, big):
        assert_dp_matches_oracles(inst)


def constant_instance(n, upper, seed=0):
    """A seeded instance whose every subset scores above 0: constant rate 3/4, preferences 1-9."""
    rng = random.Random(seed)
    k = len(upper)
    return validate_instance(Instance(
        n=n, k=k, weights=tuple(rng.randint(1, 5) for _ in range(k)),
        preferences=tuple(tuple(rng.randint(1, 9) for _ in range(k)) for _ in range(n)),
        suppression=(SuppressionTable.constant(Fraction(3, 4), k),) * n,
        lower_bounds=(0,) * k, upper_bounds=tuple(upper),
    ))


@pytest.mark.parametrize("n, upper", [
    (3, (2, 0, 1)),
    (4, (1, 2, 0, 1)),
    (2, (0, 2, 0)),
    (3, (1, 1, 1, 1, 1)),
    (2, (0, 0)),
])
def test_dp_skips_the_outermost_or(monkeypatch, n, upper):
    # only subsets without the last active campaign OR in a poison array:
    # 2^(active - 1) - 1 of them per layer, after customer 0's, which is a
    # scatter from state 0 and ORs nothing; every nonempty subset scores
    # above 0, so every layer walks all of them and none takes the rank pass
    inst = constant_instance(n, upper)
    _, rates, weighted = inst.scaled
    columns = [j for j, u in enumerate(upper) if u]
    for row, r in zip(weighted, rates):
        assert all(solvers._subset_scores(row, r, columns)[1:])
    active = len(columns)
    calls = []
    bitwise_or = np.bitwise_or

    def counting_or(*args, **kwargs):
        calls.append(1)
        return bitwise_or(*args, **kwargs)

    monkeypatch.setattr(np, "bitwise_or", counting_or)
    result = dp_solve(inst)
    assert len(calls) == ((n - 1) * (2 ** (active - 1) - 1) if active else 0)
    assert result.fitness == brute_force_solve(inst).fitness


def rank_pass_layers(inst):
    """The customers after the first whose layer takes the DP's rank pass.

    The positive-score subsets are counted from every subset's score: a
    layer takes the pass when ``3 * (bits + positives) <= nmasks``.
    """
    _, rates, weighted = inst.scaled
    active = [j for j in range(inst.k) if inst.upper_bounds[j] > 0]
    bits = len(active)
    return [
        i for i in range(1, inst.n)
        if 3 * (bits + sum(map(bool, solvers._subset_scores(weighted[i], rates[i], active))))
        <= 1 << bits
    ]


@given(
    st.lists(st.sampled_from((0, 0, 1, 7, 10**20)), min_size=0, max_size=8).flatmap(
        lambda weighted: st.tuples(
            st.just(weighted),
            st.lists(st.sampled_from((0, 0, 1, 3)), min_size=len(weighted) + 1,
                     max_size=len(weighted) + 1),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_positive_subsets_are_the_positive_scores(case):
    weighted, rates = case
    campaigns = list(range(len(weighted)))
    found = solvers._positive_subsets(weighted, rates, campaigns)
    scores = solvers._subset_scores(weighted, rates, campaigns)
    assert sorted(found) == [(mask, score) for mask, score in enumerate(scores) if score]


# sparse rows (an indicator table and at most two nonzero preferences) take
# the rank pass, dense ones walk every subset; pref_max 0 and 1 tie many
# rows, and 2**66 puts the keys beyond int64
@given(st.sampled_from((0, 1, 9, 2**66)).flatmap(
    lambda pref_max: sparse_instances(pref_max=pref_max)
))
@settings(max_examples=200, deadline=None)
def test_dp_rank_pass_matches_oracles(inst):
    assert_dp_matches_dense_sweep(inst)
    if inst.n * inst.k <= solvers.DEFAULT_BRUTE_FORCE_CELLS:
        assert dp_solve(inst).fitness == brute_force_solve(inst).fitness


def test_dp_rank_pass_with_object_keys():
    # huge_preference_instance's preferences near 10^20, one per row, the
    # other four 0, with indicator tables: every layer after customer 0 takes
    # the rank pass, with keys beyond int64
    rng = random.Random(2009)
    n, k = 4, 5
    prefs = []
    for _ in range(n):
        row = [0] * k
        row[rng.randrange(k)] = rng.randint(0, 10**20)
        prefs.append(tuple(row))
    inst = validate_instance(Instance(
        n=n, k=k, weights=(3, 1, 2, 1, 2), preferences=tuple(prefs),
        suppression=tuple(SuppressionTable.indicator(1 + i % 2, k) for i in range(n)),
        lower_bounds=(1, 0, 2, 0, 1), upper_bounds=(2, 1, 2, 1, 2),
    ))
    _, rates, weighted = inst.scaled
    bound = sum(solvers._best_row(weighted[i], rates[i], range(k))[0] for i in range(n))
    assert bound << k >= 2**63
    assert rank_pass_layers(inst) == list(range(1, n))
    assert_dp_matches_oracles(inst)


def test_dp_rank_pass_runs_on_every_reduced_layer(monkeypatch):
    # every row of a reduced 3-CNF has an indicator table and one to three
    # nonzero preferences, so every layer after customer 0 takes the rank
    # pass: one np.maximum per active campaign and one per positive-score
    # subset, where the walk takes one per nonempty subset; every add still
    # takes a 0-d view of the keys' type, not a Python integer
    red = reduction.reduce_3sat(generate.random_planted_formula(3, 5, 3)[0])
    inst = red.instance
    _, rates, weighted = inst.scaled
    active = [j for j in range(inst.k) if inst.upper_bounds[j] > 0]
    assert rank_pass_layers(inst) == list(range(1, inst.n))
    expected = sum(
        len(active) + sum(map(bool, solvers._subset_scores(weighted[i], rates[i], active)))
        for i in range(1, inst.n)
    )
    assert expected < (inst.n - 1) * ((1 << len(active)) - 1)
    calls = []
    maximum, add = np.maximum, np.add

    def counting_maximum(*args, **kwargs):
        calls.append(1)
        return maximum(*args, **kwargs)

    def strict_add(*args, **kwargs):
        for arg in (*args, *kwargs.values()):
            assert not isinstance(arg, int), f"np.add got the Python integer {arg}"
        return add(*args, **kwargs)

    monkeypatch.setattr(np, "maximum", counting_maximum)
    monkeypatch.setattr(np, "add", strict_add)
    result = dp_solve(inst)
    assert len(calls) == expected
    assert result.fitness == red.threshold


def test_dp_one_customer_with_object_keys():
    # the scatter from state 0 alone, with keys beyond int64
    inst = huge_preference_instance()
    inst = validate_instance(replace(
        inst, n=1, preferences=inst.preferences[:1], suppression=inst.suppression[:1],
        lower_bounds=(1, 0, 0), upper_bounds=(1, 1, 1),
    ))
    _, rates, weighted = inst.scaled
    assert solvers._best_row(weighted[0], rates[0], range(inst.k))[0] << inst.k >= 2**63
    assert_dp_matches_oracles(inst)


def test_dp_solves_a_reduced_formula_to_its_threshold():
    # 4 active campaigns over 40 states: the dense oracle's size
    formula, planted = generate.random_planted_formula(2, 3, 1)
    red = reduction.reduce_3sat(formula)
    assert reduction.satisfies(formula, planted)
    assert_dp_matches_dense_sweep(red.instance)
    assert dp_solve(red.instance).fitness == red.threshold


@pytest.mark.parametrize("bound, width", [
    (2**5 - 2, "int8"), (2**13 - 2, "int16"), (2**29 - 2, "int32"), (2**61 - 2, "int64"),
    (2**61 - 1, "object"),
])
def test_dp_adds_no_python_integer(monkeypatch, bound, width):
    # every score the sweep adds is a 0-d view of the packed scores, in the
    # keys' own type, so no np.add converts a Python integer
    inst = key_switch_instance(bound)
    rows, fitness, explored = dense_dp_sweep(inst)
    dtypes = set()
    add = np.add

    def strict_add(*args, **kwargs):
        for arg in (*args, *kwargs.values()):
            assert not isinstance(arg, int), f"np.add got the Python integer {arg}"
        dtypes.add(args[0].dtype)
        return add(*args, **kwargs)

    monkeypatch.setattr(np, "add", strict_add)
    result = dp_solve(inst)
    assert dtypes == {np.dtype(width)}
    assert result.matrix == AssignmentMatrix.from_rows(rows)
    assert (result.fitness, result.stats.explored) == (fitness, explored)


class TestConstantSuppression:
    def test_top_customers_per_campaign(self):
        inst = Instance(
            n=3, k=1, weights=(1,), preferences=((4,), (6,), (5,)),
            suppression=(
                SuppressionTable.constant(1, 1),
                SuppressionTable.constant(Fraction(1, 2), 1),
                SuppressionTable.constant(1, 1),
            ),
            lower_bounds=(1,), upper_bounds=(2,),
        )
        result = solve_constant_suppression(inst)
        assert result.fitness == 9
        assert result.matrix.entries == ((1,), (0,), (1,))

    def test_all_zero_rho(self):
        inst = Instance(
            n=2, k=1, weights=(1,), preferences=((4,), (6,)),
            suppression=(SuppressionTable.constant(0, 1),) * 2,
            lower_bounds=(0,), upper_bounds=(2,),
        )
        result = solve_constant_suppression(inst)
        assert result.fitness == 0
        assert result.matrix.column_sums() == (2,)

    def test_rejects_non_constant_table(self):
        inst = single_customer_instance()
        with pytest.raises(PreconditionError, match="not constant"):
            solve_constant_suppression(inst)


class TestUnbounded:
    def test_single_customer(self):
        inst = Instance(
            n=1, k=2, weights=(2, 3), preferences=((5, 7),),
            suppression=(SuppressionTable((0, 1, Fraction(1, 2))),),
            lower_bounds=(0, 0), upper_bounds=(1, 1),
        )
        result = solve_unbounded(inst)
        # candidates: h=0 -> 0, h=1 -> 21, h=2 -> 31/2
        assert result.matrix.entries == ((0, 1),)
        assert result.fitness == 21

    def test_zero_preferences(self):
        inst = Instance(
            n=2, k=2, weights=(1, 1), preferences=((0, 0), (0, 0)),
            suppression=(SuppressionTable((0, 1, 1)),) * 2,
            lower_bounds=(0, 0), upper_bounds=(2, 2),
        )
        result = solve_unbounded(inst)
        assert result.fitness == 0
        assert result.matrix == AssignmentMatrix.zero(2, 2)

    def test_rejects_nontrivial_bounds(self):
        inst = single_customer_instance(lower=(1, 1))
        with pytest.raises(PreconditionError, match="bounds"):
            solve_unbounded(inst)


class TestGreedy:
    def test_forced_instance(self):
        result = greedy_construct(single_customer_instance(lower=(1, 1)))
        assert result.matrix.entries == ((1, 1),)
        assert result.fitness == Fraction(31, 2)
        assert not result.optimal

    def test_zero_preferences_stay_empty(self):
        inst = Instance(
            n=2, k=2, weights=(1, 1), preferences=((0, 0), (0, 0)),
            suppression=(SuppressionTable((0, 1, 1)),) * 2,
            lower_bounds=(0, 0), upper_bounds=(2, 2),
        )
        assert greedy_construct(inst).matrix == AssignmentMatrix.zero(2, 2)

    def test_respects_bound_of_21(self):
        result = greedy_construct(single_customer_instance())
        assert check_feasibility(single_customer_instance(), result.matrix).feasible
        assert result.fitness <= 21


def per_cell_greedy(inst):
    """Greedy with one heap entry per open cell: the oracle for the row heap.

    Returns the rows and the scaled total.  Setting a cell pushes fresh
    entries for the rest of its row; an entry is dropped when its cell is
    set, its column is closed or its gain is no longer the cell's current
    one.
    """
    n, k = inst.n, inst.k
    _, rates, weighted = inst.scaled
    rows = [[0] * k for _ in range(n)]
    h, row_value, cols = [0] * n, [0] * n, [0] * k
    total = 0
    for limit, positive_only in ((inst.lower_bounds, False), (inst.upper_bounds, True)):
        current, heap = {}, []
        for i in range(n):
            for j in range(k):
                if rows[i][j] == 0 and cols[j] < limit[j]:
                    gain = solvers._gain(rates[i], row_value[i], h[i], weighted[i][j], 1)
                    current[i, j] = gain
                    heap.append((-gain, i, j))
        heapq.heapify(heap)
        while heap:
            neg_gain, i, j = heapq.heappop(heap)
            if rows[i][j] == 1 or cols[j] >= limit[j] or current[i, j] != -neg_gain:
                continue
            if positive_only and neg_gain >= 0:
                break
            rows[i][j] = 1
            cols[j] += 1
            row_value[i] += weighted[i][j]
            h[i] += 1
            total -= neg_gain
            for q in range(k):
                if rows[i][q] == 0 and cols[q] < limit[q]:
                    fresh = solvers._gain(rates[i], row_value[i], h[i], weighted[i][q], 1)
                    current[i, q] = fresh
                    heapq.heappush(heap, (-fresh, i, q))
    return rows, total


@given(
    st.integers(0, 2**32),
    st.integers(1, 12),
    st.integers(1, 8),
    st.sampled_from((0, 1, 9)),
    st.sampled_from(generate.SUPPRESSION_FAMILIES),
    st.sampled_from(("random", "unbounded")),
)
@settings(max_examples=300, deadline=None)
def test_greedy_matches_per_cell_heap(seed, n, k, pref_max, family, bounds):
    # indicator tables give rows whose next rate is 0; pref_max 0 and 1 tie
    # weighted preferences; random bounds give negative phase-1 gains
    inst = generate.random_instance(
        seed=seed, n=n, k=k, pref_max=pref_max, family=family, bounds=bounds
    )
    scale = inst.scaled[0]
    rows, total = per_cell_greedy(inst)
    result = greedy_construct(inst)
    assert result.matrix == AssignmentMatrix.from_rows(rows)
    assert result.fitness == Fraction(total, scale)


unit_fractions = st.integers(1, 60).flatmap(
    lambda den: st.integers(0, den).map(lambda num: Fraction(num, den))
)


@given(
    st.integers(1, 6).flatmap(
        lambda k: st.lists(
            st.lists(unit_fractions, min_size=k, max_size=k), min_size=1, max_size=5
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_scaled_rates_equal_fraction_products(levels):
    k = len(levels[0])
    inst = validate_instance(Instance(
        n=len(levels), k=k, weights=(1,) * k, preferences=((0,) * k,) * len(levels),
        suppression=tuple(SuppressionTable((Fraction(0), *row)) for row in levels),
        lower_bounds=(0,) * k, upper_bounds=(0,) * k,
    ))
    scale, rates, _ = inst.scaled
    assert rates == tuple(tuple(int(v * scale) for v in t.values) for t in inst.suppression)


def fraction_formula_scaled(inst):
    """``Instance.scaled`` by the formula it replaced: one conversion per table entry."""
    scale = lcm(*(v.denominator for t in inst.suppression for v in t.values))
    rates = tuple(
        tuple(v.numerator * (scale // v.denominator) for v in t.values) for t in inst.suppression
    )
    weighted = tuple(
        tuple(w * p for w, p in zip(inst.weights, row)) for row in inst.preferences
    )
    return scale, rates, weighted


@pytest.mark.parametrize("name", [*sorted(PIN_INSTANCES), "read-reduced-3sat"])
def test_scaled_equals_the_per_entry_formula(name, tmp_path):
    if name == "read-reduced-3sat":
        # read back from a file, so equal values share one Fraction
        formula, _ = generate.random_planted_formula(11, 6, 25)
        path = tmp_path / "reduced.json"
        io.write_instance(reduction.reduce_3sat(formula).instance, path)
        inst = io.read_instance(path)
    else:
        inst = PIN_INSTANCES[name]()
    assert inst.scaled == fraction_formula_scaled(inst)


def test_run_bench_keeps_scaled():
    # every solver runs on this instance and reads the one cached scaled form
    inst = generate.random_instance(seed=3, n=4, k=3, family="constant", bounds="unbounded")
    scaled = inst.scaled
    rows = run_bench(inst)
    assert not any("skipped" in row for row in rows)
    assert inst.scaled is scaled
    assert scaled == replace(inst).scaled


def rescan_local_search(inst, start):
    """Local search that enumerates every row and every swap partner: the oracle.

    Returns the rows, the scaled total and the checked moves.  It alternates
    local_search's two phases.  The row sweep visits rows cyclically from
    row 0 until ``n`` visits in a row apply nothing; each visit tries all
    2^k rows of the customer that keep every column within its bounds and
    takes the one of the best score, then the fewest cells, then the cells
    first in descending weighted preference and ascending campaign, when it
    scores strictly more than the row.  The swap scan visits the set cells
    in row-major order, tries every free row of the column and applies the
    first improving swap, counting each partner it tries, and restarts.
    """
    n, k = inst.n, inst.k
    lower, upper = inst.lower_bounds, inst.upper_bounds
    _, rates, weighted = inst.scaled
    rows = [list(row) for row in start.entries]
    cols = [sum(column) for column in zip(*rows)]
    moves_checked = 0

    def score(i, row):
        return rates[i][sum(row)] * sum(w for w, m in zip(weighted[i], row) if m)

    def row_move(i):
        candidates = [
            (-score(i, row), sum(row), sorted((-weighted[i][j], j) for j in range(k) if row[j]), row)
            for row in product((0, 1), repeat=k)
            if all(lower[j] <= cols[j] - rows[i][j] + row[j] <= upper[j] for j in range(k))
        ]
        # the row itself is a candidate, so the gain is never negative
        neg_best, _, _, row = min(candidates)
        gain = -neg_best - score(i, rows[i])
        if gain > 0:
            for j in range(k):
                cols[j] += row[j] - rows[i][j]
            rows[i] = list(row)
        return gain

    def sweep():
        nonlocal moves_checked
        gained, idle, i = 0, 0, 0
        while idle < n:
            moves_checked += 1
            gain = row_move(i)
            gained += gain
            idle = 0 if gain else idle + 1
            i = (i + 1) % n
        return gained

    def flip_gain(i, j):
        row = list(rows[i])
        row[j] ^= 1
        return score(i, row) - score(i, rows[i])

    def swap():
        nonlocal moves_checked
        for i in range(n):
            for j in range(k):
                if rows[i][j] == 0:
                    continue
                moves_checked += 1
                out_gain = flip_gain(i, j)
                for i2 in range(n):
                    if rows[i2][j] == 0:
                        moves_checked += 1
                        if (gain := out_gain + flip_gain(i2, j)) > 0:
                            rows[i][j], rows[i2][j] = 0, 1
                            return gain
        return 0

    total = sum(score(i, row) for i, row in enumerate(rows))
    while True:
        total += sweep()
        swapped = False
        while (applied := swap()) > 0:
            total += applied
            swapped = True
        if not swapped:
            return rows, total, moves_checked


@given(
    st.integers(0, 2**32),
    st.integers(1, 12),
    st.integers(1, 6),
    st.sampled_from((0, 1, 9, 10**20)),
    st.sampled_from(generate.SUPPRESSION_FAMILIES),
    st.sampled_from(("random", "unbounded")),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_local_search_matches_rescan(seed, n, k, pref_max, family, bounds, from_greedy):
    # pref_max 0 and 1 tie gains; indicator tables give zero rates; random
    # bounds block flips, so the scan reaches the swaps
    inst = generate.random_instance(
        seed=seed, n=n, k=k, pref_max=pref_max, family=family, bounds=bounds
    )
    start = greedy_construct(inst).matrix if from_greedy else random_feasible_matrix(seed, inst)
    scale = inst.scaled[0]
    rows, total, explored = rescan_local_search(inst, start)
    result = local_search(inst, start)
    assert result.matrix == AssignmentMatrix.from_rows(rows)
    assert result.fitness == Fraction(total, scale)
    assert result.stats.explored == explored


def ceiling_sum(inst):
    """The scaled ``[0, n]`` relaxation bound: every row's best score with no column bound."""
    _, rates, weighted = inst.scaled
    return sum(solvers._best_row(weighted[i], rates[i], range(inst.k))[0] for i in range(inst.n))


def test_local_search_stops_at_the_row_ceilings():
    # (a) every row of the unbounded optimum is at its ceiling: the sweep
    # visits each row once, the search stops, and explored adds the swap
    # scan's count in closed form
    for seed in range(8):
        n = 1 + seed % 12
        inst = generate.random_instance(seed=seed, n=n, k=1 + seed % 6, bounds="unbounded")
        start = solve_unbounded(inst).matrix
        result = local_search(inst, start)
        cols = start.column_sums()
        assert result.matrix == start
        assert result.stats.explored == n + sum(c * (1 + n - c) for c in cols)
        assert result.optimal is False
    # (b) binding instances as heuristic-auto builds them, scaled down: some
    # searches end on the ceiling sum and some below it, and both match the
    # oracle, which knows no ceiling
    outcomes = set()
    for idx in range(48):
        n = 4 + idx % 9
        rng = random.Random(idx)
        upper = tuple(rng.randint(n // 2, n) for _ in range(4))
        lower = tuple(rng.randint(0, u // 2) if idx % 3 == 2 else 0 for u in upper)
        inst = replace(
            generate.random_instance(seed=idx, n=n, k=4), lower_bounds=lower, upper_bounds=upper
        )
        start = greedy_construct(inst).matrix
        rows, total, explored = rescan_local_search(inst, start)
        result = local_search(inst, start)
        assert result.matrix == AssignmentMatrix.from_rows(rows)
        assert result.fitness == Fraction(total, inst.scaled[0])
        assert result.stats.explored == explored
        assert result.optimal is False
        outcomes.add(total == ceiling_sum(inst))
    assert outcomes == {True, False}


@given(
    st.integers(0, 2**32),
    st.integers(1, 8),
    st.integers(1, 4),
    st.sampled_from((0, 1, 9)),
    st.sampled_from(generate.SUPPRESSION_FAMILIES),
    st.sampled_from(("random", "unbounded")),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_local_search_ends_where_no_move_gains(seed, n, k, pref_max, family, bounds, from_greedy):
    inst = generate.random_instance(
        seed=seed, n=n, k=k, pref_max=pref_max, family=family, bounds=bounds
    )
    start = greedy_construct(inst).matrix if from_greedy else random_feasible_matrix(seed, inst)
    result = local_search(inst, start)
    fitness = result.fitness
    rows = [list(row) for row in result.matrix.entries]

    def fitness_of(candidate):
        matrix = AssignmentMatrix.from_rows(candidate)
        return evaluate_fitness(inst, matrix) if check_feasibility(inst, matrix).feasible else None

    def replaced(changes):
        return [changes.get(i, row) for i, row in enumerate(rows)]

    moves = []
    for i in range(n):
        for j in range(k):
            # a flip
            moves.append({i: [cell ^ (q == j) for q, cell in enumerate(rows[i])]})
            # a swap within column j
            if rows[i][j]:
                for i2 in range(n):
                    if not rows[i2][j]:
                        moves.append({
                            i: [cell & (q != j) for q, cell in enumerate(rows[i])],
                            i2: [cell | (q == j) for q, cell in enumerate(rows[i2])],
                        })
        # a row move: any row of customer i
        moves.extend({i: list(row)} for row in product((0, 1), repeat=k))
    for changes in moves:
        candidate = fitness_of(replaced(changes))
        assert candidate is None or candidate <= fitness


class TestLocalSearch:
    def test_fixed_point_at_optimum(self):
        inst = single_customer_instance()
        optimum = brute_force_solve(inst).matrix
        result = local_search(inst, optimum)
        assert result.fitness == 21

    def test_climbs_from_zero(self):
        inst = single_customer_instance()
        result = local_search(inst, AssignmentMatrix.zero(1, 2))
        assert result.fitness == 21

    def test_fills_a_row_whose_first_cell_gains_nothing(self):
        # r(1) = 0: greedy leaves the row empty and every flip gains 0, but
        # the row move to both campaigns gains 2, the optimum
        inst = Instance(
            n=1, k=2, weights=(1, 1), preferences=((1, 1),),
            suppression=(SuppressionTable((0, 0, 1)),),
            lower_bounds=(0, 0), upper_bounds=(1, 1),
        )
        greedy = greedy_construct(inst)
        assert greedy.matrix == AssignmentMatrix.zero(1, 2)
        assert all(
            evaluate_fitness(inst, AssignmentMatrix((cells,))) == 0
            for cells in ((1, 0), (0, 1))
        )
        result = local_search(inst, greedy.matrix)
        assert result.matrix.entries == ((1, 1),)
        assert result.fitness == 2 == dp_solve(inst).fitness

    def test_rejects_infeasible_start(self):
        inst = single_customer_instance(lower=(1, 1))
        with pytest.raises(InfeasibleError):
            local_search(inst, AssignmentMatrix.zero(1, 2))


@given(instances())
@settings(max_examples=100, deadline=None)
def test_dp_equals_brute_force(inst):
    assert dp_solve(inst).fitness == brute_force_solve(inst).fitness


@given(instances(max_n=3, max_k=2))
@settings(max_examples=30, deadline=None)
def test_exact_solvers_match_direct_enumeration(inst):
    expected = oracle_enumerate(inst)
    assert brute_force_solve(inst).fitness == expected
    assert dp_solve(inst).fitness == expected


@given(instances(max_n=5, families=("constant",)))
@settings(max_examples=60, deadline=None)
def test_constant_suppression_matches_dp(inst):
    assert solve_constant_suppression(inst).fitness == dp_solve(inst).fitness


@given(instances(bounds="unbounded"))
@settings(max_examples=60, deadline=None)
def test_unbounded_matches_brute_force(inst):
    assert solve_unbounded(inst).fitness == brute_force_solve(inst).fitness


@given(feasible_pairs())
@settings(max_examples=60, deadline=None)
def test_heuristics_feasible_and_dominated(pair):
    inst, start = pair
    exact = dp_solve(inst).fitness
    greedy = greedy_construct(inst)
    assert check_feasibility(inst, greedy.matrix).feasible
    assert greedy.fitness <= exact
    improved = local_search(inst, start)
    assert check_feasibility(inst, improved.matrix).feasible
    assert evaluate_fitness(inst, start) <= improved.fitness <= exact


@given(instances(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_fitness_invariant_under_customer_permutation(inst, rng):
    order = list(range(inst.n))
    rng.shuffle(order)
    permuted = Instance(
        n=inst.n, k=inst.k, weights=inst.weights,
        preferences=tuple(inst.preferences[i] for i in order),
        suppression=tuple(inst.suppression[i] for i in order),
        lower_bounds=inst.lower_bounds, upper_bounds=inst.upper_bounds,
    )
    original = dp_solve(inst)
    assert dp_solve(permuted).fitness == original.fitness
    # the permuted optimal matrix stays feasible and keeps its fitness
    carried = AssignmentMatrix(tuple(original.matrix.entries[i] for i in order))
    assert check_feasibility(permuted, carried).feasible
    assert evaluate_fitness(permuted, carried) == original.fitness


@given(instances())
@settings(max_examples=40, deadline=None)
def test_solver_outputs_are_feasible_with_recomputed_fitness(inst):
    for result in (brute_force_solve(inst), dp_solve(inst), greedy_construct(inst)):
        assert check_feasibility(inst, result.matrix).feasible
        assert evaluate_fitness(inst, result.matrix) == result.fitness
        assert result.stats.elapsed_s >= 0
