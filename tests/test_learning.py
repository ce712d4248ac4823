import random
import re
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import mcap
from mcap import learning
from mcap.core import (
    GuardExceededError,
    InternalCheckError,
    SuppressionTable,
    ValidationError,
)
from mcap.learning import (
    TABLE_CELL_LIMIT,
    FitResult,
    fit_categories,
    fit_suppression,
    records_from_json,
    _search,
    _tables,
)


def rec(p, h, responded, campaign="c"):
    """One outcome ``(campaign, preference, h, responded)``: a key of a fit's counts."""
    return (campaign, p, h, responded)


def counts(*outcomes):
    return Counter(outcomes)


def noise_free_records(true_table, prefs=(1, 2, 3), threshold=2):
    """Counts whose responses are exactly thresholded true-table scores.

    Any responder i and non-responder j then satisfy
    p_i*r(h_i) > threshold >= p_j*r(h_j), so the true table satisfies every
    pairwise condition.
    """
    return counts(*(
        rec(p, h, p * true_table[h] > threshold)
        for p, h in product(prefs, range(1, len(true_table)))
    ))


def exhaustive_best(outcome_counts, max_h, grid):
    """Independent search over every grid table, Fraction arithmetic."""
    by_campaign = {}
    for (campaign, p, h, responded), count in outcome_counts.items():
        yes, no = by_campaign.setdefault(campaign, ([], []))
        (yes if responded else no).append((p, h, count))
    best = -1
    for combo in product(range(grid + 1), repeat=max_h):
        table = [Fraction(0)] + [Fraction(q, grid) for q in combo]
        count = sum(
            n_i * n_j
            for yes, no in by_campaign.values()
            for (p_i, h_i, n_i) in yes
            for (p_j, h_j, n_j) in no
            if p_i * table[h_i] > p_j * table[h_j]
        )
        best = max(best, count)
    return best


def pair_conditions(outcome_counts):
    """Oracle: every responder/non-responder outcome pair of a campaign, listed.

    Key ``(p_i, h_i, p_j, h_j)`` means: satisfied iff
    ``p_i * r(h_i) > p_j * r(h_j)``; the value is how many pairs share it,
    the product of the two outcome counts summed over the campaigns.
    """
    by_campaign = {}
    for (campaign, preference, h, responded), count in outcome_counts.items():
        yes, no = by_campaign.setdefault(campaign, ({}, {}))
        (yes if responded else no)[preference, h] = count
    conditions = {}
    for yes, no in by_campaign.values():
        for (p_i, h_i), yes_count in yes.items():
            for (p_j, h_j), no_count in no.items():
                key = (p_i, h_i, p_j, h_j)
                conditions[key] = conditions.get(key, 0) + yes_count * no_count
    return conditions


def pair_tables(outcome_counts, max_h, grid):
    """Oracle for ``_tables``: each listed pair's truth table of ``p_i*x > p_j*y``, weighted.

    Level ``h`` is index ``h - 1``.  A pair goes to the block of its lower
    level first, so a responder above its non-responder adds its table
    transposed; the blocks below the diagonal stay zero.
    """
    tables = np.zeros((max_h, max_h, grid + 1, grid + 1), dtype=object)
    levels = np.arange(grid + 1, dtype=object)
    for (p_i, h_i, p_j, h_j), mult in pair_conditions(outcome_counts).items():
        truth = (p_i * levels[:, None] > p_j * levels).astype(object) * mult
        if h_i <= h_j:
            tables[h_i - 1, h_j - 1] += truth
        else:
            tables[h_j - 1, h_i - 1] += truth.T
    return tables


def condition_counts(conditions):
    """Counts whose pairs are exactly ``conditions``, one campaign per condition.

    Campaign ``idx`` holds a responder ``(p_i, h_i)`` carrying the
    condition's multiplicity and a non-responder ``(p_j, h_j)`` counted once.
    """
    outcome_counts = {}
    for idx, ((p_i, h_i, p_j, h_j), mult) in enumerate(conditions.items()):
        outcome_counts[idx, p_i, h_i, True] = mult
        outcome_counts[idx, p_j, h_j, False] = 1
    return outcome_counts


class TestValidateRecords:
    # fit_suppression checks each distinct outcome of its counts once
    def test_negative_preference(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            fit_suppression(counts(rec(-1, 1, True)), max_h=3)

    def test_zero_h(self):
        with pytest.raises(ValidationError, match="h must be >= 1"):
            fit_suppression(counts(rec(1, 0, True)), max_h=3)

    def test_h_above_max(self):
        with pytest.raises(ValidationError, match="exceeds max_h"):
            fit_suppression(counts(rec(1, 4, True)), max_h=3)

    @pytest.mark.parametrize("outcome, count, message", [
        (rec(1, 1, True), 0, "positive integer"),
        (rec(1, 1, True), 1.0, "positive integer"),
        (rec(1, 1, True), True, "positive integer"),
        (rec(True, 1, True), 1, "integers"),
        (rec(1.0, 1, True), 1, "integers"),
        (rec(1, 1.0, True), 1, "integers"),
    ])
    def test_malformed_counts(self, outcome, count, message):
        with pytest.raises(ValidationError, match=message):
            fit_suppression({outcome: count}, max_h=3)

    @pytest.mark.parametrize("responded", ["no", None, 1])
    def test_non_bool_responded(self, responded):
        # "no" would count as a responder and None as a non-responder
        history = {rec(5, 1, responded): 3, rec(2, 2, False): 4}
        with pytest.raises(ValidationError, match="responded must be true or false"):
            fit_suppression(history, max_h=2, grid=2)


class TestFitSuppression:
    def test_no_conditions_gives_all_ones(self):
        result = fit_suppression(counts(), max_h=3, grid=4)
        assert result.table == SuppressionTable.constant(1, 3)
        assert (result.satisfied, result.total) == (0, 0)

    def test_single_condition_lexicographically_largest(self):
        # r(1) must beat r(3) at equal preference; the largest perfect
        # table keeps r(1)=r(2)=1 and drops r(3) one notch
        history = counts(rec(1, 1, True), rec(1, 3, False))
        result = fit_suppression(history, max_h=3, grid=4)
        assert result.table.values == (0, 1, 1, Fraction(3, 4))
        assert (result.satisfied, result.total) == (1, 1)

    def test_conditions_only_pair_within_campaign(self):
        history = counts(rec(1, 1, True, campaign="a"), rec(1, 3, False, campaign="b"))
        result = fit_suppression(history, max_h=3, grid=4)
        assert result.total == 0

    def test_recovers_noise_free_table(self):
        true = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 4)]
        history = noise_free_records(true)
        result = fit_suppression(history, max_h=3, grid=4)
        assert result.satisfied == result.total > 0

    def test_contradictory_data_counts_exactly(self):
        # two opposite conditions at equal preferences: only one can hold
        history = counts(rec(1, 1, True), rec(1, 2, False), rec(1, 2, True), rec(1, 1, False))
        result = fit_suppression(history, max_h=2, grid=4)
        # a>b, a>d, c>b, c>d as conditions; a>d and c>b are r(1)>r(1),
        # r(2)>r(2): never satisfiable, and a>b contradicts c>d
        assert result.total == 4
        assert result.satisfied == 1

    def test_monotone_flag_restricts(self):
        # data preferring an increasing table
        history = counts(rec(1, 3, True), rec(1, 1, False))
        free = fit_suppression(history, max_h=3, grid=4)
        mono = fit_suppression(history, max_h=3, grid=4, monotone=True)
        assert free.satisfied == 1
        assert mono.satisfied == 0
        values = mono.table.values
        assert all(values[h] >= values[h + 1] for h in range(1, 3))

    def test_validates_arguments(self):
        with pytest.raises(ValidationError, match="max_h"):
            fit_suppression(counts(), max_h=0)
        with pytest.raises(ValidationError, match="grid"):
            fit_suppression(counts(), max_h=2, grid=0)

    @pytest.mark.parametrize("options, message", [
        ({"max_h": 2.0}, "max_h must be an integer, got 2.0"),
        ({"max_h": True}, "max_h must be an integer, got True"),
        ({"max_h": 2, "grid": True}, "grid resolution must be an integer, got True"),
        ({"max_h": 2, "grid": 4.0}, "grid resolution must be an integer, got 4.0"),
        ({"max_h": 2, "monotone": "yes"}, "monotone must be true or false, got 'yes'"),
        ({"max_h": 2, "monotone": 1}, "monotone must be true or false, got 1"),
    ], ids=["max_h-float", "max_h-bool", "grid-bool", "grid-float", "monotone-str", "monotone-int"])
    def test_option_types_refused(self, options, message):
        # refused, not converted: grid True would fit at grid 1, "yes" as true
        history = counts(rec(1, 1, True), rec(1, 2, False))
        with pytest.raises(ValidationError, match=f"^{message}$"):
            fit_suppression(history, **options)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            fit_categories({0: history}, **options)

    @pytest.mark.parametrize("option", ["restarts", "seed"])
    def test_has_no_search_options(self, option):
        # the search is exact and has no random part, so a fit of the same
        # counts is the same table
        with pytest.raises(TypeError, match=option):
            fit_suppression(counts(rec(1, 1, True)), max_h=2, **{option: 1})
        with pytest.raises(TypeError, match=option):
            fit_categories({}, max_h=2, **{option: 1})

    def test_build_step_guard(self, monkeypatch):
        # 11 distinct responder (campaign, preference) columns: p 1-10 of
        # campaign c (p 1 at two levels is one column) and p 1 of another
        # campaign; each step of the build works on 11 * max_h * (grid + 1)
        # = 44 cells at max_h 2, grid 1, while the level tables take
        # 2^2 * 2^2 = 16
        history = counts(
            *(rec(p, 1, True) for p in range(1, 11)),
            rec(1, 2, True),
            rec(1, 1, True, campaign="other"),  # pairs with nothing
            *(rec(p, 2, False) for p in range(1, 9)),
        )
        monkeypatch.setattr("mcap.learning.TABLE_CELL_LIMIT", 44)
        assert fit_suppression(history, max_h=2, grid=1).total == 11 * 8
        assert fit_categories({0: history}, max_h=2, grid=1)[0].total == 11 * 8
        monkeypatch.setattr("mcap.learning.TABLE_CELL_LIMIT", 43)
        with pytest.raises(GuardExceededError, match="11 distinct responder .* 44 cells"):
            fit_suppression(history, max_h=2, grid=1)
        with pytest.raises(GuardExceededError, match="44 cells .* over the 43 limit"):
            fit_categories({0: history}, max_h=2, grid=1)

    def test_search_agrees_on_its_own_report(self):
        # 21^4 tables: the search bounds its way past most of them
        true = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(0)]
        history = noise_free_records(true, prefs=(1, 2, 3, 5), threshold=1)
        result = fit_suppression(history, max_h=4, grid=20)
        table = result.table
        recount = 0
        yes = [(p, h, n) for (_, p, h, responded), n in history.items() if responded]
        no = [(p, h, n) for (_, p, h, responded), n in history.items() if not responded]
        for p_i, h_i, n_i in yes:
            for p_j, h_j, n_j in no:
                if p_i * table[h_i] > p_j * table[h_j]:
                    recount += n_i * n_j
        assert recount == result.satisfied == result.upper_bound
        assert result.total == sum(n for *_, n in yes) * sum(n for *_, n in no)


# up to 8 records, each one outcome, counted
counts_strategy = st.lists(
    st.builds(
        rec,
        st.integers(0, 3),
        st.integers(1, 3),
        st.booleans(),
        campaign=st.sampled_from(("a", "b")),
    ),
    max_size=8,
).map(Counter)


@given(counts_strategy)
@settings(max_examples=60, deadline=None)
def test_fit_matches_exhaustive_oracle(history):
    result = fit_suppression(history, max_h=3, grid=4)
    assert result.satisfied == exhaustive_best(history, max_h=3, grid=4)


@st.composite
def table_cases(draw):
    """(counts, max_h, grid): responders, non-responders, both or neither.

    Preferences and counts reach past 2^64.  Half the cases have up to three
    campaigns sharing preferences; the other half have 6 to 9 campaigns,
    each with its own preference range, the first responders only and the
    second non-responders only, so most thresholds lie past a campaign's
    largest preference.
    """
    max_h = draw(st.integers(1, 3))
    grid = draw(st.integers(1, 25))
    # pair totals and sums of counts on both sides of 2^63
    count = st.one_of(st.integers(1, 5), st.integers(2**30, 2**34), st.integers(2**62, 2**64))
    if draw(st.booleans()):
        sides = draw(st.sampled_from([(True, False), (True,), (False,)]))
        outcome = st.tuples(
            st.sampled_from(("a", "b", 1)),
            # p * grid crosses 2^63 between 2^58 and 2^62 at grids 2 to 25; the keys above 2^64
            st.one_of(st.integers(0, 9), st.integers(2**58, 2**62), st.integers(2**64, 2**66)),
            st.integers(1, max_h),
            st.sampled_from(sides),
        )
        return draw(st.dictionaries(outcome, count, max_size=30)), max_h, grid
    # campaign c takes preferences offset + 4c to offset + 4c + 3
    offset = draw(st.sampled_from([0, 2**60, 2**64]))
    outcome_counts = {}
    for c in range(draw(st.integers(6, 9))):
        sides = {0: (True,), 1: (False,)}.get(c) or draw(
            st.sampled_from([(True, False), (True,), (False,)])
        )
        outcome = st.tuples(
            st.just(f"c{c}" if c % 2 else c),
            st.integers(offset + 4 * c, offset + 4 * c + 3),
            st.integers(1, max_h),
            st.sampled_from(sides),
        )
        outcome_counts.update(draw(st.dictionaries(outcome, count, min_size=1, max_size=5)))
    return outcome_counts, max_h, grid


@given(table_cases())
# int64 overflows by one in the pair total, in p * grid and in each side's counts
@example(({("a", 1, 1, True): 2**32, ("a", 0, 1, False): 2**31}, 1, 1))
@example(({("a", 2**61, 1, True): 1, ("a", 2**61 - 1, 1, False): 1}, 1, 4))
@example(({("a", 1, 1, True): 2**63}, 1, 1))
@example(({("a", 1, 1, False): 2**63}, 1, 1))
@settings(max_examples=300, deadline=None)
def test_tables_match_pair_enumeration(case):
    outcome_counts, max_h, grid = case
    tables = _tables(outcome_counts, max_h, grid)
    assert tables.shape == (max_h, max_h, grid + 1, grid + 1)
    # the blocks below the diagonal are never read
    upper = np.triu_indices(max_h)
    assert np.array_equal(tables[upper], pair_tables(outcome_counts, max_h, grid)[upper])


@given(counts_strategy, st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_fit_is_scale_free_and_deterministic(history, factor):
    base = fit_suppression(history, max_h=3, grid=4)
    again = fit_suppression(history, max_h=3, grid=4)
    assert (base.table, base.satisfied) == (again.table, again.satisfied)
    scaled = Counter({
        (campaign, p * factor, h, responded): n
        for (campaign, p, h, responded), n in history.items()
    })
    rescaled = fit_suppression(scaled, max_h=3, grid=4)
    assert rescaled.table == base.table
    assert rescaled.satisfied == base.satisfied


def recount(levels, conditions):
    """Satisfied count of ``conditions`` at ``levels``, one condition at a time."""
    return sum(
        mult
        for (p_i, h_i, p_j, h_j), mult in conditions.items()
        if p_i * levels[h_i] > p_j * levels[h_j]
    )


def gather(tables, levels):
    """The satisfied count of each row of ``levels`` (``r(1..max_h) * grid``), by lookups.

    One broadcast gather looks up each level pair ``a <= b``'s table at the
    row's two levels, and the lookups add up.
    """
    a, b = np.triu_indices(len(tables))
    return tables[a, b, levels[:, a], levels[:, b]].sum(1)


def enumerate_best(tables, grid, monotone):
    """Oracle for ``_search``: (count, levels) of the first maximum over every table.

    The tables are listed in descending order, so the first maximum has the
    lexicographically largest levels among the best counts.
    """
    candidates = np.array(list(product(range(grid, -1, -1), repeat=len(tables))))
    if monotone:
        candidates = candidates[(np.diff(candidates) <= 0).all(axis=1)]
    scores = gather(tables, candidates).tolist()
    top = scores.index(max(scores))
    return scores[top], candidates[top].tolist()


@st.composite
def search_cases(draw, space=26**5):
    """(grid, max_h, monotone, conditions), at most ``space`` tables, preferences 0 to > 2^64."""
    max_h = draw(st.integers(1, 5))
    grid = draw(st.integers(1, max(g for g in range(1, 26) if (g + 1) ** max_h <= space)))
    monotone = draw(st.booleans())
    pref = st.one_of(st.integers(0, 9), st.integers(2**64, 2**66))
    h = st.integers(1, max_h)
    conditions = draw(st.dictionaries(st.tuples(pref, h, pref, h), st.integers(1, 5), max_size=30))
    return grid, max_h, monotone, conditions


@given(search_cases(space=5000))
@settings(max_examples=300, deadline=None)
def test_search_matches_enumeration(case):
    grid, max_h, monotone, conditions = case
    tables = _tables(condition_counts(conditions), max_h, grid)
    count, levels, upper_bound = _search(tables, grid, monotone)
    assert (count, levels) == enumerate_best(tables, grid, monotone)
    assert upper_bound == count


@given(search_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_table_counts_match_recount(case, data):
    grid, max_h, _, conditions = case
    level_row = st.lists(st.integers(0, grid), min_size=max_h, max_size=max_h)
    levels = data.draw(st.lists(level_row, min_size=1, max_size=8))
    counts = gather(_tables(condition_counts(conditions), max_h, grid), np.array(levels))
    assert [int(c) for c in counts] == [recount([0, *row], conditions) for row in levels]


def test_table_guard():
    # max_h^2 * (grid + 1)^2 cells: max_h=4 allows grids up to 789
    history = counts(rec(1, 1, True), rec(1, 3, False))
    assert fit_suppression(history, max_h=4, grid=789).satisfied == 1
    assert 16 * 790**2 <= TABLE_CELL_LIMIT < 16 * 791**2
    with pytest.raises(GuardExceededError, match="table cells"):
        fit_suppression(history, max_h=4, grid=790)


def test_search_memory_stays_below_all_pairs():
    # max_h 300, grid 1: 2.7 MB of tables; a node slices the pairs from its
    # level on, and the search keeps one row per later level on each of its
    # 300 frames, rebuilding a child's rows on descent (keeping every
    # child's rows would take about 2^2 * 300^2 / 2 cells per frame)
    tables = _tables(counts(rec(1, 1, True), rec(1, 2, False)), max_h=300, grid=1)
    tracemalloc.start()
    try:
        assert _search(tables, grid=1, monotone=False) == (1, [1, 0] + [1] * 298, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def seeded_history(seed, count=4500, max_h=4, campaigns=4):
    """Counts of noisy records whose response odds follow a hidden seeded table."""
    rng = random.Random(seed)
    hidden = [0.0] + [rng.randint(2, 10) / 10 for _ in range(max_h)]
    history = Counter()
    for _ in range(count):
        p, h = rng.randint(0, 9), rng.randint(1, max_h)
        odds = 0.6 * (p / 9) * hidden[h] + 0.1 * rng.random()
        history[rng.randrange(campaigns), p, h, rng.random() < odds] += 1
    return history


# (seed, monotone) -> (table, satisfied) of fit_suppression(max_h=4, grid=20),
# recorded from the search and equal to enumerate_best
FIT_PINS = {
    (1, False): (("0", "13/20", "11/20", "17/20", "1/2"), 486724),
    (1, True): (("0", "1", "19/20", "9/10", "13/20"), 477084),
    (2, False): (("0", "1/4", "7/20", "3/10", "19/20"), 476318),
    (2, True): (("0", "1", "1", "19/20", "9/10"), 430859),
    (3, False): (("0", "2/5", "17/20", "7/20", "11/20"), 671612),
    (3, True): (("0", "1", "19/20", "7/10", "13/20"), 644716),
}


@pytest.mark.parametrize("seed, monotone", sorted(FIT_PINS))
def test_hill_climb_matches_recorded_fit(seed, monotone):
    history = seeded_history(seed)
    result = fit_suppression(history, max_h=4, grid=20, monotone=monotone)
    table, satisfied = FIT_PINS[seed, monotone]
    assert (tuple(str(v) for v in result.table.values), result.satisfied) == (table, satisfied)
    # the search finished at the optimum, and the pin is enumeration's table
    optimum, levels = enumerate_best(_tables(history, 4, 20), 20, monotone)
    assert result.satisfied == result.upper_bound == optimum
    assert result.table.values[1:] == tuple(Fraction(q, 20) for q in levels)


# (seed, monotone) -> satisfied of fit_suppression(max_h=8, grid=20) on
# seeded_history(seed, max_h=8), each search finished
DEEP_FIT_PINS = {
    (1, False): 682475,
    (1, True): 639416,
    (2, False): 519613,
    (2, True): 484094,
    (3, False): 678469,
    (3, True): 631127,
}


@pytest.mark.parametrize("seed, monotone", sorted(DEEP_FIT_PINS))
def test_deep_fit_matches_recorded_count(seed, monotone):
    result = fit_suppression(seeded_history(seed, max_h=8), max_h=8, grid=20, monotone=monotone)
    assert result.satisfied == result.upper_bound == DEEP_FIT_PINS[seed, monotone]


def test_node_limit_pins_the_traversal(monkeypatch):
    # the free max_h 12 fit of seed 1 needs more than 2,000 nodes (its
    # optimum is 671,748); the table and the largest unvisited bound it has
    # after 2,000 change with any change to the order nodes are visited in
    monkeypatch.setattr("mcap.learning.SEARCH_NODE_LIMIT", 2000)
    result = fit_suppression(seeded_history(1, max_h=12), max_h=12, grid=20)
    table = ("0", "11/20", "9/20", "13/20", "1/4", "1", "9/10", "17/20", "4/5", "1/2", "7/20",
             "19/20", "1/5")
    assert tuple(str(v) for v in result.table.values) == table
    assert (result.satisfied, result.upper_bound) == (671646, 674700)


def test_node_limit_stops_with_a_bound(monkeypatch):
    # the monotone fit of seed 3 needs more than 20 nodes; after 10 it has a
    # table 1,474 short of the optimum and a bound 9,210 above it
    history = seeded_history(3)
    optimum, _ = enumerate_best(_tables(history, 4, 20), 20, monotone=True)
    monkeypatch.setattr("mcap.learning.SEARCH_NODE_LIMIT", 10)
    result = fit_suppression(history, max_h=4, grid=20, monotone=True)
    assert result.satisfied <= optimum <= result.upper_bound
    assert result.upper_bound > result.satisfied


def report_history():
    """(records, labels by customer) of two categories, with repeated and string-valued records."""
    rng = random.Random(8)
    records = []
    for _ in range(600):
        idx = rng.randrange(60)
        p, h = rng.randint(0, 9), rng.randint(1, 4)
        records.append({
            "customer": idx if idx % 2 else f"c{idx}",
            "campaign": rng.randrange(3),
            "preference": p if rng.random() < 0.5 else str(p),
            "h": h,
            "responded": rng.random() < 0.1 + p * (5 - h) / 45,
        })
    records += records[::7]
    return records, {idx if idx % 2 else f"c{idx}": int(idx < 25) for idx in range(60)}


def test_free_fit_reaches_monotone_fit():
    # every non-increasing table is in the free search space; the report
    # history's two categories have non-increasing free optima
    records, labels = report_history()
    groups = records_from_json(records, {str(c): label for c, label in labels.items()})
    free = fit_categories(groups, max_h=4, grid=20)
    mono = fit_categories(groups, max_h=4, grid=20, monotone=True)
    for label, (table, satisfied) in {
        0: (("0", "4/5", "7/10", "11/20", "1/4"), 8749),
        1: (("0", "17/20", "11/20", "3/10", "1/4"), 4958),
    }.items():
        for fit in (free[label], mono[label]):
            assert (tuple(str(v) for v in fit.table.values), fit.satisfied) == (table, satisfied)
    for seed in (1, 2, 3):
        history = seeded_history(seed)
        free = fit_suppression(history, max_h=4, grid=20)
        mono = fit_suppression(history, max_h=4, grid=20, monotone=True)
        assert free.satisfied >= mono.satisfied


class TestJsonDecoding:
    def test_records(self):
        data = [
            {"customer": "a", "campaign": 1, "preference": "5", "h": 2, "responded": True}
        ]
        assert records_from_json(data) == {0: Counter({(1, 5, 2, True): 1})}

    def test_repeated_records_count(self):
        # without labels customers 7 and "7" are both category 0, so their
        # records share one counter
        record = {"customer": 7, "campaign": "c", "preference": " 5 ", "h": "+2", "responded": False}
        other = {**record, "customer": "7"}
        assert records_from_json([record, other, record]) == {0: Counter({("c", 5, 2, False): 3})}

    def test_records_malformed(self):
        with pytest.raises(ValidationError, match="record 0"):
            records_from_json([{"customer": "a"}])
        with pytest.raises(ValidationError, match="array"):
            records_from_json({"customer": "a"})

    @pytest.mark.parametrize("record, message", [
        ([1, 2], "expected a JSON object, got list"),
        ("customer", "expected a JSON object, got str"),
        (7, "expected a JSON object, got int"),
        (None, "expected a JSON object, got NoneType"),
        ({"customer": "a"}, "missing field 'campaign'"),
        ({"campaign": 1, "preference": 5, "h": 2, "responded": True}, "missing field 'customer'"),
    ])
    def test_malformed_record_message(self, record, message):
        # one message on every Python version, not the interpreter's
        # TypeError or KeyError text
        good = {"customer": "a", "campaign": 1, "preference": "5", "h": 2, "responded": True}
        with pytest.raises(ValidationError, match=f"^record 3 is malformed: {message}$"):
            records_from_json([good, good, good, record])

    @pytest.mark.parametrize("field, value, message", [
        ("preference", "-1", "preference must be nonnegative"),
        ("h", 0, r"h must be >= 1, got 0"),
    ], ids=["preference", "h"])
    def test_invalid_record_names_its_index(self, field, value, message):
        good = {"customer": "a", "campaign": 1, "preference": "5", "h": 2, "responded": True}
        with pytest.raises(ValidationError, match=f"^record 1: {message}$"):
            records_from_json([good, {**good, field: value}])

    def test_labels_group_as_per_record_lookup(self):
        # oracle: look up each record's label by str(customer) and count its
        # outcome there; the history has int and str customers, repeated
        # records and string preferences
        records, labels = report_history()
        labels = {str(customer): label for customer, label in labels.items()}
        expected = {}
        for r in records:
            outcome = (r["campaign"], int(r["preference"]), r["h"], r["responded"])
            expected.setdefault(labels[str(r["customer"])], Counter())[outcome] += 1
        assert records_from_json(records, labels) == expected
        assert sorted(expected) == [0, 1]

    def test_unused_label_is_parsed(self):
        data = [{"customer": "a", "campaign": 1, "preference": 5, "h": 2, "responded": True}]
        assert records_from_json(data, {"a": "1"}) == {1: Counter({(1, 5, 2, True): 1})}
        with pytest.raises(ValidationError, match="^bad integer literal for label of 'b': 1.7$"):
            records_from_json(data, {"a": 1, "b": 1.7})

    def test_missing_label_names_its_record(self):
        good = {"customer": 3, "campaign": 1, "preference": 5, "h": 2, "responded": True}
        with pytest.raises(ValidationError, match="^record 1: customer 'ghost' has no category label$"):
            records_from_json([good, {**good, "customer": "ghost"}], {"3": 0})
        # str() of an integer past the int digit limit raises ValueError: in
        # the label lookup, or in the message of a bad field
        huge = {**good, "customer": 10**5000}
        if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
            message = "^record 1: an integer is too long to print$"
            with pytest.raises(ValidationError, match=message):
                records_from_json([good, huge], {"3": 0})
            with pytest.raises(ValidationError, match=message):
                records_from_json([good, {**good, "h": -(10**5000)}])
        # without labels the customer is never converted
        assert records_from_json([good, huge]) == {0: Counter({(1, 5, 2, True): 2})}

    @pytest.mark.parametrize("labels", [[], [["a", 0]], "a"])
    def test_labels_must_be_an_object(self, labels):
        with pytest.raises(ValidationError, match="labels must be a JSON object"):
            records_from_json([], labels)


def reference_records(data, labels=None):
    """Oracle for ``records_from_json`` on valid records: one record at a time, in order.

    Preferences, h and labels are JSON integers or ``" +5 "``-style strings.
    """
    groups = {}
    for record in data:
        label = 0 if labels is None else int(labels[str(record["customer"])])
        outcome = (record["campaign"], int(record["preference"]), int(record["h"]),
                   record["responded"])
        groups.setdefault(label, Counter())[outcome] += 1
    return groups


def int_or_text(values):
    """A JSON integer, its decimal string, or the string padded and signed."""
    return values.flatmap(lambda v: st.sampled_from([v, str(v), f" +{v} "]))


@st.composite
def histories(draw):
    """(records, labels or None): int and str customers and campaigns, repeated records."""
    record = st.fixed_dictionaries({
        "customer": st.one_of(st.integers(0, 5), st.sampled_from(["a", "b", "3"])),
        "campaign": st.sampled_from([0, 1, "0", "c"]),
        "preference": int_or_text(st.integers(0, 12)),
        "h": int_or_text(st.integers(1, 4)),
        "responded": st.booleans(),
    })
    records = draw(st.lists(record, min_size=1, max_size=30))
    records += draw(st.lists(st.sampled_from(records), max_size=10))
    records = draw(st.permutations(records))
    if not draw(st.booleans()):
        return records, None
    customers = sorted({str(r["customer"]) for r in records})
    label = int_or_text(st.integers(0, 2))
    return records, {customer: draw(label) for customer in customers}


def assert_same_counts(result, expected):
    """Equal dicts of equal Counters, and every key in the same order."""
    assert result == expected
    assert list(result) == list(expected)
    for label, outcome_counts in expected.items():
        assert list(result[label]) == list(outcome_counts)


@given(histories())
@settings(max_examples=200, deadline=None)
def test_records_match_reference_count(history):
    records, labels = history
    expected = reference_records(records, labels)
    assert_same_counts(records_from_json(records, labels), expected)
    # the column count refuses only a bad record, so the record-by-record
    # check that runs after a refusal finds none here and says so
    with mock.patch("mcap.learning._count_columns", return_value=None):
        with pytest.raises(InternalCheckError):
            records_from_json(records, labels)


# each corruption of a valid record: (change to the record, change to the
# record before it or None, message after "record <index>")
CORRUPTIONS = {
    "missing-field": (lambda r: {k: v for k, v in r.items() if k != "h"}, None,
                      " is malformed: missing field 'h'"),
    "non-object": (lambda r: list(r.values()), None,
                   " is malformed: expected a JSON object, got list"),
    # true, 2.0 and 1 are dict keys equal to 1, 2 and true
    "bool-h": (lambda r: {**r, "h": True}, lambda r: {**r, "h": 1},
               ": bad integer literal for h: True"),
    "float-preference": (lambda r: {**r, "preference": 2.0}, lambda r: {**r, "preference": 2},
                         ": bad integer literal for preference: 2.0"),
    "int-responded": (lambda r: {**r, "responded": 1}, lambda r: {**r, "responded": True},
                      ": responded must be true or false, got 1"),
    "negative-preference": (lambda r: {**r, "preference": "-3"}, None,
                            ": preference must be nonnegative"),
    "zero-h": (lambda r: {**r, "h": 0}, None, ": h must be >= 1, got 0"),
    "unlabelled": (lambda r: {**r, "customer": "ghost"}, None,
                   ": customer 'ghost' has no category label"),
}


@given(histories(), st.sampled_from(sorted(CORRUPTIONS)), st.data())
@settings(max_examples=200, deadline=None)
def test_a_bad_record_is_named_by_its_index(history, corruption, data):
    records, labels = history
    if corruption == "unlabelled" and labels is None:
        labels = {str(r["customer"]): 0 for r in records}
    change, before, message = CORRUPTIONS[corruption]
    idx = data.draw(st.integers(0 if before is None else 1, len(records)), label="index")
    records = [*records[:idx], records[idx - 1] if idx else records[0], *records[idx:]]
    if before is not None:
        # the record before it is valid and counts the same outcome
        records[idx - 1] = before(records[idx])
    records[idx] = change(records[idx])
    with pytest.raises(ValidationError, match=f"^record {idx}{re.escape(message)}$"):
        records_from_json(records, labels)


class TestFitCategories:
    def test_one_table_per_label(self):
        record = {"customer": "a", "campaign": "c", "preference": 1, "h": 1, "responded": True}
        no = {**record, "h": 3, "responded": False}
        groups = records_from_json([record, no, no, {**record, "customer": "b", "h": 2}],
                                   {"a": 0, "b": 1})
        results = fit_categories(groups, max_h=3, grid=4)
        assert sorted(results) == [0, 1]
        assert isinstance(results[0], FitResult)
        assert results[0].total == 2  # a's responder with a's two non-responses
        assert results[1].total == 0

    def test_no_labels_means_one_category(self):
        record = {"customer": "a", "campaign": "c", "preference": 1, "h": 1, "responded": True}
        groups = records_from_json([record, {**record, "customer": "b", "h": 3, "responded": False}])
        results = fit_categories(groups, max_h=3, grid=4)
        assert list(results) == [0]
        assert results[0].total == 1

    def test_missing_label_rejected(self):
        ghost = {"customer": "ghost", "campaign": "c", "preference": 1, "h": 1, "responded": True}
        with pytest.raises(ValidationError, match="no category label"):
            fit_categories(records_from_json([ghost], {}), max_h=3)

    @pytest.mark.parametrize("label", [1.7, True, "1"])
    def test_non_integer_label_rejected(self, label):
        groups = {0: counts(rec(1, 1, True)), label: counts(rec(1, 3, False))}
        with pytest.raises(ValidationError, match="must be an integer"):
            fit_categories(groups, max_h=2)

    @pytest.mark.parametrize("options, error, message", [
        ({"max_h": 0}, ValidationError, "max_h"),
        ({"max_h": 2, "grid": 0}, ValidationError, "grid"),
        ({"max_h": 4, "grid": 790}, GuardExceededError, "table cells"),
    ])
    def test_empty_history_checks_options(self, options, error, message):
        with pytest.raises(error, match=message):
            fit_categories({}, **options)
        assert fit_categories({}, max_h=2, grid=4) == {}


def test_public_names_resolve():
    # __all__ names no symbol the package lost, such as the preference and
    # grouping estimators that learning no longer has
    for name in mcap.__all__:
        getattr(mcap, name)
    for name in ("RatingsMatrix", "categorize_customers", "predict_preferences_cf"):
        assert name not in mcap.__all__
        assert not hasattr(learning, name)
