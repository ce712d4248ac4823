from dataclasses import fields, replace
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from mcap.core import (
    AssignmentMatrix,
    Instance,
    SuppressionTable,
    ValidationError,
    check_feasibility,
    evaluate_fitness,
    validate_instance,
)
from strategies import instance_matrix_pairs, instances


def minimal_instance(**overrides):
    fields = dict(
        n=1, k=1, weights=(1,), preferences=((0,),),
        suppression=(SuppressionTable((0, 1)),),
        lower_bounds=(0,), upper_bounds=(1,),
    )
    fields.update(overrides)
    return Instance(**fields)


def two_campaign_instance():
    # n=1, k=2, w=(2,3), p=(5,7), r=[0, 1, 1/2]
    return Instance(
        n=1, k=2, weights=(2, 3), preferences=((5, 7),),
        suppression=(SuppressionTable((0, 1, Fraction(1, 2))),),
        lower_bounds=(0, 0), upper_bounds=(1, 1),
    )


class TestValidateInstance:
    def test_minimal_instance_is_valid(self):
        inst = minimal_instance()
        assert validate_instance(inst) is inst

    def test_lower_bound_above_upper_bound(self):
        with pytest.raises(ValidationError, match="lower bound exceeds upper bound"):
            validate_instance(minimal_instance(lower_bounds=(2,), upper_bounds=(1,)))

    def test_r0_must_be_zero(self):
        with pytest.raises(ValidationError, match=r"r\(0\) must be 0"):
            minimal_instance(suppression=(SuppressionTable((Fraction(1, 2), 1)),))

    def test_nonpositive_weight(self):
        with pytest.raises(ValidationError, match="weight must be positive"):
            validate_instance(minimal_instance(weights=(0,)))

    def test_negative_preference(self):
        with pytest.raises(ValidationError, match="negative"):
            validate_instance(minimal_instance(preferences=((-1,),)))

    def test_suppression_value_above_one(self):
        with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
            minimal_instance(suppression=(SuppressionTable((0, 2)),))

    @pytest.mark.parametrize("value", [Fraction(1), Fraction("4/4"), Fraction(0), Fraction(3, 4)])
    def test_suppression_value_on_or_inside_the_boundary(self, value):
        validate_instance(minimal_instance(suppression=(SuppressionTable((0, value)),)))

    @pytest.mark.parametrize("value", [Fraction(5, 4), Fraction(-1, 4)])
    def test_suppression_value_outside_the_boundary(self, value):
        with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
            minimal_instance(suppression=(SuppressionTable((0, value)),))

    def test_suppression_table_wrong_length(self):
        with pytest.raises(ValidationError, match="entries"):
            minimal_instance(suppression=(SuppressionTable((0, 1, 1)),))

    def test_upper_bound_above_n(self):
        with pytest.raises(ValidationError, match="exceeds customer count"):
            validate_instance(minimal_instance(upper_bounds=(2,)))

    def test_zero_lower_bound_is_allowed(self):
        validate_instance(minimal_instance(lower_bounds=(0,)))

    @pytest.mark.parametrize("overrides", [
        dict(weights=(2.5,)),
        dict(preferences=((True,),)),
        dict(upper_bounds=(1.9,)),
        dict(
            n=2.0, preferences=((0,), (0,)), suppression=(SuppressionTable((0, 1)),) * 2,
        ),
    ], ids=["float-weight", "bool-preference", "float-upper-bound", "float-n"])
    def test_non_integer_value_rejected(self, overrides):
        # once truncated by int(), or accepted and a TypeError in a solver
        with pytest.raises(ValidationError, match="integer"):
            minimal_instance(**overrides)

    @pytest.mark.parametrize("cell", [True, -1, 1.0])
    def test_a_bad_preference_after_valid_ones_is_named(self, cell):
        # a row is accepted in one check; a row that fails it is walked to
        # name the first bad cell
        with pytest.raises(ValidationError) as exc:
            minimal_instance(
                k=3, weights=(1, 1, 1), preferences=((4, cell, 5),),
                suppression=(SuppressionTable((0, 1, 1, 1)),),
                lower_bounds=(0, 0, 0), upper_bounds=(1, 1, 1),
            )
        assert str(exc.value) == (
            f"customer 0: preference for campaign 1 must be a nonnegative integer, got {cell!r}"
        )

    @pytest.mark.parametrize("row, message", [
        ((4, 5), "customer 1: expected 3 preferences, got 2"),
        ((4, 5, 6, 7), "customer 1: expected 3 preferences, got 4"),
        ([4, 5, 6], "customer 1: preference row must be a tuple, got list"),
    ], ids=["short", "long", "list"])
    def test_a_bad_preference_row_after_valid_ones_is_named(self, row, message):
        with pytest.raises(ValidationError) as exc:
            minimal_instance(
                n=2, k=3, weights=(1, 1, 1), preferences=((1, 2, 3), row),
                suppression=(SuppressionTable((0, 1, 1, 1)),) * 2,
                lower_bounds=(0, 0, 0), upper_bounds=(2, 2, 2),
            )
        assert str(exc.value) == message

    def test_tuple_subclass_preference_rows_are_accepted(self):
        class Row(tuple):
            pass

        inst = minimal_instance(
            n=2, k=2, weights=(1, 1), preferences=((1, 2), Row((3, 4))),
            suppression=(SuppressionTable((0, 1, 1)),) * 2,
            lower_bounds=(0, 0), upper_bounds=(2, 2),
        )
        assert inst.preferences[1] == (3, 4)

    def test_a_shared_value_does_not_hide_a_bad_one(self):
        # values already found in [0, 1] are skipped by identity; an equal
        # twin or a new value in a later table is still checked
        half = Fraction(1, 2)
        with pytest.raises(ValidationError) as exc:
            minimal_instance(
                n=2, k=2, weights=(1, 1), preferences=((1, 1), (1, 1)),
                suppression=(
                    SuppressionTable((0, half, half)),
                    SuppressionTable((0, half, Fraction(5, 4))),
                ),
                lower_bounds=(0, 0), upper_bounds=(2, 2),
            )
        assert str(exc.value) == "customer 1: suppression value r(2) = 5/4 outside [0, 1]"

    def test_raw_suppression_sequence_rejected(self):
        with pytest.raises(ValidationError, match="not a SuppressionTable"):
            minimal_instance(suppression=((0, 1),))

    @pytest.mark.parametrize("overrides, what", [
        (dict(weights=[1]), "weights"),
        (dict(preferences=[(0,)]), "preferences"),
        (dict(preferences=([0],)), "customer 0: preference row"),
        (dict(suppression=[SuppressionTable((0, 1))]), "suppression tables"),
        (dict(lower_bounds=[0]), "lower bounds"),
        (dict(upper_bounds=[1]), "upper bounds"),
    ], ids=["weights", "preferences", "preference-row", "suppression", "lower", "upper"])
    def test_list_container_rejected(self, overrides, what):
        # a stored list would be unequal to its tuple twin and unhashable
        with pytest.raises(ValidationError, match=f"{what} must be a tuple, got list"):
            minimal_instance(**overrides)


class TestSuppressionTable:
    def test_constant_builder(self):
        t = SuppressionTable.constant(Fraction(1, 2), 3)
        assert t.values == (0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        assert t.is_constant_above_zero()

    def test_indicator_builder(self):
        t = SuppressionTable.indicator(2, 3)
        assert t.values == (0, 0, 1, 0)
        assert not t.is_constant_above_zero()

    def test_indicator_position_out_of_range(self):
        with pytest.raises(ValidationError):
            SuppressionTable.indicator(4, 3)

    def test_values_must_be_a_tuple(self):
        with pytest.raises(ValidationError, match="suppression values must be a tuple, got list"):
            SuppressionTable([0, 1])

    @pytest.mark.parametrize("values", [(0, 0.1), ("0", "1e-9", "0.5"), (0, True)])
    def test_values_must_be_ints_or_fractions(self, values):
        # a float once became its binary expansion, a string was parsed
        with pytest.raises(ValidationError, match="not an int or a Fraction"):
            SuppressionTable(values)

    def test_a_bool_after_fractions_is_named(self):
        with pytest.raises(ValidationError) as exc:
            SuppressionTable((0, Fraction(1, 2), True))
        assert str(exc.value) == "suppression value True is not an int or a Fraction"

    def test_fraction_subclass_values_are_accepted(self):
        class Rate(Fraction):
            pass

        table = SuppressionTable((0, Rate(1, 2), 1))
        assert type(table[1]) is Rate
        minimal_instance(suppression=(SuppressionTable((0, Rate(3, 4))),))


class TestRecommendationCounts:
    """The recommendation counts ``h_i`` are the matrix's row sums."""

    def test_zero_matrix(self):
        assert AssignmentMatrix.zero(2, 3).row_sums() == (0, 0)

    def test_mixed_rows(self):
        m = AssignmentMatrix(((1, 1, 0), (0, 0, 1)))
        assert m.row_sums() == (2, 1)

    def test_full_matrix(self):
        m = AssignmentMatrix(((1, 1, 1), (1, 1, 1)))
        assert m.row_sums() == (3, 3)


class TestAssignmentMatrixConstruction:
    @pytest.mark.parametrize("rows", [((1, 0), (1,)), ((1,), (1, 0)), ((), (0,))])
    def test_ragged_rows(self, rows):
        with pytest.raises(ValidationError, match="entries, row 0 has"):
            AssignmentMatrix(rows)

    @pytest.mark.parametrize("one", [1, True, 1.0, Fraction(1), np.int64(1), np.array(1)],
                             ids=["int", "bool", "float", "fraction", "numpy-int", "numpy-0d"])
    def test_numeric_bits_are_stored_as_int(self, one):
        # a matrix holds int bits only: any other value equal to 1 is refused,
        # never converted
        rows = [[0, 1], [one, 0]]
        if type(one) is int:
            # from_rows changes only the containers
            assert AssignmentMatrix.from_rows(rows) == AssignmentMatrix(((0, 1), (1, 0)))
        else:
            with pytest.raises(ValidationError, match=r"matrix entry \(1, 0\) must be 0 or 1"):
                AssignmentMatrix.from_rows(rows)

    @pytest.mark.parametrize("entries, what", [
        ([(0, 1)], "matrix rows"), (((0, 1), [1, 0]), "matrix row 1"),
    ], ids=["list-of-rows", "list-row"])
    def test_lists_are_refused(self, entries, what):
        with pytest.raises(ValidationError, match=f"{what} must be a tuple, got list"):
            AssignmentMatrix(entries)

    @pytest.mark.parametrize("value", [2, -1, 0.5, "1"])
    def test_non_binary_entry(self, value):
        with pytest.raises(ValidationError, match=r"matrix entry \(1, 0\) must be 0 or 1"):
            AssignmentMatrix(((0, 1), (value, 0)))

    @pytest.mark.parametrize("value", [True, 2, -1, 1.0])
    def test_a_bad_entry_after_valid_ones_is_named(self, value):
        # True equals 1, so only the entry's type tells it apart
        with pytest.raises(ValidationError) as exc:
            AssignmentMatrix(((0, 1, 1), (1, 0, value)))
        assert str(exc.value) == f"matrix entry (1, 2) must be 0 or 1, got {value!r}"

    def test_tuple_subclass_rows_are_accepted(self):
        class Row(tuple):
            pass

        matrix = AssignmentMatrix(((0, 1), Row((1, 0))))
        assert matrix.row_sums() == (1, 1)


class TestEvaluateFitness:
    def test_zero_matrix_is_zero(self):
        inst = two_campaign_instance()
        assert evaluate_fitness(inst, AssignmentMatrix.zero(1, 2)) == 0

    def test_both_campaigns(self):
        # h=2: (1/2) * (2*5 + 3*7) = 31/2
        inst = two_campaign_instance()
        assert evaluate_fitness(inst, AssignmentMatrix(((1, 1),))) == Fraction(31, 2)

    def test_single_campaign(self):
        # h=1: 1 * 3*7 = 21
        inst = two_campaign_instance()
        assert evaluate_fitness(inst, AssignmentMatrix(((0, 1),))) == 21

    def test_dimension_mismatch(self):
        inst = two_campaign_instance()
        with pytest.raises(ValidationError, match="dimension mismatch"):
            evaluate_fitness(inst, AssignmentMatrix.zero(2, 2))

    def test_non_binary_entry(self):
        inst = two_campaign_instance()
        with pytest.raises(ValidationError, match="must be 0 or 1"):
            evaluate_fitness(inst, AssignmentMatrix(((2, 0),)))


def per_row_fitness(inst, matrix):
    """Fitness by one Fraction multiply-and-add per row: the oracle for the integer sum."""
    total = Fraction(0)
    for i, row in enumerate(matrix.entries):
        h = sum(row)
        if h:
            prefs = inst.preferences[i]
            total += inst.suppression[i][h] * sum(
                w * p for w, p, m in zip(inst.weights, prefs, row) if m
            )
    return total


# distinct primes, so any choice of them as denominators is pairwise coprime
LARGE_PRIMES = (2**31 - 1, 10**9 + 7, 998_244_353, 2**61 - 1, 2**89 - 1, 2**127 - 1)


@st.composite
def fitness_cases(draw):
    """An instance and a matrix: int-valued tables, small grids or large coprime denominators."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))

    def table():
        kind = draw(st.sampled_from(("int", "grid", "coprime")))
        if kind == "int":
            return SuppressionTable((0, *(draw(st.integers(0, 1)) for _ in range(k))))
        dens = st.sampled_from(LARGE_PRIMES) if kind == "coprime" else st.integers(1, 12)
        values = []
        for _ in range(k):
            den = draw(dens)
            values.append(Fraction(draw(st.integers(0, den)), den))
        return SuppressionTable((Fraction(0), *values))

    big = st.integers(0, 2**70)
    inst = Instance(
        n=n, k=k, weights=tuple(draw(big.map(lambda w: w + 1)) for _ in range(k)),
        preferences=tuple(tuple(draw(big) for _ in range(k)) for _ in range(n)),
        suppression=tuple(table() for _ in range(n)),
        lower_bounds=(0,) * k, upper_bounds=(n,) * k,
    )
    if draw(st.booleans()):
        return inst, AssignmentMatrix.zero(n, k)
    cells = st.tuples(*(st.integers(0, 1) for _ in range(k)))
    return inst, AssignmentMatrix(tuple(draw(cells) for _ in range(n)))


@given(fitness_cases())
@settings(max_examples=300, deadline=None)
def test_fitness_matches_per_row_fractions(case):
    inst, matrix = case
    fitness = evaluate_fitness(inst, matrix)
    assert type(fitness) is Fraction
    assert fitness == per_row_fitness(inst, matrix)


class TestScaled:
    def test_computed_once(self):
        inst = two_campaign_instance()
        assert inst.scaled is inst.scaled

    def test_cache_is_no_field(self):
        inst, twin = two_campaign_instance(), two_campaign_instance()
        before = (hash(inst), repr(inst))
        inst.scaled  # fills the cache
        assert "scaled" not in {f.name for f in fields(Instance)}
        assert inst == twin
        assert (hash(inst), repr(inst)) == before == (hash(twin), repr(twin))

    def test_replace_computes_afresh(self):
        inst = two_campaign_instance()
        scaled = inst.scaled
        # scale 2: r = (0, 1, 1/2) -> (0, 2, 1); w * p = (4*5, 6*7)
        assert replace(inst, weights=(4, 6)).scaled == (2, ((0, 2, 1),), ((20, 42),))
        copy = replace(inst)
        assert copy.scaled == scaled and copy.scaled is not scaled


class TestCheckFeasibility:
    def test_zero_matrix_with_zero_lower_bounds(self):
        inst = Instance(
            n=2, k=2, weights=(1, 1), preferences=((0, 0), (0, 0)),
            suppression=(SuppressionTable((0, 1, 1)),) * 2,
            lower_bounds=(0, 0), upper_bounds=(2, 2),
        )
        report = check_feasibility(inst, AssignmentMatrix.zero(2, 2))
        assert report.feasible and report.column_sums == (0, 0)

    def test_lower_bound_violations(self):
        inst = Instance(
            n=2, k=2, weights=(1, 1), preferences=((0, 0), (0, 0)),
            suppression=(SuppressionTable((0, 1, 1)),) * 2,
            lower_bounds=(1, 1), upper_bounds=(2, 2),
        )
        report = check_feasibility(inst, AssignmentMatrix.zero(2, 2))
        assert not report.feasible
        assert report.violations == ((0, 0, "lower"), (1, 0, "lower"))

    def test_upper_bound_violations(self):
        inst = Instance(
            n=2, k=2, weights=(1, 1), preferences=((0, 0), (0, 0)),
            suppression=(SuppressionTable((0, 1, 1)),) * 2,
            lower_bounds=(0, 0), upper_bounds=(1, 1),
        )
        report = check_feasibility(inst, AssignmentMatrix(((1, 1), (1, 1))))
        assert not report.feasible
        assert report.column_sums == (2, 2)
        assert report.violations == ((0, 2, "upper"), (1, 2, "upper"))


@given(instances())
@settings(max_examples=60)
def test_zero_law(inst):
    assert evaluate_fitness(inst, AssignmentMatrix.zero(inst.n, inst.k)) == 0


@given(instance_matrix_pairs(), st.integers(1, 7))
@settings(max_examples=60)
def test_weight_linearity(pair, c):
    inst, matrix = pair
    scaled = Instance(
        n=inst.n, k=inst.k, weights=tuple(c * w for w in inst.weights),
        preferences=inst.preferences, suppression=inst.suppression,
        lower_bounds=inst.lower_bounds, upper_bounds=inst.upper_bounds,
    )
    assert evaluate_fitness(scaled, matrix) == c * evaluate_fitness(inst, matrix)


@given(instance_matrix_pairs(families=("zero_one",)))
@settings(max_examples=60)
def test_integrality_with_binary_suppression(pair):
    inst, matrix = pair
    fitness = evaluate_fitness(inst, matrix)
    assert fitness.denominator == 1


@given(instance_matrix_pairs())
@settings(max_examples=60)
def test_upper_envelope(pair):
    inst, matrix = pair
    envelope = Fraction(0)
    for i in range(inst.n):
        values = sorted(
            (inst.weights[j] * inst.preferences[i][j] for j in range(inst.k)),
            reverse=True,
        )
        best = Fraction(0)
        prefix = 0
        for h in range(1, inst.k + 1):
            prefix += values[h - 1]
            best = max(best, inst.suppression[i][h] * prefix)
        envelope += best
    assert evaluate_fitness(inst, matrix) <= envelope


@given(instance_matrix_pairs())
@settings(max_examples=60)
def test_feasibility_report_matches_recomputation(pair):
    inst, matrix = pair
    report = check_feasibility(inst, matrix)
    sums = tuple(sum(matrix.entries[i][j] for i in range(inst.n)) for j in range(inst.k))
    assert report.column_sums == sums
    expected = all(
        inst.lower_bounds[j] <= sums[j] <= inst.upper_bounds[j] for j in range(inst.k)
    )
    assert report.feasible == expected
    assert report.feasible == (not report.violations)
