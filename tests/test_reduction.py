"""Tests for the 3-SAT encoding and its round trips.

The running example throughout is the four-clause formula
(x1|x2|x3) & (x1|~x2|x3) & (~x1|x2|x3) & (~x1|x2|~x3), small enough to
check every derived number by hand.
"""

import json
from itertools import product

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from mcap import io, reduction
from mcap.cli import main
from mcap.core import (
    AssignmentMatrix,
    GuardExceededError,
    PreconditionError,
    ValidationError,
    check_feasibility,
    evaluate_fitness,
)
from mcap.reduction import (
    CnfFormula,
    embed_assignment,
    extract_assignment,
    format_dimacs,
    parse_dimacs,
    property_failures,
    recover_reduction,
    reduce_3sat,
    satisfies,
    sidecar_dict,
    validate_formula,
)
from mcap.solvers import dp_solve
from strategies import random_feasible_matrix, random_formula, sat_brute_force


# SATLIB files (uf20-91 and the like) end with a '%' line and then a '0' line
SATLIB_TRAILER_CNF = "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n%\n0\n"


def four_clause_formula():
    return CnfFormula(
        num_vars=3,
        clauses=((1, 2, 3), (1, -2, 3), (-1, 2, 3), (-1, 2, -3)),
    )


def single_clause_formula():
    return CnfFormula(num_vars=3, clauses=((1, 2, 3),))


class TestValidateFormula:
    def test_accepts_valid(self):
        validate_formula(four_clause_formula())

    def test_rejects_tautology(self):
        with pytest.raises(ValidationError, match="tautological"):
            validate_formula(CnfFormula(3, ((1, -1, 2),)))

    def test_rejects_repeated_variable(self):
        with pytest.raises(ValidationError, match="repeats"):
            validate_formula(CnfFormula(3, ((1, 1, 2),)))

    def test_rejects_unused_variable(self):
        with pytest.raises(ValidationError, match="variable 4 appears in no clause"):
            validate_formula(CnfFormula(4, ((1, 2, 3),)))

    def test_rejects_wrong_width(self):
        with pytest.raises(ValidationError, match="expected 3"):
            validate_formula(CnfFormula(3, ((1, 2),)))

    def test_rejects_out_of_range_literal(self):
        with pytest.raises(ValidationError, match="out of range"):
            validate_formula(CnfFormula(3, ((1, 2, 4),)))

    @pytest.mark.parametrize("clause", [
        (1.7, 2.2, -3.9), (1.0, 2, 3), (True, 2, 3), (1, 2, "3"), (1, 2, "\u0663"),
    ])
    def test_construction_rejects_non_int_literal(self, clause):
        with pytest.raises(ValidationError, match="must be an integer"):
            CnfFormula(3, (clause,))

    @pytest.mark.parametrize("num_vars", ["3", 3.0, True])
    def test_construction_rejects_non_int_num_vars(self, num_vars):
        with pytest.raises(ValidationError, match="num_vars must be an integer"):
            CnfFormula(num_vars, ((1, 2, 3),))

    @pytest.mark.parametrize("clauses, what", [
        ([(1, 2, 3)], "clauses"),
        (([1, 2, 3],), "clause 1"),
    ], ids=["clauses", "clause"])
    def test_construction_rejects_list_container(self, clauses, what):
        # a stored list would be unequal to its tuple twin and unhashable
        with pytest.raises(ValidationError, match=f"{what} must be a tuple, got list"):
            CnfFormula(3, clauses)

    def test_construction_rejects_short_clause(self):
        # construction alone, with no validate_formula call
        with pytest.raises(ValidationError, match="expected 3"):
            CnfFormula(3, ((1, 2),))


class TestDimacs:
    def test_parses_basic(self):
        formula = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        assert formula == single_clause_formula()

    def test_comments_and_percent_lines_skipped(self):
        text = "c a comment\np cnf 3 1\n1 2 3 0\n%\n"
        assert parse_dimacs(text) == single_clause_formula()

    def test_satlib_trailer_ends_clause_data(self):
        assert parse_dimacs(SATLIB_TRAILER_CNF) == CnfFormula(3, ((1, -2, 3), (-1, 2, -3)))

    def test_satlib_trailer_through_cli(self, capsys, tmp_path):
        cnf = tmp_path / "uf.cnf"
        cnf.write_text(SATLIB_TRAILER_CNF)
        code = main(["--format", "json", "reduce", "--cnf", str(cnf),
                     "--out-instance", str(tmp_path / "i.json"),
                     "--out-sidecar", str(tmp_path / "s.json")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["num_vars"], report["num_clauses"]) == (3, 2)

    def test_clause_split_across_lines(self):
        assert parse_dimacs("p cnf 3 1\n1 2\n3 0\n") == single_clause_formula()

    def test_tautology_rejected(self):
        with pytest.raises(ValidationError, match="tautological"):
            parse_dimacs("p cnf 3 1\n1 -1 2 0\n")

    def test_unused_variable_rejected(self):
        with pytest.raises(ValidationError, match="appears in no clause"):
            parse_dimacs("p cnf 4 1\n1 2 3 0\n")

    def test_malformed_header(self):
        with pytest.raises(ValidationError, match="header"):
            parse_dimacs("p dnf 3 1\n1 2 3 0\n")
        with pytest.raises(ValidationError, match="header"):
            parse_dimacs("1 2 3 0\n")

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff13"],
                             ids=["underscore", "arabic-indic-3", "fullwidth-3"])
    @pytest.mark.parametrize("template", [
        "p cnf {} 1\n1 2 3 0\n",
        "p cnf 3 {}\n1 2 3 0\n",
        "p cnf 3 1\n1 2 {} 0\n",
    ], ids=["variable-count", "clause-count", "literal"])
    def test_integers_are_ascii_digits(self, template, token):
        # each is an int() literal (10 or 3), but not [+-]?digits in ASCII
        with pytest.raises(ValidationError, match="bad integer literal"):
            parse_dimacs(template.format(token))

    def test_unterminated_clause(self):
        with pytest.raises(ValidationError, match="not 0-terminated"):
            parse_dimacs("p cnf 3 1\n1 2 3\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ValidationError, match="declares 2 clauses"):
            parse_dimacs("p cnf 3 2\n1 2 3 0\n")

    def test_format_roundtrip(self):
        formula = four_clause_formula()
        assert parse_dimacs(format_dimacs(formula)) == formula


class TestReduce:
    def test_four_clause_dimensions(self):
        red = reduce_3sat(four_clause_formula())
        inst = red.instance
        assert (inst.n, inst.k) == (18, 7)
        assert inst.lower_bounds == (4, 4, 4, 4, 1, 1, 1)
        assert inst.upper_bounds == inst.lower_bounds
        assert red.threshold == 1114444
        assert red.layout.alphas == (3, 4, 4)
        assert red.layout.alphas_prime == (3, 2, 2)

    def test_four_clause_column_structure(self):
        red = reduce_3sat(four_clause_formula())
        prefs = red.instance.preferences
        for j in range(4):  # clause columns: 3 literals + 3 slack customers
            positive = [prefs[i][j] for i in range(18) if prefs[i][j] > 0]
            assert positive == [10**j] * 6
        for c in range(4, 7):  # variable columns: u_i and u_i' only
            positive = [prefs[i][c] for i in range(18) if prefs[i][c] > 0]
            assert positive == [10**c] * 2

    def test_suppression_is_indicator_at_alpha(self):
        red = reduce_3sat(four_clause_formula())
        layout = red.layout
        for i in range(1, 4):
            table = red.instance.suppression[layout.literal_index(i)]
            alpha = layout.alphas[i - 1]
            assert [table[h] for h in range(8)] == [
                1 if h == alpha else 0 for h in range(8)
            ]
        for j in range(1, 5):
            table = red.instance.suppression[layout.s_index(j, 0)]
            assert table[1] == 1 and table[2] == 0

    def test_single_clause_numbers(self):
        red = reduce_3sat(single_clause_formula())
        assert (red.instance.n, red.instance.k) == (9, 4)
        assert red.threshold == 4 + 10 + 100 + 1000

    def test_customer_and_campaign_labels(self):
        layout = reduce_3sat(single_clause_formula()).layout
        assert layout.customers == (
            "u1", "u1'", "u2", "u2'", "u3", "u3'", "s1", "s1'", "s1''",
        )
        assert layout.campaigns == ("C1", "x1", "x2", "x3")

    def test_recover_formula_roundtrip(self):
        for formula in (four_clause_formula(), single_clause_formula()):
            assert recover_reduction(reduce_3sat(formula).instance).formula == formula
        for seed in range(10):
            formula = random_formula(seed, 4, 3)
            # literal order within a clause leaves no trace in the instance
            canonical = CnfFormula(4, tuple(tuple(sorted(cl, key=abs)) for cl in formula.clauses))
            assert recover_reduction(reduce_3sat(formula).instance) == reduce_3sat(canonical)

    def test_cell_guard(self, monkeypatch):
        # four clauses over three variables: 18 customers x 7 campaigns
        inst = reduce_3sat(four_clause_formula()).instance
        monkeypatch.setattr(reduction, "REDUCTION_CELL_LIMIT", 126)
        assert recover_reduction(inst).instance == inst
        monkeypatch.setattr(reduction, "REDUCTION_CELL_LIMIT", 125)
        with pytest.raises(GuardExceededError, match="18 customers x 7 campaigns = 126 cells"):
            reduce_3sat(four_clause_formula())
        # embed, extract and verify rebuild the reduction, so they refuse it too
        with pytest.raises(GuardExceededError, match="over the 125 limit"):
            recover_reduction(inst)


class TestEmbed:
    def test_all_true_reaches_threshold(self):
        red = reduce_3sat(four_clause_formula())
        matrix = embed_assignment(red, (True, True, True))
        assert check_feasibility(red.instance, matrix).feasible
        assert matrix.column_sums() == (4, 4, 4, 4, 1, 1, 1)
        assert evaluate_fitness(red.instance, matrix) == red.threshold

    def test_every_satisfying_assignment_reaches_threshold(self):
        red = reduce_3sat(four_clause_formula())
        formula = four_clause_formula()
        for bits in product((False, True), repeat=3):
            if not satisfies(formula, bits):
                continue
            matrix = embed_assignment(red, bits)
            assert evaluate_fitness(red.instance, matrix) == red.threshold

    def test_single_clause_slack_fill(self):
        red = reduce_3sat(single_clause_formula())
        layout = red.layout
        matrix = embed_assignment(red, (True, False, False))
        col = layout.clause_column(1)
        recommended = [i for i in range(9) if matrix.entries[i][col] == 1]
        assert recommended == [
            layout.literal_index(1),
            layout.s_index(1, 0),
            layout.s_index(1, 1),
            layout.s_index(1, 2),
        ]
        assert evaluate_fitness(red.instance, matrix) == 1114

    def test_unsatisfying_assignment_rejected(self):
        red = reduce_3sat(four_clause_formula())
        with pytest.raises(PreconditionError, match="clause 1 is false"):
            embed_assignment(red, (False, False, False))

    def test_non_bool_value_refused(self):
        # (1, 0, 0) would embed as (True, False, False)
        red = reduce_3sat(four_clause_formula())
        message = "^assignment value of x2 must be true or false, got 0$"
        with pytest.raises(ValidationError, match=message):
            embed_assignment(red, (True, 0, False))
        with pytest.raises(ValidationError, match="value of x1 .* got 1$"):
            embed_assignment(red, (1, 0, 0))


class TestSatisfies:
    @pytest.mark.parametrize("assignment, index", [
        (("x", "", ""), 1),  # a non-empty string would read as true
        ((True, 1, True), 2),
        ((False, False, np.True_), 3),
    ])
    def test_non_bool_value_refused(self, assignment, index):
        with pytest.raises(ValidationError, match=f"^assignment value of x{index} must be true"):
            satisfies(four_clause_formula(), assignment)

    def test_length_checked(self):
        with pytest.raises(ValidationError, match="2 values for 3 variables"):
            satisfies(four_clause_formula(), (True, True))


class TestExtract:
    def test_roundtrips_all_satisfying_assignments(self):
        formula = four_clause_formula()
        red = reduce_3sat(formula)
        for bits in product((False, True), repeat=3):
            if not satisfies(formula, bits):
                continue
            assert extract_assignment(red, embed_assignment(red, bits)) == bits

    def test_extracts_from_dp_optimum(self):
        formula = four_clause_formula()
        red = reduce_3sat(formula)
        result = dp_solve(red.instance)
        assert result.fitness == red.threshold
        assignment = extract_assignment(red, result.matrix)
        assert satisfies(formula, assignment)

    def test_below_threshold_rejected(self):
        red = reduce_3sat(single_clause_formula())
        layout = red.layout
        # route the clause column through the primed customers, whose clause
        # preference is zero and whose row counts break their indicators
        rows = [[0] * 4 for _ in range(9)]
        for i in range(1, 4):
            rows[layout.literal_index(-i)][layout.clause_column(1)] = 1
            rows[layout.literal_index(-i)][layout.variable_column(i)] = 1
        rows[layout.s_index(1, 0)][layout.clause_column(1)] = 1
        matrix = AssignmentMatrix.from_rows(rows)
        assert check_feasibility(red.instance, matrix).feasible
        assert evaluate_fitness(red.instance, matrix) == 1
        with pytest.raises(PreconditionError, match="below the threshold"):
            extract_assignment(red, matrix)

    def test_infeasible_matrix_rejected(self):
        red = reduce_3sat(single_clause_formula())
        with pytest.raises(PreconditionError, match="infeasible"):
            extract_assignment(red, AssignmentMatrix.zero(9, 4))


class TestPropertyFailures:
    def test_good_matrix_is_clean(self):
        red = reduce_3sat(four_clause_formula())
        matrix = embed_assignment(red, (True, True, True))
        assert property_failures(red, matrix) == []

    def test_zero_preference_cell_flagged(self):
        red = reduce_3sat(single_clause_formula())
        rows = [[0] * 4 for _ in range(9)]
        rows[red.layout.s_index(1, 0)][red.layout.variable_column(1)] = 1
        failures = property_failures(red, AssignmentMatrix.from_rows(rows))
        assert any("zero preference" in f for f in failures)

    def test_wrong_row_count_flagged(self):
        red = reduce_3sat(single_clause_formula())
        rows = [[0] * 4 for _ in range(9)]
        # u1 has alpha_1 = 2, so one recommendation leaves its indicator at 0
        rows[red.layout.literal_index(1)][red.layout.variable_column(1)] = 1
        failures = property_failures(red, AssignmentMatrix.from_rows(rows))
        assert any("suppression value is not 1" in f for f in failures)
        assert any("part of its positive-preference cells" in f for f in failures)

    def test_double_variable_column_flagged(self):
        red = reduce_3sat(single_clause_formula())
        matrix = embed_assignment(red, (True, False, False))
        rows = [list(r) for r in matrix.entries]
        rows[red.layout.literal_index(-1)][red.layout.variable_column(1)] = 1
        failures = property_failures(red, AssignmentMatrix.from_rows(rows))
        assert any("exactly one of u1, u1'" in f for f in failures)


class TestSatBruteForce:
    def test_four_clause_satisfiable(self):
        assignment = sat_brute_force(four_clause_formula())
        assert assignment is not None
        assert satisfies(four_clause_formula(), assignment)

    def test_single_clause_lexicographic(self):
        assert sat_brute_force(single_clause_formula()) == (False, False, True)

    def test_all_polarities_unsatisfiable(self):
        clauses = tuple(
            tuple(v if bit else -v for v, bit in zip((1, 2, 3), bits))
            for bits in product((False, True), repeat=3)
        )
        assert sat_brute_force(CnfFormula(3, clauses)) is None


class TestSidecar:
    """The sidecar is checked against the instance, never read."""

    def write_files(self, tmp_path, sidecar):
        red = reduce_3sat(four_clause_formula())
        paths = {name: tmp_path / f"{name}.json" for name in ("instance", "sidecar", "matrix")}
        io.write_instance(red.instance, paths["instance"])
        io.dump_json(sidecar, paths["sidecar"])
        io.write_matrix(embed_assignment(red, (True, True, True)), paths["matrix"])
        return [f"--{name}={path}" for name, path in paths.items()]

    def test_roundtrip(self, tmp_path, capsys):
        sidecar = sidecar_dict(reduce_3sat(four_clause_formula()))
        assert main(["verify", *self.write_files(tmp_path, sidecar)]) == 0
        assert "verified: True" in capsys.readouterr().out

    def test_malformed(self, tmp_path, capsys):
        written = sidecar_dict(reduce_3sat(four_clause_formula()))
        tampered = [{"threshold": "12"}, []]
        for field, value in written.items():
            if isinstance(value, list):
                changed = value + value[:1]
            elif isinstance(value, int):
                changed = value + 1
            else:
                changed = str(int(value) + 1)
            tampered.append({**written, field: changed})
        for sidecar in tampered:
            argv = ["--format", "json", "verify", *self.write_files(tmp_path, sidecar)]
            assert main(argv) == 2
            error = json.loads(capsys.readouterr().out)["error"]
            assert error["type"] == "ValidationError"
            assert "sidecar does not match" in error["message"]


@given(
    st.integers(0, 10**9),
    st.sampled_from([(3, 1), (3, 2), (3, 3), (4, 2), (4, 3)]),
)
@settings(max_examples=25, deadline=None)
def test_decision_equivalence_on_random_formulas(seed, shape):
    """Satisfiability of the formula == the reduced optimum reaching t."""
    formula = random_formula(seed, *shape)
    red = reduce_3sat(formula)
    result = dp_solve(red.instance)
    assignment = sat_brute_force(formula)
    if assignment is None:
        assert result.fitness < red.threshold
    else:
        assert result.fitness == red.threshold
        assert satisfies(formula, extract_assignment(red, result.matrix))


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_threshold_is_an_upper_bound(seed):
    red = reduce_3sat(four_clause_formula())
    matrix = random_feasible_matrix(seed, red.instance)
    assert evaluate_fitness(red.instance, matrix) <= red.threshold
