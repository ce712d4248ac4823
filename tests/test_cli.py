"""End-to-end CLI tests, driven through main(argv) for exit codes."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mcap import cli, generate, io, reduction, solvers
from mcap.cli import main
from mcap.core import (
    AssignmentMatrix,
    GuardExceededError,
    Instance,
    SuppressionTable,
    ValidationError,
)

from test_learning import report_history

FOUR_CLAUSE_CNF = "p cnf 3 4\n1 2 3 0\n1 -2 3 0\n-1 2 3 0\n-1 2 -3 0\n"
SINGLE_CLAUSE_CNF = "p cnf 3 1\n1 2 3 0\n"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr()


def run_json(capsys, *argv):
    code, captured = run(capsys, "--format", "json", *argv)
    return code, json.loads(captured.out)


@pytest.fixture
def small_instance(tmp_path):
    inst = Instance(
        n=2, k=2, weights=(2, 3),
        preferences=((5, 7), (1, 0)),
        suppression=(SuppressionTable((0, 1, Fraction(1, 2))),) * 2,
        lower_bounds=(0, 0), upper_bounds=(2, 1),
    )
    path = tmp_path / "instance.json"
    io.write_instance(inst, path)
    return inst, path


RAGGED_ROWS = [["10", "1"], ["10", "111"]]


def assert_one_error(captured, code, expected_code, error_type):
    assert code == expected_code
    report = json.loads(captured.out)
    assert report == {"error": {"type": error_type, "message": report["error"]["message"]}}


@pytest.fixture
def huge_instance(tmp_path):
    # fitness of the one cell has about 6,000 digits
    inst = Instance(
        n=1, k=1, weights=(int("9" * 3000),), preferences=((int("9" * 3000),),),
        suppression=(SuppressionTable((0, 1)),),
        lower_bounds=(0,), upper_bounds=(1,),
    )
    path = tmp_path / "huge.json"
    io.write_instance(inst, path)
    return path


def digit_limited() -> bool:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return 0 < limit < 5999


def reduce_files(tmp_path, capsys, cnf_text):
    cnf = tmp_path / "formula.cnf"
    cnf.write_text(cnf_text)
    instance = tmp_path / "reduced.json"
    sidecar = tmp_path / "sidecar.json"
    code = main([
        "reduce", "--cnf", str(cnf),
        "--out-instance", str(instance), "--out-sidecar", str(sidecar),
    ])
    assert code == 0
    capsys.readouterr()
    return instance, sidecar


@pytest.fixture
def reduced_files(tmp_path, capsys):
    return reduce_files(tmp_path, capsys, FOUR_CLAUSE_CNF)


class TestEvaluate:
    def test_zero_matrix(self, capsys, small_instance, tmp_path):
        _, inst_path = small_instance
        matrix_path = tmp_path / "matrix.json"
        io.write_matrix(AssignmentMatrix.zero(2, 2), matrix_path)
        code, report = run_json(
            capsys, "evaluate", "--instance", inst_path, "--matrix", matrix_path
        )
        assert code == 0
        assert report == {
            "fitness": "0",
            "feasible": True,
            "column_sums": [0, 0],
            "violations": [],
        }

    def test_human_format(self, capsys, small_instance, tmp_path):
        _, inst_path = small_instance
        matrix_path = tmp_path / "matrix.json"
        io.write_matrix(AssignmentMatrix(((0, 1), (0, 0))), matrix_path)
        code, captured = run(
            capsys, "evaluate", "--instance", inst_path, "--matrix", matrix_path
        )
        assert code == 0
        assert "fitness: 21" in captured.out

    def test_missing_file_is_a_parse_error(self, capsys, tmp_path):
        code, report = run_json(
            capsys, "evaluate",
            "--instance", tmp_path / "nope.json", "--matrix", tmp_path / "also.json",
        )
        assert code == 2
        assert report["error"]["type"] == "FileNotFoundError"

    def test_malformed_instance(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"n\": 1}")
        matrix = tmp_path / "matrix.json"
        io.write_matrix(AssignmentMatrix.zero(1, 1), matrix)
        code, report = run_json(
            capsys, "evaluate", "--instance", bad, "--matrix", matrix
        )
        assert code == 2
        assert report["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("field, value", [
        ("n", "x"), ("k", 2.5), ("lower_bounds", ["a", 0]), ("upper_bounds", [2, True]),
        # strings in place of lists, once read digit by digit
        ("lower_bounds", "00"), ("upper_bounds", "21"), ("weights", "23"),
        ("preferences", ["57", "10"]), ("suppression", ["011", "011"]),
        # suppression entries must be strings: JSON numbers are rejected
        ("suppression", [[0, 1, 1], [0, 1, 1]]),
        # and integers or "num/den": "1e-3000000" once parsed, then broke
        # printing the fitness
        ("suppression", [["0", "1e-3000000", "1"], ["0", "1", "1"]]),
        ("suppression", [["0", "1e-5", "1"], ["0", "1", "1"]]),
        ("suppression", [["0", "0.5", "1"], ["0", "1", "1"]]),
        # int() also reads "1_0" as 10 and non-ASCII digits such as "٣"
        ("weights", ["1_0", "3"]), ("preferences", [["٣", "7"], ["1", "0"]]),
        ("n", " ２"),
    ])
    def test_non_integer_instance_field(self, capsys, small_instance, tmp_path, field, value):
        inst, _ = small_instance
        data = io.instance_to_dict(inst)
        data[field] = value
        bad = tmp_path / "bad.json"
        io.dump_json(data, bad)
        code, report = run_json(capsys, "solve", "--instance", bad)
        assert code == 2
        assert report["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("rows", RAGGED_ROWS)
    def test_ragged_matrix(self, capsys, small_instance, tmp_path, rows):
        _, inst_path = small_instance
        matrix = tmp_path / "matrix.json"
        io.dump_json({"rows": rows}, matrix)
        code, captured = run(
            capsys, "--format", "json", "evaluate", "--instance", inst_path, "--matrix", matrix
        )
        assert_one_error(captured, code, 2, "ValidationError")

    def test_fitness_past_the_digit_limit(self, capsys, huge_instance, tmp_path):
        matrix = tmp_path / "matrix.json"
        io.dump_json({"rows": ["1"]}, matrix)
        code, captured = run(
            capsys, "--format", "json", "evaluate", "--instance", huge_instance, "--matrix", matrix
        )
        if digit_limited():
            assert_one_error(captured, code, 2, "ValidationError")
            assert "too large to print" in captured.out
        else:
            assert code == 0
            assert json.loads(captured.out)["fitness"] == str(int("9" * 3000) ** 2)

    def test_string_rows_matrix(self, capsys, small_instance, tmp_path):
        _, inst_path = small_instance
        matrix = tmp_path / "matrix.json"
        matrix.write_text('{"rows": "01"}')
        code, report = run_json(
            capsys, "evaluate", "--instance", inst_path, "--matrix", matrix
        )
        assert code == 2
        assert report["error"]["type"] == "ValidationError"


class TestSolve:
    def test_dp_solves_reduced_instance(self, capsys, reduced_files, tmp_path):
        instance, _ = reduced_files
        out = tmp_path / "optimal.json"
        code, report = run_json(
            capsys, "solve", "--instance", instance, "--method", "dp", "--out", out,
        )
        assert code == 0
        assert report["fitness"] == "1114444"
        assert report["optimal"] is True
        written = io.read_matrix(out)
        assert written.column_sums() == (4, 4, 4, 4, 1, 1, 1)

    def test_auto_prefers_dp_when_small(self, capsys, small_instance):
        _, inst_path = small_instance
        code, report = run_json(capsys, "solve", "--instance", inst_path)
        assert code == 0
        assert report["method"] == "dp"
        assert report["optimal"] is True

    def test_auto_falls_back_to_heuristic(self, capsys, small_instance, monkeypatch):
        _, inst_path = small_instance
        # the instance has 3 x 2 states per layer
        monkeypatch.setattr(solvers, "DEFAULT_DP_STATE_LIMIT", 2)
        code, report = run_json(capsys, "solve", "--instance", inst_path)
        assert code == 0
        assert report["method"] == "greedy+local"
        assert report["optimal"] is False

    def test_auto_falls_back_on_tall_instance(self, capsys, tmp_path):
        # 120 x 120^3 choice cells: each layer fits the state guard, the
        # total does not
        inst = generate.random_instance(seed=3, n=120, k=3, bounds="unbounded")
        inst = dataclasses.replace(inst, upper_bounds=(119, 119, 119))
        path = tmp_path / "tall.json"
        io.write_instance(inst, path)
        code, report = run_json(capsys, "solve", "--instance", path, "--method", "dp")
        assert code == 4
        assert "choice cells" in report["error"]["message"]
        code, report = run_json(capsys, "solve", "--instance", path)
        assert code == 0
        assert report["method"] == "greedy+local"

    def test_greedy_local_reports_both_times(self, capsys, small_instance, tmp_path, monkeypatch):
        # local search starts its clock after greedy ends, so a start built
        # by greedy adds greedy's time; explored stays local search's
        _, inst_path = small_instance
        zero = AssignmentMatrix.zero(2, 2)

        def fake(elapsed_s, explored):
            stats = solvers.SolveStats(elapsed_s=elapsed_s, explored=explored)
            return lambda *args: solvers.SolveResult(zero, Fraction(0), False, stats)

        monkeypatch.setattr(solvers, "greedy_construct", fake(0.25, 3))
        monkeypatch.setattr(solvers, "local_search", fake(0.5, 7))
        monkeypatch.setattr(solvers, "DEFAULT_DP_STATE_LIMIT", 2)
        for method in ("auto", "local"):
            code, report = run_json(capsys, "solve", "--instance", inst_path, "--method", method)
            assert code == 0
            assert (report["elapsed_s"], report["explored"]) == (0.75, 7)
        code, report = run_json(capsys, "bench", "--instance", inst_path)
        (row,) = [r for r in report["rows"] if r["method"] == "local"]
        assert (row["elapsed_s"], row["explored"]) == (0.75, 7)
        start = tmp_path / "start.json"
        io.write_matrix(zero, start)
        code, report = run_json(
            capsys, "solve", "--instance", inst_path, "--method", "local", "--start", start,
        )
        assert (report["elapsed_s"], report["explored"]) == (0.5, 7)

    def test_brute_force_guard_exit(self, capsys, small_instance, monkeypatch):
        _, inst_path = small_instance
        monkeypatch.setattr(solvers, "DEFAULT_BRUTE_FORCE_CELLS", 1)
        code, report = run_json(
            capsys, "solve", "--instance", inst_path, "--method", "brute",
        )
        assert code == 4
        assert report["error"]["type"] == "GuardExceededError"

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("flag", ["--max-cells", "--max-states"])
    def test_guard_options_are_usage_errors(self, capsys, small_instance, command, flag):
        # the guards are constants of mcap.solvers; no option sets them
        _, inst_path = small_instance
        code, captured = run(
            capsys, "--format", "json", command, "--instance", inst_path, flag, 5,
        )
        assert_one_error(captured, code, 2, "ValidationError")
        assert flag in json.loads(captured.out)["error"]["message"]

    def test_const_method_rejects_varying_suppression(self, capsys, small_instance):
        _, inst_path = small_instance
        code, report = run_json(
            capsys, "solve", "--instance", inst_path, "--method", "const",
        )
        assert code == 1
        assert report["error"]["type"] == "PreconditionError"

    @pytest.mark.parametrize("rows", RAGGED_ROWS)
    def test_local_with_ragged_start(self, capsys, small_instance, tmp_path, rows):
        _, inst_path = small_instance
        start = tmp_path / "start.json"
        io.dump_json({"rows": rows}, start)
        code, captured = run(
            capsys, "--format", "json", "solve", "--instance", inst_path,
            "--method", "local", "--start", start,
        )
        assert_one_error(captured, code, 2, "ValidationError")

    def test_fitness_past_the_digit_limit(self, capsys, huge_instance, tmp_path):
        out = tmp_path / "out.json"
        code, captured = run(
            capsys, "--format", "json", "solve", "--instance", huge_instance,
            "--method", "greedy", "--out", out,
        )
        if digit_limited():
            assert_one_error(captured, code, 2, "ValidationError")
            assert not out.exists()
        else:
            assert code == 0
            assert json.loads(captured.out)["fitness"] == str(int("9" * 3000) ** 2)
            assert out.exists()

    @pytest.mark.parametrize("method", ["dp", "greedy", "auto"])
    @pytest.mark.parametrize("content, error_type", [
        (None, "FileNotFoundError"), ({"rows": ["2"]}, "ValidationError"),
    ])
    def test_start_read_whatever_the_method(
        self, capsys, small_instance, tmp_path, method, content, error_type
    ):
        # the 2x2 instance passes the DP guard, so auto solves it by DP
        _, inst_path = small_instance
        start = tmp_path / "start.json"
        if content is not None:
            io.dump_json(content, start)
        code, captured = run(
            capsys, "--format", "json", "solve", "--instance", inst_path,
            "--method", method, "--start", start,
        )
        assert_one_error(captured, code, 2, error_type)

    def test_local_with_infeasible_start(self, capsys, reduced_files, tmp_path):
        instance, _ = reduced_files
        start = tmp_path / "start.json"
        io.write_matrix(AssignmentMatrix.zero(18, 7), start)
        code, report = run_json(
            capsys, "solve", "--instance", instance,
            "--method", "local", "--start", start,
        )
        assert code == 3
        assert report["error"]["type"] == "InfeasibleError"


class TestReductionFlow:
    def test_reduce_reports_dimensions(self, capsys, tmp_path):
        cnf = tmp_path / "formula.cnf"
        cnf.write_text(FOUR_CLAUSE_CNF)
        code, report = run_json(
            capsys, "reduce", "--cnf", cnf,
            "--out-instance", tmp_path / "i.json", "--out-sidecar", tmp_path / "s.json",
        )
        assert code == 0
        assert (report["n"], report["k"]) == (18, 7)
        assert report["threshold"] == "1114444"

    def test_tautology_is_a_parse_error(self, capsys, tmp_path):
        cnf = tmp_path / "taut.cnf"
        cnf.write_text("p cnf 3 1\n1 -1 2 0\n")
        code, report = run_json(
            capsys, "reduce", "--cnf", cnf,
            "--out-instance", tmp_path / "i.json", "--out-sidecar", tmp_path / "s.json",
        )
        assert code == 2
        assert report["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("content", [
        b"p cnf 3 1\n1 2 3 0\n\xff\n",
        "p cnf 3 1\n1 2 1_0 0\n".encode(),
        "p cnf 3 1\n1 2 \u0663 0\n".encode(),  # Arabic-Indic 3
        "p cnf \uff13 1\n1 2 3 0\n".encode(),  # fullwidth 3
    ], ids=["not-utf8", "underscore", "arabic-indic-digit", "fullwidth-header"])
    def test_malformed_cnf_is_one_error(self, capsys, tmp_path, content):
        cnf = tmp_path / "bad.cnf"
        cnf.write_bytes(content)
        instance, sidecar = tmp_path / "i.json", tmp_path / "s.json"
        code, captured = run(
            capsys, "--format", "json", "reduce", "--cnf", cnf,
            "--out-instance", instance, "--out-sidecar", sidecar,
        )
        assert_one_error(captured, code, 2, "ValidationError")
        assert not instance.exists() and not sidecar.exists()

    def test_sanitize_is_a_usage_error(self, capsys, tmp_path):
        # a CNF is reduced as given or refused; no option repairs it
        cnf = tmp_path / "formula.cnf"
        cnf.write_text(FOUR_CLAUSE_CNF)
        instance, sidecar = tmp_path / "i.json", tmp_path / "s.json"
        code, captured = run(
            capsys, "--format", "json", "reduce", "--cnf", cnf,
            "--out-instance", instance, "--out-sidecar", sidecar, "--sanitize",
        )
        assert_one_error(captured, code, 2, "ValidationError")
        assert "--sanitize" in json.loads(captured.out)["error"]["message"]
        assert not instance.exists() and not sidecar.exists()

    def test_reduction_cell_guard_exit(self, capsys, tmp_path):
        # a planted 200-variable, 840-clause CNF: 2,920 customers x 1,040
        # campaigns = 3,036,800 cells, over the reduction's cell limit
        formula, _ = generate.random_planted_formula(seed=1, num_vars=200, num_clauses=840)
        cnf = tmp_path / "big.cnf"
        cnf.write_text(reduction.format_dimacs(formula))
        instance, sidecar = tmp_path / "i.json", tmp_path / "s.json"
        code, captured = run(
            capsys, "--format", "json", "reduce", "--cnf", cnf,
            "--out-instance", instance, "--out-sidecar", sidecar,
        )
        assert_one_error(captured, code, 4, "GuardExceededError")
        assert "3036800 cells" in json.loads(captured.out)["error"]["message"]
        assert not instance.exists() and not sidecar.exists()

    def test_embed_extract_verify_roundtrip(self, capsys, reduced_files, tmp_path):
        instance, sidecar = reduced_files
        matrix = tmp_path / "embedded.json"
        code, report = run_json(
            capsys, "embed", "--instance", instance, "--sidecar", sidecar,
            "--assignment", "111", "--out", matrix,
        )
        assert code == 0
        assert report["meets_threshold"] is True
        assert report["fitness"] == "1114444"

        code, report = run_json(
            capsys, "extract", "--instance", instance, "--sidecar", sidecar,
            "--matrix", matrix,
        )
        assert code == 0
        assert report["assignment"] == "111"

        code, report = run_json(
            capsys, "verify", "--instance", instance, "--sidecar", sidecar,
            "--matrix", matrix,
        )
        assert code == 0
        assert report["verified"] is True

    def test_embed_rejects_unsatisfying_assignment(self, capsys, reduced_files, tmp_path):
        instance, sidecar = reduced_files
        code, report = run_json(
            capsys, "embed", "--instance", instance, "--sidecar", sidecar,
            "--assignment", "000", "--out", tmp_path / "m.json",
        )
        assert code == 1
        assert report["error"]["type"] == "PreconditionError"

    def test_verify_infeasible_matrix(self, capsys, reduced_files, tmp_path):
        instance, sidecar = reduced_files
        matrix = tmp_path / "zero.json"
        io.write_matrix(AssignmentMatrix.zero(18, 7), matrix)
        code, report = run_json(
            capsys, "verify", "--instance", instance, "--sidecar", sidecar,
            "--matrix", matrix,
        )
        assert code == 3
        assert report["verified"] is False
        assert report["violations"]

    def test_evaluate_and_verify_list_the_same_violations(
        self, capsys, reduced_files, tmp_path
    ):
        instance, sidecar = reduced_files
        matrix = tmp_path / "zero.json"
        io.write_matrix(AssignmentMatrix.zero(18, 7), matrix)
        _, verified = run_json(
            capsys, "verify", "--instance", instance, "--sidecar", sidecar,
            "--matrix", matrix,
        )
        _, evaluated = run_json(capsys, "evaluate", "--instance", instance, "--matrix", matrix)
        # every column of the zero matrix is below its lower bound
        assert evaluated["violations"] == verified["violations"] == [
            {"campaign": j, "sum": 0, "side": "lower"} for j in range(7)
        ]

    def test_verify_below_threshold(self, capsys, tmp_path):
        cnf = tmp_path / "one.cnf"
        cnf.write_text(SINGLE_CLAUSE_CNF)
        instance = tmp_path / "i.json"
        sidecar = tmp_path / "s.json"
        assert main([
            "reduce", "--cnf", str(cnf),
            "--out-instance", str(instance), "--out-sidecar", str(sidecar),
        ]) == 0
        capsys.readouterr()
        # feasible but worthless: clause column on the primed customers
        rows = [[0] * 4 for _ in range(9)]
        for i, var_col in ((1, 1), (3, 2), (5, 3)):
            rows[i][0] = 1
            rows[i][var_col] = 1
        rows[6][0] = 1
        matrix = tmp_path / "weak.json"
        io.write_matrix(AssignmentMatrix.from_rows(rows), matrix)
        code, report = run_json(
            capsys, "verify", "--instance", instance, "--sidecar", sidecar,
            "--matrix", matrix,
        )
        assert code == 1
        assert report["feasible"] is True
        assert report["meets_threshold"] is False

    def test_sidecar_dimension_mismatch(self, capsys, reduced_files, small_instance, tmp_path):
        _, sidecar = reduced_files
        _, inst_path = small_instance
        matrix = tmp_path / "m.json"
        io.write_matrix(AssignmentMatrix.zero(2, 2), matrix)
        code, report = run_json(
            capsys, "verify", "--instance", inst_path, "--sidecar", sidecar,
            "--matrix", matrix,
        )
        assert code == 2
        assert "does not match" in report["error"]["message"]

    def embedded_single_clause(self, tmp_path, capsys):
        instance, sidecar = reduce_files(tmp_path, capsys, SINGLE_CLAUSE_CNF)
        matrix = tmp_path / "m.json"
        assert main(["embed", "--instance", str(instance), "--sidecar", str(sidecar),
                     "--assignment", "100", "--out", str(matrix)]) == 0
        capsys.readouterr()
        return instance, sidecar, matrix

    @pytest.mark.parametrize("command", ["verify", "extract"])
    @pytest.mark.parametrize("tamper", [
        {"num_vars": 5, "num_clauses": 0},  # once an IndexError traceback
        {"threshold": "1"},  # once read as the threshold
        {"num_vars": 2, "num_clauses": 2},  # once an InternalCheckError, exit 1
    ])
    def test_tampered_sidecar(self, capsys, tmp_path, command, tamper):
        instance, sidecar, matrix = self.embedded_single_clause(tmp_path, capsys)
        io.dump_json({**io.load_json(sidecar), **tamper}, sidecar)
        code, report = run_json(
            capsys, command, "--instance", instance, "--sidecar", sidecar, "--matrix", matrix,
        )
        assert code == 2
        assert list(report) == ["error"]
        assert report["error"]["type"] == "ValidationError"
        assert "sidecar does not match" in report["error"]["message"]

    @pytest.mark.parametrize("row, col, value", [
        (1, 0, "1"),  # u1' joins clause C1: the formula has no such clause
        (0, 1, "20"),  # u1's variable-column pay: the formula stays, the instance does not
    ])
    def test_edited_reduced_instance(self, capsys, tmp_path, row, col, value):
        instance, sidecar, matrix = self.embedded_single_clause(tmp_path, capsys)
        data = io.load_json(instance)
        data["preferences"][row][col] = value
        io.dump_json(data, instance)
        code, report = run_json(
            capsys, "verify", "--instance", instance, "--sidecar", sidecar, "--matrix", matrix,
        )
        assert code == 2
        assert list(report) == ["error"]
        assert report["error"]["type"] == "ValidationError"
        assert "does not match" in report["error"]["message"]


class TestGen:
    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _ = run(
                capsys, "gen", "--seed", 7, "--n", 5, "--k", 3, "--out", path,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_prints_instance_without_out(self, capsys):
        code, report = run_json(capsys, "gen", "--seed", 7, "--n", 4, "--k", 2)
        assert code == 0
        assert report["n"] == 4
        assert len(report["preferences"]) == 4

    def test_generated_instance_is_loadable(self, capsys, tmp_path):
        path = tmp_path / "gen.json"
        run(capsys, "gen", "--seed", 3, "--n", 4, "--k", 2,
            "--family", "indicator", "--bounds", "unbounded", "--out", path)
        inst = io.read_instance(path)
        assert inst.lower_bounds == (0, 0)
        assert inst.upper_bounds == (4, 4)

    @pytest.mark.parametrize("flag, value", [
        ("--grid", 0), ("--pref-max", -1), ("--weight-max", 0), ("--n", -1),
        ("--k", 0), ("--k", -1),
    ])
    def test_rejects_out_of_range_argument(self, capsys, flag, value):
        # indicator tables draw a position from [1, k]: a bad k must be refused first
        args = {"--seed": 1, "--n": 3, "--k": 2, "--family": "indicator", flag: value}
        code, report = run_json(capsys, "gen", *(x for pair in args.items() for x in pair))
        assert code == 2
        assert list(report) == ["error"]
        assert report["error"]["type"] == "ValidationError"


    def test_linear_tables_share_their_values(self):
        # one table per instance, so validation meets each value object once
        inst = generate.random_instance(seed=1, n=5, k=3, family="linear")
        first = inst.suppression[0].values
        assert first == (0, 1, Fraction(2, 3), Fraction(1, 3))
        assert all(
            value is shared
            for table in inst.suppression
            for value, shared in zip(table.values, first, strict=True)
        )

    @pytest.mark.parametrize("name, value", [
        ("n", 2.0), ("k", True), ("pref_max", "9"), ("weight_max", 5.0), ("grid", 4.0),
    ])
    def test_random_instance_refuses_non_int_sizes(self, monkeypatch, name, value):
        # before any draw: a draw would fail on the missing random module
        monkeypatch.setattr(generate, "random", None)
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {value!r}$"):
            generate.random_instance(**{"seed": 1, "n": 2, "k": 2, name: value})

    @pytest.mark.parametrize("name, value", [("num_vars", 5.0), ("num_clauses", True)])
    def test_random_planted_formula_refuses_non_int_sizes(self, monkeypatch, name, value):
        monkeypatch.setattr(generate, "random", None)
        sizes = {"num_vars": 5, "num_clauses": 8, name: value}
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {value!r}$"):
            generate.random_planted_formula(1, **sizes)

    def test_cell_guard(self, monkeypatch):
        # the limit is read at call time, and checked before any draw
        monkeypatch.setattr(reduction, "REDUCTION_CELL_LIMIT", 11)
        assert generate.random_instance(seed=1, n=3, k=3).n == 3
        with pytest.raises(GuardExceededError, match="4 customers x 3 campaigns = 12 cells"):
            generate.random_instance(seed=1, n=4, k=3)

    def test_cell_guard_exit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(reduction, "REDUCTION_CELL_LIMIT", 11)
        path = tmp_path / "gen.json"
        code, captured = run(
            capsys, "--format", "json", "gen", "--seed", 1, "--n", 4, "--k", 3, "--out", path,
        )
        assert_one_error(captured, code, 4, "GuardExceededError")
        assert not path.exists()

# monotone -> SHA-256 of the JSON stdout of test_fit_report_matches_recorded_hash,
# recorded from the exact search; both optima are non-increasing, so the
# two reports are the same
FIT_REPORT_SHA256 = {
    False: "ef690d0439835e20acba337814883db02a78e98067fa7ba568816ff52c6d64b9",
    True: "ef690d0439835e20acba337814883db02a78e98067fa7ba568816ff52c6d64b9",
}


class TestFit:
    def test_fits_from_files(self, capsys, tmp_path):
        records = [
            {"customer": "a", "campaign": "c", "preference": 1, "h": 1, "responded": True},
            {"customer": "b", "campaign": "c", "preference": 1, "h": 3, "responded": False},
        ]
        records_path = tmp_path / "records.json"
        io.dump_json(records, records_path)
        code, report = run_json(
            capsys, "fit", "--records", records_path, "--max-h", 3, "--grid", 4,
        )
        assert code == 0
        (category,) = report["categories"]
        assert category["label"] == 0
        assert category["table"] == ["0", "1", "1", "3/4"]
        assert (category["satisfied"], category["upper_bound"], category["total"]) == (1, 1, 1)

    @pytest.mark.parametrize("option", [("--restarts", 3), ("--seed", 1)])
    def test_search_options_are_usage_errors(self, capsys, tmp_path, option):
        # the search is exact: the fit has no knobs to turn
        records = [
            {"customer": "a", "campaign": "c", "preference": 1, "h": 1, "responded": True},
        ]
        records_path = tmp_path / "records.json"
        io.dump_json(records, records_path)
        code, report = run_json(capsys, "fit", "--records", records_path, "--max-h", 3, *option)
        assert code == 2
        assert list(report) == ["error"]
        assert report["error"]["type"] == "ValidationError"

    def test_labels_split_categories(self, capsys, tmp_path):
        records = [
            {"customer": "a", "campaign": "c", "preference": 1, "h": 1, "responded": True},
            {"customer": "b", "campaign": "c", "preference": 1, "h": 2, "responded": False},
        ]
        records_path = tmp_path / "records.json"
        labels_path = tmp_path / "labels.json"
        io.dump_json(records, records_path)
        io.dump_json({"a": 0, "b": 1}, labels_path)
        code, report = run_json(
            capsys, "fit", "--records", records_path, "--labels", labels_path,
            "--max-h", 2, "--grid", 4,
        )
        assert code == 0
        assert [c["label"] for c in report["categories"]] == [0, 1]
        assert all(c["total"] == 0 for c in report["categories"])

    def test_labels_match_integer_customers(self, capsys, tmp_path):
        records = [
            {"customer": 1, "campaign": "c", "preference": 1, "h": 1, "responded": True},
            {"customer": 2, "campaign": "c", "preference": 1, "h": 2, "responded": False},
        ]
        records_path = tmp_path / "records.json"
        labels_path = tmp_path / "labels.json"
        io.dump_json(records, records_path)
        io.dump_json({"1": 0, "2": 1}, labels_path)
        code, report = run_json(
            capsys, "fit", "--records", records_path, "--labels", labels_path,
            "--max-h", 2, "--grid", 4,
        )
        assert code == 0
        assert [c["label"] for c in report["categories"]] == [0, 1]

    @pytest.mark.parametrize("label", ["x", 1.7, "1_0", "٣"])
    def test_non_integer_label(self, capsys, tmp_path, label):
        records = [
            {"customer": "a", "campaign": "c", "preference": 1, "h": 1, "responded": True},
        ]
        records_path = tmp_path / "records.json"
        labels_path = tmp_path / "labels.json"
        io.dump_json(records, records_path)
        io.dump_json({"a": label}, labels_path)
        code, report = run_json(
            capsys, "fit", "--records", records_path, "--labels", labels_path,
            "--max-h", 2, "--grid", 4,
        )
        assert code == 2
        assert report["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("monotone", [False, True])
    def test_fit_report_matches_recorded_hash(self, capsys, tmp_path, monotone):
        # decoding, labels, grouping by label and the search, end to end
        records, labels = report_history()
        labels = {str(customer): label for customer, label in labels.items()}
        records_path = tmp_path / "records.json"
        labels_path = tmp_path / "labels.json"
        io.dump_json(records, records_path)
        io.dump_json(labels, labels_path)
        code, captured = run(
            capsys, "--format", "json", "fit", "--records", records_path,
            "--labels", labels_path, "--max-h", 4, "--grid", 20,
            *(["--monotone"] if monotone else []),
        )
        assert code == 0
        assert [c["label"] for c in json.loads(captured.out)["categories"]] == [0, 1]
        assert hashlib.sha256(captured.out.encode()).hexdigest() == FIT_REPORT_SHA256[monotone]

    def test_table_guard_exit(self, capsys, tmp_path):
        records = [
            {"customer": "a", "campaign": "c", "preference": 1, "h": 1, "responded": True},
            {"customer": "b", "campaign": "c", "preference": 1, "h": 2, "responded": False},
        ]
        records_path = tmp_path / "records.json"
        io.dump_json(records, records_path)
        code, report = run_json(
            capsys, "fit", "--records", records_path, "--max-h", 2, "--grid", 100000,
        )
        assert code == 4
        assert list(report) == ["error"]
        assert report["error"]["type"] == "GuardExceededError"

    def test_many_distinct_outcomes_fit(self, capsys, tmp_path):
        # 3,000 distinct preferences, 1,500 responders at h 1 and 1,500
        # non-responders at h 2: 2.25 million outcome pairs, counted from
        # the sorted outcomes without listing one
        records = [
            {"customer": p, "campaign": "c", "preference": p, "h": 1 + p % 2,
             "responded": p % 2 == 0}
            for p in range(3000)
        ]
        records_path = tmp_path / "records.json"
        io.dump_json(records, records_path)
        code, report = run_json(capsys, "fit", "--records", records_path, "--max-h", 2)
        assert code == 0
        assert report == {"categories": [
            {"label": 0, "table": ["0", "1", "0"], "satisfied": 2248500, "upper_bound": 2248500,
             "total": 2250000},
        ]}

    @pytest.mark.parametrize("options, exit_code, error", [
        (("--max-h", 0, "--grid", 100000), 2, "ValidationError"),
        (("--max-h", 2, "--grid", 100000), 4, "GuardExceededError"),
        (("--max-h", 2, "--grid", 4), 0, None),
    ])
    def test_empty_history_checks_options(self, capsys, tmp_path, options, exit_code, error):
        records_path = tmp_path / "records.json"
        io.dump_json([], records_path)
        code, report = run_json(capsys, "fit", "--records", records_path, *options)
        assert code == exit_code
        if error is None:
            assert report == {"categories": []}
        else:
            assert list(report) == ["error"]
            assert report["error"]["type"] == error

    @pytest.mark.parametrize("field, value", [
        ("h", 1.7), ("h", True), ("responded", "no"), ("responded", 1),
        ("campaign", [1]), ("customer", [1]), ("preference", "1_0"), ("h", "٢"),
        ("customer", True), ("campaign", False), ("customer", 1.5),
    ])
    def test_malformed_record(self, capsys, tmp_path, field, value):
        records = [
            {"customer": "a", "campaign": "c", "preference": 1, "h": 1, "responded": True},
            {"customer": "b", "campaign": "c", "preference": 1, "h": 2, "responded": False},
        ]
        records[1][field] = value
        records_path = tmp_path / "records.json"
        labels_path = tmp_path / "labels.json"
        io.dump_json(records, records_path)
        io.dump_json({"a": 0, "b": 0}, labels_path)
        code, report = run_json(
            capsys, "fit", "--records", records_path, "--labels", labels_path,
            "--max-h", 2, "--grid", 4,
        )
        assert code == 2
        assert list(report) == ["error"]
        assert report["error"]["type"] == "ValidationError"


# argv after the optional --format: each is a usage error the parser reports
USAGE_ERRORS = {
    "bad-integer": ("gen", "--seed", 1, "--n", "abc", "--k", 2),
    "underscore-integer": ("gen", "--seed", "1_0", "--n", 3, "--k", 2),
    "non-ascii-digits": ("gen", "--seed", 1, "--n", "٣", "--k", "２"),
    "missing-flag": ("solve",),
    "bad-method": ("solve", "--instance", "x", "--method", "nope"),
    "unknown-subcommand": ("nosuch",),
}


class TestUsageErrors:
    @pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_json_error_object(self, capsys, argv):
        code, captured = run(capsys, "--format", "json", *argv)
        assert code == 2
        assert captured.err == ""
        report = json.loads(captured.out)
        assert list(report) == ["error"]
        assert report["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_human_error_line(self, capsys, argv):
        code, captured = run(capsys, *argv)
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "json", "gen", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mcap gen")


class TestBench:
    def test_table_and_dominance(self, capsys, small_instance):
        _, inst_path = small_instance
        code, report = run_json(capsys, "bench", "--instance", inst_path)
        assert code == 0
        by_method = {row["method"]: row for row in report["rows"]}
        assert "skipped" in by_method["const"]
        exact = Fraction(by_method["dp"]["fitness"])
        assert Fraction(by_method["brute"]["fitness"]) == exact
        for method in ("greedy", "local"):
            assert Fraction(by_method[method]["fitness"]) <= exact
        assert by_method["local"]["gap"] is not None

    def test_brute_force_skipped_over_its_guard(self, capsys, tmp_path):
        # 6 x 4 = 24 cells: 2^24 leaves, over the 20-cell guard
        path = tmp_path / "inst.json"
        io.write_instance(generate.random_instance(seed=1, n=6, k=4, bounds="unbounded"), path)
        code, report = run_json(capsys, "bench", "--instance", path)
        assert code == 0
        by_method = {row["method"]: row for row in report["rows"]}
        assert "20-cell guard" in by_method["brute"]["skipped"]
        assert by_method["dp"]["optimal"] is True

    def test_human_table(self, capsys, small_instance):
        _, inst_path = small_instance
        code, captured = run(capsys, "bench", "--instance", inst_path)
        assert code == 0
        assert captured.out.splitlines()[0].startswith("method")


def run_alone(capsys, *argv):
    """``run`` on a parser built for this call only, as in a fresh process."""
    cli.build_parser.cache_clear()
    return run(capsys, *argv)


def without_elapsed(text):
    return [line for line in text.splitlines() if "elapsed_s" not in line]


class TestRepeatedCalls:
    """Calls in one process share one parser, and no call's arguments reach the next."""

    def test_parser_is_built_once(self, capsys, small_instance):
        _, inst_path = small_instance
        run(capsys, "solve", "--instance", inst_path)
        parser = cli.build_parser()
        run(capsys, "--format", "json", "bench", "--instance", inst_path)
        assert cli.build_parser() is parser

    @pytest.mark.parametrize("first, second", [
        (("--format", "json"), ("--format", "json")),
        (("--format", "human"), ()),
        (("--format", "json"), ()),
    ], ids=["out-then-no-out", "human-then-default", "json-then-default"])
    def test_each_call_prints_as_if_alone(self, capsys, small_instance, tmp_path, first, second):
        _, inst_path = small_instance
        out = tmp_path / "m.json"
        calls = [
            (*first, "solve", "--instance", inst_path, "--method", "greedy", "--out", out),
            (*second, "solve", "--instance", inst_path),
        ]
        in_sequence = [run(capsys, *argv) for argv in calls]
        if first == ("--format", "human"):
            assert in_sequence[0][1].out.startswith("method: greedy\n")
        if second:
            assert "out" not in json.loads(in_sequence[1][1].out)
        else:
            assert in_sequence[1][1].out.startswith("method: dp\n")
        for argv, (code, captured) in zip(calls, in_sequence):
            alone_code, alone = run_alone(capsys, *argv)
            assert code == alone_code == 0
            assert without_elapsed(captured.out) == without_elapsed(alone.out)


# Runs each argv list of sys.argv[1] (JSON) through main in this one fresh
# interpreter and prints, per call, its exit code, its report and whether
# numpy is loaded after it.
NUMPY_PROBE = """
import contextlib, io, json, sys
from mcap.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", "json", *argv])
    results.append([code, json.loads(out.getvalue()), "numpy" in sys.modules])
print(json.dumps(results))
"""


def numpy_probe(cwd, *calls):
    """(exit code, report, numpy loaded) after each call of a fresh ``mcap.cli``."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, json.dumps([[str(a) for a in argv] for argv in calls])],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


class TestStartup:
    """numpy loads with the DP sweep and the fit only, not with ``mcap.cli``."""

    @pytest.fixture
    def files(self, tmp_path):
        # 80 x 4 unbounded: 81^4 states per layer, over the DP guard
        for name, kwargs in (
            ("big", {"n": 80, "k": 4, "bounds": "unbounded"}),
            ("const", {"n": 80, "k": 4, "family": "constant"}),
            ("small", {"n": 3, "k": 2}),
        ):
            io.write_instance(generate.random_instance(seed=1, **kwargs), tmp_path / f"{name}.json")
        (tmp_path / "f.cnf").write_text(SINGLE_CLAUSE_CNF)
        (tmp_path / "records.json").write_text(json.dumps([
            {"customer": c, "campaign": "c", "preference": 1, "h": h, "responded": c == "a"}
            for c, h in (("a", 1), ("b", 2))
        ]))
        return tmp_path

    def test_only_the_dp_loads_numpy(self, files):
        reduced = ("--instance", "r.json", "--sidecar", "s.json")
        calls = [
            ("gen", "--seed", 2, "--n", 4, "--k", 2),
            *(("solve", "--instance", "big.json", "--method", method)
              for method in ("greedy", "local", "unbounded", "auto")),
            ("solve", "--instance", "const.json", "--method", "const"),
            ("solve", "--instance", "small.json", "--method", "brute", "--out", "m.json"),
            ("bench", "--instance", "big.json"),
            ("evaluate", "--instance", "small.json", "--matrix", "m.json"),
            ("reduce", "--cnf", "f.cnf", "--out-instance", "r.json", "--out-sidecar", "s.json"),
            ("embed", *reduced, "--assignment", "111", "--out", "e.json"),
            ("extract", *reduced, "--matrix", "e.json"),
            ("verify", *reduced, "--matrix", "e.json"),
            ("solve", "--instance", "big.json", "--method", "dp"),
            ("solve", "--instance", "small.json", "--method", "dp"),
        ]
        results = numpy_probe(files, *calls)
        # the DP refused by its guard exits 4
        assert [code for code, _, _ in results] == [0] * (len(calls) - 2) + [4, 0]
        assert results[4][1]["method"] == "greedy+local"
        assert [loaded for _, _, loaded in results] == [False] * (len(calls) - 1) + [True]

    @pytest.mark.parametrize("argv", [
        ("fit", "--records", "records.json", "--max-h", 2),
        ("solve", "--instance", "small.json"),
        ("bench", "--instance", "small.json"),
    ], ids=["fit", "auto-under-guard", "bench-under-guard"])
    def test_the_fit_and_a_guarded_dp_load_numpy(self, files, argv):
        ((code, _, loaded),) = numpy_probe(files, argv)
        assert (code, loaded) == (0, True)
