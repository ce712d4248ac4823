import json
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from mcap import cli, generate, io, reduction
from mcap.core import AssignmentMatrix, Instance, SuppressionTable, ValidationError
from strategies import instance_matrix_pairs, instances


@given(instances())
@settings(max_examples=50)
def test_instance_dict_roundtrip(inst):
    assert io.instance_from_dict(io.instance_to_dict(inst)) == inst


@given(instance_matrix_pairs())
@settings(max_examples=50)
def test_matrix_dict_roundtrip(pair):
    _, matrix = pair
    assert io.matrix_from_dict(io.matrix_to_dict(matrix)) == matrix


def test_file_roundtrip(tmp_path):
    inst = Instance(
        n=2, k=2, weights=(10**20, 3), preferences=((5, 7), (0, 10**25)),
        suppression=(
            SuppressionTable((0, 1, Fraction(1, 2))),
            SuppressionTable((0, Fraction(3, 4), 0)),
        ),
        lower_bounds=(0, 1), upper_bounds=(2, 2),
    )
    path = tmp_path / "inst.json"
    io.write_instance(inst, path)
    assert io.read_instance(path) == inst

    matrix = AssignmentMatrix(((1, 0), (0, 1)))
    mpath = tmp_path / "matrix.json"
    io.write_matrix(matrix, mpath)
    assert io.read_matrix(mpath) == matrix


def test_weights_and_preferences_serialize_as_decimal_strings():
    inst = Instance(
        n=1, k=1, weights=(2**70,), preferences=((10**30,),),
        suppression=(SuppressionTable((0, 1)),),
        lower_bounds=(0,), upper_bounds=(1,),
    )
    data = io.instance_to_dict(inst)
    assert data["weights"] == [str(2**70)]
    assert data["preferences"] == [[str(10**30)]]
    assert data["suppression"] == [["0", "1"]]


def test_fraction_strings():
    assert io.fraction_from_str("3/4") == Fraction(3, 4)
    assert io.fraction_from_str("0") == 0
    with pytest.raises(ValidationError, match="bad rational"):
        io.fraction_from_str("seven")
    with pytest.raises(ValidationError, match="bad rational"):
        io.fraction_from_str("1/0")


@pytest.mark.parametrize("text", [" 3/4 ", "+3/4", "-1/4", "007", "4/4"])
def test_fraction_grammar_accepts_integers_and_ratios(text):
    assert io.fraction_from_str(text) == Fraction(text.strip())


@pytest.mark.parametrize("text", [
    "1e-3000000", "1e-5", "0.5", ".5", "1/2.0", "1 / 2", "1/-2", "1_000", "\u0661", "", "/2", "1/",
])
def test_fraction_grammar_rejects_other_forms(text):
    # exponent forms once parsed, and "1e-3000000" then broke printing the fitness
    with pytest.raises(ValidationError, match="bad rational"):
        io.fraction_from_str(text)


class Digits(str):
    pass


def small_instance_dict() -> dict:
    return io.instance_to_dict(Instance(
        n=2, k=3, weights=(4, 5, 6), preferences=((1, 2, 3), (7, 8, 9)),
        suppression=(SuppressionTable((0, Fraction(1, 2), Fraction(1, 3), 0)),) * 2,
        lower_bounds=(0, 0, 0), upper_bounds=(2, 2, 2),
    ))


LONG = "5" * 5000  # past the default int digit limit (4300) of Python 3.11+
# a cell after valid ones and the error naming it ({what} is "weight" or
# "preference"); None for a value the grammar reads as 7, a message per row
# for a value that parses but is out of range
ROW_CELLS = [
    (True, "bad integer literal for {what}: True"),
    (1.5, "bad integer literal for {what}: 1.5"),
    (None, "bad integer literal for {what}: None"),
    ("", "bad integer literal for {what}: ''"),
    (" 7", None),
    ("+7", None),
    ("-3", {
        "weights": "campaign 1: weight must be positive, got -3",
        "preferences": "customer 1: preference for campaign 1 must be a nonnegative integer, got -3",
    }),
    ("\u0663", "bad integer literal for {what}: '\u0663'"),
    ("1_0", "bad integer literal for {what}: '1_0'"),
    pytest.param(
        LONG, f"bad integer literal for {{what}}: '{LONG}'",
        marks=pytest.mark.skipif(
            not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
            reason="this Python parses a 5000-digit integer",
        ),
    ),
    (["7"], "bad integer literal for {what}: ['7']"),
    (Digits("7"), "bad integer literal for {what}: '7'"),
]
ROW_IDS = ["true", "float", "null", "empty", "space", "plus", "minus", "arabic-indic", "underscore",
           "5000-digits", "nested-list", "str-subclass"]


@pytest.mark.parametrize("cell, message", ROW_CELLS, ids=ROW_IDS)
@pytest.mark.parametrize("field", ["weights", "preferences"])
def test_a_bad_cell_after_valid_ones_is_named(field, cell, message):
    # every row is read in one call when it is all ASCII digit strings; any
    # other row is read cell by cell, to the same values or the same error
    data = small_instance_dict()
    row = data["weights"] if field == "weights" else data["preferences"][1]
    row[1] = cell
    if message is None:
        inst = io.instance_from_dict(data)
        assert (inst.weights[1] if field == "weights" else inst.preferences[1][1]) == 7
        return
    if isinstance(message, dict):
        message = message[field]
    with pytest.raises(ValidationError) as exc:
        io.instance_from_dict(data)
    assert str(exc.value) == message.format(what=field[:-1])


def test_json_integer_rows_are_read():
    data = small_instance_dict()
    data["weights"] = [4, 5, 6]
    data["preferences"][1] = [7, "8", 9]
    assert io.instance_from_dict(data) == io.instance_from_dict(small_instance_dict())


@pytest.mark.parametrize("cell, message", [
    ("1/4", None),
    ("0.5", "bad rational literal '0.5': expected an integer or \"num/den\" such as \"1/2\""),
    ("5/4", "customer 1: suppression value r(2) = 5/4 outside [0, 1]"),
    (1, "rational literal must be a string such as \"1/2\", got 1"),
    (["1/2"], "rational literal must be a string such as \"1/2\", got ['1/2']"),
], ids=["unseen", "unseen-bad", "unseen-above-one", "non-string", "unhashable"])
def test_a_suppression_row_with_a_literal_not_seen_before(cell, message):
    # row 1 repeats row 0's literals but for one cell
    data = small_instance_dict()
    data["suppression"][1][2] = cell
    if message is None:
        table = io.instance_from_dict(data).suppression[1]
        assert table.values == (0, Fraction(1, 2), Fraction(1, 4), 0)
        return
    with pytest.raises(ValidationError) as exc:
        io.instance_from_dict(data)
    assert str(exc.value) == message


def test_repeated_suppression_literals_share_one_fraction():
    data = io.instance_to_dict(Instance(
        n=2, k=2, weights=(1, 1), preferences=((1, 2), (3, 4)),
        suppression=(SuppressionTable((0, Fraction(1, 2), Fraction(1, 2))),) * 2,
        lower_bounds=(0, 0), upper_bounds=(2, 2),
    ))
    inst = io.instance_from_dict(data)
    values = [v for t in inst.suppression for v in t.values]
    assert values == [0, Fraction(1, 2), Fraction(1, 2)] * 2
    assert values[1] is values[2] is values[4] and values[0] is values[3]


def row_by_row_preferences(rows: list) -> tuple[tuple[int, ...], ...]:
    """The preference matrix read one row at a time: the oracle for the whole-matrix pass."""
    return tuple(io._ints(io._list(row, "a preference row"), "preference") for row in rows)


def read_outcome(data: dict):
    """The instance ``data`` reads to, or the message of the error it raises."""
    try:
        return io.instance_from_dict(data)
    except ValidationError as exc:
        return str(exc)


# every cell is a digit string in about half of the matrices, so the one
# pass reads them; the others mix in what sends it back to the rows
DIGIT_CELLS = st.integers(0, 10**30).map(str) | st.sampled_from(["0", "007", "9"])
OTHER_CELLS = st.sampled_from(
    [7, 0, 10**25, " +5 ", "", "-3", "\u0663", Digits("7"), LONG, True]
)


@st.composite
def preference_dicts(draw):
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    data = io.instance_to_dict(generate.random_instance(seed=draw(st.integers(0, 99)), n=n, k=k))
    cells = DIGIT_CELLS if draw(st.booleans()) else DIGIT_CELLS | OTHER_CELLS
    rows = draw(st.lists(st.lists(cells, min_size=k, max_size=k), min_size=n, max_size=n))
    # one row of another length, one row that is no list, or neither
    i = draw(st.integers(0, n - 1))
    change = draw(st.sampled_from(["none", "none", "shorter", "longer", "non-list"]))
    if change == "shorter":
        rows[i] = rows[i][:-1]
    elif change == "longer":
        rows[i] = [*rows[i], draw(DIGIT_CELLS)]
    elif change == "non-list":
        rows[i] = draw(st.sampled_from(["123", None, 5, {"0": "1"}, ("1",) * k]))
    data["preferences"] = rows
    return data


def with_preferences(rows: list) -> dict:
    data = small_instance_dict()
    data["preferences"] = rows
    return data


@given(preference_dicts())
# digit strings all, but one cell that int() refuses, or a str subclass
@example(with_preferences([["1", "2", "3"], ["4", LONG, "6"]]))
@example(with_preferences([["1", "2", "3"], ["4", "", "56"]]))
@example(with_preferences([["1", "2", "3"], ["4", Digits("5"), "6"]]))
@settings(max_examples=300, deadline=None)
def test_whole_matrix_read_matches_the_row_by_row_read(data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_matrix", row_by_row_preferences)
        expected = read_outcome(data)
    assert read_outcome(data) == expected


@given(st.integers(0, 6).flatmap(
    lambda k: st.lists(st.tuples(*[st.sampled_from((0, 1))] * k), max_size=8)
))
@example([])
@example([(1,), (0,), (1,)])
@settings(max_examples=200)
def test_matrix_rows_are_written_as_digit_strings(rows):
    matrix = AssignmentMatrix(tuple(rows))
    expected = ["".join(map("01".__getitem__, row)) for row in rows]
    assert io.matrix_to_dict(matrix) == {"rows": expected}


def test_matrix_file_bytes(tmp_path):
    io.write_matrix(AssignmentMatrix(((1, 0, 1), (0, 0, 0))), tmp_path / "m.json")
    expected = b'{\n  "rows": [\n    "101",\n    "000"\n  ]\n}\n'
    assert (tmp_path / "m.json").read_bytes() == expected


def test_matrix_rejects_non_binary_characters():
    with pytest.raises(ValidationError, match="not '0' or '1'"):
        io.matrix_from_dict({"rows": ["01", "0x"]})


@pytest.mark.parametrize("row, ch", [("10x1", "x"), ("1\u0661", "\u0661"), ("0 ", " ")])
def test_matrix_names_the_first_bad_character(row, ch):
    with pytest.raises(ValidationError) as exc:
        io.matrix_from_dict({"rows": ["01", row]})
    assert str(exc.value) == f"matrix row 1: character {ch!r} is not '0' or '1'"


@pytest.mark.parametrize("rows", ["01", [1, 0], None])
def test_matrix_rows_must_be_a_list_of_strings(rows):
    with pytest.raises(ValidationError, match="list of '0'/'1' strings"):
        io.matrix_from_dict({"rows": rows})


def test_instance_missing_field():
    data = io.instance_to_dict(
        Instance(n=1, k=1, weights=(1,), preferences=((0,),),
                 suppression=(SuppressionTable((0, 1)),),
                 lower_bounds=(0,), upper_bounds=(1,))
    )
    del data["weights"]
    with pytest.raises(ValidationError, match="^malformed instance object: missing field 'weights'$"):
        io.instance_from_dict(data)


@pytest.mark.parametrize("read, what", [
    (io.instance_from_dict, "instance"),
    (io.matrix_from_dict, "matrix"),
])
@pytest.mark.parametrize("data, type_name", [
    ([], "list"), ("rows", "str"), (3, "int"), (None, "NoneType"),
])
def test_a_non_object_names_its_type(read, what, data, type_name):
    # one message on every Python version, not the interpreter's TypeError text
    message = f"^malformed {what} object: expected a JSON object, got {type_name}$"
    with pytest.raises(ValidationError, match=message):
        read(data)


def test_matrix_missing_field():
    with pytest.raises(ValidationError, match="^malformed matrix object: missing field 'rows'$"):
        io.matrix_from_dict({"row": ["01"]})


def test_load_json_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        io.load_json(path)


def test_written_files_end_with_newline(tmp_path, capsys):
    # every writer streams the bytes of json.dumps(data, indent=2) and a newline
    def assert_written(path, data):
        assert path.read_bytes() == (json.dumps(data, indent=2) + "\n").encode()

    matrix = AssignmentMatrix(((1,),))
    io.write_matrix(matrix, tmp_path / "m.json")
    assert_written(tmp_path / "m.json", io.matrix_to_dict(matrix))

    inst = generate.random_instance(seed=3, n=12, k=3)
    io.write_instance(inst, tmp_path / "gen.json")
    assert_written(tmp_path / "gen.json", io.instance_to_dict(inst))

    formula, _ = generate.random_planted_formula(1, 5, 8)
    (tmp_path / "f.cnf").write_text(reduction.format_dimacs(formula))
    assert cli.main([
        "reduce", "--cnf", str(tmp_path / "f.cnf"),
        "--out-instance", str(tmp_path / "red.json"),
        "--out-sidecar", str(tmp_path / "side.json"),
    ]) == 0
    red = reduction.reduce_3sat(formula)
    assert_written(tmp_path / "red.json", io.instance_to_dict(red.instance))
    assert_written(tmp_path / "side.json", reduction.sidecar_dict(red))

    records = [
        {"customer": c, "campaign": "c", "preference": c, "h": 1 + c % 2, "responded": c % 3 == 0}
        for c in range(12)
    ]
    io.dump_json(records, tmp_path / "records.json")
    assert_written(tmp_path / "records.json", records)
    capsys.readouterr()
    assert cli.main([
        "--format", "json", "fit", "--records", str(tmp_path / "records.json"),
        "--max-h", "2", "--out", str(tmp_path / "fit.json"),
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report.pop("out") == str(tmp_path / "fit.json")
    assert_written(tmp_path / "fit.json", report)


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",  # not UTF-8
    pytest.param(
        b"[" + b"1" * 5000 + b"]",  # past Python's int digit limit
        marks=pytest.mark.skipif(
            not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
            reason="this Python parses a 5000-digit integer",
        ),
    ),
    b"[" * 100_000,  # nested past the recursion limit
], ids=["bad-utf8", "long-number", "deep-nesting"])
def test_load_json_rejects_unreadable_text(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ValidationError, match="not valid JSON"):
        io.load_json(path)


def test_read_text_is_utf8_or_a_validation_error(tmp_path):
    path = tmp_path / "formula.cnf"
    path.write_bytes("c caf\u00e9\n".encode("utf-8"))
    assert io.read_text(path) == "c caf\u00e9\n"
    path.write_bytes(b"c caf\xe9\n")  # Latin-1
    with pytest.raises(ValidationError, match="formula.cnf: not valid UTF-8 text"):
        io.read_text(path)


def test_read_instance_rejects_an_invalid_instance(tmp_path):
    inst = Instance(
        n=1, k=1, weights=(1,), preferences=((1,),),
        suppression=(SuppressionTable((0, 1)),),
        lower_bounds=(1,), upper_bounds=(1,),
    )
    data = io.instance_to_dict(inst)
    data["lower_bounds"] = [2]
    path = tmp_path / "bad.json"
    io.dump_json(data, path)
    with pytest.raises(ValidationError, match="lower bound exceeds upper bound"):
        io.read_instance(path)
