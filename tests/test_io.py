import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings

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


def test_matrix_rejects_non_binary_characters():
    with pytest.raises(ValidationError, match="not '0' or '1'"):
        io.matrix_from_dict({"rows": ["01", "0x"]})


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
    with pytest.raises(ValidationError, match="malformed instance"):
        io.instance_from_dict(data)


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
