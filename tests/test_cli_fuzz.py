"""Fuzzing the CLI with mutated input files.

Each example takes valid files for one command, applies a few mutations
(drop a key or an element, change a value's JSON type, shorten or extend a
list or a row string, put in a digit string of up to 4,300 digits) and runs
``main(["--format", "json", ...])``.  Whatever the files hold, no exception
may escape, stdout must be exactly one JSON object, and an error object
must hold only its type and message, with an exit code in 1-4.
"""

import contextlib
import copy
import io as stdio
import json
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from mcap import io, reduction
from mcap.cli import main
from mcap.core import Instance, SuppressionTable

SMALL = io.instance_to_dict(Instance(
    n=2, k=2, weights=(2, 3), preferences=((5, 7), (1, 0)),
    suppression=(SuppressionTable((0, 1, Fraction(1, 2))),) * 2,
    lower_bounds=(0, 0), upper_bounds=(2, 1),
))
START = {"rows": ["01", "10"]}
RECORDS = [
    {"customer": "a", "campaign": "c", "preference": 2, "h": 1, "responded": True},
    {"customer": "b", "campaign": "c", "preference": "1", "h": 2, "responded": False},
    {"customer": 7, "campaign": 1, "preference": 3, "h": 2, "responded": True},
]
LABELS = {"a": 0, "b": 1, "7": "0"}
_RED = reduction.reduce_3sat(reduction.parse_dimacs("p cnf 3 1\n1 2 3 0\n"))
REDUCED = io.instance_to_dict(_RED.instance)
SIDECAR = reduction.sidecar_dict(_RED)
THRESHOLD_MATRIX = io.matrix_to_dict(reduction.embed_assignment(_RED, (True, False, False)))

# name -> (argv with {file} placeholders, the valid file each placeholder names)
COMMANDS = {
    "evaluate": (
        ["evaluate", "--instance", "{instance}", "--matrix", "{matrix}"],
        {"instance": SMALL, "matrix": START},
    ),
    "solve-greedy": (
        ["solve", "--method", "greedy", "--instance", "{instance}"],
        {"instance": SMALL},
    ),
    "solve-local": (
        ["solve", "--method", "local", "--instance", "{instance}", "--start", "{start}"],
        {"instance": SMALL, "start": START},
    ),
    "fit": (
        ["fit", "--records", "{records}", "--labels", "{labels}", "--max-h", "2", "--grid", "4"],
        {"records": RECORDS, "labels": LABELS},
    ),
    "verify": (
        ["verify", "--instance", "{instance}", "--sidecar", "{sidecar}",
         "--matrix", "{matrix}"],
        {"instance": REDUCED, "sidecar": SIDECAR, "matrix": THRESHOLD_MATRIX},
    ),
}

MUTATIONS = ("drop", "retype", "resize", "digits")

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text("01-/ 9x", max_size=4),
    st.lists(st.integers(0, 2), max_size=3),
    st.dictionaries(st.sampled_from(["n", "rows", "h"]), st.integers(0, 2), max_size=2),
)

# up to 4,300 digits: the most Python turns into an int by default
DIGITS = st.builds(
    lambda sign, digit, count: sign + digit * count,
    st.sampled_from(["", "-"]),
    st.sampled_from("0123456789"),
    st.integers(1, 4300),
)


def _paths(node, prefix=()):
    """The path (a tuple of keys) of every node in a JSON tree, root first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutate(draw, tree):
    """``tree`` with one mutation applied at a drawn node; the root may be replaced."""
    path = draw(st.sampled_from(list(_paths(tree))))
    kind = draw(st.sampled_from(MUTATIONS))
    parent = None
    node = tree
    for key in path:
        parent, node = node, node[key]
    if kind == "drop" and path:
        del parent[path[-1]]
        return tree
    if kind == "resize" and isinstance(node, (list, str)) and node:
        if draw(st.booleans()):
            value = node[:-1]
        else:
            value = node + node[-1:]
    elif kind == "digits":
        text = draw(DIGITS)
        value = int(text) if draw(st.booleans()) else text
    else:
        value = draw(JSON_VALUES.filter(lambda v: type(v) is not type(node)))
    if not path:
        return value
    parent[path[-1]] = value
    return tree


@st.composite
def mutated_runs(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv, files = COMMANDS[name]
    files = copy.deepcopy(files)
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(sorted(files)))
        files[target] = _mutate(draw, files[target])
    return name, argv, files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(mutated_runs())
@settings(max_examples=150, deadline=None)
def test_mutated_files_give_one_json_object(workdir, run):
    name, argv, files = run
    paths = {}
    for key, data in files.items():
        paths[key] = workdir / f"{key}.json"
        paths[key].write_text(json.dumps(data))
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stdio.StringIO()):
        code = main(["--format", "json", *(arg.format(**paths) for arg in argv)])
    report = json.loads(out.getvalue())
    assert isinstance(report, dict)
    if "error" in report:
        assert list(report) == ["error"]
        assert sorted(report["error"]) == ["message", "type"]
        assert 1 <= code <= 4
    else:
        assert code in ((0, 1, 3) if name == "verify" else (0,))
