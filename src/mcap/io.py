"""JSON-shaped interchange formats for instances and assignment matrices.

Weights and preferences travel as decimal strings so values may exceed 64
bits; suppression values travel as ``"num/den"`` strings (plain ``"0"`` /
``"1"`` for integers).  Matrices travel as one ``'0'``/``'1'`` string per row.

An integer is a JSON integer (not ``true``/``false``) or a string that,
after surrounding whitespace is stripped, is ``[+-]?digits``.  A suppression
literal, after the same stripping, is ``[+-]?digits`` or
``[+-]?digits/digits``.  Digits are ASCII and there are no spaces inside.
Decimal and exponent forms such as ``"0.5"`` or ``"1e-5"`` are rejected: an
exponent literal can stand for a number with millions of digits.

The preference matrix is read in one pass when its rows are lists of one
length holding plain ASCII digit strings, the form :func:`instance_to_dict`
writes: one type check and one ``join`` over every cell, then one ``map`` of
``int`` chunked into rows.  Any other matrix is read cell by cell with
:func:`parse_int`, as the weights and bounds are, to accept what the grammar
allows or name the first offending cell.  A suppression row whose literals
were all seen before is one ``map`` of dict lookups, and any other is read
cell by cell.  So the result and every error are those of a cell-by-cell
read.  A matrix is written a row at a call: its 0/1 entries are bytes,
translated to ``'0'``/``'1'``.

:func:`parse_int` is the one integer grammar of every input file, DIMACS
included, and :func:`read_text` the one reader: UTF-8 whatever the locale.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from itertools import chain
from pathlib import Path

from .core import AssignmentMatrix, Instance, SuppressionTable, ValidationError


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
# ``issuperset`` walks an iterable in C and builds no set
_STR = frozenset({str})
_LIST = frozenset({list})
_BIT_CHARS = frozenset("01")
_BIT_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def fraction_from_str(text: str) -> Fraction:
    # no JSON numbers: a float would be silently inexact
    if not isinstance(text, str):
        raise ValidationError(f"rational literal must be a string such as \"1/2\", got {text!r}")
    literal = text.strip()
    if not _RATIONAL.fullmatch(literal):
        raise ValidationError(
            f"bad rational literal {text!r}: expected an integer or \"num/den\" such as \"1/2\""
        )
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational literal {text!r}: {exc}") from exc


def parse_int(text, what: str) -> int:
    """``text`` as an integer under the module's grammar; ``what`` names it in the error."""
    if type(text) is int:
        return text
    if type(text) is str:
        try:
            # plain ASCII digits are the usual form: no strip, no match
            if text.isdigit() and text.isascii():
                return int(text)
            literal = text.strip()
            if _INTEGER.fullmatch(literal):
                return int(literal)
        except ValueError:  # past the interpreter's int digit limit
            pass
    raise ValidationError(f"bad integer literal for {what}: {text!r}")


def json_object(value, what: str) -> dict:
    """``value`` if it is a JSON object; ``what`` prefixes the error that names its type if not."""
    if not isinstance(value, dict):
        raise ValidationError(f"{what}: expected a JSON object, got {type(value).__name__}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a JSON list, got {value!r}")
    return value


def _matrix(rows: list) -> tuple[tuple[int, ...], ...]:
    """The preference ``rows`` parsed as :func:`parse_int` would parse them cell by cell.

    A matrix of equal-length lists of ASCII digit strings converts in one
    pass: one type check, one ``join`` and one ``map`` over every cell,
    chunked into rows of that length.
    """
    if _LIST.issuperset(map(type, rows)) and len(set(map(len, rows))) == 1:
        cells = list(chain.from_iterable(rows))
        if _STR.issuperset(map(type, cells)):  # parse_int refuses a str subclass
            text = "".join(cells)
            if text.isdigit() and text.isascii():
                try:
                    return tuple(zip(*[map(int, cells)] * len(rows[0])))
                except ValueError:  # an empty string, or one past the int digit limit
                    pass
    return tuple(
        tuple(parse_int(v, "preference") for v in _list(row, "a preference row")) for row in rows
    )


def instance_to_dict(inst: Instance) -> dict:
    # one shared string per distinct integer: a reduced instance repeats a few
    # powers of ten over a million cells.  Suppression Fractions are not
    # cached, because hashing a Fraction costs more than formatting it
    text = functools.cache(str)
    return {
        "n": inst.n,
        "k": inst.k,
        "weights": list(map(text, inst.weights)),
        "preferences": [list(map(text, row)) for row in inst.preferences],
        "suppression": [[str(v) for v in t.values] for t in inst.suppression],
        "lower_bounds": list(inst.lower_bounds),
        "upper_bounds": list(inst.upper_bounds),
    }


def instance_from_dict(data: dict) -> Instance:
    json_object(data, "malformed instance object")
    try:
        n = parse_int(data["n"], "n")
        k = parse_int(data["k"], "k")
        weights = tuple(parse_int(w, "weight") for w in _list(data["weights"], "weights"))
        preferences = _matrix(_list(data["preferences"], "preferences"))
        # fitted and generated tables repeat a few grid values: parse each
        # distinct literal once and share the (immutable) Fraction
        parsed: dict[str, Fraction] = {}

        def rational(text) -> Fraction:
            value = parsed.get(text) if isinstance(text, str) else None
            if value is None:
                value = parsed[text] = fraction_from_str(text)
            return value

        def table(row: list) -> tuple[Fraction, ...]:
            try:
                return tuple(map(parsed.__getitem__, row))
            except (KeyError, TypeError):  # a literal not seen yet, or no string
                return tuple(map(rational, row))

        suppression = [
            SuppressionTable(table(_list(row, "a suppression row")))
            for row in _list(data["suppression"], "suppression")
        ]
        lower = [
            parse_int(b, "lower bound") for b in _list(data["lower_bounds"], "lower_bounds")
        ]
        upper = [
            parse_int(b, "upper bound") for b in _list(data["upper_bounds"], "upper_bounds")
        ]
    except KeyError as exc:
        raise ValidationError(f"malformed instance object: missing field {exc.args[0]!r}") from exc
    return Instance(
        n=n,
        k=k,
        weights=weights,
        preferences=preferences,
        suppression=tuple(suppression),
        lower_bounds=tuple(lower),
        upper_bounds=tuple(upper),
    )


def matrix_to_dict(matrix: AssignmentMatrix) -> dict:
    # a row of 0/1 ints is the bytes 0x00/0x01, which translate to '0'/'1'
    return {"rows": [bytes(row).translate(_BIT_TEXT).decode() for row in matrix.entries]}


def matrix_from_dict(data: dict) -> AssignmentMatrix:
    try:
        rows = json_object(data, "malformed matrix object")["rows"]
    except KeyError as exc:
        raise ValidationError(f"malformed matrix object: missing field {exc.args[0]!r}") from exc
    if not isinstance(rows, list) or not all(isinstance(row, str) for row in rows):
        raise ValidationError("matrix rows must be a JSON list of '0'/'1' strings")
    for i, row in enumerate(rows):
        if _BIT_CHARS.issuperset(row):
            continue
        for ch in row:
            if ch not in "01":
                raise ValidationError(f"matrix row {i}: character {ch!r} is not '0' or '1'")
    return AssignmentMatrix.from_rows(tuple(map(int, row)) for row in rows)


def dump_json(data: dict, path: str | Path) -> None:
    """Write ``data`` to ``path`` as indented JSON and a newline.

    The text is streamed, never held whole: near the reduction's cell limit
    it would be several times the size of ``data``.  Callers build ``data``
    from JSON types only before the file is opened, so serialising it
    cannot fail half-way and leave a partial file.
    """
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(data, fp, indent=2)
        fp.write("\n")


def read_text(path: str | Path) -> str:
    """The text of the file at ``path``; :class:`ValidationError` if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8 text: {exc}") from exc


def load_json(path: str | Path) -> dict:
    try:
        return json.loads(read_text(path))
    # also bad UTF-8 (read_text's error, named by its cause), a number past
    # the int digit limit, and deep nesting
    except (ValidationError, ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc.__cause__ or exc}") from exc


def write_instance(inst: Instance, path: str | Path) -> None:
    dump_json(instance_to_dict(inst), path)


def read_instance(path: str | Path) -> Instance:
    """The instance in ``path``; :class:`ValidationError` if it is malformed or invalid."""
    return instance_from_dict(load_json(path))


def write_matrix(matrix: AssignmentMatrix, path: str | Path) -> None:
    dump_json(matrix_to_dict(matrix), path)


def read_matrix(path: str | Path) -> AssignmentMatrix:
    return matrix_from_dict(load_json(path))
