"""Serialization of pipeline reports to JSON or sectioned CSV.

A report's ``to_dict`` is its document: nested dicts whose tables are
``Columns`` (one list or 1-D numpy array of cells per column) and whose
values need not be JSON-native.  ``_sanitize`` maps it to the JSON-native
document, with NaN/inf as null and each table as its list of row objects.

``write_report`` is the one writer: it writes the document to a text handle,
a table ``_BLOCK_ROWS`` rows per write, so only one block's cell tokens are
alive at a time and no whole text is held.  Each block of a column becomes
Python scalars there (``.tolist()`` of an array's slice): the encoders key
on Python types, and an ``np.bool_`` would print as ``True``.  Both formats
are deterministic, so identical runs produce byte-identical files.  The JSON
layout is that of ``json.dumps(doc, sort_keys=True, indent=2)``.  Dicts are
written key by key and other small values by that stock encoder, but tables
render column-wise: a column of numbers, bools and nulls is encoded by one
call of the C encoder per block of rows (a column of floats only encodes
each distinct bit pattern once), and the cells are zipped into rows through
one row template per table.  CSV uses a fixed "\\n" terminator with floats at
12 significant digits; it too formats each block of rows column by column,
each distinct float once.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from ..errors import ConfigurationError

__all__ = ["Columns", "write_report"]

_ENCODER = json.JSONEncoder()
_UNQUOTED = frozenset({int, float, bool, type(None)})
_NON_FINITE = frozenset({"NaN", "Infinity", "-Infinity"})
# rows written per block; a block's tokens stay far below the whole text
_BLOCK_ROWS = 256


class Columns(dict):
    """A table held as columns: column name (a string) -> cells, a list or a
    1-D numpy array with one cell per row, every column the same length.
    Its JSON form is the list of its rows, but the writers read it column by
    column and build no row dicts."""

    @classmethod
    def from_rows(cls, rows: list[dict]) -> Columns:
        return cls({key: [row[key] for row in rows] for key in rows[0]} if rows else {})

    @property
    def size(self) -> int:
        return len(next(iter(self.values()), ()))

    def rows(self) -> list[dict]:
        return [dict(zip(self, row)) for row in zip(*self.values())]


def _sanitize(value):
    """Coerce a report value to a JSON-native one (NaN/inf become null)."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, Columns):
        return [_sanitize(row) for row in value.rows()]
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset, np.ndarray)):
        return [_sanitize(v) for v in value]
    return str(value)


def _stock(value, depth: int) -> str:
    """``value`` as the stock indented encoder writes it at ``depth``."""
    text = json.dumps(_sanitize(value), sort_keys=True, indent=2)
    return text.replace("\n", "\n" + "  " * depth) if depth else text


def _encode_cells(cells: list) -> list[str]:
    """The JSON token of each number, bool or null: numbers, bools and nulls
    hold no ", ", so the encoded list splits into cells."""
    text = _ENCODER.encode(cells)
    tokens = text[1:-1].split(", ")
    if "N" in text or "I" in text:
        tokens = ["null" if token in _NON_FINITE else token for token in tokens]
    return tokens


def _by_bit_pattern(values: np.ndarray, encode) -> list[str]:
    """``encode`` (a list of floats to their tokens) applied to a float64
    array: a float's token depends on its bits alone, so each distinct bit
    pattern is encoded once; 0.0 and -0.0 stay apart."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    tokens = np.array(encode(bits.view(np.float64).tolist()), dtype=object)
    return tokens[inverse].tolist()


def _column_tokens(cells, depth: int) -> list[str]:
    """The JSON token of every cell of a block of a column whose cells sit at
    ``depth``: a float64 array by bit pattern, an int or bool array in one
    encoder call, and a list (or an array of another dtype, as Python
    scalars) by the types of its cells."""
    if isinstance(cells, np.ndarray):
        if cells.dtype == np.float64:
            return _by_bit_pattern(cells, _encode_cells)
        if cells.dtype.kind in "biu":
            return _encode_cells(cells.tolist())
        cells = cells.tolist()
    types = set(map(type, cells))
    if types == {float}:
        return _by_bit_pattern(np.array(cells, dtype=np.float64), _encode_cells)
    if not types <= _UNQUOTED:
        return [_stock(cell, depth) for cell in cells]
    return _encode_cells(cells)


def _write_table(write, table: Columns, depth: int) -> None:
    rows = table.size
    if not rows:
        write("[]")
        return
    keys = sorted(table)
    row_indent = "\n" + "  " * (depth + 1)
    field_indent = "\n" + "  " * (depth + 2)
    fields = ",".join(
        field_indent + _ENCODER.encode(key).replace("%", "%%") + ": %s" for key in keys
    )
    template = row_indent + "{" + fields + row_indent + "}"
    write("[")
    for lo in range(0, rows, _BLOCK_ROWS):
        tokens = [_column_tokens(table[key][lo : lo + _BLOCK_ROWS], depth + 2) for key in keys]
        write(("," if lo else "") + ",".join(template % row for row in zip(*tokens)))
    write("\n" + "  " * depth + "]")


def _write_json(write, value, depth: int) -> None:
    """Write ``value`` at ``depth``: dicts key by key, tables row-wise from
    their columns, everything else by the stock encoder."""
    if isinstance(value, Columns):
        _write_table(write, value, depth)
    elif isinstance(value, dict) and value:
        items = {str(k): v for k, v in value.items()}
        indent = "\n" + "  " * (depth + 1)
        write("{")
        for i, key in enumerate(sorted(items)):
            write(("," if i else "") + indent + _ENCODER.encode(key) + ": ")
            _write_json(write, items[key], depth + 1)
        write("\n" + "  " * depth + "}")
    else:
        write(_stock(value, depth))


def _cell(value) -> str:
    value = _sanitize(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


_BOOL_FIELDS = {True: "true", False: "false", None: ""}


def _csv_fields(cells) -> list[str]:
    """The CSV field of every cell of a block of a column, as ``_cell``
    writes it: floats format each distinct bit pattern once, a column of
    ints, or of bools and nulls, maps its cells without ``_cell``'s type
    tests, and any other column goes cell by cell."""
    if isinstance(cells, np.ndarray):
        if cells.dtype == np.float64:
            return _by_bit_pattern(cells, lambda values: list(map(_cell, values)))
        cells = cells.tolist()
    types = set(map(type, cells))
    if types == {float}:
        return _csv_fields(np.array(cells, dtype=np.float64))
    if types == {int}:
        return list(map(str, cells))
    if types <= {bool, type(None)}:
        return list(map(_BOOL_FIELDS.__getitem__, cells))
    return list(map(_cell, cells))


def _write_csv(write, doc: dict) -> None:
    """One section per table of ``doc``: the config, each table in document
    order (a dict as key/value rows), then the checks when they are a table.
    A section is a ``section,name`` line, the header (empty for a table
    without rows), then the rows."""
    sections = [("config", doc["config"]), *doc["tables"].items()]
    if isinstance(doc["checks"], Columns):
        sections.append(("checks", doc["checks"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    def flush() -> None:
        write(buf.getvalue())
        buf.seek(0)
        buf.truncate()

    for index, (name, table) in enumerate(sections):
        if not isinstance(table, Columns):
            table = Columns(key=list(table), value=list(table.values()))
        if index:
            writer.writerow([])
        writer.writerow(["section", name])
        writer.writerow(list(table) if table.size else [])
        for lo in range(0, table.size, _BLOCK_ROWS):
            block = [_csv_fields(cells[lo : lo + _BLOCK_ROWS]) for cells in table.values()]
            writer.writerows(zip(*block))
            flush()
    flush()


def write_report(report, output_format: str, handle) -> None:
    """Write ``report``, which only needs ``to_dict`` (its document), to the
    text handle ``handle`` as "json" or "csv", one block of table rows per
    ``handle.write``.  An unknown format raises ConfigurationError before
    anything is written; an OSError of the handle propagates."""
    if output_format not in ("json", "csv"):
        raise ConfigurationError(f"unknown output format {output_format!r}")
    doc = report.to_dict()
    if output_format == "json":
        _write_json(handle.write, doc, 0)
        handle.write("\n")
    else:
        _write_csv(handle.write, doc)


def render_json(report) -> str:
    """The JSON text ``write_report`` writes, for the tests."""
    buf = io.StringIO()
    write_report(report, "json", buf)
    return buf.getvalue()


def render_csv(report) -> str:
    """The CSV text ``write_report`` writes, for the tests."""
    buf = io.StringIO()
    write_report(report, "csv", buf)
    return buf.getvalue()
