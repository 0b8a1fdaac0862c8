"""Serialization of pipeline reports to JSON or sectioned CSV.

A report's ``to_dict`` is its document: nested dicts whose tables are
``Columns`` (one list of cells per column) and whose values need not be
JSON-native.  ``_sanitize`` maps it to the JSON-native document, with
NaN/inf as null and each table as its list of row objects.

Both writers are deterministic, so identical runs produce byte-identical
files.  The JSON layout is that of ``json.dumps(doc, sort_keys=True,
indent=2)``.  Dicts are written key by key and other small values by that
stock encoder, but tables render column-wise: a column of numbers, bools and
nulls is encoded by one call of the C encoder per block of rows, and the
cells are zipped into rows through one row template per table.  CSV uses a
fixed "\\n" terminator with floats at 12 significant digits.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

from ..errors import ConfigurationError

__all__ = ["Columns", "emit_report", "render_csv", "render_json"]

_ENCODER = json.JSONEncoder()
_UNQUOTED = frozenset({int, float, bool, type(None)})
_NON_FINITE = frozenset({"NaN", "Infinity", "-Infinity"})
# rows rendered per block; only one block's cell tokens are alive at a time
_BLOCK_ROWS = 4096


class Columns(dict):
    """A table held as columns: column name (a string) -> cells, one cell
    per row, every column the same length.  Its JSON form is the list of its
    rows, but the writers read it column by column and build no row dicts."""

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
    if isinstance(value, Fraction):
        return str(value)
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


def _column_tokens(cells: list, depth: int) -> list[str]:
    """The JSON token of every cell of a column whose cells sit at ``depth``."""
    if not set(map(type, cells)) <= _UNQUOTED:
        return [_stock(cell, depth) for cell in cells]
    # numbers, bools and nulls hold no ", ", so the list splits into cells
    text = _ENCODER.encode(cells)
    tokens = text[1:-1].split(", ")
    if "N" in text or "I" in text:
        tokens = ["null" if token in _NON_FINITE else token for token in tokens]
    return tokens


def _write_table(out: list[str], table: Columns, depth: int) -> None:
    rows = table.size
    if not rows:
        out.append("[]")
        return
    keys = sorted(table)
    row_indent = "\n" + "  " * (depth + 1)
    field_indent = "\n" + "  " * (depth + 2)
    fields = ",".join(
        field_indent + _ENCODER.encode(key).replace("%", "%%") + ": %s" for key in keys
    )
    template = row_indent + "{" + fields + row_indent + "}"
    out.append("[")
    for lo in range(0, rows, _BLOCK_ROWS):
        tokens = [_column_tokens(table[key][lo : lo + _BLOCK_ROWS], depth + 2) for key in keys]
        out.append(("," if lo else "") + ",".join(template % row for row in zip(*tokens)))
    out.append("\n" + "  " * depth + "]")


def _write(out: list[str], value, depth: int) -> None:
    """Append ``value`` at ``depth`` to ``out``: dicts key by key, tables
    row-wise from their columns, everything else by the stock encoder."""
    if isinstance(value, Columns):
        _write_table(out, value, depth)
    elif isinstance(value, dict) and value:
        items = {str(k): v for k, v in value.items()}
        indent = "\n" + "  " * (depth + 1)
        out.append("{")
        for i, key in enumerate(sorted(items)):
            out.append(("," if i else "") + indent + _ENCODER.encode(key) + ": ")
            _write(out, items[key], depth + 1)
        out.append("\n" + "  " * depth + "}")
    else:
        out.append(_stock(value, depth))


def render_json(report) -> str:
    out: list[str] = []
    _write(out, report.to_dict(), 0)
    out.append("\n")
    return "".join(out)


def _cell(value) -> str:
    value = _sanitize(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def render_csv(report) -> str:
    """One section per table of ``report.to_dict()``: the config, each table
    in document order (a dict as key/value rows), then the checks when they
    are a table.  A section is a ``section,name`` line, the header (empty
    for a table without rows), then the rows."""
    doc = report.to_dict()
    sections = [("config", doc["config"]), *doc["tables"].items()]
    if isinstance(doc["checks"], Columns):
        sections.append(("checks", doc["checks"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for index, (name, table) in enumerate(sections):
        if not isinstance(table, Columns):
            table = Columns(key=list(table), value=list(table.values()))
        if index:
            writer.writerow([])
        writer.writerow(["section", name])
        writer.writerow(list(table) if table.size else [])
        writer.writerows(zip(*(map(_cell, cells) for cells in table.values())))
    return buf.getvalue()


def emit_report(report, output_format: str, path: str | None = None) -> str:
    """Render ``report``, which only needs ``to_dict`` (its document), and
    optionally write it to ``path``."""
    if output_format == "json":
        text = render_json(report)
    elif output_format == "csv":
        text = render_csv(report)
    else:
        raise ConfigurationError(f"unknown output format {output_format!r}")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigurationError(f"cannot write report to {path}: {exc}") from exc
    return text
