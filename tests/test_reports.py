"""The column-wise report writer against the stock indented JSON encoder."""

import csv
import hashlib
import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primesum.errors import ConfigurationError
from primesum.expcli import reports
from primesum.expcli.reports import (
    Columns,
    _cell,
    _sanitize,
    write_report,
)

from oracles import render_csv, render_json

# keys and strings that need escaping: quotes, backslashes, control and
# non-ASCII characters, the list separator ", " and a "%" (the row template
# is %-formatted)
TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['a "b"', "x, y", "ü", "%s", "100%", "\\", "\n", ""]),
)
NUMPY_SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    TEXT,
    NUMPY_SCALARS,
)
# one strategy per column kind; a column holds cells of one kind
CELLS = [
    st.booleans(),
    st.integers(),
    st.one_of(st.integers(), st.booleans()),  # bool-valued ints
    st.floats(allow_nan=True, allow_infinity=True),
    st.one_of(st.none(), st.floats(allow_nan=False)),
    TEXT,
    NUMPY_SCALARS,
    st.lists(st.integers(), max_size=3),
    SCALARS,
]


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 3))
    names = draw(st.lists(TEXT, max_size=4, unique=True))
    return Columns(
        {
            name: draw(st.lists(draw(st.sampled_from(CELLS)), min_size=rows, max_size=rows))
            for name in names
        }
    )


@st.composite
def documents(draw):
    small = st.dictionaries(TEXT, st.one_of(SCALARS, st.lists(SCALARS, max_size=3)), max_size=5)
    return {
        "config": draw(small),
        "tables": {"summary": draw(small), **draw(st.dictionaries(TEXT, tables(), max_size=3))},
        "checks": draw(st.one_of(tables(), st.just([]))),
    }


class _Report:
    def __init__(self, doc):
        self.doc = doc

    def to_dict(self):
        return self.doc


def stock(doc) -> str:
    return json.dumps(_sanitize(doc), sort_keys=True, indent=2) + "\n"


class TestJsonWriter:
    @settings(max_examples=300)
    @given(documents())
    def test_matches_the_stock_encoder(self, doc):
        assert render_json(_Report(doc)) == stock(doc)

    def test_edge_tables(self):
        doc = {
            "empty": Columns(),
            "no_rows": Columns(a=[], b=[]),
            "one_row": Columns(b=[math.nan], a=[True], c=[-math.inf]),
            "floats": Columns(x=[0.1 + 0.2, 1e300, -0.0, math.inf, 5e-324]),
            "mixed": Columns(s=['q"', "a, b", "ü"], n=[np.int64(3), np.float64(math.nan), None]),
        }
        text = render_json(_Report(doc))
        assert text == stock(doc)
        assert json.loads(text)["one_row"] == [{"a": True, "b": None, "c": None}]

    def test_repeated_floats_are_encoded_by_their_bits(self):
        # an all-float column encodes each distinct bit pattern once; 0.0
        # and -0.0 stay apart, every NaN and infinity is null, and the
        # tokens land back on their rows across row blocks
        from primesum.expcli import reports

        cells = [0.1, -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1 + 0.2]
        rng = np.random.default_rng(5)
        rows = len(cells) * 1000
        doc = {
            "t": Columns(
                x=[cells[i] for i in rng.integers(0, len(cells), rows).tolist()],
                y=[float(v) for v in rng.integers(0, 3, rows)],
                k=rng.integers(-5, 5, rows).tolist(),
                ok=[bool(v) for v in rng.integers(0, 2, rows)],
                z=[-0.0, 0.0] * (rows // 2),
            )
        }
        assert rows > reports._BLOCK_ROWS
        text = render_json(_Report(doc))
        assert text == stock(doc)
        assert '"z": -0.0' in text and '"x": null' in text and '"x": 5e-324' in text

    def test_nested_dicts_without_tables(self):
        doc = {"a": {"b": {"c": [1, {"d": np.int64(2)}]}, "e": {}}, "f": Fraction(1, 3)}
        assert render_json(_Report(doc)) == stock(doc)


class TestCsvWriter:
    def test_matches_the_row_writer(self):
        # the expected text is what the row-wise CSV writer produced for this
        # report before tables became columns
        doc = {
            "config": {
                "N": np.int64(12),
                "label": 'a "quoted", välue',
                "ratio": Fraction(1, 3),
                "weights": [1, 2.5],
            },
            "tables": {
                "summary": {
                    "mean_fraction": np.float64(1e-20),
                    "max_fraction": math.inf,
                    "note": "line, with comma",
                },
                "trials": Columns.from_rows([
                    {"trial": 0, "host_size": np.int64(5), "skipped": np.bool_(False),
                     "sumset_size": None, "sumset_fraction": math.nan},
                    {"trial": 1, "host_size": 7, "skipped": True,
                     "sumset_size": 9, "sumset_fraction": 0.1 + 0.2},
                    {"trial": 2, "host_size": 0, "skipped": False,
                     "sumset_size": np.int32(3), "sumset_fraction": np.float64(-math.inf)},
                ]),
            },
            "checks": [],
        }
        report = _Report(doc)
        assert render_csv(report) == (
            'section,config\nkey,value\nN,12\nlabel,"a ""quoted"", välue"\n'
            'ratio,1/3\nweights,"[1, 2.5]"\n\n'
            "section,summary\nkey,value\nmean_fraction,1e-20\nmax_fraction,\n"
            'note,"line, with comma"\n\n'
            "section,trials\ntrial,host_size,skipped,sumset_size,sumset_fraction\n"
            "0,5,false,,\n1,7,true,9,0.3\n2,0,false,3,\n"
        )
        assert render_json(report) == stock(doc)


def csv_text(doc) -> str:
    """The CSV of ``doc`` written row by row: one section per table, in
    document order, the checks only when they are a table."""
    sections = [("config", doc["config"]), *doc["tables"].items()]
    if isinstance(doc["checks"], Columns):
        sections.append(("checks", doc["checks"]))
    rows = []
    for name, table in sections:
        if not isinstance(table, Columns):
            table = Columns(key=list(table), value=list(table.values()))
        if rows:
            rows.append([])
        rows += [["section", name], list(table) if table.size else []]
        rows += [[_cell(cell) for cell in row] for row in zip(*table.values())]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


class TestCsvDocument:
    @settings(max_examples=200)
    @given(documents())
    def test_one_section_per_table_in_document_order(self, doc):
        assert render_csv(_Report(doc)) == csv_text(doc)

    def test_repeated_floats_are_formatted_by_their_bits(self):
        # an all-float column formats each distinct bit pattern once, an int
        # column and a bool/null column map their cells in one pass, and the
        # fields land back on their rows across row blocks
        from primesum.expcli import reports

        cells = [0.1, -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1 + 0.2]
        rng = np.random.default_rng(7)
        rows = len(cells) * 1000
        flags = [True, False, None]
        doc = {
            "config": {"n": 3},
            "tables": {
                "t": Columns(
                    x=[cells[i] for i in rng.integers(0, len(cells), rows).tolist()],
                    k=rng.integers(-5, 5, rows).tolist(),
                    ok=[flags[i] for i in rng.integers(0, 3, rows).tolist()],
                    z=[-0.0, 0.0] * (rows // 2),
                    s=["a, b", 1] * (rows // 2),
                )
            },
            "checks": [],
        }
        assert rows > reports._BLOCK_ROWS
        text = render_csv(_Report(doc))
        assert text == csv_text(doc)
        assert "nan" not in text and "inf" not in text and "\n-0," in text

    def test_checks_without_a_table_give_no_section(self):
        doc = {
            "config": {"n": 3},
            "tables": {"summary": {"a": 1.5}, "t": Columns(x=[1, 2])},
            "checks": [],
        }
        assert render_csv(_Report(doc)) == (
            "section,config\nkey,value\nn,3\n\n"
            "section,summary\nkey,value\na,1.5\n\n"
            "section,t\nx\n1\n2\n"
        )


def array_table(rows: int, seed: int = 3) -> Columns:
    """A table shaped like the pair table: int64, float64 and bool arrays,
    one float column a strided view of a 2-D array, with -0.0, NaN, +-inf,
    a subnormal and repeated values among the floats."""
    rng = np.random.default_rng(seed)
    special = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 0.1 + 0.2, 5e-324, 1e16])
    pieces = rng.normal(size=(rows, 3))
    pieces[::4, 1] = -0.0
    return Columns(
        b1=rng.integers(-(2**62), 2**62, rows),
        count=rng.integers(0, 3, rows),
        alpha=special[rng.integers(0, special.size, rows)],
        l2sq=pieces[:, 1],
        passed=rng.integers(0, 2, rows).astype(bool),
    )


def as_lists(table: Columns) -> Columns:
    return Columns({name: cells.tolist() for name, cells in table.items()})


class TestArrayColumns:
    @pytest.mark.parametrize("block", [1, 3, reports._BLOCK_ROWS])
    @pytest.mark.parametrize("rows", [0, 1, 10, 600])
    def test_arrays_render_like_lists(self, monkeypatch, block, rows):
        # block boundaries fall inside the table; every cell reaches the
        # encoders as a Python scalar, so the text is that of the lists
        monkeypatch.setattr(reports, "_BLOCK_ROWS", block)
        arrays = array_table(rows)
        assert {cells.dtype for cells in arrays.values()} == {
            np.dtype(np.int64), np.dtype(np.float64), np.dtype(np.bool_)
        }
        docs = [
            {"config": {"n": 3}, "tables": {"summary": {"a": 1.5}, "pairs": t}, "checks": t}
            for t in (arrays, as_lists(arrays))
        ]
        json_text, csv_text_ = render_json(_Report(docs[1])), render_csv(_Report(docs[1]))
        assert json_text == stock(docs[1])
        assert csv_text_ == csv_text(docs[1])
        assert render_json(_Report(docs[0])) == json_text
        assert render_csv(_Report(docs[0])) == csv_text_
        if rows >= 10:
            assert '"alpha": -0.0' in json_text and '"alpha": null' in json_text
            assert '"passed": true' in json_text and "True" not in json_text
            assert "True" not in csv_text_ and "nan" not in csv_text_

    def test_unknown_format_writes_nothing(self):
        buf = io.StringIO()
        with pytest.raises(ConfigurationError, match="unknown output format"):
            write_report(_Report({"config": {}, "tables": {}, "checks": []}), "xml", buf)
        assert buf.getvalue() == ""


class _HashSink:
    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha256.update(text.encode("utf-8"))
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_the_writer_peak_does_not_grow_with_the_rows(fmt):
    # a 22-column table like the pair table (two int64 labels, sixteen
    # float64 and four bool columns) written to a sink that keeps no text:
    # only one block's tokens are alive at a time, so the traced peak of
    # 80,000 rows stays within 1 MB of that of 20,000.  The floats repeat
    # (16 values each), as many pair columns do, which keeps the traced run
    # short; the text still grows with the rows.
    def peak(rows: int) -> int:
        rng = np.random.default_rng(rows)
        table = Columns(
            {f"b{k}": rng.integers(0, 2310, rows) for k in range(2)}
            | {f"x{k:02d}": rng.integers(0, 16, rows) / 16 for k in range(16)}
            | {f"ok{k}": rng.random(rows) < 0.5 for k in range(4)}
        )
        doc = {"config": {"rows": rows}, "tables": {"pairs": table}, "checks": []}
        tracemalloc.start()
        try:
            write_report(_Report(doc), fmt, _HashSink())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(20_000), peak(80_000)
    assert abs(large - small) < 1 << 20, (small, large)
