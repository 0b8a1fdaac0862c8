"""The column-wise report writer against the stock indented JSON encoder."""

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from primesum.expcli.pipeline import RandomHostReport
from primesum.expcli.reports import Columns, _cell, _sanitize, render_csv, render_json

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

    def test_nested_dicts_without_tables(self):
        doc = {"a": {"b": {"c": [1, {"d": np.int64(2)}]}, "e": {}}, "f": Fraction(1, 3)}
        assert render_json(_Report(doc)) == stock(doc)


class TestCsvWriter:
    def test_matches_the_row_writer(self):
        # the expected text is what the row-wise CSV writer produced for this
        # report before tables became columns
        report = RandomHostReport(
            config={
                "N": np.int64(12),
                "label": 'a "quoted", välue',
                "ratio": Fraction(1, 3),
                "weights": [1, 2.5],
            },
            trials=[
                {"trial": 0, "host_size": np.int64(5), "skipped": np.bool_(False),
                 "sumset_size": None, "sumset_fraction": math.nan},
                {"trial": 1, "host_size": 7, "skipped": True,
                 "sumset_size": 9, "sumset_fraction": 0.1 + 0.2},
                {"trial": 2, "host_size": 0, "skipped": False,
                 "sumset_size": np.int32(3), "sumset_fraction": np.float64(-math.inf)},
            ],
            summary={
                "mean_fraction": np.float64(1e-20),
                "max_fraction": math.inf,
                "note": "line, with comma",
            },
        )
        assert render_csv(report) == (
            'section,config\nkey,value\nN,12\nlabel,"a ""quoted"", välue"\n'
            'ratio,1/3\nweights,"[1, 2.5]"\n\n'
            "section,summary\nkey,value\nmean_fraction,1e-20\nmax_fraction,\n"
            'note,"line, with comma"\n\n'
            "section,trials\ntrial,host_size,skipped,sumset_size,sumset_fraction\n"
            "0,5,false,,\n1,7,true,9,0.3\n2,0,false,3,\n"
        )
        assert render_json(report) == stock(report.to_dict())


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
