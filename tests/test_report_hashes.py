"""The field diff of scripts/report_hashes.py on outputs that differ."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_hashes.py"
spec = importlib.util.spec_from_file_location("report_hashes", SCRIPT)
report_hashes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_hashes)
field_diff = report_hashes.field_diff


def test_numeric_gaps():
    assert field_diff("b=1 N=4\n", "b=1 N=5\n", "old") == [
        "  [*].N: 1 of 1 differ, max rel gap 0.2, max abs gap 1"
    ]


def test_a_field_on_one_side_reads_only_or_missing():
    old = '{"rows": [{"x": 1, "y": 2}, {"x": 3, "y": 4}], "gone": 1}'
    new = '{"rows": [{"x": 1, "y": 5}], "added": true}'
    assert field_diff(old, new, "old") == [
        "  rows[*].x: 1 of 2 only at old",
        "  rows[*].y: 1 of 2 differ, max rel gap 0.6, max abs gap 3; "
        "1 of 2 only at old",
        "  gone: 1 of 1 only at old",
        "  added: 1 of 1 missing at old",
    ]


def test_an_empty_side_reads_no_output():
    assert field_diff("", "b=1 N=4\n", "old") == ["  no output at old"]
    assert field_diff("b=1 N=4\n", "", "old") == ["  output only at old"]
