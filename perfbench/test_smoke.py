"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench

It checks that every metric BENCHMARK.json names is printed with its unit,
that the oracle agrees with the CLI and rejects a wrong count, that a
wrapper target a later change removes is reported absent instead of
crashing, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def _cli_report(argv: list[str]) -> str:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from primesum.expcli import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def test_workloads_match_the_spec():
    assert sorted(WORKLOAD_NAMES) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    table = {line.split()[0]: line.split()[1:] for line in lines[1:-1] if line.strip()}
    assert table["error_rate"][:2] == ["0", "ratio"]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert table[metric["name"]][1] == metric["unit"]


def test_oracle_counts_match_enumeration():
    rng = np.random.default_rng(5)
    members = np.unique(rng.integers(0, 500, size=60))
    sums = {int(a) + int(b) for a in members for b in members}
    assert oracle.integer_sumset_size(members) == len(sums)
    m = 97
    residues = np.unique(members % m)
    assert oracle.cyclic_sumset_size(residues, m) == len({s % m for s in sums})
    assert oracle.largest_prime_factor(1006) == 503
    assert oracle.largest_prime_factor(333333) == 37


def test_oracle_rejects_a_wrong_pipeline_count():
    kind, _, params = run.WORKLOADS["pairs-w7"]
    report = _cli_report(run.cli_argv(kind, params, 3))
    expected = run.expected_values(kind, params, 3)
    problems, descriptors = oracle.check_pipeline(report, expected)
    assert problems == []
    assert descriptors["pair_count"] == 36 and descriptors["N"] == 400

    doc = json.loads(report)
    doc["tables"]["summary"]["actual_sumset"] += 1
    assert any("actual_sumset" in p for p in oracle.check_pipeline(json.dumps(doc), expected)[0])
    wrong = dict(expected, sumset=expected["sumset"] - 1)
    assert oracle.check_pipeline(report, wrong)[0]

    doc = json.loads(report)
    row = next(r for r in doc["checks"] if r["kind"] == "assert")
    row["passed"] = False
    assert any(row["name"] in p for p in oracle.check_pipeline(json.dumps(doc), expected)[0])


def test_oracle_rejects_a_wrong_cyclic_count():
    kind, _, params = run.WORKLOADS["moments-z510510"]
    report = _cli_report(run.cli_argv(kind, params, 3))
    expected = run.expected_values(kind, params, 3)
    assert oracle.check_znstar(report, expected)[0] == []
    actual = expected["sumset"]
    tampered = report.replace(f"actual_cyclic={actual}", f"actual_cyclic={actual + 1}")
    assert tampered != report
    assert any("actual_cyclic" in p for p in oracle.check_znstar(tampered, expected)[0])


_RENAMED = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import primesum.prime_embed as pe
import spans
from primesum.expcli import cli
pe.__all__ = [name for name in pe.__all__ if name != "aggregate_delta"]
spans.LAYER_MODULES["ntheory"] += ("primesum.no_such_module",)
spans.EXTRA_TARGETS += (("expcli", "primesum.expcli.config", "NoSuchClass.validate"),)
tracer = spans.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main({argv!r})
print(json.dumps({{"rc": rc, "wrapped": tracer.wrapped, "spans": tracer.spans}}))
"""


def test_a_removed_wrapper_target_is_reported_absent():
    kind, _, params = run.WORKLOADS["pairs-w7"]
    script = _RENAMED.format(
        src=str(ROOT / "src"), bench=str(BENCH), argv=run.cli_argv(kind, params, 3)
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["rc"] == 0
    assert layers.absent_targets(out["wrapped"]) == ["prime_embed.aggregate_delta"]
    assert layers.absent_metrics(out["wrapped"]) == ["prime_embed.aggregate_s"]
    metrics = layers.layer_metrics(out["spans"], 1.0, out["wrapped"])
    assert metrics["prime_embed.pair_calls"] == 36
    assert metrics["prime_embed.aggregate_s"] is None
    assert metrics["zm_sumsets.int_sumset_s"] > 0

    # an integer sumset under a name the pattern does not know reads absent, not 0
    renamed = [name for name in out["wrapped"] if not spans.INT_SUMSET.match(name)]
    assert layers.absent_targets(renamed) == sorted(
        ["prime_embed.aggregate_delta", spans.INT_SUMSET.pattern])
    assert layers.layer_metrics(out["spans"], 1.0, renamed)["zm_sumsets.int_sumset_s"] is None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(WORKLOAD_NAMES[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
