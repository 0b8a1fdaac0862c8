"""scripts/bench_grid.py times every named pipeline stage of a grid point."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_grid.py"
spec = importlib.util.spec_from_file_location("bench_grid", SCRIPT)
bench_grid = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_grid)


def test_a_point_records_every_stage_and_the_render():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--point", "3000", "5"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    record = json.loads(out.stdout)
    names = sorted(stage["name"] for stage in record["stages"])
    assert names == sorted([*bench_grid.STAGES, "write_report"])
    # the sink counts the bytes of the report it hashes
    from primesum.expcli.config import ExperimentConfig, parse_rule
    from primesum.expcli.pipeline import run_pipeline

    from oracles import render_json

    cfg = ExperimentConfig(n=3000, w=5, rule=parse_rule("all-primes"))
    text = render_json(run_pipeline(cfg)).encode("utf-8")
    assert record["report_bytes"] == len(text)
    assert record["report_sha256"] == hashlib.sha256(text).hexdigest()


def test_a_stage_the_pipeline_lacks_is_an_error(monkeypatch):
    monkeypatch.setattr(bench_grid, "STAGES", ("no_such_stage",))
    with pytest.raises(AttributeError, match="no_such_stage"):
        bench_grid.run_point(3000, 5)


@pytest.mark.parametrize("same", ["no-git", "one-checkout"])
def test_two_checkouts_never_write_one_file(monkeypatch, tmp_path, capsys, same):
    # checkouts without git both read rev "unknown", and one checkout read
    # twice has one rev: the run stops before its first point
    def no_point(*args):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr(bench_grid, "_measure", no_point)
    if same == "no-git":
        repos = [tmp_path / "a", tmp_path / "b"]
        for repo in repos:
            repo.mkdir()
    else:
        repos = [ROOT, ROOT]
    out = tmp_path / "out"
    out.mkdir()
    argv = ["--repo", str(repos[0]), "--against", str(repos[1]), "--out-dir", str(out)]
    with pytest.raises(SystemExit) as info:
        bench_grid.main(argv)
    assert info.value.code == 2
    assert "both checkouts would write" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_a_zm_point_records_every_kernel():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--zm-point", "2310", "units-random:0.1:1"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    record = json.loads(out.stdout)
    # the moment histograms run three times: r_B, R and R by gcd layer
    names = [stage["name"] for stage in record["stages"]]
    assert names == [
        "capital_R", "rep_histogram", "_histogram", "_gcd_layers", "_histogram", "_histogram"
    ]
    assert sorted(set(names)) == sorted(bench_grid.ZM_KERNELS)
    assert record["report_sha256"] and record["total_s"] > 0


def test_the_summary_adds_up_the_calls_of_a_kernel(tmp_path):
    sample = {
        "total_s": 1.0,
        "max_rss_mb": 10.0,
        "report_sha256": "x",
        "report_bytes": 3,
        "stages": [
            {"name": "_histogram", "s": 0.25, "vmhwm_mb": 5.0},
            {"name": "capital_R", "s": 0.5, "vmhwm_mb": 9.0},
            {"name": "_histogram", "s": 0.125, "vmhwm_mb": 7.0},
        ],
    }
    doc = bench_grid._summarize(tmp_path, {("--zm-point", 2310, "units"): [sample]})
    (point,) = doc["points"]
    assert (point["m"], point["set_spec"]) == (2310, "units")
    assert point["report_bytes"] == [3]
    assert point["stage_s_median"] == {"_histogram": 0.375, "capital_R": 0.5}
    assert point["stage_vmhwm_mb_max"] == {"_histogram": 7.0, "capital_R": 9.0}
