"""scripts/bench_grid.py times every named pipeline stage of a grid point."""

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
