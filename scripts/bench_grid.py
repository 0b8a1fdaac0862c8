"""Time the pipeline stage by stage, and the ``Z_m`` certificate kernel by
kernel, at a fixed grid of scale points and write ``BENCH_<rev>.json``.

    python3 scripts/bench_grid.py                   # the checkout holding this file
    python3 scripts/bench_grid.py --repo DIR        # another checkout's src/
    python3 scripts/bench_grid.py --against DIR     # this checkout and DIR, alternately

Each point runs in a fresh process.  A pipeline point runs ``run_pipeline``
on all primes up to n at W with the default parameters, then writes the JSON
report with ``write_report`` into a sink that keeps only the report's
sha256, so the render stage's memory is the writer's own and not that of a
whole text.  Every stage function that ``run_pipeline`` calls through its
module's globals (sieve, subset, partition, class rows, pair stage,
aggregation, residue chain, integer sumset, summary) and the writer are
wrapped: each call records its wall time
and the process's VmHWM (peak resident set, read from /proc/self/status)
when it returns.  A ``Z_m`` point runs ``znstar-bound`` on a set spec over
Z_m, its stdout into the same sink, with the kernels that ``kth_moment``
calls through the globals of ``zm_sumsets`` (``ZM_KERNELS``) wrapped the
same way.  A stage or kernel name the module lacks is an error, not a stage
left untimed.  A point also records the total time, the sha256 of the report
and the process's max RSS.

``--rounds R`` runs every point R times; with ``--against DIR`` the two
checkouts take turns point by point, so both see the same machine load.  Each
checkout gets its own file, named by its short git revision, with the
per-stage medians over the rounds (the calls of a stage that runs more than
once add up) and the line count of its ``src/``.  Two
checkouts that read the same revision (two trees at one commit, or two
without git, which read ``unknown``) would write one file, so the run stops
before its first point.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# pipeline points (n, W), then znstar-bound points (m, set spec)
GRID = [(2_000_000, 7), (10_000_000, 7), (1_000_000, 11)]
ZM_GRID = [(9_699_690, "units-random:0.0001:1")]
STAGES = (
    "sieve_primes",
    "build_subset",
    "partition_and_densities",
    "_reconcile_partition",
    "_class_rows",
    "_pair_stage",
    "aggregate_delta",
    "_residue_chain",
    "_integer_sumset",
    "_summary",
)
ZM_KERNELS = ("capital_R", "rep_histogram", "_gcd_layers", "_histogram")


def _vmhwm_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


class _HashSink:
    """A text handle that keeps only the sha256 of what is written to it."""

    def __init__(self) -> None:
        self.sha256 = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha256.update(text.encode("utf-8"))
        return len(text)


def _timed(name: str, fn, stages: list):
    """``fn``, appending its name, wall time and the VmHWM on return to
    ``stages`` at each call."""

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        stages.append(
            {"name": name, "s": time.perf_counter() - start, "vmhwm_mb": _vmhwm_mb()}
        )
        return out

    return wrapper


def _wrap(module, names, stages: list) -> None:
    """Time each named function of ``module`` through ``_timed``."""
    for name in names:
        if not hasattr(module, name):
            raise AttributeError(f"{module.__name__} has no stage {name!r} to time")
        setattr(module, name, _timed(name, getattr(module, name), stages))


def _record(start: float, sink: _HashSink, stages: list) -> dict:
    return {
        "total_s": time.perf_counter() - start,
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report_sha256": sink.sha256.hexdigest(),
        "stages": stages,
    }


def run_point(n: int, w: int) -> dict:
    """One pipeline point in this process: the stage records, in call order."""
    import primesum.expcli.pipeline as pipeline
    from primesum.expcli.config import ExperimentConfig, parse_rule
    from primesum.expcli.reports import write_report

    stages: list = []
    _wrap(pipeline, STAGES, stages)
    render = _timed("write_report", write_report, stages)
    cfg = ExperimentConfig(n=n, w=w, rule=parse_rule("all-primes"))
    sink = _HashSink()
    start = time.perf_counter()
    render(pipeline.run_pipeline(cfg), "json", sink)
    return _record(start, sink, stages)


def run_zm_point(m: int, spec: str) -> dict:
    """One ``znstar-bound`` point in this process: the kernel records, in
    call order."""
    import primesum.zm_sumsets as zm
    from primesum.expcli.cli import main

    stages: list = []
    _wrap(zm, ZM_KERNELS, stages)
    sink = _HashSink()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = main(["znstar-bound", "--m", str(m), "--set-spec", spec])
    if code != 0:
        raise RuntimeError(f"znstar-bound --m {m} --set-spec {spec} exited {code}")
    return _record(start, sink, stages)


def _git(repo: Path, *args: str) -> str:
    out = subprocess.run(
        ["git", "-C", str(repo), *args], capture_output=True, text=True, check=False
    )
    return out.stdout.strip() if out.returncode == 0 else ""


def _rev(repo: Path) -> str:
    return _git(repo, "rev-parse", "--short", "HEAD") or "unknown"


def _src_lines(repo: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((repo / "src").rglob("*.py")))


def _measure(repo: Path, point: tuple) -> dict:
    """One point, ``("--point", n, W)`` or ``("--zm-point", m, spec)``, in a
    fresh process on ``repo``'s ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *map(str, point)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout)


def _summarize(repo: Path, runs: dict) -> dict:
    points = []
    for (flag, a, b), samples in runs.items():
        names = dict.fromkeys(stage["name"] for stage in samples[0]["stages"])
        points.append(
            {
                **({"n": a, "W": b} if flag == "--point" else {"m": a, "set_spec": b}),
                "total_s_median": statistics.median(s["total_s"] for s in samples),
                "max_rss_mb_max": max(s["max_rss_mb"] for s in samples),
                "report_sha256": sorted({s["report_sha256"] for s in samples}),
                "stage_s_median": {
                    name: statistics.median(
                        sum(st["s"] for st in s["stages"] if st["name"] == name)
                        for s in samples
                    )
                    for name in names
                },
                "stage_vmhwm_mb_max": {
                    name: max(
                        st["vmhwm_mb"]
                        for s in samples
                        for st in s["stages"]
                        if st["name"] == name
                    )
                    for name in names
                },
                "runs": samples,
            }
        )
    return {
        "rev": _rev(repo),
        "dirty": bool(_git(repo, "status", "--porcelain", "--", "src")),
        "src_lines": _src_lines(repo),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "rounds": len(next(iter(runs.values()))),
        "points": points,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=ROOT, help="checkout to measure")
    parser.add_argument("--against", type=Path, help="a second checkout, run alternately")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--out-dir", type=Path, default=Path.cwd())
    parser.add_argument("--point", nargs=2, type=int, metavar=("N", "W"), help=argparse.SUPPRESS)
    parser.add_argument("--zm-point", nargs=2, metavar=("M", "SPEC"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point:
        print(json.dumps(run_point(*args.point)))
        return 0
    if args.zm_point:
        m, spec = args.zm_point
        print(json.dumps(run_zm_point(int(m), spec)))
        return 0
    repos = [args.repo.resolve()] + ([args.against.resolve()] if args.against else [])
    paths = [args.out_dir / f"BENCH_{_rev(repo)}.json" for repo in repos]
    if len(set(paths)) < len(paths):
        parser.error(
            f"both checkouts would write {paths[0]}: they read the same revision "
            "(a checkout without git reads 'unknown')"
        )
    points = [("--point", n, w) for n, w in GRID]
    points += [("--zm-point", m, spec) for m, spec in ZM_GRID]
    runs = {repo: {point: [] for point in points} for repo in repos}
    for round_ in range(args.rounds):
        for point in points:
            for repo in repos if round_ % 2 == 0 else repos[::-1]:
                sample = _measure(repo, point)
                runs[repo][point].append(sample)
                print(f"{repo} {point} {sample['total_s']:.2f} s", file=sys.stderr)
    for repo, path in zip(repos, paths):
        doc = _summarize(repo, runs[repo])
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
