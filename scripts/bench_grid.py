"""Time the pipeline stage by stage at a fixed grid of scale points and write
``BENCH_<rev>.json``.

    python3 scripts/bench_grid.py                   # the checkout holding this file
    python3 scripts/bench_grid.py --repo DIR        # another checkout's src/
    python3 scripts/bench_grid.py --against DIR     # this checkout and DIR, alternately

Each point runs ``run_pipeline`` on all primes up to n at W with the default
parameters, then writes the JSON report with ``write_report`` into a sink
that keeps only the report's sha256, in a fresh process, so the render
stage's memory is the writer's own and not that of a whole text.  (A
checkout from before ``write_report`` hands the sink ``emit_report``'s text,
timed under the same name.)  Every stage function that ``run_pipeline``
calls through its module's globals (sieve, subset, partition, class rows,
pair stage, aggregation, residue chain, integer sumset, summary) and the
writer are wrapped: each call records its wall time and the process's VmHWM
(peak resident set, read from /proc/self/status) when it returns.  A stage
name the pipeline module lacks is an error, not a stage left untimed.  A
point also records the total time, the sha256 of the report and the
process's max RSS.

``--rounds R`` runs every point R times; with ``--against DIR`` the two
checkouts take turns point by point, so both see the same machine load.  Each
checkout gets its own file, named by its short git revision, with the
per-stage medians over the rounds and the line count of its ``src/``.  Two
checkouts that read the same revision (two trees at one commit, or two
without git, which read ``unknown``) would write one file, so the run stops
before its first point.
"""

from __future__ import annotations

import argparse
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
GRID = [(2_000_000, 7), (10_000_000, 7), (1_000_000, 11)]
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


def run_point(n: int, w: int) -> dict:
    """One point in this process: the stage records, in call order."""
    import primesum.expcli.pipeline as pipeline
    from primesum.expcli.config import ExperimentConfig, parse_rule

    try:
        from primesum.expcli.reports import write_report
    except ImportError:  # a checkout from before the streaming writer
        from primesum.expcli.reports import emit_report

        def write_report(report, output_format, handle):
            handle.write(emit_report(report, output_format))

    stages = []

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            stages.append(
                {"name": name, "s": time.perf_counter() - start, "vmhwm_mb": _vmhwm_mb()}
            )
            return out

        return wrapper

    for name in STAGES:
        if not hasattr(pipeline, name):
            raise AttributeError(f"pipeline has no stage {name!r} to time")
        setattr(pipeline, name, timed(name, getattr(pipeline, name)))
    render = timed("write_report", write_report)
    cfg = ExperimentConfig(n=n, w=w, rule=parse_rule("all-primes"))
    sink = _HashSink()
    start = time.perf_counter()
    render(pipeline.run_pipeline(cfg), "json", sink)
    total = time.perf_counter() - start
    return {
        "total_s": total,
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report_sha256": sink.sha256.hexdigest(),
        "stages": stages,
    }


def _git(repo: Path, *args: str) -> str:
    out = subprocess.run(
        ["git", "-C", str(repo), *args], capture_output=True, text=True, check=False
    )
    return out.stdout.strip() if out.returncode == 0 else ""


def _rev(repo: Path) -> str:
    return _git(repo, "rev-parse", "--short", "HEAD") or "unknown"


def _src_lines(repo: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((repo / "src").rglob("*.py")))


def _measure(repo: Path, n: int, w: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--point", str(n), str(w)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout)


def _summarize(repo: Path, runs: dict) -> dict:
    points = []
    for (n, w), samples in runs.items():
        names = [stage["name"] for stage in samples[0]["stages"]]
        points.append(
            {
                "n": n,
                "W": w,
                "total_s_median": statistics.median(s["total_s"] for s in samples),
                "max_rss_mb_max": max(s["max_rss_mb"] for s in samples),
                "report_sha256": sorted({s["report_sha256"] for s in samples}),
                "stage_s_median": {
                    name: statistics.median(s["stages"][i]["s"] for s in samples)
                    for i, name in enumerate(names)
                },
                "stage_vmhwm_mb_max": {
                    name: max(s["stages"][i]["vmhwm_mb"] for s in samples)
                    for i, name in enumerate(names)
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
    args = parser.parse_args(argv)
    if args.point:
        print(json.dumps(run_point(*args.point)))
        return 0
    repos = [args.repo.resolve()] + ([args.against.resolve()] if args.against else [])
    paths = [args.out_dir / f"BENCH_{_rev(repo)}.json" for repo in repos]
    if len(set(paths)) < len(paths):
        parser.error(
            f"both checkouts would write {paths[0]}: they read the same revision "
            "(a checkout without git reads 'unknown')"
        )
    runs = {repo: {point: [] for point in GRID} for repo in repos}
    for round_ in range(args.rounds):
        for n, w in GRID:
            for repo in repos if round_ % 2 == 0 else repos[::-1]:
                sample = _measure(repo, n, w)
                runs[repo][(n, w)].append(sample)
                print(f"{repo} n={n} W={w} {sample['total_s']:.2f} s", file=sys.stderr)
    for repo, path in zip(repos, paths):
        doc = _summarize(repo, runs[repo])
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
