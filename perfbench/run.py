"""Benchmark of the primesum batch verifier.

    python3 perfbench/run.py --workload pairs-w7 --seed 1 --seconds 55 --trace 0

Run from the repository root.  Each verification runs the primesum CLI in a
fresh worker process (``worker.py``), one at a time: a closed loop with one
client, ``PRIMESUM_THREADS`` unset.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
verifications and reports the per-layer metrics of ``layers.py`` plus the
tracing overhead.  Every report is checked by the independent oracle in
``oracle.py`` outside the timed region.

Stdout carries a readable table and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
(descriptors, run metadata, samples) goes to ``perfbench/out/``, and a traced
run also writes its spans there.  ``--tiny`` shrinks every workload for the
smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layers
import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# A run has to end within 180 s: workers still running this long after the
# run started are killed and count as failed.
RUN_LIMIT_S = 170.0

# name -> (CLI command, full-size parameters, smoke-test parameters)
WORKLOADS = {
    # Many small transforms: 48 good classes, 1176 pairs at N = 1006 = 2 * 503.
    "pairs-w7": ("pipeline", {"n": 52815, "W": 7}, {"n": 3000, "W": 5}),
    # Z_m certificate kernels only: |B| = 461 units of Z_510510.
    "moments-z510510": ("znstar", {"m": 510510, "frac": 0.005}, {"m": 2310, "frac": 0.1}),
}


def cli_argv(kind: str, params: dict, seed: int) -> list[str]:
    if kind == "pipeline":
        return [
            "pipeline", "--n", str(params["n"]), "--W", str(params["W"]),
            "--rule", "random-thinning", "--delta", "0.5", "--seed", str(seed),
        ]
    return [
        "znstar-bound", "--m", str(params["m"]),
        "--set-spec", f"units-random:{params['frac']}:{seed}",
    ]


def expected_values(kind: str, params: dict, seed: int) -> dict:
    if kind == "pipeline":
        return oracle.expected_pipeline(params["n"], params["W"], 0.5, seed)
    return oracle.expected_znstar(params["m"], params["frac"], seed)


def run_worker(mode: str, trace: int = 0, argv: list[str] = (), timeout: float = 60.0) -> dict:
    """Run one worker to completion; a failure comes back as ``{"failure": ...}``."""
    env = dict(os.environ)
    env.pop("PRIMESUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, str(trace), *argv]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"failure": f"worker exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"failure": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    if mode == "verify" and (result["rc"] != 0 or result["error"]):
        result["failure"] = f"exit {result['rc']}: {result['error'] or proc.stderr.strip()}"
    return result


def git_revision() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_metadata(seed: int) -> dict:
    return {
        "git_revision": git_revision(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
        ),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _median(values, pick=statistics.median):
    values = list(values)
    if not values or any(v is None for v in values):
        return None
    return pick(values)


def measure(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    """Run the loop and return the full result record (see the module docstring)."""
    started = time.monotonic()
    kind, full, small = WORKLOADS[workload]
    params = small if tiny else full
    argv = cli_argv(kind, params, seed)
    expected = expected_values(kind, params, seed)
    check = oracle.check_pipeline if kind == "pipeline" else oracle.check_znstar

    # an import-only warm-up fills the bytecode cache; it is not counted
    warm = run_worker("setup")
    if "failure" in warm:
        raise RuntimeError(f"cannot import the primesum CLI: {warm['failure']}")
    setup: list[float | None] = []

    samples: list[dict] = []
    spans: list[list] = []
    descriptors: dict = {}
    digest = None
    run_start = time.monotonic()
    deadline = run_start + seconds
    hard_stop = started + RUN_LIMIT_S
    # traced runs alternate which side of each untraced/traced pair goes first
    pattern = (0, 1, 1, 0) if trace else (0,)
    while True:
        mode = pattern[len(samples) % len(pattern)]
        vid = len(samples)
        res = run_worker("verify", mode, argv, max(1.0, hard_stop - time.monotonic()))
        setup.append(res.get("setup_s"))
        sample = {"vid": vid, "trace": mode, "failure": res.get("failure")}
        if sample["failure"] is None:
            report = res["report"]
            try:
                problems, found = check(report, expected)
            except (ValueError, KeyError, TypeError) as exc:  # e.g. a changed format
                problems, found = [f"unreadable report: {exc!r}"], {}
            sha = hashlib.sha256(report.encode("utf-8")).hexdigest()
            if digest is None:
                digest, descriptors = sha, dict(found, report_sha256=sha)
            elif sha != digest:
                problems.append(f"report digest {sha} differs from the first {digest}")
            sample["failure"] = "; ".join(problems) or None
            sample.update(verify_s=res["verify_s"], peak_rss_mb=res["peak_rss_mb"])
            if mode and sample["failure"] is None:
                sample["layers"] = layers.layer_metrics(
                    res["spans"], res["verify_s"], res["wrapped"])
                sample["wrapped"] = res["wrapped"]
                spans.extend([*span, vid] for span in res["spans"])
        samples.append(sample)
        now = time.monotonic()
        if now >= hard_stop or (now >= deadline and len(samples) >= len(set(pattern))):
            break

    ok = [s for s in samples if s["failure"] is None]
    plain = [s for s in ok if not s["trace"]]
    traced = [s for s in ok if s["trace"]]
    end_to_end = {
        "verify_s": _median(s["verify_s"] for s in plain),
        "setup_s": _median(v for v in setup if v is not None),
        "peak_rss_mb": _median(s["peak_rss_mb"] for s in plain),
    }
    per_layer, absent_targets, absent_metrics = {}, [], []
    if traced:
        names = traced[0]["layers"]
        # median_low keeps counts whole
        per_layer = {
            k: _median((s["layers"][k] for s in traced), statistics.median_low) for k in names
        }
        per_layer["trace_overhead_frac"] = (
            per_layer["traced_verify_s"] / end_to_end["verify_s"] - 1.0
            if end_to_end["verify_s"]
            else None
        )
        absent_targets = layers.absent_targets(traced[0]["wrapped"])
        absent_metrics = layers.absent_metrics(traced[0]["wrapped"])
    return {
        "workload": workload,
        "argv": argv,
        "trace": trace,
        "seconds": seconds,
        "wall_s": {"total": time.monotonic() - started, "measuring": time.monotonic() - run_start},
        "metadata": run_metadata(seed),
        "descriptors": descriptors,
        "attempted": len(samples),
        "failed": len(samples) - len(ok),
        "error_rate": (len(samples) - len(ok)) / len(samples),
        "samples": {"verify": len(plain), "traced": len(traced), "setup": len(setup)},
        "verify_s_samples": [s["verify_s"] for s in plain],
        "traced_verify_s_samples": [s["verify_s"] for s in traced],
        "setup_s_samples": setup,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "absent_targets": absent_targets,
        "absent_metrics": absent_metrics,
        "failures": [s for s in samples if s["failure"]],
        "spans": spans,
    }


def _fmt(value) -> str:
    if value is None:
        return "absent"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "primesum" / "expcli" / "cli.py").is_file():
        print(f"error: {ROOT} holds no BENCHMARK.json or no src/primesum to measure",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in result["failures"]:
        print(f"failed verification {failure['vid']}: {failure['failure']}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    spans = result.pop("spans")
    if spans:
        with open(OUT / f"{args.workload}-spans.jsonl", "w", encoding="utf-8") as handle:
            for name, start, end, parent, detail, vid in spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "verification": vid, "detail": detail}) + "\n")
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["per_layer"] if args.trace else result["end_to_end"]
    counts = result["samples"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} attempted, {result['failed']} failed; "
          f"{json.dumps(result['descriptors'], sort_keys=True)}")
    print(f"  {'error_rate':<40} {_fmt(result['error_rate'])} ratio "
          f"({result['failed']}/{result['attempted']})")
    if args.trace:
        print(f"  (medians of {counts['traced']} traced and {counts['verify']} untraced "
              f"verifications; absent targets: {result['absent_targets'] or 'none'})")
    notes = {
        "verify_s": f"(median of {counts['verify']})",
        "setup_s": f"(median of {counts['setup']})",
        "peak_rss_mb": f"(median of {counts['verify']})",
    }
    for metric in wanted:
        name = metric["name"]
        print(f"  {name:<40} {_fmt(source.get(name))} {metric['unit']} {notes.get(name, '')}")

    if not (counts["traced"] if args.trace else counts["verify"]):
        print("error: no verification succeeded", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": source.get(m["name"]) or 0, "unit": m["unit"]} for m in wanted
    }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
