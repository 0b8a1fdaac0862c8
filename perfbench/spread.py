"""Run-to-run spread of the end-to-end metrics, and trajectory points.

    python3 perfbench/spread.py --seeds 10 [--workloads pairs-w7 ...] [--write FILE]

Runs ``run.py`` once per workload and seed (seeds 1..N, workloads interleaved
so that drift in machine load spreads over all of them) with the run length
from BENCHMARK.json, and prints for each end-to-end metric the median and the
quartile distance over its median, as ``statistics.quantiles(values, n=4)``
gives them, against a third of the metric's bound.  ``--write`` also makes
one traced run per workload and stores everything, with the run metadata and
workload descriptors, as a trajectory point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    runs = []
    for seed in range(1, args.seeds + 1):
        for workload in args.workloads:
            result = run_once(workload, seed, seconds, 0)
            runs.append({"workload": workload, "seed": seed, **result})
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result {result}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)

    summary: dict[str, dict] = {}
    steady = True
    for workload in args.workloads:
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            vals = values[workload][metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            limit = metric["bound"] / 3
            ok = spread < limit
            steady &= ok
            summary[workload][metric["name"]] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"], "values": vals,
            }
            print(f"{workload:<18} {metric['name']:<12} median {med:.4f} {metric['unit']:<3}"
                  f" spread {spread:.4f} (bound/3 {limit:.4f}) {'ok' if ok else 'UNSTEADY'}")

    if args.write:
        point = {"run_seconds": seconds, "seeds": args.seeds, "end_to_end": summary,
                 "runs": runs, "traced": {}}
        for workload in args.workloads:
            run_once(workload, 1, seconds, 1)
            point["traced"][workload] = json.loads(
                (BENCH / "out" / f"{workload}-trace1.json").read_text())
        args.write.parent.mkdir(parents=True, exist_ok=True)
        args.write.write_text(json.dumps(point, indent=2, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
