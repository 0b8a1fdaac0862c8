"""Print the sha256 of the CLI's stdout for a fixed list of argument vectors.

Each line reads ``name exit sha256[:16]``.  Running the script on two
checkouts and diffing the output shows whether a change kept every report
byte-identical:

    python3 scripts/report_hashes.py            # the checkout holding this file
    python3 scripts/report_hashes.py --repo DIR # another checkout's src/
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

RUN_CLI = "import sys; from primesum.expcli.cli import main; sys.exit(main(sys.argv[1:]))"

# the benchmark's two workloads, then pipeline runs that cover the other
# branches: a requested eps0 (also as CSV), a residue-filter subset, an empty
# subset (no good classes), an explicit k, a thinned subset, and levels where
# the Bohr sets are nontrivial; then the Z_m commands that build sets from
# member lists
PAIRS_W7 = "pipeline --n 52815 --W 7 --rule random-thinning --delta 0.5 --seed"
MOMENTS = "znstar-bound --m 510510 --set-spec units-random:0.005:"
CASES = [
    ("pairs-w7-s1", f"{PAIRS_W7} 1"),
    ("pairs-w7-s2", f"{PAIRS_W7} 2"),
    ("pairs-w7-s3", f"{PAIRS_W7} 3"),
    ("pairs-w7-s2-csv", f"{PAIRS_W7} 2 --format csv"),
    ("moments-z510510-s1", f"{MOMENTS}1"),
    ("moments-z510510-s2", f"{MOMENTS}2"),
    ("moments-z510510-s3", f"{MOMENTS}3"),
    ("pipeline-eps0", "pipeline --n 20000 --W 5 --eps0 0.05 --sigma 0.5"),
    ("pipeline-eps0-csv",
     "pipeline --n 20000 --W 5 --eps0 0.05 --sigma 0.5 --format csv"),
    ("pipeline-residue", "pipeline --n 30000 --W 3 --rule residue-filter:1:4"),
    ("pipeline-empty", "pipeline --n 30000 --W 3 --rule residue-filter:0:4"),
    ("pipeline-k4", "pipeline --n 100000 --W 5 --k 4"),
    ("pipeline-thin",
     "pipeline --n 200000 --W 5 --rule random-thinning --delta 0.3 --seed 4"),
    ("split-n3000",
     "pipeline --n 3000 --W 5 --eps0 1.0 --sigma 8 --rule random-thinning --delta 0.5"),
    ("split-n20000",
     "pipeline --n 20000 --W 5 --eps0 1.0 --sigma 6 --rule random-thinning --delta 0.5"),
    ("split-all-of-zn", "pipeline --n 3000 --W 3 --eps0 1.0 --sigma 20"),
    ("sumset-units-random", "sumset --m 30030 --set-spec units-random:0.1:3"),
    ("extremal-s6-t2", "extremal --s 6 --t 2"),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repo",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="checkout whose src/ is put on PYTHONPATH",
    )
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(args.repo / "src"))
    env.pop("PRIMESUM_THREADS", None)
    for name, case in CASES:
        proc = subprocess.run(
            [sys.executable, "-c", RUN_CLI, *case.split()],
            env=env,
            capture_output=True,
            check=False,
        )
        digest = hashlib.sha256(proc.stdout).hexdigest()[:16]
        print(f"{name} {proc.returncode} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
