"""Print the sha256 of the CLI's stdout for a fixed list of argument vectors.

Each case runs in a fresh directory; for a case that writes ``--out FILE``
the hash covers FILE's bytes followed by stdout.  The first line reads
``# numpy VERSION``, since the reports hold FFT results whose last bits may
move with numpy; each further line reads ``name exit sha256[:16]``.  Running
the script on two checkouts and diffing the output shows whether a change
kept every report byte-identical:

    python3 scripts/report_hashes.py            # the checkout holding this file
    python3 scripts/report_hashes.py --repo DIR # another checkout's src/
    python3 scripts/report_hashes.py --diff DIR # and what differs from DIR

``tests/report_hashes.txt`` holds this output for the checkout it sits in,
and ``tests/test_report_hashes.py`` reruns every case against it; a change
that moves a report regenerates it in the same commit:

    python3 scripts/report_hashes.py > tests/report_hashes.txt

With ``--diff``, each case whose output differs from the one at DIR is
followed by the fields that differ: one indented line per dotted path (list
indices read ``*``) with the number of entries that differ and the largest
relative and absolute gap between numeric values, and the number of entries
found only at DIR or missing there.  A case that printed nothing on one side
reads "no output at DIR" or "output only at DIR".
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_CLI = "import sys; from primesum.expcli.cli import main; sys.exit(main(sys.argv[1:]))"

# the benchmark's two workloads (pairs-w7 also written by --out, as JSON and
# as CSV), then pipeline runs that cover the other branches: a requested eps0
# (also as CSV), a residue-filter subset, an empty subset (no good classes),
# an explicit k, a thinned subset, a sparse thinned
# subset whose exact integer sumset is counted pair by pair, a W=11 run whose
# 115,440 pairs convolve at a short length below the non-smooth N, levels
# where the Bohr sets are nontrivial, a W=7 run whose 1,176 pairs all have
# nontrivial Bohr sets, a run whose per-class table holds a NaN
# cell (rendered as null), and a run above n = 2 * 10^6, the size up to which
# the exact integer sumset was once counted; then the Z_m commands: a sumset
# small enough to be counted pair by pair and a dense one that takes the FFT,
# the units of Z_1000000, whose FFT runs at length m, and of the prime 999983,
# whose FFT runs at the padded 5-smooth length 2 * 10^6, a moments run and
# moments-k2 at k=2, the lowest order the CLI takes, the three routes of
# capital_R's unit-shift convolution: the odd 255255 (one transform pair at m,
# the unit spectrum in closed form), 20014 = 2 * 10007 (folded onto the prime
# 10007, padded to 20250) and the prime 999983 (padded); the CLI's largest
# primorial, 9699690, whose 166 members' counts fit one byte each; the edges
# of the fold of an even modulus m = 2n onto Z_n: m = 2 (n = 1), m = 6, a
# dense half of the units of Z_30, and the odd 15015, which runs unfolded; a
# non-squarefree modulus (rejected, exit 2) and a list: spec; simulate-random,
# a command that is gone (exit 2); and the one-class commands, which share the pipeline's prime
# table: sieve, partition, partition-residue (a filtered subset at W=7 with
# classes that are good, classes that are not and classes with no prime),
# spectrum, spectrum-w2 (W=2, whose off-peak reference is NaN), decompose, a
# spectrum whose --b is rejected (exit 2) and a W=13 spectrum past the
# pipeline's pair-work cap (exit 0: it runs no pairs); last a W=13 pipeline
# that the cap rejects (exit 2)
PAIRS_W7 = "pipeline --n 52815 --W 7 --rule random-thinning --delta 0.5 --seed"
MOMENTS = "znstar-bound --m 510510 --set-spec units-random:0.005:"
CASES = [
    ("pairs-w7-s1", f"{PAIRS_W7} 1"),
    ("pairs-w7-s2", f"{PAIRS_W7} 2"),
    ("pairs-w7-s3", f"{PAIRS_W7} 3"),
    ("pairs-w7-s2-csv", f"{PAIRS_W7} 2 --format csv"),
    ("pairs-w7-s2-out", f"{PAIRS_W7} 2 --out report.json"),
    ("pairs-w7-s2-csv-out", f"{PAIRS_W7} 2 --format csv --out report.csv"),
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
    ("pipeline-sparse-sumset",
     "pipeline --n 30000 --W 3 --rule random-thinning --delta 0.05"),
    ("pipeline-w11", "pipeline --n 200000 --W 11"),
    ("split-n3000",
     "pipeline --n 3000 --W 5 --eps0 1.0 --sigma 8 --rule random-thinning --delta 0.5"),
    ("split-n20000",
     "pipeline --n 20000 --W 5 --eps0 1.0 --sigma 6 --rule random-thinning --delta 0.5"),
    ("split-all-of-zn", "pipeline --n 3000 --W 3 --eps0 1.0 --sigma 20"),
    ("split-w7", "pipeline --n 100000 --W 7 --eps0 0.1 --sigma 8"),
    ("pipeline-nan-cell", "pipeline --n 3000 --W 2"),
    ("pipeline-n3e6", "pipeline --n 3000000 --W 5"),
    ("sumset-units-random", "sumset --m 30030 --set-spec units-random:0.1:3"),
    ("sumset-dense", "sumset --m 30030 --set-spec units"),
    ("sumset-units-1000000", "sumset --m 1000000 --set-spec units"),
    ("sumset-units-999983", "sumset --m 999983 --set-spec units"),
    ("moments-z30030", "moments --m 30030 --set-spec units-random:0.05:2 --k 3"),
    ("moments-k2", "moments --m 30030 --set-spec units-random:0.05:2 --k 2"),
    ("znstar-z255255", "znstar-bound --m 255255 --set-spec units-random:0.01:1"),
    ("znstar-z9699690", "znstar-bound --m 9699690 --set-spec units-random:0.0001:1"),
    ("moments-z20014", "moments --m 20014 --set-spec units-random:0.3:1 --k 3"),
    ("moments-z999983", "moments --m 999983 --set-spec units-random:0.001:1 --k 3"),
    ("moments-z2", "moments --m 2 --set-spec units --k 2"),
    ("znstar-z6", "znstar-bound --m 6 --set-spec units"),
    ("moments-z30-dense", "moments --m 30 --set-spec units-random:0.5:1 --k 3"),
    ("znstar-z15015", "znstar-bound --m 15015 --set-spec units-random:0.1:1"),
    ("znstar-non-squarefree", "znstar-bound --m 1800 --set-spec units-random:0.3:1"),
    ("znstar-list", "znstar-bound --m 30030 --set-spec list:1,17,19,23,29,31,37,41"),
    ("simulate-random-removed",
     "simulate-random --N 2000 --p 0.3 --alpha 0.5 --trials 3 --seed 1"),
    ("sieve-n100000", "sieve --n 100000"),
    ("partition-w5", "partition --n 100000 --W 5"),
    ("partition-residue", "partition --n 300 --W 7 --rule residue-filter:1:3"),
    ("spectrum-w5-b7", "spectrum --n 100000 --W 5 --b 7"),
    ("spectrum-w2", "spectrum --n 3000 --W 2 --b 1"),
    ("decompose-w3-b1", "decompose --n 100000 --W 3 --b 1 --eps0 0.05"),
    ("spectrum-rejected-b", "spectrum --n 1000 --W 5 --b 6"),
    ("spectrum-w13", "spectrum --n 300000 --W 13 --b 1"),
    ("pipeline-w13-rejected", "pipeline --n 300000 --W 13"),
]


def run_case(repo: Path, case: str) -> tuple[int, bytes]:
    """The exit code and stdout of the CLI on ``case``, run in a fresh
    directory; a case that names ``--out FILE`` puts FILE's bytes first."""
    env = dict(os.environ, PYTHONPATH=str(repo.resolve() / "src"))
    # older checkouts, run through --repo and --diff, still read this variable
    env.pop("PRIMESUM_THREADS", None)
    argv = case.split()
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-c", RUN_CLI, *argv],
            env=env,
            capture_output=True,
            check=False,
            cwd=cwd,
        )
        out = proc.stdout
        if "--out" in argv:
            path = Path(cwd, argv[argv.index("--out") + 1])
            out = (path.read_bytes() if path.exists() else b"") + out
    return proc.returncode, out


def numpy_header() -> str:
    """The first line of the output: the numpy version the cases run with."""
    return f"# numpy {importlib.metadata.version('numpy')}"


def hash_line(repo: Path, name: str, case: str) -> tuple[str, int, bytes]:
    """The output line ``name exit sha256[:16]`` of ``case`` run on
    ``repo``, with the exit code and the bytes it hashes."""
    code, out = run_case(repo, case)
    return f"{name} {code} {hashlib.sha256(out).hexdigest()[:16]}", code, out


def parse_output(text: str):
    """A report as nested dicts and lists: JSON as it is, sectioned CSV as
    {section: [row dicts]}, and ``key=value`` lines as [{key: value}]."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    if text.startswith("section,"):
        doc = {}
        for block in text.split("\n\n"):
            rows = list(csv.reader(io.StringIO(block)))
            doc[rows[0][1]] = [dict(zip(rows[1], row)) for row in rows[2:]]
        return doc
    return [dict(token.partition("=")[::2] for token in line.split())
            for line in text.splitlines()]


def flatten(value, path="", generic=""):
    """Yield (path, path with list indices as *, leaf value)."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from flatten(item, f"{path}.{key}", f"{generic}.{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from flatten(item, f"{path}[{index}]", f"{generic}[*]")
    else:
        yield path, generic, value


def as_float(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def field_diff(old: str, new: str, where: str = "DIR") -> list[str]:
    """One line per generic path whose leaves differ between the output
    ``old`` at the checkout ``where`` and the output ``new`` here; a leaf
    on one side only reads "only at" or "missing at" ``where``."""
    if not old:
        return [f"  no output at {where}"]
    if not new:
        return [f"  output only at {where}"]
    before, after = ({p: (g, v) for p, g, v in flatten(parse_output(text))}
                     for text in (old, new))
    stats: dict[str, list] = {}
    for path in [*before, *(p for p in after if p not in before)]:
        generic = (before.get(path) or after[path])[0]
        entry = stats.setdefault(generic, [0, 0, 0.0, 0.0, 0, 0])
        entry[1] += 1
        if path not in after:
            entry[4] += 1
        elif path not in before:
            entry[5] += 1
        elif before[path] != after[path]:
            entry[0] += 1
            x, y = as_float(before[path][1]), as_float(after[path][1])
            if x is None or y is None:
                entry[2] = entry[3] = float("inf")
            elif x != y:
                gap = abs(x - y)
                entry[2] = max(entry[2], gap / max(abs(x), abs(y)))
                entry[3] = max(entry[3], gap)
    lines = []
    for generic, (differ, total, rel, gap, only_old, only_new) in stats.items():
        parts = []
        if differ:
            parts.append(f"{differ} of {total} differ, max rel gap {rel:.3g}, "
                         f"max abs gap {gap:.3g}")
        if only_old:
            parts.append(f"{only_old} of {total} only at {where}")
        if only_new:
            parts.append(f"{only_new} of {total} missing at {where}")
        if parts:
            lines.append(f"  {generic.lstrip('.')}: " + "; ".join(parts))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repo",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="checkout whose src/ is put on PYTHONPATH",
    )
    parser.add_argument(
        "--diff",
        type=Path,
        metavar="DIR",
        help="another checkout to compare each case's output with",
    )
    args = parser.parse_args(argv)
    print(numpy_header(), flush=True)
    for name, case in CASES:
        line, code, out = hash_line(args.repo, name, case)
        print(line, flush=True)
        if args.diff is None:
            continue
        other_code, other = run_case(args.diff, case)
        if other_code != code:
            print(f"  exit code differs: {other_code} at {args.diff}", flush=True)
        if other != out:
            lines = field_diff(other.decode(), out.decode(), str(args.diff))
            print("\n".join(lines or ["  bytes differ, no field does"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
