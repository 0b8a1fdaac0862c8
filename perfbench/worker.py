"""One fresh process: import the primesum CLI, optionally run one verification.

Usage (the benchmark starts it; ``src`` must be on ``PYTHONPATH``):

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py verify 0|1 <primesum CLI argv>

where the 0 or 1 says whether to trace.

The last stdout line is one JSON object: ``setup_s`` (seconds to import the
CLI), and for ``verify`` also ``rc``, ``error``, ``verify_s`` (from the parsed
argv to the report written), ``peak_rss_mb``, the report text and, when
traced, the spans and the names of the wrapped functions.  The CLI's own stdout goes
into an in-memory buffer, which is the report.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def peak_rss_mb() -> float:
    """This process's own peak resident memory (VmHWM, which exec resets).

    ``ru_maxrss`` is not used: Linux carries the parent's peak across exec,
    so it would report the benchmark's memory whenever that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    mode = sys.argv[1]

    t0 = time.perf_counter()
    from primesum.expcli import cli

    out: dict = {"setup_s": time.perf_counter() - t0}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    trace, cli_argv = sys.argv[2], sys.argv[3:]
    if trace == "1":
        from spans import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()
        out["wrapped"] = tracer.wrapped

    buf = io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(cli_argv)
    except Exception:  # a traceback is a failed verification, not a crash
        error = traceback.format_exc()
    out["verify_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = peak_rss_mb()
    out.update(rc=rc, error=error, report=buf.getvalue())
    if tracer is not None:
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0 if rc == 0 and error is None else 1


if __name__ == "__main__":
    sys.exit(main())
