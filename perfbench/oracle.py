"""Independent output oracle for the benchmark workloads.

It rebuilds each workload's input set from the same seed rule the CLI
documents (a seeded Philox shuffle), counts the sumset by its own route (a
plain numpy float convolution of indicator vectors, certified to round to
integers), and checks the CLI's report against it.  Nothing here uses N or
any primesum code, so a change of embedding length stays checkable.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np


def primes_upto(n: int) -> np.ndarray:
    """Primes <= n by a plain sieve of Eratosthenes."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def seeded_prefix(pool: np.ndarray, frac: float, seed: int) -> np.ndarray:
    """The sorted first ceil(frac |pool|) entries of a Philox(seed, 0) shuffle."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    return np.sort(rng.permutation(pool)[: math.ceil(frac * pool.size)])


def units_of(m: int) -> np.ndarray:
    return np.flatnonzero(np.gcd(np.arange(m), m) == 1).astype(np.int64)


def largest_prime_factor(n: int) -> int:
    if n < 2:
        return n
    largest, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            largest, n = p, n // p
        p += 1
    return max(largest, n) if n > 1 else largest


def _self_convolution_support(members: np.ndarray, length: int) -> np.ndarray:
    """Representation counts of members + members over 0..2*length-2."""
    ind = np.zeros(length)
    ind[members] = 1.0
    size = 1 << (2 * length - 2).bit_length()
    spectrum = np.fft.rfft(ind, size)
    conv = np.fft.irfft(spectrum * spectrum, size)[: 2 * length - 1]
    rounded = np.rint(conv)
    deviation = float(np.max(np.abs(conv - rounded)))
    if deviation >= 0.25:
        raise ArithmeticError(f"oracle convolution not certified ({deviation:.3g})")
    return rounded.astype(np.int64)


def integer_sumset_size(members: np.ndarray) -> int:
    """|A + A| over the integers for a set of nonnegative integers."""
    if members.size == 0:
        return 0
    return int(np.count_nonzero(_self_convolution_support(members, int(members[-1]) + 1)))


def cyclic_sumset_size(members: np.ndarray, m: int) -> int:
    """|B + B mod m| for a set of residues mod m."""
    if members.size == 0:
        return 0
    linear = _self_convolution_support(members, m)
    folded = linear[:m].copy()
    folded[: m - 1] += linear[m:]
    return int(np.count_nonzero(folded))


def expected_pipeline(n: int, w: int, delta: float, seed: int) -> dict:
    """Oracle values for ``pipeline --rule random-thinning`` at these settings."""
    subset = seeded_prefix(primes_upto(n), delta, seed)
    m = math.prod(p for p in range(2, w + 1) if all(p % q for q in range(2, p)))
    return {
        "m": m,
        "phi_m": int(units_of(m).size),
        "card": int(subset.size),
        "sumset": integer_sumset_size(subset),
    }


def expected_znstar(m: int, frac: float, seed: int) -> dict:
    """Oracle values for ``znstar-bound --set-spec units-random:frac:seed``."""
    units = units_of(m)
    chosen = seeded_prefix(units, frac, seed)
    return {
        "m": m,
        "phi_m": int(units.size),
        "card": int(chosen.size),
        "sumset": cyclic_sumset_size(chosen, m),
    }


def check_pipeline(report: str, expected: dict) -> tuple[list[str], dict]:
    """Problems found in a pipeline JSON report, and its workload descriptors."""
    doc = json.loads(report)
    summary = doc["tables"]["summary"]
    problems = [
        f"assert check {row['name']} did not pass"
        for row in doc["checks"]
        if row["kind"] == "assert" and row["passed"] is not True
    ]
    for key, want in (("m", "m"), ("phi_m", "phi_m"), ("subset_count", "card")):
        if summary[key] != expected[want]:
            problems.append(f"{key} {summary[key]} != oracle {expected[want]}")
    actual = summary["actual_sumset"]
    if actual != expected["sumset"]:
        problems.append(f"actual_sumset {actual} != oracle |A+A| {expected['sumset']}")
    if actual is None or not summary["lower_bound"] <= actual:
        problems.append(f"lower_bound {summary['lower_bound']} > actual_sumset {actual}")
    descriptors = {
        "m": summary["m"],
        "phi_m": summary["phi_m"],
        "N": summary["N"],
        "N_largest_prime_factor": largest_prime_factor(summary["N"]),
        "set_size": summary["subset_count"],
        "pair_count": len(doc["tables"]["pair_reports"]),
        "sumset_size": actual,
    }
    return problems, descriptors


_FIELD = re.compile(r"(\w+)=(\S*)")


def check_znstar(report: str, expected: dict) -> tuple[list[str], dict]:
    """Problems found in a ``znstar-bound`` text report, and its descriptors."""
    fields = dict(_FIELD.findall(report))
    problems = []
    try:
        m, card = int(fields["m"]), int(fields["card"])
        actual = int(fields["actual_cyclic"])
        final_bound = float(fields["final_bound"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable report: {exc!r}"], {}
    if (m, card) != (expected["m"], expected["card"]):
        problems.append(f"(m, |B|) = ({m}, {card}) != oracle")
    if actual != expected["sumset"]:
        problems.append(f"actual_cyclic {actual} != oracle |B+B| {expected['sumset']}")
    if not final_bound <= actual:
        problems.append(f"final_bound {final_bound} > actual_cyclic {actual}")
    descriptors = {
        "m": m,
        "phi_m": expected["phi_m"],
        "N": None,
        "N_largest_prime_factor": None,
        "set_size": card,
        "pair_count": None,
        "sumset_size": actual,
    }
    return problems, descriptors
