"""Independent brute-force oracles used by the test suite.

Everything here is written against the definitions, not against the library:
trial division, O(N^2) transforms, O(|B|^2) sumsets, exhaustive tuple
enumeration.  Slow on purpose.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def trial_primes(n: int) -> list[int]:
    out = []
    for q in range(2, n + 1):
        for d in range(2, int(math.isqrt(q)) + 1):
            if q % d == 0:
                break
        else:
            out.append(q)
    return out


def brute_phi(m: int) -> int:
    return sum(1 for x in range(m) if math.gcd(x, m) == 1)


def units_of(m: int) -> list[int]:
    return [x for x in range(m) if math.gcd(x, m) == 1]


def dft_oracle(values: np.ndarray) -> np.ndarray:
    n = len(values)
    out = np.zeros(n, dtype=complex)
    for xi in range(n):
        acc = 0j
        for x in range(n):
            acc += values[x] * np.exp(-2j * np.pi * xi * x / n)
        out[xi] = acc / n
    return out


def convolve_oracle(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    n = len(f)
    out = np.zeros(n)
    for x in range(n):
        out[x] = sum(f[y] * g[(x - y) % n] for y in range(n))
    return out


def bohr_double_average(values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """f1(x) = |B|^-2 sum over (y1, y2) in B^2 of f(x + y1 - y2)."""
    n = len(values)
    size = len(members)
    counts = np.zeros(n)
    for y1 in members:
        for y2 in members:
            counts[(int(y1) - int(y2)) % n] += 1.0
    out = np.zeros(n)
    for d in range(n):
        if counts[d]:
            out += counts[d] * np.roll(values, -d)
    return out / size**2


def sumset_enum(members, m: int) -> set[int]:
    return {(a + b) % m for a in members for b in members}


def int_sumset_enum(a, b) -> set[int]:
    return {x + y for x in a for y in b}


def rep_enum(members, m: int) -> np.ndarray:
    r = np.zeros(m, dtype=np.int64)
    for a in members:
        for b in members:
            r[(a + b) % m] += 1
    return r


def relaxed_rep_enum(members, m: int) -> np.ndarray:
    """R(x) = ordered pairs in B x Z_m* summing to x."""
    us = units_of(m)
    r = np.zeros(m, dtype=np.int64)
    for a in members:
        for u in us:
            r[(a + u) % m] += 1
    return r


def collision_weight(tup, prime_divisors) -> Fraction:
    k = len(tup)
    weight = Fraction(0)
    for p in prime_divisors:
        if len({x % p for x in tup}) <= k - 1:
            weight += Fraction(1, p)
    return weight


def pair_pieces_oracle(f, f1, f2, g, g1, g2, sigma: float) -> dict:
    """The per-pair route of the positivity argument: one full-length inverse
    transform for each of f1*g1, f1*g2, f2*g1 and f2*g2, with the main count
    against sigma min(mean(f), mean(g)) N and the mixed counts against a
    tenth of that."""
    n = len(f)
    level = sigma * min(float(np.sum(f)) / n, float(np.sum(g)) / n) * n
    main = np.fft.ifft(np.fft.fft(f1) * np.fft.fft(g1)).real
    out = {
        "main_l1": float(np.sum(np.abs(main))),
        "main_count": int(np.count_nonzero(main > level)),
    }
    for key, (a, b) in {"12": (f1, g2), "21": (f2, g1), "22": (f2, g2)}.items():
        conv = np.fft.ifft(np.fft.fft(a) * np.fft.fft(b)).real
        out[f"err{key}_count"] = int(np.count_nonzero(np.abs(conv) > level / 10.0))
        out[f"err{key}_l2sq"] = float(np.sum(conv * conv))
    return out


def aggregate_enum(part, eps: float) -> dict:
    """The per-residue pair densities of the good set, one ordered pair at a
    time in row-major order: the maximum with its first (smallest) witness,
    the fsum average, the pair count and the lower bound, as dicts keyed by
    the ascending residues x."""
    good = sorted(part.good)
    m = part.modulus.m
    delta_x: dict[int, float] = {}
    witness: dict[int, tuple[int, int]] = {}
    vals: dict[int, list[float]] = {}
    for b1 in good:
        for b2 in good:
            x = (b1 + b2) % m
            val = (part.delta_b[b1] + part.delta_b[b2]) / 2.0
            vals.setdefault(x, []).append(val)
            if x not in delta_x or val > delta_x[x]:
                delta_x[x] = val
                witness[x] = (b1, b2)
    reachable = sorted(vals)
    lower = sum(max(delta_x[x] - eps, 0.0) * part.n / m for x in reachable)
    return {
        "delta_x": {x: delta_x[x] for x in reachable},
        "witness": {x: witness[x] for x in reachable},
        "gamma_x": {x: math.fsum(vals[x]) / len(vals[x]) for x in reachable},
        "count_x": {x: len(vals[x]) for x in reachable},
        "contribution": {
            x: max(delta_x[x] - eps, 0.0) * part.n / m for x in reachable
        },
        "lower_bound": lower,
    }
