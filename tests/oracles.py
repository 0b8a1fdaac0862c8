"""Independent brute-force oracles used by the test suite.

Everything here is written against the definitions, not against the library:
trial division, O(N^2) transforms, O(|B|^2) sumsets.  Slow on purpose.
The report helpers at the end read a pipeline report or write it through
the library's own writer, rather than recompute it.
"""

from __future__ import annotations

import io
import math

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


def positive_support(f, g) -> int:
    """Number of points where the cyclic convolution f*g of two densities is
    positive: above 1e-9 of its natural scale max(1, ||f||_1 ||g||_1 / N), so
    that transform noise on an exact zero never counts as support."""
    vals = np.fft.ifft(np.fft.fft(f) * np.fft.fft(g)).real
    scale = max(1.0, float(np.sum(f)) * float(np.sum(g)) / len(f))
    return int(np.count_nonzero(vals > 1e-9 * scale))


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


def int_sumset_enum(a) -> set[int]:
    return {x + y for x in a for y in a}


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


def split_oracle(values: np.ndarray, eps0: float):
    """One density split by single-row transforms: the large spectrum from
    its own ``fft``, the Bohr set by the definition with a fresh distance row
    per frequency until it collapses to {0}, and f1 from a second ``fft`` of
    the values.  Returns (f1, members)."""
    n = values.size
    coeffs = np.fft.fft(values)
    coeffs /= n
    spectrum = np.flatnonzero(np.round(np.abs(coeffs), 12) >= eps0)
    x = np.arange(n)
    mask = np.ones(n, dtype=bool)
    for xi in spectrum.tolist():
        mask &= np.abs(np.exp((-2j * np.pi / n) * ((xi * x) % n)) - 1.0) <= eps0
        if np.count_nonzero(mask) == 1:
            break
    members = np.flatnonzero(mask)
    if members.size == 1:
        return values, members
    u = np.zeros(n)
    u[members] = 1.0
    mu = np.abs(np.fft.fft(u)) ** 2 / float(members.size) ** 2
    f1 = np.fft.ifft(np.fft.fft(values) * mu).real
    np.maximum(f1, 0.0, out=f1)
    return f1, members


def pair_plan_oracle(means, widths, eps0, split):
    """The pair plan one pair at a time: ``eps0_used`` per pair, the rows
    (c1, c2, s1, s2) of the pairs with a positive smaller mean, and the
    splits s they index, as (level, split) rows.  Class c's level is
    ``widths[c]``, and a pair works at the level of its smaller-mean class.
    Each class that such a pair reads is split by ``split(c, level)`` at
    its highest pair level, in class order; a side at a lower level takes
    that split when its Bohr set is {0}, and otherwise the split of (c,
    level), made once and given the next index.  Returns (eps0_used, live,
    splits)."""
    eps0_used, plan = [], []
    g = len(means)
    for c1 in range(g):
        for c2 in range(c1, g):
            small = c1 if means[c1] <= means[c2] else c2
            level = widths[small] if means[small] > 0.0 else eps0
            eps0_used.append(level)
            if means[small] > 0.0:
                plan.append((c1, c2, level))
    high: dict[int, float] = {}
    for c1, c2, level in plan:
        for c in (c1, c2):
            high[c] = max(high.get(c, level), level)
    keys, splits = {}, []
    for c in sorted(high):
        keys[c, high[c]] = len(splits)
        splits.append((high[c], split(c, high[c])))

    def split_at(c, level):
        key = (c, high[c])
        if splits[keys[key]][1].bohr.size > 1:
            key = (c, level)
        if key not in keys:
            keys[key] = len(splits)
            splits.append((level, split(c, level)))
        return keys[key]

    live = [(c1, c2, split_at(c1, level), split_at(c2, level)) for c1, c2, level in plan]
    return eps0_used, live, splits


def aggregate_enum(part, eps: float) -> dict:
    """The per-residue pair densities of the good set, one ordered pair at a
    time in row-major order: the maximum with its first (smallest) witness,
    the fsum average, the pair count and the lower bound, as dicts keyed by
    the ascending residues x."""
    good = part.units[part.good].tolist()
    delta_b = dict(zip(good, part.delta_b[part.good].tolist()))
    m = part.modulus.m
    delta_x: dict[int, float] = {}
    witness: dict[int, tuple[int, int]] = {}
    vals: dict[int, list[float]] = {}
    for b1 in good:
        for b2 in good:
            x = (b1 + b2) % m
            val = (delta_b[b1] + delta_b[b2]) / 2.0
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


def old_pair_columns(report) -> dict:
    """The 22 pair columns that a pipeline report held before its splits
    table, rebuilt from the pair and split tables, the per-class table and
    the summary with the dtypes and float operations that built them: the
    class means come from the splits (a class with no split has mean 0), a
    pair's level is eps0 clamped to ``split_level`` of its smaller class
    mean, and a side with no split reads 0."""
    from primesum.prime_embed import split_level

    pairs, splits, summary = report.pair_reports, report.splits, report.summary
    n, eps, eps0, sigma = (summary[k] for k in ("N", "eps", "eps0", "sigma"))
    good = np.array(summary["good_classes"], dtype=np.int64)
    c1, c2 = np.searchsorted(good, pairs["b1"]), np.searchsorted(good, pairs["b2"])
    mean = np.zeros(good.size)
    mean[np.searchsorted(good, splits["b"])] = splits["mean"]
    delta_b = dict(zip(report.per_class["b"], report.per_class["delta_b"]))
    delta = np.array([delta_b[b] for b in good.tolist()])
    caps = [split_level(sigma, x) for x in mean.tolist()]
    levels = np.array([min(eps0, cap) if cap > 0 else eps0 for cap in caps])
    small = np.where(mean[c1] <= mean[c2], c1, c2)
    alpha = mean[small]
    support_fraction = pairs["support_count"] / n
    target = (delta[c1] + delta[c2]) / 2.0 - eps
    main_fraction = pairs["main_count"] / n
    main_target = (mean[c1] + mean[c2]) / 2.0 - 3.0 * sigma

    def per_side(column, side):
        index = pairs[side]
        out = np.zeros(index.shape, dtype=splits[column].dtype)
        split = ~np.ma.getmaskarray(index)
        out[split] = splits[column][np.ma.getdata(index)[split]]
        return out

    return {
        "b1": pairs["b1"],
        "b2": pairs["b2"],
        "alpha": alpha,
        "beta": np.maximum(mean[c1], mean[c2]),
        "eps0_used": np.where(alpha > 0.0, levels[small], eps0),
        "support_fraction": support_fraction,
        "target_fraction": target,
        "passed": support_fraction >= target,
        "main_fraction": main_fraction,
        "main_target": main_target,
        "main_passed": main_fraction >= main_target,
        **{f"err{p}_count": pairs[f"err{p}_count"] for p in ("12", "21", "22")},
        "err_count_reference": np.full(c1.size, sigma * n),
        **{f"err{p}_l2sq": pairs[f"err{p}_l2sq"] for p in ("12", "21", "22")},
        "f1_max": per_side("f1_max", "split_f"),
        "g1_max": per_side("f1_max", "split_g"),
        "bohr_size_f": per_side("bohr_size", "split_f"),
        "bohr_size_g": per_side("bohr_size", "split_g"),
    }


def render_json(report) -> str:
    """The JSON text that ``write_report`` writes for ``report``."""
    from primesum.expcli.reports import write_report

    buf = io.StringIO()
    write_report(report, "json", buf)
    return buf.getvalue()


def render_csv(report) -> str:
    """The CSV text that ``write_report`` writes for ``report``."""
    from primesum.expcli.reports import write_report

    buf = io.StringIO()
    write_report(report, "csv", buf)
    return buf.getvalue()
