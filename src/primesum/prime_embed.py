"""Residue-class partitions of prime subsets and their weighted embeddings
into Z_N.

A subset A of the primes up to n is split along the reduced residue classes
of a primorial modulus m.  Each class embeds into Z_N (N about 4n/m) through
x -> (prime - b) / m, carrying a log-weighted density normalized so that the
all-class weight has average close to 1.  The embedded densities feed the
spectral machinery from `zn_spectral`; everything asymptotic (weight mass,
spectral flatness, support fractions) is reported with explicit pass flags
rather than asserted.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation
from .ntheory import FactoredModulus, PrimeTable, unit_indicator
from .zn_spectral import (
    PAIR_BLOCK_BYTES,
    Decomposition,
    DensityFunction,
    convolve_pairs,
    green_decompose,
    stacked_densities,
)

__all__ = [
    "ResiduePartition",
    "EmbeddedClass",
    "MassCheck",
    "PseudorandomDeficit",
    "DeltaAggregate",
    "partition_and_densities",
    "choose_N",
    "embedding_limit",
    "embed_class",
    "embed_classes",
    "embedding_mass_check",
    "pseudorandom_deficit",
    "pseudorandom_deficits",
    "class_decomposition",
    "pair_sumset_columns",
    "aggregate_delta",
]


@dataclass(frozen=True)
class ResiduePartition:
    """A prime subset split along the reduced residues of a primorial.

    ``classes`` maps each unit b to the pair (members of A in the class,
    all primes in the class); primes dividing the modulus sit in the
    residual arrays so that totals reconcile exactly.
    """

    n: int
    w: int
    modulus: FactoredModulus
    classes: dict[int, tuple[np.ndarray, np.ndarray]]
    delta_b: dict[int, float]
    delta: float
    good: frozenset[int]
    residual_primes: np.ndarray
    residual_a: np.ndarray

    @property
    def units(self) -> list[int]:
        return sorted(self.classes)


@dataclass(frozen=True)
class EmbeddedClass:
    """One residue class mapped into Z_N with its log-weighted densities.

    ``nu`` is the weight (phi(m) / m) log(m x + b) on the positions x in
    [1, N] with m x + b prime (position N wraps to 0), and ``f`` is ``nu``
    restricted to the positions coming from A.
    """

    b: int
    N: int
    nu: DensityFunction
    f: DensityFunction
    delta_b: float
    w: int


def _by_residue(values: np.ndarray, m: int, residues: np.ndarray) -> list[np.ndarray]:
    """For each of the ascending ``residues``, the indices of the ``values``
    congruent to it mod m, from one stable sort by residue, so each class
    keeps the order of ``values``."""
    res = values % m
    order = np.argsort(res, kind="stable")
    starts, ends = np.searchsorted(res[order], [residues, residues + 1]).tolist()
    return [order[start:end] for start, end in zip(starts, ends)]


def partition_and_densities(
    a_members, table: PrimeTable, w: int, mod: FactoredModulus
) -> ResiduePartition:
    """Split A (a set of primes in the table) along the reduced residues mod
    ``mod``, the primorial of w, with per-class and global densities; n is
    the table's limit.

    A class with no primes at all gets density 0 by convention.  The good
    set collects classes at least half as dense as A itself.
    """
    if table.limit < 2:
        raise DomainError(f"need n >= 2, got {table.limit}")
    primes = table.primes
    members = np.asarray(list(a_members), dtype=np.int64)
    at = np.searchsorted(primes, members)
    if np.any(primes[np.minimum(at, primes.size - 1)] != members):
        raise DomainError(f"members must all be primes <= {table.limit}")
    in_a = np.zeros(primes.size, dtype=bool)
    in_a[at] = True

    # the primes dividing m are the primes up to w; every other prime lies
    # in a unit class
    n_residual = int(np.searchsorted(primes, w, side="right"))
    units = np.flatnonzero(unit_indicator(mod))
    classes = {}
    for b, in_class in zip(units.tolist(), _by_residue(primes, mod.m, units)):
        classes[b] = (primes[in_class[in_a[in_class]]], primes[in_class])

    covered = sum(p_arr.size for _, p_arr in classes.values()) + n_residual
    if covered != primes.size:
        raise InvariantViolation("residue classes fail to cover the primes")

    delta_b = {
        b: (a_arr.size / p_arr.size) if p_arr.size else 0.0
        for b, (a_arr, p_arr) in classes.items()
    }
    delta = int(np.count_nonzero(in_a)) / primes.size
    # An empty subset has no good classes; the >= delta/2 rule would
    # otherwise admit every class vacuously.
    if delta == 0.0:
        good = frozenset()
    else:
        good = frozenset(b for b in classes if delta_b[b] >= delta / 2)
    return ResiduePartition(
        n=table.limit,
        w=w,
        modulus=mod,
        classes=classes,
        delta_b=delta_b,
        delta=delta,
        good=good,
        residual_primes=primes[:n_residual].copy(),
        residual_a=primes[:n_residual][in_a[:n_residual]],
    )


def choose_N(n: int, m: int) -> int:
    """Embedding length floor(4n/m), which always lands in (2n/m, 4n/m]."""
    if n < 1 or m < 1:
        raise DomainError(f"need positive n and m, got n={n}, m={m}")
    if 4 * n < 2 * m:
        raise DomainError(
            f"modulus {m} too large for n={n}: the embedding would be empty"
        )
    big_n = (4 * n) // m
    if not (big_n * m > 2 * n and big_n * m <= 4 * n):
        raise InvariantViolation(f"embedding length {big_n} fell outside its window")
    return big_n


def embedding_limit(n: int, m: int) -> int:
    """m N + m, N = choose_N(n, m): the prime table every class embeds against."""
    return m * choose_N(n, m) + m


def _window(table: PrimeTable, lo: int, hi: int) -> np.ndarray:
    """The table's primes in [lo, hi]; the table must reach hi."""
    if table.limit < hi:
        raise DomainError(f"prime table reaches {table.limit}, need {hi}")
    primes = table.primes
    return primes[np.searchsorted(primes, lo) : np.searchsorted(primes, hi, "right")]


def _embed_rows(
    part: ResiduePartition,
    b: int,
    in_class: np.ndarray,
    nu_row: np.ndarray,
    f_row: np.ndarray,
) -> None:
    """Write the class of b's weight and its restriction to A into the zeroed
    length-N rows ``nu_row`` and ``f_row``; ``in_class`` holds the primes
    m x + b, x in [1, N], in ascending order."""
    m = part.modulus.m
    phi = part.modulus.totient
    big_n = nu_row.size
    xs = (in_class - b) // m
    positions = np.where(xs == big_n, 0, xs)
    lam = (phi / (m * big_n)) * np.log(in_class.astype(np.float64))
    nu_row[positions] = big_n * lam

    a_class = part.classes[b][0]
    a_eligible = a_class[a_class >= m + b]
    a_xs = (a_eligible - b) // m
    if a_xs.size and int(a_xs.max()) > big_n:
        raise InvariantViolation("subset member escaped the embedding window")
    a_positions = np.where(a_xs == big_n, 0, a_xs)
    f_row[a_positions] = nu_row[a_positions]


def _embedded(
    part: ResiduePartition, b: int, nu_row: np.ndarray, f: DensityFunction
) -> EmbeddedClass:
    nu = DensityFunction(N=f.N, values=nu_row)
    return EmbeddedClass(b=b, N=f.N, nu=nu, f=f, delta_b=part.delta_b[b], w=part.w)


def embed_class(part: ResiduePartition, b: int, table: PrimeTable) -> EmbeddedClass:
    """Map the class of b into Z_N, N = choose_N(n, m), with its log weight.

    Positions x run over 1..N (x = N wraps to residue 0); the weight needs
    primality of m x + b up to m N + b, which the table must reach.
    """
    if b not in part.classes:
        raise DomainError(f"{b} is not a reduced residue of {part.modulus.m}")
    m = part.modulus.m
    big_n = choose_N(part.n, m)
    in_class = _window(table, m + b, m * big_n + b)
    nu_vals, f_vals = np.zeros(big_n), np.zeros(big_n)
    _embed_rows(part, b, in_class[in_class % m == b], nu_vals, f_vals)
    return _embedded(part, b, nu_vals, DensityFunction(N=big_n, values=f_vals))


def embed_classes(
    part: ResiduePartition, table: PrimeTable
) -> dict[int, EmbeddedClass]:
    """Every unit class embedded as ``embed_class`` embeds it, by class.

    The primes m x + b, x in [1, N], of all classes are the table's primes in
    [m, m N + m), split once by a stable sort by residue.  The weights and
    densities are written into the rows of two (phi(m), N) arrays, each class
    holds views of its rows, and every f holds its row of one stacked
    transform.
    """
    m = part.modulus.m
    big_n = choose_N(part.n, m)
    units = np.array(part.units, dtype=np.int64)
    window = _window(table, m, m * big_n + int(units[-1]))
    nu = np.zeros((units.size, big_n))
    f = np.zeros((units.size, big_n))
    for row, (b, in_class) in enumerate(
        zip(units.tolist(), _by_residue(window, m, units))
    ):
        _embed_rows(part, b, window[in_class], nu[row], f[row])
    return {
        b: _embedded(part, b, nu_row, f_b)
        for b, nu_row, f_b in zip(units.tolist(), nu, stacked_densities(f))
    }


@dataclass(frozen=True)
class MassCheck:
    """Compensated weight mass over the embedded subset against the
    one-sixteenth density floor."""

    b: int
    mass: float
    threshold: float
    passed: bool


def embedding_mass_check(ec: EmbeddedClass) -> MassCheck:
    """Sum the weight over the embedded subset (compensated summation) and
    compare with delta_b / 16.  Reported, never asserted."""
    mass = math.fsum(ec.f.values.tolist()) / ec.N
    threshold = ec.delta_b / 16.0
    return MassCheck(b=ec.b, mass=mass, threshold=threshold, passed=mass >= threshold)


@dataclass(frozen=True)
class PseudorandomDeficit:
    """Spectral flatness of the all-class weight: distance of the zero mode
    from 1 and the largest off-zero coefficient, with the asymptotic
    reference 2 loglog w / w alongside."""

    b: int
    zero_mode_error: float
    offpeak_sup: float
    reference_bound: float


def pseudorandom_deficit(ec: EmbeddedClass) -> PseudorandomDeficit:
    return pseudorandom_deficits([ec])[0]


def pseudorandom_deficits(
    classes: Sequence[EmbeddedClass],
) -> list[PseudorandomDeficit]:
    """The deficit of each class, all of one length N, from the normalized
    transform of its weight ``nu``.

    The weights are transformed in stacked blocks of at most
    ``PAIR_BLOCK_BYTES`` of temporaries (about 32 bytes per point), and each
    block is dropped once read: no weight transform is kept.
    """
    lengths = sorted({ec.N for ec in classes})
    if len(lengths) > 1:
        raise DomainError(f"mismatched embedding lengths {lengths}")
    n = lengths[0] if lengths else 1
    size = max(1, PAIR_BLOCK_BYTES // (32 * n))
    out = []
    for lo in range(0, len(classes), size):
        block = classes[lo : lo + size]
        coeffs = np.fft.fft(np.array([ec.nu.values for ec in block]), axis=-1)
        coeffs /= n
        for ec, row in zip(block, coeffs):
            w = ec.w
            out.append(
                PseudorandomDeficit(
                    b=ec.b,
                    zero_mode_error=float(abs(row[0] - 1.0)),
                    offpeak_sup=float(np.max(np.abs(row[1:]))) if n > 1 else 0.0,
                    reference_bound=(
                        2.0 * math.log(math.log(w)) / w if w >= 3 else math.nan
                    ),
                )
            )
    return out


def class_decomposition(ec: EmbeddedClass, eps0: float, sigma: float) -> Decomposition:
    """Split the class density at eps0 clamped down to sigma^6 mean^4 / 400."""
    cap = sigma**6 * ec.f.mean() ** 4 / 400.0
    return green_decompose(ec.f, min(eps0, cap) if cap > 0 else eps0)


def pair_sumset_columns(
    classes: Sequence[EmbeddedClass],
    eps: float,
    eps0: float,
    sigma: float,
) -> dict[str, list]:
    """Bound the sumset of every unordered pair of the classes, in the order
    (c1, c1), (c1, c2), ..., (c2, c2), ..., and return the report columns.

    Each class is split once at its own level (``class_decomposition``).  A
    pair works at the level of the class with the smaller mean; the other
    class is split again at that level unless its Bohr set is {0}, and each
    (class, level) split is made once.  The support of f * g is reported
    against the mean class density minus eps; the smoothed main term is
    counted against sigma alpha N, alpha the smaller class mean (the row's
    ``alpha``), and the mixed pieces against a tenth of that.  A pair with an
    all-zero density has nothing to decompose: every count is 0.  The last
    column, ``support_count``, is the exact count behind
    ``support_fraction``.
    """
    lengths = sorted({ec.N for ec in classes})
    if len(lengths) > 1:
        raise DomainError(f"mismatched embedding lengths {lengths}")
    if not 0 < eps < 1:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    if not sigma > 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if not eps0 > 0:
        raise DomainError(f"eps0 must be positive, got {eps0}")
    n = lengths[0] if lengths else 1
    means = [ec.f.mean() for ec in classes]
    splits = [class_decomposition(ec, eps0, sigma) for ec in classes]
    keys = {(c, d.bohr.width): c for c, d in enumerate(splits)}

    def split_at(c: int, level: float) -> int:
        # a lower level adds frequencies and narrows the width over the same
        # floats, so a Bohr set of {0} stays {0}: the same split, bit for bit
        key = (c, splits[c].bohr.width if splits[c].bohr.size == 1 else level)
        if key not in keys:
            keys[key] = len(splits)
            splits.append(green_decompose(classes[c].f, level))
        return keys[key]

    pairs = [(c1, c2) for c1 in range(len(classes)) for c2 in range(c1, len(classes))]
    eps0_used, live = [], []
    for c1, c2 in pairs:
        small = c1 if means[c1] <= means[c2] else c2
        level = splits[small].bohr.width if means[small] > 0.0 else eps0
        eps0_used.append(level)
        if means[small] > 0.0:
            live.append((c1, c2, split_at(c1, level), split_at(c2, level)))
    conv = convolve_pairs([ec.f for ec in classes], splits, live, sigma)

    c1, c2 = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    b = np.array([ec.b for ec in classes], dtype=np.int64)
    mean, delta = np.array(means), np.array([ec.delta_b for ec in classes])
    alpha = np.minimum(mean[c1], mean[c2])
    f1_max = np.array([d.f1_max for d in splits])
    bohr_size = np.array([d.bohr.size for d in splits], dtype=np.int64)
    s1, s2 = np.array([pair[2:] for pair in live], dtype=np.int64).reshape(-1, 2).T

    def scatter(values, dtype=np.float64) -> np.ndarray:
        out = np.zeros((len(pairs),) + np.shape(values)[1:], dtype=dtype)
        out[alpha > 0.0] = values
        return out

    support = scatter(conv.support, np.int64)
    target = (delta[c1] + delta[c2]) / 2.0 - eps
    main_fraction = scatter(conv.main_count, np.int64) / n
    main_target = (mean[c1] + mean[c2]) / 2.0 - 3.0 * sigma
    error_count = scatter(conv.error_count, np.int64)
    error_l2sq = scatter(conv.error_l2sq)
    pieces = ("12", "21", "22")
    columns = {
        "b1": b[c1],
        "b2": b[c2],
        "alpha": alpha,
        "beta": np.maximum(mean[c1], mean[c2]),
        "eps0_used": eps0_used,
        "support_fraction": support / n,
        "target_fraction": target,
        "passed": support / n >= target,
        "main_fraction": main_fraction,
        "main_target": main_target,
        "main_passed": main_fraction >= main_target,
        **{f"err{p}_count": error_count[:, k] for k, p in enumerate(pieces)},
        "err_count_reference": np.full(len(pairs), sigma * n),
        **{f"err{p}_l2sq": error_l2sq[:, k] for k, p in enumerate(pieces)},
        "f1_max": scatter(f1_max[s1]),
        "g1_max": scatter(f1_max[s2]),
        "bohr_size_f": scatter(bohr_size[s1], np.int64),
        "bohr_size_g": scatter(bohr_size[s2], np.int64),
        "support_count": support,
    }
    return {name: np.asarray(values).tolist() for name, values in columns.items()}


@dataclass(frozen=True)
class DeltaAggregate:
    """Best pair density for each reachable residue of the sumset, as arrays
    aligned with ``x``, the ascending residues of G + G.

    The pair density of an ordered pair (b1, b2) of good classes with
    b1 + b2 = x mod m is the mean of the two class densities.  ``delta`` is
    the largest of them, ``(witness_b1, witness_b2)`` the lexicographically
    smallest pair attaining it, ``gamma`` their average and ``count`` the
    number of ordered pairs.  ``contribution`` is max(delta - eps, 0) n / m
    and the lower bound adds it up over all x.
    """

    x: np.ndarray
    delta: np.ndarray
    witness_b1: np.ndarray
    witness_b2: np.ndarray
    gamma: np.ndarray
    count: np.ndarray
    contribution: np.ndarray
    lower_bound: float


def aggregate_delta(part: ResiduePartition, eps: float) -> DeltaAggregate:
    """Aggregate pair densities over the good set into per-residue maxima,
    averages and pair counts.

    One stable sort groups the ordered good pairs, in row-major order, by
    residue, so each group keeps ascending (b1, b2) and its first maximum is
    the smallest witness.  Witness pairs are chosen by density alone, which
    is symmetric in the pair order.
    """
    if not 0 < eps < 1:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    good = np.array(sorted(part.good), dtype=np.int64)
    if not good.size:
        raise DomainError("the good set is empty; nothing to aggregate")
    m = part.modulus.m
    # b1 + b2 < 2m: the narrowest type keeps the residues small and sorts
    # 16-bit keys by radix
    narrow = good.astype(np.min_scalar_type(2 * m))
    residue = ((narrow[:, None] + narrow) % m).ravel()
    order = np.argsort(residue, kind="stable")
    counts = np.bincount(residue, minlength=m)
    del residue
    x = np.flatnonzero(counts)
    count = counts[x]
    starts = np.cumsum(count) - count
    density = np.array([part.delta_b[b] for b in good.tolist()])
    value = ((density[:, None] + density) / 2.0).ravel()[order]
    delta = np.maximum.reduceat(value, starts)
    hits = np.flatnonzero(value == np.repeat(delta, count))
    first = order[hits[np.searchsorted(hits, starts)]]
    # fsum is correctly rounded, so the order within a group does not matter
    bounds = zip(starts.tolist(), (starts + count).tolist())
    gamma = np.array([math.fsum(value[lo:hi].tolist()) for lo, hi in bounds]) / count
    contribution = np.maximum(delta - eps, 0.0) * part.n / m
    return DeltaAggregate(
        x=x,
        delta=delta,
        witness_b1=good[first // good.size],
        witness_b2=good[first % good.size],
        gamma=gamma,
        count=count,
        contribution=contribution,
        lower_bound=sum(contribution.tolist()),
    )
