"""Residue-class partitions of prime subsets and their weighted embeddings
into Z_N.

A subset A of the primes up to n is split along the reduced residue classes
of a primorial modulus m.  Each class embeds into Z_N (N about 4n/m) through
x -> (prime - b) / m, carrying a log weight normalized so that the
all-class weight has average close to 1, and its restriction f to A.  One
pass writes every class's f as a row of one (classes, N) array, with the
checks of its weight: the mass of f against delta_b / 16, and the weight's
zero-mode error and largest off-zero coefficient; the weight itself is not
kept.  The rows of f feed the spectral machinery from `zn_spectral` as
they are; everything asymptotic (weight mass, spectral flatness, pair
supports) is reported, never asserted.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation
from .ntheory import FactoredModulus, PrimeTable, unit_indicator
from .zn_spectral import block_rows, convolve_pairs

__all__ = [
    "ResiduePartition",
    "EmbeddedClasses",
    "DeltaAggregate",
    "partition_and_densities",
    "choose_N",
    "embedding_limit",
    "embed_class",
    "embed_classes",
    "pair_sumset_columns",
    "aggregate_delta",
]


@dataclass(frozen=True)
class ResiduePartition:
    """A prime subset split along the reduced residues of a primorial, as
    read-only columns aligned with the ascending int64 ``units``: each
    class's ``members`` of A, its ``prime_count``, its density ``delta_b``
    (0.0 for a class with no primes) and the ``good`` mask of the classes at
    least half as dense as A (all False when delta = 0).  The residual
    counts take the primes dividing the modulus, so totals reconcile exactly.
    """

    n: int
    w: int
    modulus: FactoredModulus
    units: np.ndarray
    members: tuple[np.ndarray, ...]
    prime_count: np.ndarray
    delta_b: np.ndarray
    delta: float
    good: np.ndarray
    residual_primes: int
    residual_a: int

    def row(self, b: int) -> int:
        """The position of the class of b among the ``units``; raises
        DomainError unless b is a reduced residue of the modulus."""
        r = int(np.searchsorted(self.units, b))
        if r == self.units.size or self.units[r] != b:
            raise DomainError(f"{b} is not a reduced residue of {self.modulus.m}")
        return r


@dataclass(frozen=True)
class EmbeddedClasses:
    """Residue classes mapped into Z_N, as columns aligned with the
    partition's ``units`` (or holding the one class of ``embed_class``):
    log-weighted densities and the checks of their weights, never asserted.

    The weight nu of b is (phi(m) / m) log(m x + b) on the positions x in
    [1, N] with m x + b prime (position N wraps to 0), and b's row of the
    read-only (classes, N) array ``f`` is nu restricted to the positions from
    A.  ``mass`` is the compensated sum of the row over N, which its readers
    hold against the class's delta_b / 16.  ``zero_mode_error`` is the distance
    of nu's normalized zero mode from 1 and ``offpeak_sup`` its largest
    off-zero coefficient; the asymptotic reference 2 loglog w / w (NaN below
    w = 3) is ``offpeak_reference``.
    """

    f: np.ndarray
    mass: tuple[float, ...]
    zero_mode_error: tuple[float, ...]
    offpeak_sup: tuple[float, ...]
    offpeak_reference: float


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
    subset = np.asarray(a_members, dtype=np.int64)
    at = np.searchsorted(primes, subset)
    if np.any(primes[np.minimum(at, primes.size - 1)] != subset):
        raise DomainError(f"members must all be primes <= {table.limit}")
    in_a = np.zeros(primes.size, dtype=bool)
    in_a[at] = True

    # the primes dividing m are the primes up to w; every other prime lies
    # in a unit class
    n_residual = int(np.searchsorted(primes, w, side="right"))
    units = np.flatnonzero(unit_indicator(mod)).astype(np.int64)
    in_classes = _by_residue(primes, mod.m, units)
    members = tuple(primes[in_class[in_a[in_class]]] for in_class in in_classes)
    prime_count = np.array([in_class.size for in_class in in_classes], dtype=np.int64)

    if int(prime_count.sum()) + n_residual != primes.size:
        raise InvariantViolation("residue classes fail to cover the primes")

    # a class with no primes has no members either: its density is 0 / 1
    delta_b = np.array([a_arr.size for a_arr in members]) / np.maximum(prime_count, 1)
    delta = int(np.count_nonzero(in_a)) / primes.size
    # An empty subset has no good classes; the >= delta/2 rule would
    # otherwise admit every class vacuously.
    good = (delta_b >= delta / 2) & (delta > 0.0)
    for column in (units, prime_count, delta_b, good, *members):
        column.setflags(write=False)
    return ResiduePartition(
        n=table.limit,
        w=w,
        modulus=mod,
        units=units,
        members=members,
        prime_count=prime_count,
        delta_b=delta_b,
        delta=delta,
        good=good,
        residual_primes=n_residual,
        residual_a=int(np.count_nonzero(in_a[:n_residual])),
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
    r: int,
    in_class: np.ndarray,
    nu_row: np.ndarray,
    f_row: np.ndarray,
) -> None:
    """Write the weight of the class b at row r of the partition and its
    restriction to A into the zeroed length-N rows ``nu_row`` and ``f_row``;
    ``in_class`` holds the primes m x + b, x in [1, N], in ascending order."""
    b = int(part.units[r])
    m = part.modulus.m
    phi = part.modulus.totient
    big_n = nu_row.size
    xs = (in_class - b) // m
    positions = np.where(xs == big_n, 0, xs)
    lam = (phi / (m * big_n)) * np.log(in_class.astype(np.float64))
    nu_row[positions] = big_n * lam

    a_class = part.members[r]
    a_eligible = a_class[a_class >= m + b]
    a_xs = (a_eligible - b) // m
    if a_xs.size and int(a_xs.max()) > big_n:
        raise InvariantViolation("subset member escaped the embedding window")
    a_positions = np.where(a_xs == big_n, 0, a_xs)
    f_row[a_positions] = nu_row[a_positions]


def _embed(
    part: ResiduePartition, big_n: int, rows: Sequence[int], in_classes: Iterable
) -> EmbeddedClasses:
    """Embed the partition's classes at ``rows`` into Z_N, N = ``big_n``, in
    one pass; ``in_classes`` yields each class's primes m x + b, x in [1, N],
    ascending.

    Each f is written into its row of one (classes, N) array; no f is
    transformed here.  The weights are written in blocks of ``block_rows(N)``
    rows; each block is transformed once, read for the checks of its classes
    and dropped, so no weight is kept.
    """
    w = part.w
    reference = 2.0 * math.log(math.log(w)) / w if w >= 3 else math.nan
    size = block_rows(big_n)
    f = np.zeros((len(rows), big_n))
    zero_mode, offpeak = [], []
    pending = zip(rows, in_classes)
    for lo in range(0, len(rows), size):
        block = list(itertools.islice(pending, size))
        nu = np.zeros((len(block), big_n))
        for nu_row, f_row, (r, in_class) in zip(nu, f[lo:], block):
            _embed_rows(part, r, in_class, nu_row, f_row)
        coeffs = np.fft.fft(nu, axis=-1)
        coeffs /= big_n
        for row in coeffs:
            zero_mode.append(float(abs(row[0] - 1.0)))
            offpeak.append(float(np.max(np.abs(row[1:]))))
    f.setflags(write=False)
    # fsum is correctly rounded and zeros add nothing, so each mass sums the
    # support of its row only
    return EmbeddedClasses(
        f=f,
        mass=tuple(math.fsum(row[row != 0.0].tolist()) / big_n for row in f),
        zero_mode_error=tuple(zero_mode),
        offpeak_sup=tuple(offpeak),
        offpeak_reference=reference,
    )


def embed_class(part: ResiduePartition, b: int, table: PrimeTable) -> EmbeddedClasses:
    """Map the class of b into Z_N, N = choose_N(n, m), with its log weight.

    Positions x run over 1..N (x = N wraps to residue 0); the weight needs
    primality of m x + b up to m N + b, which the table must reach.
    """
    r = part.row(b)
    m = part.modulus.m
    big_n = choose_N(part.n, m)
    in_class = _window(table, m + b, m * big_n + b)
    return _embed(part, big_n, [r], [in_class[in_class % m == b]])


def embed_classes(part: ResiduePartition, table: PrimeTable) -> EmbeddedClasses:
    """Every unit class embedded as ``embed_class`` embeds it, in order.

    The primes m x + b, x in [1, N], of all classes are the table's primes in
    [m, m N + m), split once by a stable sort by residue.
    """
    m = part.modulus.m
    units = part.units
    big_n = choose_N(part.n, m)
    window = _window(table, m, m * big_n + int(units[-1]))
    in_classes = _by_residue(window, m, units)
    return _embed(part, big_n, range(units.size), (window[c] for c in in_classes))


def split_level(sigma: float, density: float) -> float:
    """The paper's level sigma^6 density^4 / 400, in Python float arithmetic:
    numpy's power rounds some of these levels differently."""
    return sigma**6 * density**4 / 400.0


def pair_sumset_columns(
    part: ResiduePartition, emb: EmbeddedClasses, eps0: float, sigma: float
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Bound the sumset of every unordered pair of the good classes c1 < c2
    < ..., in the order (c1, c1), (c1, c2), ..., (c2, c2), ..., and return
    the pair columns and the split columns as 1-D int64 or float64 arrays.
    The rows of ``emb`` align with the units; the good ones go to
    ``convolve_pairs`` with their row sums, summed once here: the
    embedding's own array when every class is good, as in an all-primes
    run, and a copy of the good rows otherwise.

    Each class has its own level: eps0 clamped down to ``split_level`` of
    its mean when that cap is positive.  A pair works at the level of the
    class with the smaller mean, and ``convolve_pairs`` splits both at it.
    A pair row holds ``b1``, ``b2``, the indices ``split_f`` and ``split_g``
    of its sides' splits and the exact counts of f * g (``support_count``),
    of f1 * g1 above sigma alpha N, alpha the smaller class mean
    (``main_count``), and of the mixed pieces above a tenth of that, with
    their squared L2 norms (``err12_count``, ..., ``err22_l2sq``).  A pair
    with an all-zero density runs nothing: its split indices are masked and
    its counts 0.  A split row holds ``b``, ``level``, ``bohr_size``,
    ``f1_max`` and the class's ``mean``.
    """
    if not sigma > 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if not eps0 > 0:
        raise DomainError(f"eps0 must be positive, got {eps0}")
    if len(emb.f) != part.units.size:
        raise DomainError("the embedding's rows must align with the partition's units")
    f = emb.f if part.good.all() else emb.f[part.good]
    n = f.shape[1]
    sums = f.sum(axis=1)
    mean = sums / n
    caps = [split_level(sigma, x) for x in mean.tolist()]
    levels = np.array([min(eps0, cap) if cap > 0 else eps0 for cap in caps])

    # the pairs in row-major order; a pair works at the level of its class
    # with the smaller mean, and one whose smaller mean is 0 runs nothing
    c1, c2 = np.triu_indices(len(f))
    small = np.where(mean[c1] <= mean[c2], c1, c2)
    live = mean[small] > 0.0
    conv = convolve_pairs(
        f, np.stack([c1[live], c2[live]], axis=-1), levels[small[live]], sigma, sums=sums
    )

    def scatter(values: np.ndarray) -> np.ndarray:
        out = np.zeros(c1.shape + values.shape[1:], dtype=values.dtype)
        out[live] = values
        return out

    b = part.units[part.good]
    error_count, error_l2sq = scatter(conv.error_count), scatter(conv.error_l2sq)
    split_f, split_g = scatter(conv.sides).T
    if not live.all():  # null indices, and the numpy.ma import, only here
        split_f, split_g = (np.ma.masked_array(x, mask=~live) for x in (split_f, split_g))
    pairs = {
        "b1": b[c1],
        "b2": b[c2],
        "split_f": split_f,
        "split_g": split_g,
        "support_count": scatter(conv.support),
        "main_count": scatter(conv.main_count),
        **{f"err{p}_count": error_count[:, k] for k, p in enumerate(("12", "21", "22"))},
        **{f"err{p}_l2sq": error_l2sq[:, k] for k, p in enumerate(("12", "21", "22"))},
    }
    splits = {
        "b": b[conv.split_row],
        "level": conv.split_level,
        "bohr_size": conv.bohr_size,
        "f1_max": conv.f1_max,
        "mean": mean[conv.split_row],
    }
    return pairs, splits


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

    The ordered good pairs are visited one row b1 at a time, in ascending
    order.  A row meets each residue at most once, so its densities scatter
    without collisions into per-residue runs, and a maximum replaced only by
    a strictly larger density keeps the smallest witness.  Witness pairs are
    chosen by density alone, which is symmetric in the pair order.  Apart
    from the runs of densities themselves, the memory is O(m).
    """
    if not 0 < eps < 1:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    good = part.units[part.good]
    if not good.size:
        raise DomainError("the good set is empty; nothing to aggregate")
    m = part.modulus.m
    counts = np.zeros(m, dtype=np.int64)
    for b1 in good.tolist():
        counts[(b1 + good) % m] += 1
    x = np.flatnonzero(counts)
    count = counts[x]
    # slot[r] is where the next density with residue r goes
    slot = np.cumsum(counts) - counts
    starts = slot[x]
    value = np.empty(good.size**2)
    best = np.full(m, -np.inf)
    witness = np.zeros(m, dtype=np.int64)
    density = part.delta_b[part.good]
    for b1, d1 in zip(good.tolist(), density.tolist()):
        r = (b1 + good) % m
        v = (d1 + density) / 2.0
        value[slot[r]] = v
        slot[r] += 1
        up = v > best[r]
        hit = r[up]
        best[hit] = v[up]
        witness[hit] = b1
    delta = best[x]
    # fsum is correctly rounded, so the order within a group does not matter
    bounds = zip(starts.tolist(), (starts + count).tolist())
    gamma = np.array([math.fsum(value[lo:hi].tolist()) for lo, hi in bounds]) / count
    contribution = np.maximum(delta - eps, 0.0) * part.n / m
    return DeltaAggregate(
        x=x,
        delta=delta,
        witness_b1=witness[x],
        witness_b2=(x - witness[x]) % m,
        gamma=gamma,
        count=count,
        contribution=contribution,
        lower_bound=sum(contribution.tolist()),
    )
