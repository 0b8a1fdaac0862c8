"""Normalized Fourier analysis on Z_N, Bohr sets, and a structured/uniform
splitting of nonnegative densities.

Conventions used throughout:

* transforms carry a 1/N factor, so the zero coefficient of a function is its
  average value, and the inverse transform carries no factor;
* convolution is the plain cyclic sum (f*g)(x) = sum_y f(y) g(x - y), which
  becomes N * fhat * ghat on the transform side;
* transforms are computed with numpy's exact-length FFT, which handles prime
  and composite N alike;
* densities are the rows of one float array, checked once per call; ``dft``
  transforms them on each call, and ``split_densities`` transforms slices of
  the rows it splits in blocks and drops each block's transforms once its
  splits exist, so no transform outlives the operation that reads it;
* a split whose Bohr set is {0} is exact: f1 is f itself and f2 is zero;
* the pair kernel ``convolve_pairs`` works on half spectra: all inputs are
  real, so one ``rfft`` of the stacked densities and split parts serves every
  pair, and each block of pairs takes one ``irfft`` per convolved piece;
* densities that vanish past position h, with 2h < N, never wrap when
  convolved: f*g lives in [0, 2h], so ``convolve_pairs`` takes it as a linear
  convolution at ``smooth_length(2h + 1)`` when that is shorter than N, which
  is often prime or has a large prime factor.  The pieces of a split whose
  Bohr set is larger than {0} stay cyclic at N, because Bohr smoothing
  spreads f1 and f2 over all of Z_N.

Reductions use numpy's pairwise summation, whose order is fixed for a fixed
input, so repeated runs on the same data give bit-identical results.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation

__all__ = [
    "Decomposition",
    "PairConvolutions",
    "dft",
    "large_spectrum",
    "bohr_set",
    "split_densities",
    "l2sq_from_half_spectrum",
    "smooth_length",
    "convolve_pairs",
]

def _density_rows(values) -> np.ndarray:
    """``values`` as a (rows, N) float array of densities on one Z_N, N >= 1,
    finite and nonnegative."""
    try:
        rows = np.asarray(values, dtype=np.float64)
    except ValueError:
        raise DomainError("all densities must share one group order") from None
    if rows.ndim != 2 or rows.shape[1] < 1:
        raise DomainError(f"densities must be rows on Z_N, got shape {rows.shape}")
    # a NaN or an infinity reaches the minimum or the maximum
    lo, hi = rows.min(initial=0.0), rows.max(initial=0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DomainError("values must be finite")
    if lo < 0:
        raise DomainError("values must be nonnegative")
    return rows


@dataclass(frozen=True)
class Decomposition:
    """Split of a density into a smoothed part ``f1`` (nonnegative, same
    mean) and a spectrally small remainder ``f2 = f - f1``; ``bohr`` holds
    the members of the Bohr set B it was smoothed over, as ``bohr_set``
    returns them, so ``bohr.size`` is |B|."""

    f1: np.ndarray
    f2: np.ndarray
    bohr: np.ndarray

    def __post_init__(self) -> None:
        self.f1.setflags(write=False)
        self.f2.setflags(write=False)

    @property
    def f1_max(self) -> float:
        return float(np.max(self.f1))


def dft(densities) -> np.ndarray:
    """Normalized transforms of density rows, read-only: entry (r, xi) is
    (1/N) sum_x f_r(x) e(-x xi / N), for the frequencies xi = 0..N-1, from
    one ``fft`` of the rows per call."""
    rows = _density_rows(densities)
    coeffs = np.fft.fft(rows, axis=-1)
    coeffs /= rows.shape[1]
    coeffs.setflags(write=False)
    return coeffs


def large_spectrum(coeffs: np.ndarray, eps0: float) -> np.ndarray:
    """Frequencies whose coefficient magnitude reaches eps0, in ascending
    order, from a normalized transform such as ``dft`` returns.

    Magnitudes are rounded to 12 decimal digits before the comparison so that
    boundary cases are stable across platforms.
    """
    if not eps0 > 0:
        raise DomainError(f"spectrum threshold must be positive, got {eps0}")
    mags = np.round(np.abs(coeffs), 12)
    return np.flatnonzero(mags >= eps0)


@functools.lru_cache(maxsize=8)
def _character_gap(n: int, xi: int) -> np.ndarray:
    """|e(-x xi / N) - 1| for x = 0..N-1, read-only.  It depends on (N, xi)
    alone, so a pass that builds many Bohr sets computes each row once."""
    gap = np.abs(np.exp((-2j * np.pi * xi / n) * np.arange(n)) - 1.0)
    gap.setflags(write=False)
    return gap


def bohr_set(N: int, frequencies, eps0: float) -> np.ndarray:
    """Members x of Z_N with |e(-x xi / N) - 1| <= eps0 for every frequency,
    as an ascending read-only int64 array.

    ``frequencies`` is any iterable of ints, visited in the order given,
    each reduced mod N; the intersection depends on neither their order nor
    their repeats.  0 is always a member, so the set is never empty; once
    membership has collapsed to {0} no further frequency can change it, and
    the rest are never read.  The row of distances for each (N, xi mod N) is
    computed once and kept for the next sets while it is among the last
    eight used.
    """
    if N < 1:
        raise DomainError(f"N must be a positive integer, got {N}")
    if not (0 < eps0 <= 1):
        raise DomainError(f"width must lie in (0, 1], got {eps0}")
    mask = np.ones(N, dtype=bool)
    for xi in frequencies:
        mask &= _character_gap(N, int(xi) % N) <= eps0
        if np.count_nonzero(mask) == 1:
            break
    members = np.flatnonzero(mask).astype(np.int64)
    members.setflags(write=False)
    return members


# Bytes of transform temporaries one block may hold: a block of weights
# while the embedding checks them, of densities while they are split, of
# pairs while their inverse transforms run, or of an integer sumset's
# inverse transforms.
BLOCK_BYTES = 1 << 20


def block_rows(length: int) -> int:
    """Rows of transform length ``length`` that one block holds: a row holds
    about 32 bytes per point of its transform length at a time."""
    return max(1, BLOCK_BYTES // (32 * length))


def split_densities(densities, levels: Sequence[float]) -> list[Decomposition]:
    """Split each density row f, at its entry eps0 of ``levels``, into a
    Bohr-smoothed part f1 and a spectrally small remainder f2.

    f1 is the double average of f over differences of the Bohr set attached
    to the large spectrum at level eps0, realized on the transform side as
    multiplication by |sum_{y in B} e(-xi y / N)|^2 / |B|^2.  By construction
    f1 >= 0, f1 has the same mean as f, and every coefficient of f2 = f - f1
    is bounded by 2 eps0 max(1, ||fhat||_inf).  When the Bohr set is {0} the
    split is exact: f1 is the row f and f2 is 0.

    The densities are the rows of a 2-D float array, and slices of
    ``block_rows(N)`` of them are transformed in turn.  A block's
    transforms give the large spectrum of each of its densities and smooth
    those whose Bohr set is larger than {0}; they are dropped once the
    block's splits exist.  A row of a block transforms as the row alone, so
    every split is the one-density split, bit for bit.  Exact splits share
    one read-only zero array as f2.
    """
    return _split_rows(_density_rows(densities), levels)


def _split_rows(values: np.ndarray, levels: Sequence[float]) -> list[Decomposition]:
    """``split_densities`` of rows that ``_density_rows`` has checked."""
    if len(levels) != len(values):
        raise DomainError(f"{len(values)} densities but {len(levels)} levels")
    for level in levels:
        if not (0 < level <= 1):
            raise DomainError(f"spectrum threshold must lie in (0, 1], got {level}")
    count, n = values.shape
    zero = np.zeros(n)
    size = block_rows(n)
    splits = []
    for lo in range(0, count, size):
        block = values[lo : lo + size]
        spectra = np.fft.fft(block, axis=-1)
        for f, level, spectrum in zip(block, levels[lo : lo + size], spectra):
            bohr = bohr_set(n, large_spectrum(spectrum / n, level), level)
            if bohr.size == 1:
                # B = {0} makes the multiplier 1 at every frequency: f1 is f
                splits.append(Decomposition(f1=f, f2=zero, bohr=bohr))
                continue
            u = np.zeros(n)
            u[bohr] = 1.0
            mu = np.abs(np.fft.fft(u)) ** 2 / float(bohr.size) ** 2
            f1 = np.fft.ifft(spectrum * mu).real
            np.maximum(f1, 0.0, out=f1)
            mean = float(np.sum(f)) / n
            mean_gap = abs(float(np.sum(f1)) / n - mean)
            if mean_gap > 1e-9 * max(1.0, mean):
                raise InvariantViolation(
                    f"smoothing failed to preserve the mean (gap {mean_gap:.3g})"
                )
            splits.append(Decomposition(f1=f1, f2=f - f1, bohr=bohr))
    return splits


@dataclass(frozen=True)
class PairConvolutions:
    """Per-pair results of ``convolve_pairs``: ``support`` counts the points
    where f*g is positive, above 1e-9 of max(1, ||f||_1 ||g||_1 / N),
    ``main_count`` those where f1*g1 exceeds sigma alpha N, alpha the smaller
    of mean(f) and mean(g), and ``main_l1`` is ||f1*g1||_1.  Columns 0, 1, 2
    of ``error_count`` and ``error_l2sq`` are f1*g2, f2*g1 and f2*g2: the
    points where |f_i*g_j| exceeds a tenth of the main threshold, and
    ||f_i*g_j||_2^2.  Columns 0 and 1 of ``bohr_size`` and ``f1_max`` are
    the Bohr set size and the largest value of f1 of the splits of f and g
    at the pair's level."""

    support: np.ndarray
    main_count: np.ndarray
    main_l1: np.ndarray
    error_count: np.ndarray
    error_l2sq: np.ndarray
    bohr_size: np.ndarray
    f1_max: np.ndarray


def l2sq_from_half_spectrum(h_half: np.ndarray, n: int) -> np.ndarray:
    """||h||_2^2 of real functions h on Z_N from their ``rfft`` rows, by
    Parseval: an interior bin stands for two conjugate frequencies and counts
    twice; bin 0 and, when N is even, the Nyquist bin count once."""
    weights = np.full(h_half.shape[-1], 2.0)
    weights[[0, -1] if n % 2 == 0 else 0] = 1.0
    return (h_half.real**2 + h_half.imag**2) @ weights / n


def smooth_length(n: int) -> int:
    """The smallest 5-smooth integer >= n (1 for n <= 1): a length whose
    transforms run fast."""
    best = 1 << max(n - 1, 0).bit_length()
    five = 1
    while five < best:
        three = five
        while three < best:
            two = three
            while two < n:
                two *= 2
            best = min(best, two)
            three *= 3
        five *= 5
    return best


def _require_close(got: np.ndarray, expected: np.ndarray, message: str) -> None:
    """Raise unless every entry of ``got`` lies within 1e-9 of ``expected``,
    relative to max(1, |got|, |expected|)."""
    scale = np.maximum(1.0, np.maximum(np.abs(got), np.abs(expected)))
    far = np.flatnonzero(~(np.abs(got - expected) <= 1e-9 * scale))
    if far.size:
        a, b = float(got[far[0]]), float(expected[far[0]])
        raise InvariantViolation(f"{message} ({a!r} vs {b!r})")


def convolve_pairs(
    densities,
    levels: Sequence[float],
    pairs,
    pair_levels,
    sigma: float,
    *,
    sums: np.ndarray,
) -> PairConvolutions:
    """Split the densities and convolve the pieces of many pairs of them,
    block by block.

    The densities are the rows of a 2-D float array.  Row (i, j) of
    ``pairs`` pairs f = densities[i] with g = densities[j], each split at
    the pair's entry of ``pair_levels``.  Each density is split at its own
    entry of ``levels``, and a side takes that split when it was made at the
    pair's level, or when it is exact and the pair's level is lower: a lower
    level adds frequencies and narrows the width, so a Bohr set of {0} stays
    {0}.  Every other (density, level) is split once, in one more batch of
    the rows, which are checked once, on entry.  A row splits as the row
    alone, so a pair's results do not depend on the other pairs.

    Every pair's f*g comes first.  When all densities vanish past position h
    and 2h < N, f*g is a linear convolution supported in [0, 2h]: the
    columns [0, h] of the densities take one ``rfft`` at
    L = ``smooth_length(2h + 1)`` (N when L >= N), each block of pairs one
    ``irfft`` at L, and the counts and L1 sums read entries [0, 2h] only,
    since the others are 0 in exact arithmetic.  A pair whose two splits are
    exact has f1 = f, g1 = g and f2 = g2 = 0, so f*g is also f1*g1 and its
    mixed pieces are exactly 0.  The other pairs take four more inverses,
    all cyclic at N: f1*g1 and the three mixed pieces, from length-N
    ``rfft``s of the densities and of f1 and f2 of each split whose Bohr set
    is larger than {0} (Bohr smoothing spreads those over all of Z_N).  A
    block holds ``block_rows`` pairs at its longest transform length; the
    blocks run in pair order.

    ``sums`` are the row sums ``densities.sum(axis=1)``, which the caller
    has already made; they give the masses and the means.

    Raises InvariantViolation unless every pair has
    ||f1*g1||_1 = ||f1||_1 ||g1||_1 (all parts nonnegative) and every computed
    mixed piece has ||f_i*g_j||_2^2 = N^3 sum_xi |fhat_i|^2 |ghat_j|^2.
    """
    values = _density_rows(densities)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    splits = _split_rows(values, levels)
    # sides[p] indexes the splits of the two sides of pair p
    sides = pairs.copy()
    side_level = np.repeat(np.asarray(pair_levels, dtype=np.float64), 2).reshape(-1, 2)
    own = np.asarray(levels, dtype=np.float64)[sides]
    exact = np.array([d.bohr.size == 1 for d in splits], dtype=bool)
    again = ~((side_level == own) | (exact[sides] & (side_level < own)))
    if again.any():
        # one row (density, level) per split to make; levels lie in (0, 1],
        # so equal floats are equal bits
        keys = np.stack([sides[again], side_level[again]], axis=-1)
        keys, inverse = np.unique(keys, axis=0, return_inverse=True)
        sides[again] = len(splits) + inverse.reshape(-1)
        splits += _split_rows(values[keys[:, 0].astype(int)], keys[:, 1].tolist())
    bohr_size = np.array([d.bohr.size for d in splits], dtype=np.int64)
    exact = bohr_size == 1
    parts = [d for d, e in zip(splits, exact) if not e]
    g, n = values.shape
    k = len(parts)
    # f*g lies in [0, 2 top] and wraps only when 2 top >= N: its entries
    # [0, span) are those of the length-``short`` transform
    top = int(np.flatnonzero(values.any(axis=0)).max(initial=0))
    span = min(2 * top + 1, n)
    short = min(smooth_length(span), n)
    # only the columns [0, top] are read: rfft pads them with the zeros that
    # follow, up to ``short``
    first_spec = np.fft.rfft(values[:, : top + 1], short)
    mean = sums / n
    # spectra at N: the densities, f1 and f2 of each inexact split, then zeros
    spec, mass = None, sums
    if k:
        pieces = np.array([d.f1 for d in parts] + [d.f2 for d in parts] + [np.zeros(n)])
        spec = np.empty((g + len(pieces), n // 2 + 1), dtype=np.complex128)
        spec[:g] = np.fft.rfft(values, axis=-1)
        spec[g:] = np.fft.rfft(pieces, axis=-1)
        mass = np.concatenate([sums, pieces[:k].sum(axis=1)])
    part_row = np.cumsum(~exact) - 1
    i, j = pairs.T
    s, t = sides.T
    one_f, one_g = (np.where(exact[x], y, g + part_row[x]) for x, y in ((s, i), (t, j)))
    two_f, two_g = (np.where(exact[x], g + 2 * k, g + k + part_row[x]) for x in (s, t))
    total = len(pairs)
    out = PairConvolutions(
        support=np.zeros(total, dtype=np.int64),
        main_count=np.zeros(total, dtype=np.int64),
        main_l1=np.zeros(total),
        error_count=np.zeros((total, 3), dtype=np.int64),
        error_l2sq=np.zeros((total, 3)),
        bohr_size=bohr_size[sides],
        f1_max=np.array([d.f1_max for d in splits])[sides],
    )
    size = block_rows(n if k else short)

    def convolve(spectra, length, a, b):
        prod = spectra[a]
        prod *= spectra[b]
        return prod, np.fft.irfft(prod, length, axis=-1)

    for lo in range(0, total, size):
        block = slice(lo, lo + size)
        level = sigma * np.minimum(mean[i[block]], mean[j[block]]) * n
        first = convolve(first_spec, short, i[block], j[block])[1][:, :span]
        scale = np.maximum(1.0, mass[i[block]] * mass[j[block]] / n)
        out.support[block] = np.count_nonzero(first > 1e-9 * scale[:, None], axis=-1)
        main_l1, main_count = out.main_l1[block], out.main_count[block]
        main_l1[:] = np.sum(np.abs(first), axis=-1)
        main_count[:] = np.count_nonzero(first > level[:, None], axis=-1)
        rest = np.flatnonzero(~(exact[s[block]] & exact[t[block]]))
        if rest.size:
            a, b, x, y = (col[block][rest] for col in (one_f, one_g, two_f, two_g))
            cut = level[rest, None]
            _, main = convolve(spec, n, a, b)
            main_l1[rest] = np.sum(np.abs(main), axis=-1)
            main_count[rest] = np.count_nonzero(main > cut, axis=-1)
            for c, (u, v) in enumerate(((a, y), (x, b), (x, y))):
                prod, conv = convolve(spec, n, u, v)
                l2sq = np.sum(conv * conv, axis=-1)
                _require_close(
                    l2sq,
                    l2sq_from_half_spectrum(prod, n),
                    f"L2 identity failed for pieces {('(1,2)', '(2,1)', '(2,2)')[c]}",
                )
                out.error_l2sq[block][rest, c] = l2sq
                out.error_count[block][rest, c] = np.count_nonzero(
                    np.abs(conv) > cut / 10.0, axis=-1
                )
        _require_close(
            main_l1,
            mass[one_f[block]] * mass[one_g[block]],
            "L1 mass of the smoothed convolution deviates from the product of masses",
        )
    return out
