"""Normalized Fourier analysis on Z_N, Bohr sets, and a structured/uniform
splitting of nonnegative densities.

Conventions used throughout:

* transforms carry a 1/N factor, so the zero coefficient of a function is its
  average value, and the inverse transform carries no factor;
* convolution is the plain cyclic sum (f*g)(x) = sum_y f(y) g(x - y), which
  becomes N * fhat * ghat on the transform side;
* transforms are computed with numpy's exact-length FFT, which handles prime
  and composite N alike;
* a density holds its own unnormalized transform ``np.fft.fft(values)``,
  computed on first use (its values are read-only), and every transform-side
  operation reads it, so each density is transformed at most once.

Reductions use numpy's pairwise summation, whose order is fixed for a fixed
input, so repeated runs on the same data give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InvariantViolation

__all__ = [
    "DensityFunction",
    "Spectrum",
    "BohrSet",
    "Decomposition",
    "ConvolutionProofReport",
    "indicator",
    "constant",
    "dft",
    "inverse_dft",
    "convolve",
    "lp_fourier_norm",
    "large_spectrum",
    "bohr_set",
    "green_decompose",
    "positive_support",
    "convolution_proof_quantities",
]

@dataclass(frozen=True)
class DensityFunction:
    """A nonnegative real function on Z_N, stored pointwise."""

    N: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if self.N < 1:
            raise DomainError(f"N must be a positive integer, got {self.N}")
        if vals.ndim != 1 or vals.size != self.N:
            raise DomainError(
                f"values must be a length-{self.N} vector, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("values must be finite")
        if np.any(vals < 0):
            raise DomainError("values must be nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def mean(self) -> float:
        return float(np.sum(self.values)) / self.N

    def l1(self) -> float:
        return float(np.sum(self.values))

    @cached_property
    def transform(self) -> np.ndarray:
        """Unnormalized transform sum_x f(x) e(-x xi / N), read-only."""
        coeffs = np.fft.fft(self.values)
        coeffs.setflags(write=False)
        return coeffs


@dataclass(frozen=True)
class Spectrum:
    """Fourier coefficients of a function on Z_N under the 1/N-normalized
    transform, indexed by frequency 0..N-1."""

    N: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 1 or c.size != self.N:
            raise DomainError(
                f"coeffs must be a length-{self.N} vector, got shape {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True)
class BohrSet:
    """Points of Z_N at which every listed frequency stays within ``width``
    of the trivial character: |e(-x xi / N) - 1| <= width for all xi."""

    N: int
    width: float
    members: np.ndarray

    def __post_init__(self) -> None:
        self.members.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self.members.size)


@dataclass(frozen=True)
class Decomposition:
    """Split of a density into a smoothed part ``f1`` (nonnegative, same
    mean) and a spectrally small remainder ``f2 = f - f1``."""

    f1: DensityFunction
    f2: np.ndarray
    bohr: BohrSet
    sigma: float

    def __post_init__(self) -> None:
        self.f2.setflags(write=False)

    @property
    def f1_max(self) -> float:
        return float(np.max(self.f1.values)) if self.f1.N else 0.0

    @cached_property
    def f2_transform(self) -> np.ndarray:
        """Unnormalized transform of ``f2``, read-only, computed on first use."""
        coeffs = np.fft.fft(self.f2)
        coeffs.setflags(write=False)
        return coeffs


def indicator(N: int, points) -> DensityFunction:
    """0/1 indicator density of a subset of Z_N."""
    vals = np.zeros(N, dtype=np.float64)
    for x in points:
        x = int(x)
        if not 0 <= x < N:
            raise DomainError(f"point {x} outside Z_{N}")
        vals[x] = 1.0
    return DensityFunction(N=N, values=vals)


def constant(N: int, value: float) -> DensityFunction:
    return DensityFunction(N=N, values=np.full(N, float(value)))


def dft(f: DensityFunction) -> Spectrum:
    """Normalized transform: coeffs[xi] = (1/N) sum_x f(x) e(-x xi / N)."""
    return Spectrum(N=f.N, coeffs=f.transform / f.N)


def inverse_dft(spec: Spectrum) -> np.ndarray:
    """Pointwise reconstruction f(x) = sum_xi coeffs[xi] e(x xi / N).

    Returns the real part; for spectra of real functions the imaginary part
    is at rounding level.
    """
    return np.fft.ifft(spec.coeffs * spec.N).real


def convolve(f: DensityFunction, g: DensityFunction) -> DensityFunction:
    """Cyclic convolution (f*g)(x) = sum_y f(y) g(x - y)."""
    if f.N != g.N:
        raise DomainError(f"mismatched group orders {f.N} and {g.N}")
    vals = np.fft.ifft(f.transform * g.transform).real
    # rounding can leave tiny negatives on a mathematically nonnegative result
    np.maximum(vals, 0.0, out=vals)
    return DensityFunction(N=f.N, values=vals)


def lp_fourier_norm(f: DensityFunction, s: float) -> float:
    """(sum_xi |fhat(xi)|^s)^(1/s) for s > 2."""
    if not s > 2:
        raise DomainError(f"spectral norm exponent must exceed 2, got {s}")
    mags = np.abs(dft(f).coeffs)
    return float(np.sum(mags**s) ** (1.0 / s))


def large_spectrum(f: DensityFunction, eps0: float) -> np.ndarray:
    """Frequencies whose coefficient magnitude reaches eps0, in ascending order.

    Magnitudes are rounded to 12 decimal digits before the comparison so that
    boundary cases are stable across platforms.
    """
    if not eps0 > 0:
        raise DomainError(f"spectrum threshold must be positive, got {eps0}")
    mags = np.round(np.abs(dft(f).coeffs), 12)
    return np.flatnonzero(mags >= eps0)


def bohr_set(N: int, frequencies, eps0: float) -> BohrSet:
    """Members x of Z_N with |e(-x xi / N) - 1| <= eps0 for every frequency.

    ``frequencies`` is any iterable of ints, such as the array returned by
    ``large_spectrum``.  0 is always a member, so the set is never empty; once
    membership has collapsed to {0} no further frequency can change it.
    """
    if N < 1:
        raise DomainError(f"N must be a positive integer, got {N}")
    if not (0 < eps0 <= 1):
        raise DomainError(f"width must lie in (0, 1], got {eps0}")
    freqs = np.unique(np.fromiter(frequencies, dtype=np.int64) % N)
    x = np.arange(N)
    mask = np.ones(N, dtype=bool)
    for xi in freqs.tolist():
        mask &= np.abs(np.exp((-2j * np.pi * xi / N) * x) - 1.0) <= eps0
        if np.count_nonzero(mask) == 1:
            break
    members = np.flatnonzero(mask).astype(np.int64)
    return BohrSet(N=N, width=eps0, members=members)


def green_decompose(f: DensityFunction, eps0: float, sigma: float) -> Decomposition:
    """Split f into a Bohr-smoothed part and a spectrally small remainder.

    f1 is the double average of f over differences of the Bohr set attached
    to the large spectrum at level eps0, realized on the transform side as
    multiplication by |sum_{y in B} e(-xi y / N)|^2 / |B|^2.  By construction
    f1 >= 0, f1 has the same mean as f, and every coefficient of f2 = f - f1
    is bounded by 2 eps0 max(1, ||fhat||_inf).
    """
    if not (0 < eps0 <= 1):
        raise DomainError(f"spectrum threshold must lie in (0, 1], got {eps0}")
    if not sigma > 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    n = f.N
    bohr = bohr_set(n, large_spectrum(f, eps0), eps0)
    u = np.zeros(n)
    u[bohr.members] = 1.0
    mu = np.abs(np.fft.fft(u)) ** 2 / float(bohr.size) ** 2
    f1_vals = np.fft.ifft(f.transform * mu).real
    np.maximum(f1_vals, 0.0, out=f1_vals)
    f1 = DensityFunction(N=n, values=f1_vals)
    mean_gap = abs(f1.mean() - f.mean())
    if mean_gap > 1e-9 * max(1.0, f.mean()):
        raise InvariantViolation(
            f"smoothing failed to preserve the mean (gap {mean_gap:.3g})"
        )
    f2 = f.values - f1_vals
    return Decomposition(f1=f1, f2=f2, bohr=bohr, sigma=sigma)


def positive_support(f: DensityFunction, g: DensityFunction, threshold: float) -> int:
    """Number of points where (f*g) exceeds ``threshold``.

    At threshold 0, values within 1e-9 of zero relative to the convolution's
    natural scale are clamped first so that transform noise on an exact zero
    never counts as support.
    """
    if f.N != g.N:
        raise DomainError(f"mismatched group orders {f.N} and {g.N}")
    if threshold < 0:
        raise DomainError(f"threshold must be nonnegative, got {threshold}")
    vals = np.fft.ifft(f.transform * g.transform).real
    if threshold == 0:
        scale = max(1.0, f.l1() * g.l1() / f.N)
        vals = np.where(np.abs(vals) <= 1e-9 * scale, 0.0, vals)
    return int(np.count_nonzero(vals > threshold))


@dataclass(frozen=True)
class ConvolutionProofReport:
    """Exact bookkeeping for the four cross convolutions of two splits.

    ``main_l1`` is ||f1*g1||_1 and ``error_l2sq`` holds ||f_i * g_j||_2^2 for
    the three mixed pieces, both checked against their identities; counts are
    against sigma alpha N (main) and sigma alpha N / 10 (error pieces).
    """

    N: int
    main_l1: float
    main_count: int
    error_l2sq: dict[str, float]
    error_counts: dict[str, int]
    error_count_reference: float


def _rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def convolution_proof_quantities(
    f: DensityFunction,
    g: DensityFunction,
    decomp_f: Decomposition,
    decomp_g: Decomposition,
) -> ConvolutionProofReport:
    """Compute and verify the convolution quantities used by the positivity
    argument for a pair of decomposed densities.

    Raises InvariantViolation if either exactly-true identity fails:
    ||f1*g1||_1 = ||f1||_1 ||g1||_1 (all parts nonnegative), or
    ||f_i*g_j||_2^2 = N^3 sum_xi |fhat_i|^2 |ghat_j|^2.
    """
    n = f.N
    if g.N != n or decomp_f.f1.N != n or decomp_g.f1.N != n:
        raise DomainError("all inputs must share one group order")
    sigma = decomp_f.sigma
    alpha = f.mean()

    # each piece is transformed once per split; every convolution and L2
    # identity below is built from these four spectra
    spec_f = {1: decomp_f.f1.transform, 2: decomp_f.f2_transform}
    spec_g = {1: decomp_g.f1.transform, 2: decomp_g.f2_transform}

    conv_main = np.fft.ifft(spec_f[1] * spec_g[1]).real
    main_l1 = float(np.sum(np.abs(conv_main)))
    main_l1_expected = decomp_f.f1.l1() * decomp_g.f1.l1()
    if not _rel_close(main_l1, main_l1_expected):
        raise InvariantViolation(
            "L1 mass of the smoothed convolution deviates from the product "
            f"of masses ({main_l1!r} vs {main_l1_expected!r})"
        )
    main_count = int(np.count_nonzero(conv_main > sigma * alpha * n))

    error_l2sq: dict[str, float] = {}
    error_counts: dict[str, int] = {}
    error_threshold = sigma * alpha * n / 10.0
    for i, j in ((1, 2), (2, 1), (2, 2)):
        conv = np.fft.ifft(spec_f[i] * spec_g[j]).real
        l2sq = float(np.sum(conv * conv))
        expected = float(
            n**3 * np.sum(np.abs(spec_f[i] / n) ** 2 * np.abs(spec_g[j] / n) ** 2)
        )
        if not _rel_close(l2sq, expected):
            raise InvariantViolation(
                f"L2 identity failed for pieces ({i},{j}): {l2sq!r} vs {expected!r}"
            )
        key = f"{i}{j}"
        error_l2sq[key] = l2sq
        error_counts[key] = int(np.count_nonzero(np.abs(conv) > error_threshold))

    return ConvolutionProofReport(
        N=n,
        main_l1=main_l1,
        main_count=main_count,
        error_l2sq=error_l2sq,
        error_counts=error_counts,
        error_count_reference=sigma * n,
    )
