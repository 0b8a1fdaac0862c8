"""Exact prime and multiplicative arithmetic.

Sieves, primorials, factorizations, totients and unit indicators.
Everything here is deterministic and exact; no probabilistic primality
tests are used anywhere.  Python integers are arbitrary precision, so
products such as primorials never wrap around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "PrimeTable",
    "FactoredModulus",
    "sieve_primes",
    "primorial",
    "factorize",
    "unit_indicator",
]


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to and including ``limit``, in ascending order."""

    limit: int
    primes: np.ndarray

    def __post_init__(self) -> None:
        self.primes.setflags(write=False)

    def __len__(self) -> int:
        return int(self.primes.size)

    def upto(self, limit: int) -> "PrimeTable":
        """The primes up to ``limit``, a view of this table's array."""
        if limit > self.limit:
            raise DomainError(f"prime table reaches {self.limit}, need {limit}")
        end = int(np.searchsorted(self.primes, limit, side="right"))
        return PrimeTable(limit=int(limit), primes=self.primes[:end])


@dataclass(frozen=True)
class FactoredModulus:
    """A positive integer together with its full prime factorization.

    ``primes`` is an ascending tuple of (prime, exponent) pairs; ``totient``
    and ``squarefree`` are derived once at construction.
    """

    m: int
    primes: tuple[tuple[int, int], ...]
    totient: int
    squarefree: bool

    @property
    def prime_divisors(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.primes)

    def divisors(self) -> list[int]:
        """All positive divisors of m, ascending."""
        divs = [1]
        for p, e in self.primes:
            divs = [d * p**i for d in divs for i in range(e + 1)]
        return sorted(divs)


def _modulus_from_pairs(pairs: tuple[tuple[int, int], ...]) -> FactoredModulus:
    m = 1
    tot = 1
    for p, e in pairs:
        m *= p**e
        tot *= p ** (e - 1) * (p - 1)
    return FactoredModulus(
        m=m,
        primes=pairs,
        totient=tot,
        squarefree=all(e == 1 for _, e in pairs),
    )


def sieve_primes(n: int) -> PrimeTable:
    """Enumerate all primes <= n (requires n >= 2)."""
    if n < 2:
        raise DomainError(f"sieve limit must be >= 2, got {n}")
    n = int(n)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return PrimeTable(limit=n, primes=np.flatnonzero(flags).astype(np.int64))


def primorial(w: int) -> FactoredModulus:
    """Product of all primes <= w, with its totient attached."""
    if w < 2:
        raise DomainError(f"primorial bound must be >= 2, got {w}")
    ps = sieve_primes(w).primes
    return _modulus_from_pairs(tuple((int(p), 1) for p in ps))


def factorize(m: int) -> FactoredModulus:
    """Complete factorization by trial division (exact, deterministic)."""
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    m = int(m)
    pairs: list[tuple[int, int]] = []
    rem = m
    d = 2
    while d * d <= rem:
        if rem % d == 0:
            e = 0
            while rem % d == 0:
                rem //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if rem > 1:
        pairs.append((rem, 1))
    return _modulus_from_pairs(tuple(pairs))


def unit_indicator(mod: FactoredModulus) -> np.ndarray:
    """[gcd(x, m) = 1] for every x in [0, m): one strided pass per prime
    divisor of m clears its multiples, so no gcd is evaluated."""
    units = np.ones(mod.m, dtype=bool)
    for p in mod.prime_divisors:
        units[::p] = False
    return units

