"""Experiment configuration objects and subset rules.

Configs are plain dataclasses validated once up front; every run is fully
determined by (config, seed).  Every seeded draw, the random-thinning rule
and the CLI's random set specs alike, goes through ``seeded_thinning``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..ntheory import PrimeTable
from ..prime_embed import split_level

__all__ = [
    "MAX_N",
    "SubsetRule",
    "ExperimentConfig",
    "parse_rule",
    "build_subset",
    "seeded_thinning",
    "check_moment_order",
]

# the desk-scale cap on n, which the CLI also puts on sieve's n and on the
# Z_m commands' m
MAX_N = 10_000_000


def check_moment_order(k: int) -> None:
    """Reject a moment order outside [2, 32], the range in which the moment
    comparator's m^k and |B|^k (m <= 2 * 10^7) stay finite floats."""
    if not 2 <= k <= 32:
        raise ConfigurationError(f"k must lie in [2, 32], got {k}")


@dataclass(frozen=True)
class SubsetRule:
    """How the prime subset is carved out of the primes up to n.

    Kinds: ``all-primes``; ``residue-filter`` keeps primes congruent to b0
    mod m0; ``random-thinning`` keeps a seeded-shuffle subset of size
    ceil(density * count).
    """

    kind: str
    b0: int | None = None
    m0: int | None = None

    def spec_string(self) -> str:
        if self.kind == "residue-filter":
            return f"residue-filter:{self.b0}:{self.m0}"
        return self.kind


def parse_rule(text: str) -> SubsetRule:
    parts = text.strip().split(":")
    kind = parts[0]
    if kind == "all-primes":
        if len(parts) != 1:
            raise ConfigurationError(f"all-primes takes no parameters, got {text!r}")
        return SubsetRule(kind="all-primes")
    if kind == "residue-filter":
        if len(parts) != 3:
            raise ConfigurationError(
                f"residue-filter needs b0 and m0, e.g. residue-filter:1:6, got {text!r}"
            )
        try:
            b0, m0 = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigurationError(f"bad residue-filter parameters in {text!r}") from exc
        if not 2 <= m0 < 2**63 or not 0 <= b0 < m0:
            raise ConfigurationError(
                f"residue-filter needs 0 <= b0 < m0 and 2 <= m0 < 2^63, "
                f"got b0={b0}, m0={m0}"
            )
        return SubsetRule(kind="residue-filter", b0=b0, m0=m0)
    if kind == "random-thinning":
        if len(parts) != 1:
            raise ConfigurationError(
                f"random-thinning takes its density from --delta, got {text!r}"
            )
        return SubsetRule(kind="random-thinning")
    raise ConfigurationError(f"unknown subset rule {kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full configuration of a pipeline run."""

    n: int
    w: int
    delta: float = 1.0
    rule: SubsetRule = field(default_factory=lambda: SubsetRule(kind="all-primes"))
    eps: float = 0.1
    eps0: float | None = None
    sigma: float | None = None
    k: int | None = None
    seed: int = 0
    output_format: str = "json"

    def validate(self) -> None:
        if not isinstance(self.n, int) or self.n < 100:
            raise ConfigurationError(f"need integer n >= 100, got {self.n}")
        if self.n > MAX_N:
            raise ConfigurationError(f"n = {self.n} exceeds the desk-scale cap {MAX_N}")
        if not isinstance(self.w, int) or self.w < 2:
            raise ConfigurationError(f"need integer w >= 2, got {self.w}")
        if not 0 < self.delta <= 1:
            raise ConfigurationError(f"delta must lie in (0, 1], got {self.delta}")
        if not 0 < self.eps < 1:
            raise ConfigurationError(f"eps must lie in (0, 1), got {self.eps}")
        if self.eps0 is not None and not 0 < self.eps0 <= 1:
            raise ConfigurationError(f"eps0 must lie in (0, 1], got {self.eps0}")
        # sigma^6 stays a finite float in the decomposition level
        if self.sigma is not None and not 0 < self.sigma <= 1e50:
            raise ConfigurationError(f"sigma must lie in (0, 1e50], got {self.sigma}")
        if self.k is not None:
            check_moment_order(self.k)
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"seed must lie in [0, 2^64), got {self.seed}")
        if self.output_format not in ("csv", "json"):
            raise ConfigurationError(f"unknown output format {self.output_format!r}")
        # the primorial m of w by a running product, stopped once m passes
        # 2n (the embedding needs 4n >= 2m): p is prime exactly when it is
        # coprime to the primes below it
        m = 1
        for p in range(2, min(self.w, 2 * self.n) + 1):
            if math.gcd(p, m) == 1:
                m *= p
                if m > 2 * self.n:
                    raise ConfigurationError(f"primorial of {self.w} exceeds 2n; lower w")

    def resolved_sigma(self) -> float:
        return self.sigma if self.sigma is not None else self.eps / 20.0

    def resolved_eps0(self, measured_delta: float) -> float:
        if self.eps0 is not None:
            return self.eps0
        sigma = self.resolved_sigma()
        if measured_delta > 0:
            return max(min(split_level(sigma, measured_delta), 0.01), 1e-30)
        return 0.01

    def echo(self) -> dict:
        """The fields in their declared order, the rule as its spec string."""
        return {**vars(self), "rule": self.rule.spec_string()}


def seeded_thinning(pool: np.ndarray, density: float, seed: int) -> np.ndarray:
    """The first ceil(density * |pool|) entries of a shuffle of ``pool`` by the
    counter-based Philox generator keyed by (seed, 0), ascending."""
    size = math.ceil(density * pool.size)
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    )
    return np.sort(rng.permutation(pool)[:size])


def build_subset(cfg: ExperimentConfig, table: PrimeTable) -> np.ndarray:
    """Materialize the configured prime subset from a sieve table."""
    primes = table.primes
    rule = cfg.rule
    if rule.kind == "all-primes":
        return primes.copy()
    if rule.kind == "residue-filter":
        return primes[primes % rule.m0 == rule.b0]
    if rule.kind == "random-thinning":
        return seeded_thinning(primes, cfg.delta, cfg.seed)
    raise ConfigurationError(f"unknown subset rule {rule.kind!r}")

