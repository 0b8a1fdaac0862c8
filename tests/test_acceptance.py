"""End-to-end acceptance checks.

Each test covers one external contract of the package: exact kernel
identities against brute-force oracles, constructions with closed-form
cardinalities, bounded-tolerance checks on real prime data, and byte-level
determinism of the command line.  Every test carries its own wall-clock
budget so the suite stays desk-scale.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from primesum.expcli.cli import main
from primesum.expcli.config import ExperimentConfig, parse_rule
from primesum.expcli.pipeline import run_pipeline
from primesum.ntheory import factorize, primorial, sieve_primes
from primesum.prime_embed import (
    choose_N,
    embed_class,
    embedding_mass_check,
    partition_and_densities,
    pseudorandom_deficit,
)
from primesum.zm_sumsets import (
    SubsetOfZm,
    capital_R,
    ck_series,
    extremal_construct,
    holder_lower_bound,
    kth_moment,
    rep_histogram,
    sumset,
    tail_count,
)
from primesum.zn_spectral import (
    DensityFunction,
    convolve,
    dft,
    green_decompose,
    inverse_dft,
)

from oracles import bohr_double_average, rep_enum


def make_rng(lane: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([2654435769, lane], dtype=np.uint64)))


def rel_gap(lhs, rhs) -> float:
    lhs = np.asarray(lhs, dtype=np.complex128)
    rhs = np.asarray(rhs, dtype=np.complex128)
    scale = max(1.0, float(np.max(np.abs(rhs))) if rhs.size else 1.0)
    return float(np.max(np.abs(lhs - rhs))) / scale


def random_subset(rng: np.random.Generator, m: int, density: float) -> SubsetOfZm:
    flags = rng.random(m) < density
    return SubsetOfZm.from_members(m, np.flatnonzero(flags))


class Budget:
    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self) -> None:
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"ran {elapsed:.1f}s, budget {self.seconds}s"


def test_a01_fourier_identities_hold_on_random_functions():
    """Plancherel, the convolution transform identity, and the inversion
    round trip hold to 1e-9 on 100 random nonnegative functions per length.
    """
    budget = Budget(10.0)
    rng = make_rng(1)
    for big_n in (64, 255, 1024):
        for _ in range(100):
            f = DensityFunction(N=big_n, values=rng.random(big_n) * 4.0)
            g = DensityFunction(N=big_n, values=rng.random(big_n) * 4.0)
            fh, gh = dft(f), dft(g)

            time_side = float(np.sum(f.values**2)) / big_n
            freq_side = float(np.sum(np.abs(fh.coeffs) ** 2))
            assert abs(time_side - freq_side) <= 1e-9 * max(1.0, abs(time_side))

            conv_hat = dft(convolve(f, g)).coeffs
            assert rel_gap(conv_hat, big_n * fh.coeffs * gh.coeffs) <= 1e-9

            back = inverse_dft(fh)
            assert float(np.max(np.abs(back - f.values))) <= 1e-9
    budget.check()


def test_a02_sumset_routes_agree_with_enumeration():
    """Shift-accumulate, convolution support, and direct pair enumeration
    produce identical cyclic sumsets for 200 random subsets.
    """
    budget = Budget(30.0)
    rng = make_rng(2)
    for m in (30, 210, 1999, 2000):
        for _ in range(50):
            density = rng.uniform(0.02, 0.5 if m <= 210 else 0.2)
            b = random_subset(rng, m, density)
            got = sumset(b, b)  # internally cross-checks both routes
            mem = b.members_array()
            if mem.size:
                enum = np.unique((mem[:, None] + mem[None, :]) % m)
                assert got.members_array().tolist() == enum.tolist()
            else:
                assert got.cardinality == 0
    budget.check()


def test_a03_representation_histogram_is_exact():
    """The representation histogram equals pairwise enumeration on every
    subset of the units of Z_30 and on 100 random subsets, and the unit
    group of Z_5 has second moment 52.
    """
    budget = Budget(60.0)
    units30 = SubsetOfZm.units(30).members_array().tolist()
    assert len(units30) == 8
    for mask in range(256):
        members = [u for i, u in enumerate(units30) if mask >> i & 1]
        b = SubsetOfZm.from_members(30, members)
        hist = rep_histogram(b)
        assert hist.r.tolist() == rep_enum(members, 30).tolist()
        assert int(hist.r.sum()) == len(members) ** 2

    rng = make_rng(3)
    for _ in range(100):
        m = int(rng.integers(2, 501))
        b = random_subset(rng, m, rng.uniform(0.02, min(0.3, 60.0 / m)))
        members = b.members_array().tolist()
        hist = rep_histogram(b)
        assert hist.r.tolist() == rep_enum(members, m).tolist()
        assert int(hist.r.sum()) == len(members) ** 2

    r5 = rep_histogram(SubsetOfZm.units(5)).r
    assert int(np.sum(r5.astype(np.int64) ** 2)) == 52
    budget.check()


def test_a04_holder_certificates_never_overshoot():
    """The moment-based lower bound stays at or below the true sumset size
    on 500 random (set, order) draws, with the near-tight unit-group case
    reproduced exactly.
    """
    budget = Budget(60.0)
    rng = make_rng(4)
    checked = 0
    while checked < 500:
        m = int(rng.integers(3, 301))
        b = random_subset(rng, m, rng.uniform(0.05, 0.4))
        if b.cardinality == 0:
            continue
        k = int(rng.integers(2, 5))
        cert = holder_lower_bound(b, k)
        assert cert.actual >= cert.bound - 1e-9
        checked += 1

    tight = holder_lower_bound(SubsetOfZm.units(5), 2)
    assert abs(tight.bound - 256.0 / 52.0) <= 1e-12
    assert abs(tight.bound - 4.923) <= 1e-3
    assert tight.actual == 5
    budget.check()


def test_a05_moment_stratification_is_consistent():
    """Unit-shift representation counts dominate the set's own counts
    pointwise, their moments dominate in sum, and the divisor strata
    reassemble the relaxed moment exactly.
    """
    budget = Budget(30.0)
    rng = make_rng(5)
    for m in (30, 210):
        mod = factorize(m)
        units = SubsetOfZm.units(m).members_array()
        for _ in range(50):
            take = rng.random(units.size) < rng.uniform(0.1, 0.9)
            if not take.any():
                take[int(rng.integers(0, units.size))] = True
            b = SubsetOfZm.from_members(m, units[take])
            relaxed = capital_R(b, mod)
            own = rep_histogram(b).r
            assert np.all(relaxed >= own)
            for k in (2, 3, 4):
                cert = kth_moment(b, k, mod)
                assert cert.s_rb <= cert.s_r
                assert sum(cert.stratified.values()) == cert.s_r
    budget.check()


def test_a06_extremal_families_hit_closed_form_sizes():
    """For every prime-count pair the frozen-residue construction has the
    predicted cardinality, lies in the unit group, and its sumset size
    equals the modulus divided by the product of the frozen primes.
    """
    budget = Budget(10.0)
    primes = [2, 3, 5, 7, 11]
    for s in range(2, 6):
        for t in range(1, s):
            ec = extremal_construct(s, t)
            assert ec.m == math.prod(primes[:s])
            assert ec.set.cardinality == math.prod(p - 1 for p in primes[t:s])
            units = SubsetOfZm.units(ec.m)
            assert ec.set.bits & ~units.bits == 0
            actual = sumset(ec.set, ec.set).cardinality
            assert actual == ec.predicted_sumset == ec.m // math.prod(primes[:t])

    assert extremal_construct(3, 1).predicted_sumset == 15
    assert extremal_construct(4, 2).predicted_sumset == 35
    budget.check()


def test_a07_collision_tail_counts_match_brute_force():
    """Exhaustive tuple counting puts exactly 8 ordered pairs of units of
    Z_30 at collision weight 0.9 or more, and the count is non-increasing
    along a 20-point threshold grid.
    """
    budget = Budget(5.0)
    b = SubsetOfZm.units(30)
    mod = factorize(30)
    assert tail_count(b, 2, Fraction(9, 10), mod).count == 8

    counts = [
        tail_count(b, 2, Fraction(i, 16), mod).count for i in range(20)
    ]
    assert all(a >= bb for a, bb in zip(counts, counts[1:]))
    assert counts[0] == b.cardinality ** 2
    budget.check()


def test_a08_series_partial_sum_and_tail_are_certified():
    """The doubling-index series at c=1, k=1 sums to 26.05 within 0.05 with
    a certified tail below 1e-9, and the dominant term sits within one index
    of the stationary-point estimate.
    """
    budget = Budget(1.0)
    r = ck_series(1.0, 1)
    assert abs(r.partial_sum - 26.05) <= 0.05
    assert 0.0 <= r.tail_bound < 1e-9
    assert r.maximizer_index_estimate is not None
    assert abs(r.dominant_index - r.maximizer_index_estimate) <= 1.0
    budget.check()


def test_a09_prime_embedding_mass_and_zero_mode():
    """On real primes every residue class meets the mass floor delta_b/16,
    and the majorant's zero mode is within 0.05 of 1 at n = 10^6 for both
    small-prime levels.  Off-peak suprema are reported.
    """
    budget = Budget(120.0)
    table = sieve_primes(4_000_020)

    primes = table.upto(100_000)
    part = partition_and_densities(primes.primes, primes, 5, primorial(5))
    for b in sorted(part.delta_b):
        ec = embed_class(part, b, table)
        assert ec.N == choose_N(100_000, 30)
        check = embedding_mass_check(ec)
        assert abs(check.threshold - part.delta_b[b] / 16.0) < 1e-15
        assert check.passed, f"class {b} mass {check.mass} below {check.threshold}"

    offpeaks = {}
    for w in (3, 5):
        primes = table.upto(1_000_000)
        part = partition_and_densities(primes.primes, primes, w, primorial(w))
        for b in sorted(part.delta_b):
            ec = embed_class(part, b, table)
            assert ec.N == choose_N(1_000_000, part.modulus.m)
            d = pseudorandom_deficit(ec)
            assert d.zero_mode_error <= 0.05, (w, b, d.zero_mode_error)
            assert math.isfinite(d.offpeak_sup) and d.offpeak_sup >= 0.0
            offpeaks[(w, b)] = d.offpeak_sup
    print(
        "off-peak sup by (W, class): "
        + ", ".join(f"{k}={v:.4f}" for k, v in sorted(offpeaks.items()))
    )
    budget.check()


def test_a10_decomposition_preserves_mass_and_flattens_remainder():
    """Splitting a density keeps the mean to 1e-9 and leaves the remainder
    spectrally below 2*eps0*max(1, peak), both for a prime-derived function
    and for 100 random functions; the structured part equals the direct
    Bohr-window double average.
    """
    budget = Budget(60.0)

    def check_split(f: DensityFunction, eps0: float) -> None:
        d = green_decompose(f, eps0)
        assert abs(d.f1.mean() - f.mean()) <= 1e-9
        assert np.all(d.f1.values >= 0.0)
        f_hat_sup = float(np.max(np.abs(dft(f).coeffs)))
        f2_hat_sup = float(np.max(np.abs(np.fft.fft(d.f2) / f.N)))
        assert f2_hat_sup <= 2.0 * eps0 * max(1.0, f_hat_sup) + 1e-12
        direct = bohr_double_average(f.values, d.bohr.members)
        assert float(np.max(np.abs(d.f1.values - direct))) <= 1e-9

    table = sieve_primes(6 * choose_N(100_000, 6) + 6)
    primes = table.upto(100_000)
    part = partition_and_densities(primes.primes, primes, 3, primorial(3))
    ec = embed_class(part, 1, table)
    check_split(ec.f, 0.05)

    rng = make_rng(10)
    for trial in range(50):
        base = rng.random(512)
        if trial % 2 == 0:
            xs = np.arange(512)
            for _ in range(int(rng.integers(1, 4))):
                freq = int(rng.integers(1, 256))
                base = base + rng.uniform(0.5, 2.0) * (
                    1.0 + np.cos(2.0 * np.pi * freq * xs / 512.0)
                )
        f = DensityFunction(N=512, values=base)
        check_split(f, float(rng.uniform(0.02, 0.2)))
    budget.check()


def test_a11_filtered_pipeline_certifies_its_lower_bound():
    """A full run on primes congruent to 1 mod 6 up to 10^5 keeps every
    residue-level average below its class maximum, passes the re-bracketing
    identity, lands the sumset in the single reachable residue, and reports
    a lower bound no larger than the exact sumset size.
    """
    budget = Budget(120.0)
    cfg = ExperimentConfig(n=100_000, w=3, rule=parse_rule("residue-filter:1:6"))
    report = run_pipeline(cfg)

    for row in report.residue_density.rows():
        assert row["gamma_x"] <= row["delta_x"] + 1e-12

    rebracket = [c for c in report.checks if c.name == "pair-density-rebracketing"]
    assert len(rebracket) == 1
    assert rebracket[0].kind == "assert" and rebracket[0].passed

    assert report.sumset_residues["x"] == [2]

    s = report.summary
    assert s["witness_ok"] is True
    assert s["lower_bound"] <= s["actual_sumset"]
    assert s["lower_bound"] == pytest.approx(15000.0, abs=1e-9)
    assert s["actual_sumset"] == 33311
    budget.check()


def test_a12_cli_outputs_are_byte_identical_across_runs(tmp_path):
    """Repeating any CLI invocation with a fixed seed reproduces CSV and
    JSON reports byte for byte.
    """
    recipes = {
        "pipe": [
            "pipeline", "--n", "20000", "--W", "3", "--seed", "11",
        ],
        "rand": [
            "simulate-random", "--N", "512", "--p", "0.4", "--alpha", "0.6",
            "--trials", "5", "--seed", "11",
        ],
    }
    for label, argv in recipes.items():
        for fmt in ("csv", "json"):
            paths = [tmp_path / f"{label}-{fmt}-{i}.{fmt}" for i in (0, 1)]
            for p in paths:
                code = main(argv + ["--format", fmt, "--out", str(p)])
                assert code == 0
            first, second = (p.read_bytes() for p in paths)
            assert first == second
            assert first, "report file must not be empty"
