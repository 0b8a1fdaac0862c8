import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primesum.errors import DomainError, InvariantViolation
from primesum.ntheory import primorial, sieve_primes
from primesum.prime_embed import (
    EmbeddedClass,
    ResiduePartition,
    aggregate_delta,
    choose_N,
    embed_class,
    embed_classes,
    pair_sumset_columns,
    partition_and_densities,
)
from primesum.zn_spectral import DensityFunction, dft

from oracles import aggregate_enum, trial_primes, units_of


def synthetic_partition(delta_b, delta, good, n=1000, w=3):
    mod = primorial(w)
    classes = {b: (np.zeros(0, dtype=np.int64), 0) for b in delta_b}
    return ResiduePartition(
        n=n,
        w=w,
        modulus=mod,
        classes=classes,
        delta_b=dict(delta_b),
        delta=delta,
        good=frozenset(good),
        residual_primes=np.zeros(0, dtype=np.int64),
        residual_a=np.zeros(0, dtype=np.int64),
    )


def partition_and_table(members, n, w):
    """The partition of members among the primes up to n, and one prime
    table reaching m N + m for its embeddings."""
    mod = primorial(w)
    table = sieve_primes(mod.m * choose_N(n, mod.m) + mod.m)
    return partition_and_densities(members, table.upto(n), w, mod), table


def table_primes(n):
    return sieve_primes(n).primes.tolist()


def weight_partition(n, w):
    """The partition of every prime up to n and its prime table, with each
    class's subset widened to all of its primes m x + b, x in [1, N]: then
    every f is the weight nu itself."""
    part, table = partition_and_table(table_primes(n), n, w)
    m = part.modulus.m
    primes = table.primes
    top = m * choose_N(n, m)
    classes = {}
    for b, (_, count) in part.classes.items():
        window = primes[(primes >= m + b) & (primes <= top + b)]
        classes[b] = (window[window % m == b], count)
    return dataclasses.replace(part, classes=classes), table


def synthetic_class(values, b=1, delta_b=1.0):
    """A class whose subset holds every prime, so that f is its weight
    ``values``, with the checks read from ``values`` as the embedding reads
    them."""
    big_n = len(values)
    f = DensityFunction(N=big_n, values=np.asarray(values, dtype=np.float64))
    coeffs = np.fft.fft(f.values) / big_n
    return EmbeddedClass(
        b=b,
        N=big_n,
        f=f,
        delta_b=delta_b,
        mass=math.fsum(f.values.tolist()) / big_n,
        mass_threshold=delta_b / 16.0,
        zero_mode_error=float(abs(coeffs[0] - 1.0)),
        offpeak_sup=float(np.max(np.abs(coeffs[1:]))),
        offpeak_reference=math.nan,
    )


class TestPartition:
    def test_primes_to_twenty(self):
        part = partition_and_densities(
            trial_primes(20), sieve_primes(20), 3, primorial(3)
        )
        assert part.classes[1][0].tolist() == [7, 13, 19]
        assert part.classes[5][0].tolist() == [5, 11, 17]
        assert [part.classes[b][1] for b in (1, 5)] == [3, 3]
        assert part.delta_b == {1: 1.0, 5: 1.0}
        assert part.residual_primes.tolist() == [2, 3]

    def test_full_primes_all_dense(self):
        part = partition_and_densities(
            trial_primes(500), sieve_primes(500), 5, primorial(5)
        )
        for b, (a_arr, count) in part.classes.items():
            if count:
                assert part.delta_b[b] == 1.0

    def test_empty_subset(self):
        part = partition_and_densities([], sieve_primes(100), 3, primorial(3))
        assert all(v == 0.0 for v in part.delta_b.values())
        assert part.good == frozenset()

    def test_rejects_non_prime(self):
        with pytest.raises(DomainError):
            partition_and_densities([9], sieve_primes(100), 3, primorial(3))

    def test_rejects_prime_past_the_table(self):
        with pytest.raises(DomainError):
            partition_and_densities([7, 101], sieve_primes(100), 3, primorial(3))

    def test_members_in_any_order_once_each(self):
        part = partition_and_densities(
            [19, 7, 13, 7, 2], sieve_primes(20), 3, primorial(3)
        )
        assert part.classes[1][0].tolist() == [7, 13, 19]
        assert part.residual_a.tolist() == [2]
        assert part.delta == 4 / 8

    @given(st.integers(min_value=20, max_value=1500), st.data())
    def test_counts_reconcile(self, n, data):
        primes = trial_primes(n)
        members = sorted(data.draw(st.sets(st.sampled_from(primes))))
        part = partition_and_densities(members, sieve_primes(n), 3, primorial(3))
        class_a = sum(v[0].size for v in part.classes.values())
        class_p = sum(v[1] for v in part.classes.values())
        assert class_a + part.residual_a.size == len(members)
        assert class_p + part.residual_primes.size == len(primes)
        assert {b: v[1] for b, v in part.classes.items()} == {
            b: sum(p % 6 == b for p in primes) for b in (1, 5)
        }

    def test_a_class_that_loses_a_prime_fails_the_cover(self, monkeypatch):
        # the partition is the one check that the class prime counts and the
        # residual primes add up to every prime
        import primesum.prime_embed as pe

        by_residue = pe._by_residue

        def dropping(values, m, residues):
            classes = by_residue(values, m, residues)
            return [classes[0][1:], *classes[1:]]

        monkeypatch.setattr(pe, "_by_residue", dropping)
        with pytest.raises(InvariantViolation, match="fail to cover the primes"):
            partition_and_densities(trial_primes(100), sieve_primes(100), 3, primorial(3))


class TestChooseN:
    def test_n100_m6(self):
        assert choose_N(100, 6) == 66

    def test_n60_m30(self):
        assert choose_N(60, 30) == 8

    def test_too_small(self):
        with pytest.raises(DomainError):
            choose_N(10, 30)

    @given(st.integers(min_value=2, max_value=100000))
    def test_window(self, n):
        m = 30
        if 4 * n < 2 * m:
            return
        big_n = choose_N(n, m)
        assert 2 * n < m * big_n <= 4 * n


class TestEmbedClass:
    def test_positions_n100(self):
        part, table = partition_and_table(trial_primes(100), 100, 3)
        ec = embed_class(part, 1, table)
        assert ec.N == 66
        positions = np.flatnonzero(ec.f.values).tolist()
        assert positions == [1, 2, 3, 5, 6, 7, 10, 11, 12, 13, 16]

    def test_weight_value(self):
        part, table = partition_and_table(trial_primes(100), 100, 3)
        ec = embed_class(part, 1, table)
        assert ec.N == 66
        assert abs(ec.f.values[1] / ec.N - (2.0 / 396.0) * math.log(7)) < 1e-12

    def test_zero_on_composite_positions(self):
        part, table = weight_partition(100, 3)
        ec = embed_class(part, 1, table)
        assert ec.N == 66
        # position 4 would be 25 = 5*5
        assert ec.f.values[4] / ec.N == 0.0
        # the weight lives on the positions x in [1, N] with 6 x + 1 prime,
        # and 6 N + 1 = 397 is prime: position N wraps to 0
        primes = set(trial_primes(6 * 66 + 1))
        expected = [x % 66 for x in range(1, 67) if 6 * x + 1 in primes]
        assert np.flatnonzero(ec.f.values).tolist() == sorted(expected)
        assert expected[-1] == 0

    def test_zero_mode_is_weight_sum(self):
        part, table = partition_and_table(trial_primes(2000), 2000, 3)
        ec = embed_class(part, 1, table)
        assert ec.N == choose_N(2000, 6)
        zero_mode = dft(ec.f)[0].real
        assert abs(zero_mode - math.fsum(ec.f.values / ec.N)) < 1e-9
        assert abs(zero_mode - ec.mass) < 1e-9

    def test_shared_table_must_reach(self):
        part = partition_and_densities(
            trial_primes(100), sieve_primes(100), 3, primorial(3)
        )
        with pytest.raises(DomainError):
            embed_class(part, 1, sieve_primes(50))
        with pytest.raises(DomainError):
            embed_classes(part, sieve_primes(50))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_class(ec: EmbeddedClass, one: EmbeddedClass) -> None:
    """Every field of the two records equal bit for bit, NaN included, and
    f with the same ``dft``."""
    for field in dataclasses.fields(EmbeddedClass):
        a, b = getattr(ec, field.name), getattr(one, field.name)
        if isinstance(a, DensityFunction):
            assert a.N == b.N
            assert same_bits(a.values, b.values)
            assert same_bits(dft(a), dft(b))
        elif isinstance(a, float):
            assert struct.pack("<d", a) == struct.pack("<d", b), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


class TestEmbedClasses:
    def test_batch_matches_the_one_class_route(self):
        # at n = 2000, W = 7 (N = 38) the primes 210 N + b of 21 classes sit
        # at position N, which wraps to 0
        part, table = partition_and_table(trial_primes(2000)[::2], 2000, 7)
        batch = embed_classes(part, table)
        assert list(batch) == part.units
        for b, ec in batch.items():
            assert ec.b == b
            assert_same_class(ec, embed_class(part, b, table))
            coeffs = dft(ec.f)
            assert same_bits(coeffs, np.fft.fft(ec.f.values) / ec.N)
            assert not coeffs.flags.writeable
        weights = embed_classes(*weight_partition(2000, 7))
        assert sum(ec.f.values[0] > 0 for ec in weights.values()) == 21

    @pytest.mark.parametrize("w", [2, 5])
    def test_every_unit_matches_across_routes(self, w):
        part, table = partition_and_table(trial_primes(3000), 3000, w)
        batch = embed_classes(part, table)
        assert list(batch) == part.units
        for b in part.units:
            assert_same_class(batch[b], embed_class(part, b, table))
        if w == 2:
            assert math.isnan(batch[1].offpeak_reference)

    def test_classes_hold_rows_of_one_array(self):
        # the densities f: no weight row and no transform is kept
        part, table = partition_and_table(trial_primes(2000), 2000, 5)
        batch = list(embed_classes(part, table).values())
        rows = [ec.f.values for ec in batch]
        assert all(row.base is rows[0].base for row in rows)
        assert rows[0].base.shape == (len(batch), batch[0].N)
        assert not any(hasattr(ec.f, "transform") for ec in batch)

    def test_memory_is_the_densities(self):
        # at n = 10^6, W = 7 the phi = 48 rows of f take 8 phi N bytes; no
        # weight row outlives its block and no f is transformed
        part, table = partition_and_table(table_primes(10**6), 10**6, 7)
        unit = 8 * part.modulus.totient * choose_N(10**6, 210)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            batch = embed_classes(part, table)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(batch) == 48
        assert held - before <= 1.25 * unit
        assert peak - before <= 2 * unit


class TestMassCheck:
    def test_empty_class_zero_density(self):
        # primes 1 mod 6 only: the class of 5 has density 0 and f = 0
        members = [p for p in trial_primes(100) if p % 6 == 1]
        part, table = partition_and_table(members, 100, 3)
        ec = embed_class(part, 5, table)
        assert part.delta_b[5] == 0.0 and not ec.f.values.any()
        assert ec.mass == 0.0 == ec.mass_threshold
        assert ec.mass >= ec.mass_threshold

    def test_empty_class_positive_density(self):
        # 5 sits at x = 0, below the window: density 1/12, but f = 0
        part, table = partition_and_table([5], 100, 3)
        ec = embed_class(part, 5, table)
        assert part.delta_b[5] > 0.0 and not ec.f.values.any()
        assert ec.mass == 0.0
        assert not ec.mass >= ec.mass_threshold

    def test_real_class(self):
        part, table = partition_and_table(trial_primes(2000), 2000, 3)
        ec = embed_class(part, 1, table)
        assert ec.N == choose_N(2000, 6)
        assert ec.mass == math.fsum(ec.f.values.tolist()) / ec.N
        assert ec.mass_threshold == 1.0 / 16
        assert ec.mass >= ec.mass_threshold


    @pytest.mark.parametrize("w", [2, 7])
    def test_mass_sums_the_support(self, w):
        # the mass sums the nonzero entries of f only; fsum is correctly
        # rounded, so it is the fsum of every entry, bit for bit
        part, table = partition_and_table(trial_primes(6000)[::3], 6000, w)
        batch = embed_classes(part, table)
        assert any(not ec.f.values.all() for ec in batch.values())
        for ec in batch.values():
            expected = math.fsum(ec.f.values.tolist()) / ec.N
            assert struct.pack("<d", ec.mass) == struct.pack("<d", expected)


class TestPseudorandomDeficit:
    def test_zero_mode_error_reads_the_weight_mass(self):
        # f = nu, so the zero mode of nu is the mass of f
        part, table = weight_partition(20000, 5)
        for ec in embed_classes(part, table).values():
            assert abs(ec.zero_mode_error - abs(ec.mass - 1.0)) < 1e-12
            assert 0.0 < ec.offpeak_sup < 1.0

    def test_zero_measure(self):
        # at n = 105, W = 7 (N = 2) both 210 + 109 = 11 * 29 and
        # 420 + 109 = 23^2 are composite: the weight of 109 is zero
        part, table = weight_partition(105, 7)
        ec = embed_class(part, 109, table)
        assert ec.N == 2 and not ec.f.values.any()
        assert ec.zero_mode_error == 1.0
        assert ec.offpeak_sup == 0.0

    def test_reference_value(self):
        part, table = partition_and_table(trial_primes(3000), 3000, 5)
        ec = embed_class(part, 1, table)
        assert abs(ec.offpeak_reference - 2 * math.log(math.log(5)) / 5) < 1e-12
        part, table = partition_and_table(trial_primes(3000), 3000, 2)
        assert math.isnan(embed_class(part, 1, table).offpeak_reference)

    def test_blocks_match_one_class_transforms(self, monkeypatch):
        import primesum.prime_embed as pe

        part, table = weight_partition(2000, 7)
        # five rows per block: the last block is short
        monkeypatch.setattr(pe, "BLOCK_BYTES", 5 * 32 * choose_N(2000, 210))
        classes = list(embed_classes(part, table).values())
        expected = []
        for ec in classes:
            coeffs = np.fft.fft(ec.f.values) / ec.N
            expected.append(
                (float(abs(coeffs[0] - 1.0)), float(np.max(np.abs(coeffs[1:]))))
            )
        assert [(ec.zero_mode_error, ec.offpeak_sup) for ec in classes] == expected


def pair_report(ec1, ec2, eps, eps0, sigma):
    """The row of the pair (ec1, ec2) from ``pair_sumset_columns``."""
    classes = [ec1] if ec1 is ec2 else [ec1, ec2]
    columns = pair_sumset_columns(classes, eps, eps0, sigma)
    return {name: values[len(classes) - 1] for name, values in columns.items()}


class TestPairSumsetReport:
    def test_idealized_full_support(self):
        ec = synthetic_class(np.ones(64), delta_b=1.0)
        rep = pair_report(ec, ec, 0.1, 0.01, 0.01)
        assert rep["support_fraction"] == 1.0
        assert rep["passed"]

    def test_zero_function_fails_when_dense(self):
        zero = synthetic_class(np.zeros(64), delta_b=0.3)
        rep = pair_report(zero, zero, 0.2, 0.01, 0.01)
        assert rep["support_count"] == 0
        assert not rep["passed"]

    def test_zero_function_passes_when_sparse(self):
        zero = synthetic_class(np.zeros(64), delta_b=0.05)
        rep = pair_report(zero, zero, 0.2, 0.01, 0.01)
        assert rep["passed"]

    def test_mismatched_lengths(self):
        with pytest.raises(DomainError):
            pair_report(
                synthetic_class(np.ones(32)),
                synthetic_class(np.ones(64)),
                0.1,
                0.01,
                0.01,
            )

    def test_eps0_clamped_to_parameter_relation(self):
        ec = synthetic_class(np.ones(64), delta_b=1.0)
        rep = pair_report(ec, ec, 0.1, 0.5, 0.01)
        assert rep["eps0_used"] <= 0.01**6 * 1.0**4 / 400.0

    def test_main_term_counts_against_the_smaller_mean(self):
        # the b1 class is the denser one: f1*g1 = 0.5 everywhere clears
        # sigma alpha N = 0.25 at the smaller mean alpha = 1/16, though not
        # sigma N = 4 at the b1 class's mean
        dense = synthetic_class(np.ones(8), b=1)
        sparse = synthetic_class(0.5 * np.eye(8)[0], b=5)
        rep = pair_report(dense, sparse, 0.1, 0.01, 0.5)
        assert rep["alpha"] == 1 / 16
        assert rep["main_fraction"] == 1.0

    def test_class_density_transformed_once(self, monkeypatch):
        part, table = partition_and_table(trial_primes(2000), 2000, 3)
        ec1, ec2 = (embed_class(part, b, table) for b in (1, 5))
        assert ec1.N == ec2.N == choose_N(2000, 6)
        stacks = []
        rfft = np.fft.rfft

        def counting_rfft(a, *args, **kwargs):
            stacks.append(np.array(a))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        columns = pair_sumset_columns([ec1, ec2], 0.1, 0.01, 0.01)
        assert len(columns["alpha"]) == 3 and min(columns["alpha"]) > 0
        # one forward transform of the stacked rows serves all three pairs;
        # a row is its density's prefix, past which the density is zero
        assert len(stacks) == 1 and len(stacks[0]) == 2
        for row, ec in zip(stacks[0], (ec1, ec2)):
            assert row.size < ec.N
            assert np.array_equal(row, ec.f.values[: row.size])
            assert not ec.f.values[row.size :].any()

    def test_memory_of_the_good_pairs(self):
        # at n = 10^6, W = 7 and the pipeline's default levels (eps = 0.1,
        # sigma = eps / 20, eps0 = sigma^6 delta^4 / 400), in units of the
        # 8 phi N bytes of the rows of f
        part, table = partition_and_table(table_primes(10**6), 10**6, 7)
        unit = 8 * part.modulus.totient * choose_N(10**6, 210)
        embeds = embed_classes(part, table)
        classes = [embeds[b] for b in sorted(part.good)]
        sigma = 0.1 / 20
        eps0 = sigma**6 * part.delta**4 / 400
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            columns = pair_sumset_columns(classes, 0.1, eps0, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(columns["alpha"]) == len(classes) * (len(classes) + 1) // 2
        assert peak - before <= 2.2 * unit


class TestAggregateDelta:
    def test_two_class_maxima(self):
        part = synthetic_partition({1: 0.6, 5: 0.8}, 0.6, [1, 5], n=600, w=3)
        agg = aggregate_delta(part, 0.1)
        assert agg.x.tolist() == [0, 2, 4]
        assert agg.delta.tolist() == [0.7, 0.6, 0.8]
        assert (agg.witness_b1[1], agg.witness_b2[1]) == (1, 1)
        assert (agg.witness_b1[0], agg.witness_b2[0]) == (1, 5)
        assert agg.gamma.tolist() == [0.7, 0.6, 0.8]
        assert agg.count.tolist() == [2, 1, 1]
        expected = (0.6 + 0.5 + 0.7) * 600 / 6
        assert abs(agg.lower_bound - expected) < 1e-9

    def test_mean_below_maximum(self):
        # 1 + 19 = 7 + 13 = 20 mod 30, with pair densities 0.6 and 0.5
        delta_b = {1: 0.2, 7: 0.4, 13: 0.6, 19: 1.0}
        part = synthetic_partition(delta_b, 0.5, delta_b, n=3000, w=5)
        agg = aggregate_delta(part, 0.1)
        at = agg.x.tolist().index(20)
        assert agg.count[at] == 4
        assert agg.delta[at] == 0.6
        assert (agg.witness_b1[at], agg.witness_b2[at]) == (1, 19)
        assert agg.gamma[at] == pytest.approx(0.55)
        assert agg.count.sum() == len(delta_b) ** 2
        assert agg.x.tolist() == sorted(set(agg.x.tolist()))
        # a mean of equal values may round one ulp above them
        assert np.all(agg.gamma <= agg.delta + 1e-12)

    def test_equal_densities(self):
        part = synthetic_partition({1: 0.4, 5: 0.4}, 0.4, [1, 5])
        agg = aggregate_delta(part, 0.1)
        assert np.all(np.abs(agg.delta - 0.4) < 1e-12)

    def test_single_class(self):
        part = synthetic_partition({1: 0.9, 5: 0.1}, 0.5, [1])
        agg = aggregate_delta(part, 0.2)
        assert agg.x.tolist() == [2]
        assert agg.delta.tolist() == [0.9]

    def test_empty_good_rejected(self):
        part = synthetic_partition({1: 0.0}, 0.0, [])
        with pytest.raises(DomainError):
            aggregate_delta(part, 0.1)

    def test_memory_is_one_array_of_pair_densities(self):
        # the 480 units of Z_2310 as good classes: G^2 = 230400 ordered
        # pairs, whose densities alone take 8 G^2 bytes
        units = units_of(primorial(11).m)
        densities = np.random.default_rng(5).integers(0, 40, len(units)) / 40
        part = synthetic_partition(dict(zip(units, densities.tolist())), 0.5, units, w=11)
        aggregate_delta(part, 0.1)
        tracemalloc.start()
        try:
            aggregate_delta(part, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * len(units) ** 2


# a few fractions, so that pair densities tie within a residue
DENSITIES = st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.5, 0.7, 1.0])


@st.composite
def good_partitions(draw):
    w = draw(st.sampled_from([3, 5, 7]))
    units = units_of(primorial(w).m)
    delta_b = {b: draw(DENSITIES) for b in units}
    good = draw(st.lists(st.sampled_from(units), min_size=1, unique=True))
    n = draw(st.integers(primorial(w).m, 10**6))
    eps = draw(st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 0.7]))
    return synthetic_partition(delta_b, 0.5, good, n=n, w=w), eps


class TestAggregateOracle:
    @settings(max_examples=100)
    @given(good_partitions())
    def test_matches_the_pair_loop(self, drawn):
        part, eps = drawn
        agg, ref = aggregate_delta(part, eps), aggregate_enum(part, eps)
        xs = list(ref["delta_x"])
        assert agg.x.tolist() == xs
        assert agg.delta.tolist() == [ref["delta_x"][x] for x in xs]
        witnesses = zip(agg.witness_b1.tolist(), agg.witness_b2.tolist())
        assert list(witnesses) == [ref["witness"][x] for x in xs]
        assert agg.gamma.tolist() == [ref["gamma_x"][x] for x in xs]
        assert agg.count.tolist() == [ref["count_x"][x] for x in xs]
        assert agg.contribution.tolist() == [ref["contribution"][x] for x in xs]
        assert agg.lower_bound == ref["lower_bound"]
