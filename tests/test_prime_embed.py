import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primesum.errors import DomainError
from primesum.ntheory import primorial, sieve_primes
from primesum.prime_embed import (
    EmbeddedClass,
    ResiduePartition,
    aggregate_delta,
    choose_N,
    embed_class,
    embed_classes,
    embedding_mass_check,
    pair_sumset_columns,
    partition_and_densities,
    pseudorandom_deficit,
    pseudorandom_deficits,
)
from primesum.zn_spectral import dft

from oracles import aggregate_enum, trial_primes, units_of


def synthetic_partition(delta_b, delta, good, n=1000, w=3):
    mod = primorial(w)
    classes = {
        b: (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        for b in delta_b
    }
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


def synthetic_class(values, b=1, delta_b=1.0, w=5):
    from primesum.zn_spectral import DensityFunction

    big_n = len(values)
    f = DensityFunction(N=big_n, values=np.asarray(values, dtype=np.float64))
    return EmbeddedClass(
        b=b,
        N=big_n,
        nu=f,
        f=f,
        delta_b=delta_b,
        w=w,
    )


class TestPartition:
    def test_primes_to_twenty(self):
        part = partition_and_densities(
            trial_primes(20), sieve_primes(20), 3, primorial(3)
        )
        assert part.classes[1][0].tolist() == [7, 13, 19]
        assert part.classes[5][0].tolist() == [5, 11, 17]
        assert part.delta_b == {1: 1.0, 5: 1.0}
        assert part.residual_primes.tolist() == [2, 3]

    def test_full_primes_all_dense(self):
        part = partition_and_densities(
            trial_primes(500), sieve_primes(500), 5, primorial(5)
        )
        for b, (a_arr, p_arr) in part.classes.items():
            if p_arr.size:
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
        class_p = sum(v[1].size for v in part.classes.values())
        assert class_a + part.residual_a.size == len(members)
        assert class_p + part.residual_primes.size == len(primes)


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
        assert abs(ec.nu.values[1] / ec.N - (2.0 / 396.0) * math.log(7)) < 1e-12

    def test_zero_on_composite_positions(self):
        part, table = partition_and_table(trial_primes(100), 100, 3)
        ec = embed_class(part, 1, table)
        assert ec.N == 66
        # position 4 would be 25 = 5*5
        assert ec.nu.values[4] / ec.N == 0.0

    def test_zero_mode_is_weight_sum(self):
        part, table = partition_and_table(trial_primes(2000), 2000, 3)
        ec = embed_class(part, 1, table)
        assert ec.N == choose_N(2000, 6)
        zero_mode = dft(ec.nu).coeffs[0].real
        assert abs(zero_mode - math.fsum(ec.nu.values / ec.N)) < 1e-9

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


class TestEmbedClasses:
    def test_batch_matches_the_one_class_route(self):
        # at n = 2000, W = 7 (N = 38) the primes 210 N + b of 21 classes sit
        # at position N, which wraps to 0
        part, table = partition_and_table(trial_primes(2000)[::2], 2000, 7)
        batch = embed_classes(part, table)
        assert list(batch) == part.units
        assert sum(ec.nu.values[0] > 0 for ec in batch.values()) == 21
        for b, ec in batch.items():
            one = embed_class(part, b, table)
            assert (ec.b, ec.N, ec.delta_b, ec.w) == (b, one.N, one.delta_b, one.w)
            assert same_bits(ec.nu.values, one.nu.values)
            assert same_bits(ec.f.values, one.f.values)
            assert same_bits(ec.f.transform, np.fft.fft(ec.f.values))
            assert not ec.f.transform.flags.writeable

    def test_classes_hold_rows_of_two_arrays(self):
        part, table = partition_and_table(trial_primes(2000), 2000, 5)
        batch = list(embed_classes(part, table).values())
        for field in ("f", "nu"):
            rows = [getattr(ec, field).values for ec in batch]
            assert all(row.base is rows[0].base for row in rows)
            assert rows[0].base.shape == (len(batch), batch[0].N)


class TestMassCheck:
    def test_empty_class_zero_density(self):
        ec = synthetic_class(np.zeros(16), delta_b=0.0)
        check = embedding_mass_check(ec)
        assert check.mass == 0.0
        assert check.passed

    def test_empty_class_positive_density(self):
        ec = synthetic_class(np.zeros(16), delta_b=0.5)
        assert not embedding_mass_check(ec).passed

    def test_real_class(self):
        part, table = partition_and_table(trial_primes(2000), 2000, 3)
        ec = embed_class(part, 1, table)
        assert ec.N == choose_N(2000, 6)
        check = embedding_mass_check(ec)
        assert check.threshold == 1.0 / 16
        assert check.passed


class TestPseudorandomDeficit:
    def test_idealized_measure(self):
        ec = synthetic_class(np.ones(32))
        d = pseudorandom_deficit(ec)
        assert d.zero_mode_error < 1e-12
        assert d.offpeak_sup < 1e-12

    def test_zero_measure(self):
        ec = synthetic_class(np.zeros(32))
        assert pseudorandom_deficit(ec).zero_mode_error == 1.0

    def test_reference_value(self):
        ec = synthetic_class(np.ones(32), w=5)
        d = pseudorandom_deficit(ec)
        assert abs(d.reference_bound - 2 * math.log(math.log(5)) / 5) < 1e-12

    def test_blocks_match_one_class_transforms(self, monkeypatch):
        import primesum.prime_embed as pe

        part, table = partition_and_table(trial_primes(2000), 2000, 7)
        classes = list(embed_classes(part, table).values())
        expected = []
        for ec in classes:
            coeffs = np.fft.fft(ec.nu.values) / ec.N
            expected.append(
                (float(abs(coeffs[0] - 1.0)), float(np.max(np.abs(coeffs[1:]))))
            )
        # five rows per block: the last block is short
        monkeypatch.setattr(pe, "PAIR_BLOCK_BYTES", 5 * 32 * classes[0].N)
        got = pseudorandom_deficits(classes)
        assert [d.b for d in got] == [ec.b for ec in classes]
        assert [(d.zero_mode_error, d.offpeak_sup) for d in got] == expected
        assert all("transform" not in ec.nu.__dict__ for ec in classes)

    def test_mismatched_lengths(self):
        with pytest.raises(DomainError):
            pseudorandom_deficits(
                [synthetic_class(np.ones(32)), synthetic_class(np.ones(64))]
            )


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
        # one forward transform of the stacked rows serves all three pairs
        assert len(stacks) == 1
        for ec in (ec1, ec2):
            assert sum(np.array_equal(row, ec.f.values) for row in stacks[0]) == 1


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
