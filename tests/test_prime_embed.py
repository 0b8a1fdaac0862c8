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
    EmbeddedClasses,
    ResiduePartition,
    aggregate_delta,
    choose_N,
    embed_class,
    embed_classes,
    pair_sumset_columns,
    partition_and_densities,
)
from primesum.zn_spectral import dft

from oracles import aggregate_enum, trial_primes, units_of


def synthetic_partition(delta_b, delta, good, n=1000, w=3):
    """The columns of a partition whose classes are the keys of ``delta_b``
    (unit -> density), with no primes, and whose good classes are ``good``."""
    units = np.array(sorted(delta_b), dtype=np.int64)
    return ResiduePartition(
        n=n,
        w=w,
        modulus=primorial(w),
        units=units,
        members=tuple(np.zeros(0, dtype=np.int64) for _ in units),
        prime_count=np.zeros(units.size, dtype=np.int64),
        delta_b=np.array([delta_b[b] for b in units.tolist()], dtype=np.float64),
        delta=delta,
        good=np.isin(units, list(good)),
        residual_primes=0,
        residual_a=0,
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
    members = []
    for b in part.units.tolist():
        window = primes[(primes >= m + b) & (primes <= top + b)]
        members.append(window[window % m == b])
    return dataclasses.replace(part, members=tuple(members)), table


class TestPartition:
    def test_primes_to_twenty(self):
        part = partition_and_densities(
            trial_primes(20), sieve_primes(20), 3, primorial(3)
        )
        assert part.units.tolist() == [1, 5]
        assert [a_arr.tolist() for a_arr in part.members] == [[7, 13, 19], [5, 11, 17]]
        assert part.prime_count.tolist() == [3, 3]
        assert part.delta_b.tolist() == [1.0, 1.0]
        assert part.good.tolist() == [True, True]
        assert part.residual_primes == 2 and part.residual_a == 2

    def test_columns_align_with_the_ascending_units(self):
        # at n = 300 five of the 48 classes mod 210 hold no prime
        members = [p for p in trial_primes(300) if p % 3 == 1]
        part = partition_and_densities(members, sieve_primes(300), 7, primorial(7))
        assert part.units.tolist() == units_of(210)
        columns = {
            "units": (part.units, np.int64),
            "prime_count": (part.prime_count, np.int64),
            "delta_b": (part.delta_b, np.float64),
            "good": (part.good, np.bool_),
        }
        for name, (column, dtype) in columns.items():
            assert column.dtype == dtype and column.shape == (48,), name
            assert not column.flags.writeable, name
        assert len(part.members) == 48
        assert [a_arr.dtype for a_arr in part.members] == [np.int64] * 48
        assert not any(a_arr.flags.writeable for a_arr in part.members)
        # a class with no primes has density 0 and is never good
        empty = part.prime_count == 0
        assert np.count_nonzero(empty) == 5 and not part.delta_b[empty].any()
        assert not part.good[empty].any()
        assert part.good.tolist() == (part.delta_b >= part.delta / 2).tolist()
        assert 0 < np.count_nonzero(part.good) < 43

    def test_full_primes_all_dense(self):
        part = partition_and_densities(
            trial_primes(500), sieve_primes(500), 5, primorial(5)
        )
        for count, density in zip(part.prime_count.tolist(), part.delta_b.tolist()):
            if count:
                assert density == 1.0
        assert part.good.all()

    def test_empty_subset(self):
        part = partition_and_densities([], sieve_primes(100), 3, primorial(3))
        assert part.delta_b.tolist() == [0.0, 0.0]
        # 0 >= 0 / 2 would admit every class; the empty subset has none
        assert part.good.tolist() == [False, False]

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
        assert part.members[0].tolist() == [7, 13, 19]
        assert part.residual_a == 1
        assert part.delta == 4 / 8

    @given(st.integers(min_value=20, max_value=1500), st.data())
    def test_counts_reconcile(self, n, data):
        primes = trial_primes(n)
        members = sorted(data.draw(st.sets(st.sampled_from(primes))))
        part = partition_and_densities(members, sieve_primes(n), 3, primorial(3))
        class_a = sum(a_arr.size for a_arr in part.members)
        class_p = int(part.prime_count.sum())
        assert class_a + part.residual_a == len(members)
        assert class_p + part.residual_primes == len(primes)
        assert part.prime_count.tolist() == [
            sum(p % 6 == b for p in primes) for b in (1, 5)
        ]

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
        emb = embed_class(part, 1, table)
        assert emb.f.shape == (1, 66)
        positions = np.flatnonzero(emb.f[0]).tolist()
        assert positions == [1, 2, 3, 5, 6, 7, 10, 11, 12, 13, 16]

    def test_weight_value(self):
        part, table = partition_and_table(trial_primes(100), 100, 3)
        f = embed_class(part, 1, table).f[0]
        assert f.size == 66
        assert abs(f[1] / 66 - (2.0 / 396.0) * math.log(7)) < 1e-12

    def test_zero_on_composite_positions(self):
        part, table = weight_partition(100, 3)
        f = embed_class(part, 1, table).f[0]
        assert f.size == 66
        # position 4 would be 25 = 5*5
        assert f[4] == 0.0
        # the weight lives on the positions x in [1, N] with 6 x + 1 prime,
        # and 6 N + 1 = 397 is prime: position N wraps to 0
        primes = set(trial_primes(6 * 66 + 1))
        expected = [x % 66 for x in range(1, 67) if 6 * x + 1 in primes]
        assert np.flatnonzero(f).tolist() == sorted(expected)
        assert expected[-1] == 0

    def test_zero_mode_is_weight_sum(self):
        part, table = partition_and_table(trial_primes(2000), 2000, 3)
        emb = embed_class(part, 1, table)
        big_n = emb.f.shape[1]
        assert big_n == choose_N(2000, 6)
        zero_mode = dft(emb.f)[0, 0].real
        assert abs(zero_mode - math.fsum(emb.f[0] / big_n)) < 1e-9
        assert abs(zero_mode - emb.mass[0]) < 1e-9

    def test_shared_table_must_reach(self):
        part = partition_and_densities(
            trial_primes(100), sieve_primes(100), 3, primorial(3)
        )
        with pytest.raises(DomainError):
            embed_class(part, 1, sieve_primes(50))
        with pytest.raises(DomainError):
            embed_classes(part, sieve_primes(50))

    @pytest.mark.parametrize("b", [-1, 0, 3, 7, 11])
    def test_lookup_rejects_a_non_unit(self, b):
        # the units of 6 are 1 and 5: 3 sits between them, and 7 and 11 lie
        # past the last unit, where the lookup lands on the column's end
        part, table = partition_and_table(trial_primes(100), 100, 3)
        with pytest.raises(DomainError, match="not a reduced residue of 6"):
            embed_class(part, b, table)
        assert [part.row(1), part.row(5)] == [0, 1]
        primes = trial_primes(100)
        positions = [x for x in range(1, 17) if 6 * x + 5 in primes]
        assert np.flatnonzero(embed_class(part, 5, table).f[0]).tolist() == positions


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_class(batch: EmbeddedClasses, r: int, one: EmbeddedClasses) -> None:
    """Row r of ``batch`` and row 0 of the one-class record ``one`` equal
    field by field, bit for bit, NaN included, and f with the same ``dft``."""
    assert one.f.shape[0] == 1
    for field in dataclasses.fields(EmbeddedClasses):
        a, b = getattr(batch, field.name), getattr(one, field.name)
        if field.name == "f":
            assert same_bits(a[r], b[0]) and not a.flags.writeable
            assert same_bits(dft(a[r : r + 1]), dft(b))
            continue
        if field.name != "offpeak_reference":
            a, b = a[r], b[0]
        if isinstance(a, float):
            assert struct.pack("<d", a) == struct.pack("<d", b), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


class TestEmbedClasses:
    def test_batch_matches_the_one_class_route(self):
        # at n = 2000, W = 7 (N = 38) the primes 210 N + b of 21 classes sit
        # at position N, which wraps to 0
        part, table = partition_and_table(trial_primes(2000)[::2], 2000, 7)
        batch = embed_classes(part, table)
        assert len(batch.f) == part.units.size
        for r, b in enumerate(part.units.tolist()):
            assert_same_class(batch, r, embed_class(part, b, table))
        coeffs = dft(batch.f)
        assert same_bits(coeffs, np.fft.fft(batch.f, axis=-1) / batch.f.shape[1])
        assert not coeffs.flags.writeable
        weights = embed_classes(*weight_partition(2000, 7))
        assert np.count_nonzero(weights.f[:, 0] > 0) == 21

    @pytest.mark.parametrize("w", [2, 5])
    def test_every_unit_matches_across_routes(self, w):
        part, table = partition_and_table(trial_primes(3000), 3000, w)
        batch = embed_classes(part, table)
        assert len(batch.f) == part.units.size
        for r, b in enumerate(part.units.tolist()):
            assert_same_class(batch, r, embed_class(part, b, table))
        if w == 2:
            assert math.isnan(batch.offpeak_reference)

    def test_classes_hold_rows_of_one_array(self):
        # the densities f, one read-only row per class: no weight row and no
        # transform is kept
        part, table = partition_and_table(trial_primes(2000), 2000, 5)
        batch = embed_classes(part, table)
        assert batch.f.shape == (len(part.units), choose_N(2000, 30))
        assert batch.f.dtype == np.float64 and not batch.f.flags.writeable
        arrays = [k for k, v in vars(batch).items() if isinstance(v, np.ndarray)]
        assert arrays == ["f"]
        columns = (batch.mass, batch.zero_mode_error, batch.offpeak_sup)
        assert all(len(column) == len(part.units) for column in columns)

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
        assert len(batch.f) == 48
        assert held - before <= 1.25 * unit
        assert peak - before <= 2 * unit


class TestMassCheck:
    def test_empty_class_zero_density(self):
        # primes 1 mod 6 only: the class of 5 has density 0 and f = 0
        members = [p for p in trial_primes(100) if p % 6 == 1]
        part, table = partition_and_table(members, 100, 3)
        emb = embed_class(part, 5, table)
        assert part.units.tolist() == [1, 5]
        assert part.delta_b[1] == 0.0 and not emb.f.any()
        assert emb.mass == (0.0,)

    def test_empty_class_positive_density(self):
        # 5 sits at x = 0, below the window: density 1/12, but f = 0
        part, table = partition_and_table([5], 100, 3)
        emb = embed_class(part, 5, table)
        assert part.delta_b[1] > 0.0 and not emb.f.any()
        assert emb.mass == (0.0,)
        assert not emb.mass[0] >= part.delta_b[1] / 16.0

    def test_real_class(self):
        part, table = partition_and_table(trial_primes(2000), 2000, 3)
        emb = embed_class(part, 1, table)
        big_n = emb.f.shape[1]
        assert big_n == choose_N(2000, 6)
        assert emb.mass[0] == math.fsum(emb.f[0].tolist()) / big_n
        assert part.delta_b[0] == 1.0
        assert emb.mass[0] >= part.delta_b[0] / 16.0


    @pytest.mark.parametrize("w", [2, 7])
    def test_mass_sums_the_support(self, w):
        # the mass sums the nonzero entries of f only; fsum is correctly
        # rounded, so it is the fsum of every entry, bit for bit
        part, table = partition_and_table(trial_primes(6000)[::3], 6000, w)
        batch = embed_classes(part, table)
        assert not batch.f.all(axis=1).all()
        for row, mass in zip(batch.f, batch.mass):
            expected = math.fsum(row.tolist()) / row.size
            assert struct.pack("<d", mass) == struct.pack("<d", expected)


class TestPseudorandomDeficit:
    def test_zero_mode_error_reads_the_weight_mass(self):
        # f = nu, so the zero mode of nu is the mass of f
        part, table = weight_partition(20000, 5)
        batch = embed_classes(part, table)
        for mass, zero_mode, offpeak in zip(
            batch.mass, batch.zero_mode_error, batch.offpeak_sup
        ):
            assert abs(zero_mode - abs(mass - 1.0)) < 1e-12
            assert 0.0 < offpeak < 1.0

    def test_zero_measure(self):
        # at n = 105, W = 7 (N = 2) both 210 + 109 = 11 * 29 and
        # 420 + 109 = 23^2 are composite: the weight of 109 is zero
        part, table = weight_partition(105, 7)
        emb = embed_class(part, 109, table)
        assert emb.f.shape == (1, 2) and not emb.f.any()
        assert emb.zero_mode_error == (1.0,)
        assert emb.offpeak_sup == (0.0,)

    def test_reference_value(self):
        part, table = partition_and_table(trial_primes(3000), 3000, 5)
        emb = embed_class(part, 1, table)
        assert abs(emb.offpeak_reference - 2 * math.log(math.log(5)) / 5) < 1e-12
        part, table = partition_and_table(trial_primes(3000), 3000, 2)
        assert math.isnan(embed_class(part, 1, table).offpeak_reference)

    def test_blocks_match_one_class_transforms(self, monkeypatch):
        import primesum.zn_spectral as zs

        part, table = weight_partition(2000, 7)
        # five rows per block: the last block is short
        monkeypatch.setattr(zs, "BLOCK_BYTES", 5 * 32 * choose_N(2000, 210))
        batch = embed_classes(part, table)
        expected = []
        for row in batch.f:
            coeffs = np.fft.fft(row) / row.size
            expected.append(
                (float(abs(coeffs[0] - 1.0)), float(np.max(np.abs(coeffs[1:]))))
            )
        assert list(zip(batch.zero_mode_error, batch.offpeak_sup)) == expected


def embedding_of(rows) -> EmbeddedClasses:
    """An embedding record around the density rows; the pair stage reads
    ``f`` alone, so the checks are placeholders."""
    f = np.array(rows, dtype=np.float64)
    zeros = (0.0,) * len(f)
    return EmbeddedClasses(f, zeros, zeros, zeros, math.nan)


def pair_report(classes, eps0, sigma):
    """The row of the last pair from ``pair_sumset_columns`` of ``classes``,
    (b, row of f, delta_b) triples in ascending b, all good: one class with
    itself, or two classes together; and the split columns."""
    b, rows, delta_b = zip(*classes)
    part = synthetic_partition(dict(zip(b, delta_b)), 0.5, b)
    pairs, splits = pair_sumset_columns(part, embedding_of(rows), eps0, sigma)
    return {name: values[len(classes) - 1] for name, values in pairs.items()}, splits


def pair_checks(part, rows, eps, eps0, sigma):
    """The check rows, by name, of the pipeline's pair stage on the density
    ``rows`` of ``part``'s units."""
    from types import SimpleNamespace

    from primesum.expcli.pipeline import _Ledger, _pair_stage

    ledger = _Ledger()
    _pair_stage(ledger, SimpleNamespace(eps=eps), part, embedding_of(rows), eps0, sigma)
    return {row.name: row for row in ledger}


class TestPairSumsetReport:
    # N = 64 = choose_N(96, 6): the support target reads n/m = 16 points
    # per unit of density
    def test_idealized_full_support(self):
        rep, _ = pair_report([(1, np.ones(64), 1.0)], 0.01, 0.01)
        assert rep["support_count"] == 64
        part = synthetic_partition({1: 1.0}, 0.5, [1], n=96)
        checks = pair_checks(part, [np.ones(64)], 0.1, 0.01, 0.01)
        assert checks["pair-support-targets"].passed

    def test_zero_function_fails_when_dense(self):
        rep, _ = pair_report([(1, np.zeros(64), 0.3)], 0.01, 0.01)
        assert rep["support_count"] == 0
        # 0 points against (0.3 - 0.2) 16 = 1.6
        part = synthetic_partition({1: 0.3}, 0.5, [1], n=96)
        checks = pair_checks(part, [np.zeros(64)], 0.2, 0.01, 0.01)
        assert not checks["pair-support-targets"].passed

    def test_zero_function_passes_when_sparse(self):
        part = synthetic_partition({1: 0.05}, 0.5, [1], n=96)
        checks = pair_checks(part, [np.zeros(64)], 0.2, 0.01, 0.01)
        assert checks["pair-support-targets"].passed

    def test_targets_read_the_good_classes(self):
        # classes 1 and 11 are good and 7 is not; the pairs (1, 1), (1, 11)
        # and (11, 11) have the mean densities 0.3, 0.4 and 0.5, and the
        # mean class means 0.5, 1.05 and 1.6
        rows = np.array([np.full(8, 0.5), np.full(8, 9.0), np.full(8, 1.6)])
        part = synthetic_partition({1: 0.3, 7: 0.1, 11: 0.5}, 0.2, [1, 11], w=5)
        checks = pair_checks(part, rows, 0.1, 0.01, 0.01)
        # 8 points of support against (0.2, 0.3, 0.4) n/m = 6.7, 10 and 13.3
        support = checks["pair-support-targets"]
        assert (support.lhs, support.rhs) == (1, 3)
        # main_count / N = 1 against 0.47, 1.02 and 1.57
        main = checks["pair-main-targets"]
        assert (main.lhs, main.rhs) == (1, 3)

    def test_rows_must_align_with_the_units(self):
        part = synthetic_partition({1: 1.0, 5: 1.0}, 0.5, [1, 5])
        with pytest.raises(DomainError, match="align with the partition's units"):
            pair_sumset_columns(part, embedding_of([np.ones(8)]), 0.01, 0.01)

    def test_good_rows_are_picked_from_the_embedding(self, monkeypatch):
        import primesum.prime_embed as pe

        convolve, seen = pe.convolve_pairs, []

        def keeping(f, *args, sums):
            # the row sums come along, summed once, with the bits of a new sum
            assert sums.tobytes() == f.sum(axis=1).tobytes()
            seen.append(f)
            return convolve(f, *args, sums=sums)

        monkeypatch.setattr(pe, "convolve_pairs", keeping)
        rows = np.arange(1.0, 25.0).reshape(3, 8)
        emb = embedding_of(rows)
        densities = {1: 0.3, 7: 0.1, 11: 0.5}
        # every class good: the embedding's own array, not a copy
        every, every_splits = pair_sumset_columns(
            synthetic_partition(densities, 0.2, densities, w=5), emb, 0.01, 0.01
        )
        assert seen.pop() is emb.f
        assert every["b1"].tolist() == [1, 1, 1, 7, 7, 11]
        # the good classes 1 and 11 only: their rows, labels and splits
        part = synthetic_partition(densities, 0.2, [1, 11], w=5)
        some, some_splits = pair_sumset_columns(part, emb, 0.01, 0.01)
        assert seen.pop().tolist() == rows[[0, 2]].tolist()
        assert (some["b1"].tolist(), some["b2"].tolist()) == ([1, 1, 11], [1, 11, 11])
        assert some_splits["b"].tolist() == [1, 11]
        assert some_splits["mean"].tolist() == (rows[[0, 2]].sum(axis=1) / 8).tolist()
        kept = [0, 2, 5]
        sides = ("split_f", "split_g")
        assert {name: column.tolist() for name, column in some.items() if name not in sides} == {
            name: column[kept].tolist() for name, column in every.items() if name not in sides
        }
        for side in sides:
            for name, column in some_splits.items():
                expected = every_splits[name][every[side][kept]]
                assert column[some[side]].tolist() == expected.tolist()

    def test_eps0_clamped_to_parameter_relation(self):
        _, splits = pair_report([(1, np.ones(64), 1.0)], 0.5, 0.01)
        assert splits["level"].tolist() == [0.01**6 * 1.0**4 / 400.0]

    def test_main_term_counts_against_the_smaller_mean(self):
        # the b1 class is the denser one: f1*g1 = 0.5 everywhere clears
        # sigma alpha N = 0.25 at the smaller mean alpha = 1/16, though not
        # sigma N = 4 at the b1 class's mean
        dense, sparse = (1, np.ones(8), 1.0), (5, 0.5 * np.eye(8)[0], 1.0)
        rep, splits = pair_report([dense, sparse], 0.01, 0.5)
        sides = [rep["split_f"], rep["split_g"]]
        assert splits["mean"][sides].tolist() == [1.0, 1 / 16]
        # both sides split at the sparse class's level, below the dense one's
        assert splits["level"][sides[0]] == splits["level"][sides[1]] < splits["level"][0]
        assert rep["main_count"] == 8

    def test_class_density_transformed_once(self, monkeypatch):
        part, table = partition_and_table(trial_primes(2000), 2000, 3)
        emb = embed_classes(part, table)
        assert part.good.all() and emb.f.shape == (2, choose_N(2000, 6))
        stacks = []
        rfft = np.fft.rfft

        def counting_rfft(a, *args, **kwargs):
            stacks.append(np.array(a))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        pairs, splits = pair_sumset_columns(part, emb, 0.01, 0.01)
        assert pairs["b1"].size == 3 and splits["mean"].min() > 0
        # one forward transform of the rows serves all three pairs; a row is
        # its density's prefix, past which the density is zero
        assert len(stacks) == 1 and len(stacks[0]) == 2
        for row, f in zip(stacks[0], emb.f):
            assert row.size < f.size
            assert np.array_equal(row, f[: row.size])
            assert not f[row.size :].any()

    def test_memory_of_the_good_pairs(self):
        # at n = 10^6, W = 7 and the pipeline's default levels (eps = 0.1,
        # sigma = eps / 20, eps0 = sigma^6 delta^4 / 400), in units of the
        # 8 phi N bytes of the rows of f
        part, table = partition_and_table(table_primes(10**6), 10**6, 7)
        unit = 8 * part.modulus.totient * choose_N(10**6, 210)
        emb = embed_classes(part, table)
        good = int(np.count_nonzero(part.good))
        sigma = 0.1 / 20
        eps0 = sigma**6 * part.delta**4 / 400
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pairs, _ = pair_sumset_columns(part, emb, eps0, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pairs["b1"].size == good * (good + 1) // 2
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
