from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import primesum.zn_spectral as zs
from primesum.errors import DomainError, InvariantViolation
from primesum.zn_spectral import (
    Decomposition,
    bohr_set,
    convolve_pairs,
    dft,
    l2sq_from_half_spectrum,
    large_spectrum,
    smooth_length,
    split_densities,
)

from oracles import (
    bohr_double_average,
    convolve_oracle,
    dft_oracle,
    pair_pieces_oracle,
    positive_support,
)


def indicator(N, points):
    """0/1 indicator density of a subset of Z_N."""
    vals = np.zeros(N)
    vals[list(points)] = 1.0
    return vals


def row_sums(rows):
    """The row sums that ``convolve_pairs`` takes beside its densities."""
    return np.sum(np.asarray(rows, dtype=np.float64), axis=1)


def constant(N, value):
    return np.full(N, float(value))


def nonneg_values(n, max_value=4.0):
    return arrays(
        np.float64,
        n,
        elements=st.floats(min_value=0.0, max_value=max_value, width=32),
    )


def rejects(rows, message):
    """Every call that takes density rows raises DomainError on ``rows``."""
    levels = [0.5] * len(rows)
    calls = (
        lambda: dft(rows),
        lambda: split_densities(rows, levels),
        lambda: convolve_pairs(rows, levels, [], [], 0.1, sums=np.zeros(0)),
    )
    for call in calls:
        with pytest.raises(DomainError, match=message):
            call()


class TestDensityRows:
    """The one check of a batch of density rows that ``dft``,
    ``split_densities`` and ``convolve_pairs`` each make."""

    def test_rejects_negative(self):
        rejects([[1.0, 0.5, 0.0], [1.0, -0.5, 0.0]], "nonnegative")
        rejects(np.array([[0.0, -np.finfo(float).tiny]]), "nonnegative")

    def test_rejects_nan(self):
        for bad in (np.nan, np.inf, -np.inf):
            rejects([[1.0, 0.0], [bad, 0.0]], "finite")
            rejects(np.array([[0.0, 1.0, bad]]), "finite")

    def test_rejects_length_mismatch(self):
        # ragged rows, one row that is not in a batch, a batch of batches
        # and rows on Z_0
        rejects([np.zeros(4), np.zeros(3)], "one group order")
        for rows in (np.zeros(3), np.zeros((2, 2, 2)), np.zeros((2, 0))):
            rejects(rows, "rows on Z_N")

    def test_row_sums_give_mass_and_mean(self):
        # f = 1_{1, 2, 3} on Z_8, split exactly: mass 3 and mean 3/8; f*f
        # reads 1, 2, 3, 2, 1 at 2..6, and sigma * mean * N = 1.5 keeps the
        # three middle points
        f = indicator(8, [1, 2, 3])
        rep = convolve_pairs([f], [0.01], [(0, 0)], [0.01], 0.5, sums=row_sums([f]))
        assert rep.bohr_size.tolist() == [[1, 1]]
        assert rep.main_l1[0] == pytest.approx(9.0, rel=1e-12)
        assert rep.main_count[0] == 3 and rep.support[0] == 5

    def test_convolve_pairs_checks_its_rows_once(self, monkeypatch):
        # the rows are checked on entry; the splits at the densities' own
        # levels and the second batch at the pairs' levels take them checked
        check, split, checks, batches = zs._density_rows, zs._split_rows, [], []

        def counting_checks(values):
            checks.append(len(values))
            return check(values)

        def counting_batches(values, levels):
            batches.append(list(levels))
            return split(values, levels)

        monkeypatch.setattr(zs, "_density_rows", counting_checks)
        monkeypatch.setattr(zs, "_split_rows", counting_batches)
        rows = [np.random.default_rng(3).random(64), 64.0 * indicator(64, [3])]
        convolve_pairs(
            rows, [0.2, 0.2], [(0, 1), (0, 0)], [0.1, 0.3], 0.05, sums=row_sums(rows)
        )
        assert checks == [2]
        assert batches == [[0.2, 0.2], [0.1, 0.3]]

    def test_empty_batch(self):
        assert dft(np.zeros((0, 5))).shape == (0, 5)
        with pytest.raises(DomainError, match="rows on Z_N"):
            dft([])
        assert split_densities(np.zeros((0, 5)), []) == []


class TestDft:
    def test_all_ones(self):
        coeffs = dft([constant(4, 1.0)])[0]
        assert np.allclose(coeffs, [1, 0, 0, 0], atol=1e-12)

    def test_point_mass(self):
        coeffs = dft([indicator(4, [0])])[0]
        assert np.allclose(coeffs, 0.25, atol=1e-12)

    def test_indicator_pair_z5(self):
        f = indicator(5, [1, 2])
        coeffs = dft([f])[0]
        assert abs(coeffs[0] - 0.4) < 1e-12
        assert np.max(np.abs(coeffs - dft_oracle(f))) < 1e-12

    @given(nonneg_values(24))
    def test_matches_direct_kernel(self, vals):
        assert np.max(np.abs(dft([vals])[0] - dft_oracle(vals))) < 1e-9

    def test_read_only(self):
        assert not dft([indicator(6, [1])]).flags.writeable

    def test_rows_transform_alone(self):
        rows = np.random.default_rng(7).random((3, 1006))
        coeffs = dft(rows)
        for row, got in zip(rows, coeffs):
            assert got.tobytes() == (np.fft.fft(row) / 1006).tobytes()

    @given(nonneg_values(17))
    def test_plancherel(self, vals):
        lhs = float(np.sum(np.abs(dft([vals])[0]) ** 2))
        rhs = float(np.sum(vals**2)) / 17
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


class TestLargeSpectrum:
    def test_constant_peak(self):
        assert large_spectrum(dft([constant(12, 0.5)])[0], 0.3).tolist() == [0]

    def test_point_mass_all(self):
        f = 10.0 * indicator(10, [0])
        assert large_spectrum(dft([f])[0], 0.5).tolist() == list(range(10))

    def test_constant_empty(self):
        assert large_spectrum(dft([constant(12, 0.2)])[0], 0.5).tolist() == []

    def test_boundary_inclusive(self):
        assert 0 in large_spectrum(dft([constant(9, 0.3)])[0], 0.3)


class TestBohrSet:
    def test_zero_frequency(self):
        assert bohr_set(10, [0], 0.1).tolist() == list(range(10))

    def test_no_frequencies(self):
        assert bohr_set(10, [], 0.1).tolist() == list(range(10))

    def test_twelve_one_frequency(self):
        assert bohr_set(12, [1], 0.6).tolist() == [0, 1, 11]

    def test_zero_always_member(self):
        b = bohr_set(37, [1, 5, 9], 1e-6)
        assert 0 in b
        assert b.size >= 1
        assert b.dtype == np.int64 and not b.flags.writeable

    @pytest.mark.parametrize(
        "ascending, unsorted, width, visits, members",
        [
            # {0, 10, 20} keeps the multiples of 3 at width 0.5
            (
                [0, 10, 20],
                [20, 40, -20, 10 + 30 * 2**50, 0, 10, -30],
                0.5,
                3,
                range(0, 30, 3),
            ),
            # at width 0.1 frequency 1 collapses the set to {0}, and the rest
            # go unread
            (list(range(30)), [29, 59, -1, 1, 1, 31, 0, 0, 30], 0.1, 2, [0]),
        ],
    )
    def test_input_forms_visit_the_same_frequencies(
        self, monkeypatch, ascending, unsorted, width, visits, members
    ):
        # frequencies are visited in the order given, each reduced mod N,
        # until the set collapses; an array, a list and a generator of the
        # same frequencies visit the same ones
        exp, calls = np.exp, []

        def counting_exp(z):
            calls.append(z)
            return exp(z)

        monkeypatch.setattr(np, "exp", counting_exp)
        forms = [np.array(ascending), ascending, (xi for xi in ascending)]
        for form in forms:
            # distance rows are cached by (N, xi mod N); an empty cache makes
            # each visited residue take one exp
            zs._character_gap.cache_clear()
            calls.clear()
            assert bohr_set(30, form, width).tolist() == list(members)
            assert len(calls) == visits
        # unsorted, repeated and outside [0, N): the same set, and a repeated
        # residue takes no second exp
        zs._character_gap.cache_clear()
        calls.clear()
        assert bohr_set(30, np.array(unsorted), width).tolist() == list(members)
        assert len(calls) <= len({xi % 30 for xi in unsorted})

    @given(
        st.integers(min_value=2, max_value=40),
        st.sets(st.integers(min_value=0, max_value=39), max_size=4),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_matches_definition(self, n, freqs, eps0):
        got = set(bohr_set(n, freqs, eps0).tolist())
        expected = {
            x
            for x in range(n)
            if all(
                abs(np.exp(-2j * np.pi * (xi % n) * x / n) - 1.0) <= eps0
                for xi in freqs
            )
        }
        assert got == expected

    @given(
        nonneg_values(48),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_shrinks_with_the_level(self, values, e1, e2):
        # a class split made at a higher level is reused at a lower one when
        # its Bohr set is {0}; that relies on this monotonicity
        lo, hi = sorted((e1, e2))
        coeffs = dft([values])[0]
        low = bohr_set(48, large_spectrum(coeffs, lo), lo).tolist()
        high = bohr_set(48, large_spectrum(coeffs, hi), hi).tolist()
        assert set(low) <= set(high)


class TestGreenDecompose:
    """The contract of Green's split, through ``split_densities``."""

    def test_constant_passthrough(self):
        f = constant(32, 0.5)
        (d,) = split_densities([f], [0.1])
        assert np.max(np.abs(d.f1 - f)) < 1e-12
        assert np.max(np.abs(d.f2)) < 1e-12
        assert not d.f1.flags.writeable

    def test_point_mass_collapsed_bohr(self):
        f = 16.0 * indicator(16, [0])
        (d,) = split_densities([f], [0.1])
        assert d.bohr.tolist() == [0]
        assert np.max(np.abs(d.f1 - f)) < 1e-9
        assert np.max(np.abs(d.f2)) < 1e-9

    def test_collapsed_bohr_split_is_exact(self):
        from primesum.ntheory import primorial, sieve_primes
        from primesum.prime_embed import choose_N, embed_class, partition_and_densities

        from oracles import trial_primes

        table = sieve_primes(6 * choose_N(20000, 6) + 6)
        part = partition_and_densities(
            trial_primes(20000), table.upto(20000), 3, primorial(3)
        )
        f = embed_class(part, 1, table).f
        (d,) = split_densities(f, [0.02])
        assert d.bohr.size == 1
        assert np.array_equal(d.f1, f[0]) and not d.f1.flags.writeable
        assert d.f2.dtype == np.float64 and not np.any(d.f2)

    def test_mean_preserved_and_nonneg(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            f = rng.random(128)
            (d,) = split_densities([f], [0.2])
            assert abs(d.f1.mean() - f.mean()) < 1e-9
            assert np.all(d.f1 >= 0)

    def test_remainder_spectrally_small(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            f = rng.random(128)
            eps0 = 0.15
            (d,) = split_densities([f], [eps0])
            sup_f2 = float(np.max(np.abs(np.fft.fft(d.f2) / 128)))
            sup_f = float(np.max(np.abs(dft([f]))))
            assert sup_f2 <= 2 * eps0 * max(1.0, sup_f) + 1e-12

    def test_multiplier_equals_double_average(self):
        rng = np.random.default_rng(17)
        for trial in range(8):
            vals = rng.random(128)
            if trial % 2:
                xs = np.arange(128)
                vals = vals + 1.0 + np.cos(2 * np.pi * 3 * xs / 128)
            (d,) = split_densities([vals], [0.2])
            direct = bohr_double_average(vals, d.bohr)
            assert np.max(np.abs(d.f1 - direct)) < 1e-9


class TestSplitDensities:
    @pytest.mark.parametrize("n", [97, 1006, 1731, 3000, 4096])
    def test_stacked_rows_are_the_single_row_transforms(self, n):
        # the splits read stacked transforms; each row must be the transform
        # of its density alone, bit for bit, at prime, smooth and Bluestein
        # lengths
        rows = np.random.default_rng(n).random((5, n))
        stacked = np.fft.fft(rows, axis=-1)
        for row, got in zip(rows, stacked):
            assert got.tobytes() == np.fft.fft(row).tobytes()

    def test_one_distance_row_per_frequency(self, monkeypatch):
        # every density has the large frequencies 0, 1 and 63, whose Bohr
        # set at width 0.2 is {-2, ..., 2}; the pass computes the distance
        # row of each frequency once, not once per density
        exp, calls = np.exp, []

        def counting_exp(z):
            calls.append(z)
            return exp(z)

        xs = np.arange(64)
        fs = [1.0 + np.cos(2 * np.pi * xs / 64) * a for a in (0.5, 0.6, 0.7, 0.8)]
        zs._character_gap.cache_clear()
        monkeypatch.setattr(np, "exp", counting_exp)
        splits = zs.split_densities(fs, [0.2] * 4)
        assert [d.bohr.tolist() for d in splits] == [[0, 1, 2, 62, 63]] * 4
        assert len(calls) == 3

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            zs.split_densities([constant(4, 1.0)], [0.1, 0.2])
        with pytest.raises(DomainError):
            zs.split_densities([constant(4, 1.0), constant(5, 1.0)], [0.1, 0.1])
        with pytest.raises(DomainError):
            zs.split_densities([constant(4, 1.0)], [1.5])


class TestPositiveSupport:
    """The oracle that ``convolve_pairs`` support counts are checked against."""

    def test_hand_count(self):
        f = indicator(5, [1, 2])
        assert positive_support(f, f) == 3

    def test_zero_function(self):
        z = constant(8, 0.0)
        assert positive_support(z, z) == 0

    @given(
        st.sets(st.integers(min_value=0, max_value=99), max_size=12),
        st.sets(st.integers(min_value=0, max_value=99), max_size=12),
    )
    def test_matches_sumset_support(self, a, b):
        f = indicator(100, sorted(a))
        g = indicator(100, sorted(b))
        expected = len({(x + y) % 100 for x in a for y in b})
        assert positive_support(f, g) == expected


class TestConvolutionProofQuantities:
    """``convolve_pairs``, the batched route for the per-pair quantities."""

    def test_all_ones_main_mass(self):
        n = 64
        f = constant(n, 1.0)
        (d,) = split_densities([f], [0.5])
        rep = convolve_pairs([f], [0.5], [(0, 0)], [0.5], 0.1, sums=row_sums([f]))
        assert abs(rep.main_l1[0] - n * n) < 1e-6
        assert rep.bohr_size.tolist() == [[d.bohr.size] * 2]
        assert rep.f1_max.tolist() == [[d.f1_max] * 2]
        assert rep.main_count[0] == n
        assert rep.support[0] == n
        assert np.all(rep.error_count == 0)
        assert np.all(rep.error_l2sq < 1e-12)

    def test_identities_on_random_pairs(self):
        rng = np.random.default_rng(23)
        fs = [rng.random(128) for _ in range(6)]
        # a point mass splits exactly (Bohr set {0}), so some pairs mix an
        # exact split with a smoothed one and one pair takes a single inverse
        fs.append(128.0 * indicator(128, [3]))
        ds = split_densities(fs, [0.2] * len(fs))
        assert ds[-1].bohr.size == 1 and all(d.bohr.size > 1 for d in ds[:-1])
        pairs = [(i, j) for i in range(7) for j in range(i, 7)]
        rep = convolve_pairs(
            fs, [0.2] * 7, pairs, [0.2] * len(pairs), 0.05, sums=row_sums(fs)
        )
        assert rep.support.shape == rep.main_count.shape == (len(pairs),)
        assert rep.error_count.shape == rep.error_l2sq.shape == (len(pairs), 3)
        assert rep.bohr_size.shape == rep.f1_max.shape == (len(pairs), 2)
        for p, (i, j) in enumerate(pairs):
            f, g, df, dg = fs[i], fs[j], ds[i], ds[j]
            want = pair_pieces_oracle(f, df.f1, df.f2, g, dg.f1, dg.f2, 0.05)
            assert rep.support[p] == positive_support(f, g)
            assert rep.main_count[p] == want["main_count"]
            assert rep.main_l1[p] == pytest.approx(df.f1.sum() * dg.f1.sum(), rel=1e-9)
            assert rep.bohr_size[p].tolist() == [df.bohr.size, dg.bohr.size]
            assert rep.f1_max[p].tolist() == [df.f1_max, dg.f1_max]
            for c, key in enumerate(("12", "21", "22")):
                assert rep.error_count[p, c] == want[f"err{key}_count"]
                assert rep.error_l2sq[p, c] == pytest.approx(
                    want[f"err{key}_l2sq"], rel=1e-9, abs=1e-12
                )
        exact = pairs.index((6, 6))
        assert np.all(rep.error_l2sq[exact] == 0.0)

    def test_broken_mass_fails_the_l1_identity(self, monkeypatch):
        # an injected split whose f1 alternates in sign: ||f1*f1||_1 is 16^2,
        # while the product of the masses of f1 is 0
        f = constant(16, 1.0)
        (d,) = split_densities([f], [0.5])
        assert d.bohr.size == 16
        broken = Decomposition(f1=d.f1 * (-1.0) ** np.arange(16), f2=d.f2, bohr=d.bohr)
        monkeypatch.setattr(zs, "_split_rows", lambda densities, levels: [broken])
        with pytest.raises(InvariantViolation, match="L1 mass"):
            convolve_pairs([f], [0.5], [(0, 0)], [0.5], 0.1, sums=row_sums([f]))

    def test_no_pairs(self):
        rep = convolve_pairs(np.zeros((0, 8)), [], [], [], 0.1, sums=np.zeros(0))
        assert rep.support.shape == (0,) and rep.error_l2sq.shape == (0, 3)
        assert rep.bohr_size.shape == rep.f1_max.shape == (0, 2)

    def test_sides_split_once_at_the_pair_level(self, monkeypatch):
        # a side reuses its own split when the pair's level is its own, or
        # when that split is exact and the pair's level is no higher; every
        # other (density, level) is split once
        rng = np.random.default_rng(3)
        smooth = rng.random(64)
        point = 64.0 * indicator(64, [3])
        split, rows_split, made = zs.split_densities, zs._split_rows, []

        def keeping(densities, levels):
            made.extend(
                (int(np.array_equal(f, point)), level) for f, level in zip(densities, levels)
            )
            return rows_split(densities, levels)

        monkeypatch.setattr(zs, "_split_rows", keeping)
        pairs = [(0, 1), (0, 1), (1, 1), (0, 0), (1, 0)]
        pair_levels = [0.1, 0.1, 0.1, 0.2, 0.3]
        rows = [smooth, point]
        rep = convolve_pairs(
            rows, [0.2, 0.2], pairs, pair_levels, 0.05, sums=row_sums(rows)
        )
        assert made == [(0, 0.2), (1, 0.2), (0, 0.1), (0, 0.3), (1, 0.3)]
        assert split([smooth], [0.2])[0].bohr.size > 1
        assert split([point], [0.3])[0].bohr.size == 1
        for p, ((i, j), level) in enumerate(zip(pairs, pair_levels)):
            df, dg = split([[smooth, point][c] for c in (i, j)], [level] * 2)
            assert rep.bohr_size[p].tolist() == [df.bohr.size, dg.bohr.size]
            assert rep.f1_max[p].tolist() == [df.f1_max, dg.f1_max]


def exact_split(f):
    """The split of f at a Bohr set of {0}: f1 = f, f2 = 0."""
    return Decomposition(f1=f, f2=np.zeros(f.size), bohr=np.zeros(1, dtype=np.int64))


def folded_reference(f, g, sigma):
    """Support, main count and L1 of the cyclic f*g, folded from the linear
    ``np.convolve``; exact for integer-valued densities."""
    n = len(f)
    full = np.convolve(f, g)
    conv = np.zeros(n)
    np.add.at(conv, np.arange(full.size) % n, full)
    level = sigma * min(f.sum() / n, g.sum() / n) * n
    return (
        int(np.count_nonzero(conv > 0.5)),
        int(np.count_nonzero(conv > level)),
        float(conv.sum()),
    )


def check_against_fold(values, sigma):
    """Run every unordered pair of the densities, all split exactly, and
    compare with ``folded_reference``; the pairs run in the order (0, 0),
    (0, 1), ..., (1, 1), ..."""
    pairs = [(i, j) for i in range(len(values)) for j in range(i, len(values))]
    with mock.patch.object(
        zs, "_split_rows", lambda densities, _: [exact_split(f) for f in densities]
    ):
        rep = convolve_pairs(
            values,
            [1.0] * len(values),
            pairs,
            [1.0] * len(pairs),
            sigma,
            sums=row_sums(values),
        )
    for p, (i, j) in enumerate(pairs):
        support, main_count, main_l1 = folded_reference(values[i], values[j], sigma)
        assert rep.support[p] == support
        assert rep.main_count[p] == main_count
        assert rep.main_l1[p] == pytest.approx(main_l1, rel=1e-9)
    return rep


# far from any ratio of small integers, so that no integer-valued convolution
# lands within rounding of the main threshold
IRRATIONAL_SIGMAS = st.sampled_from([2**0.5 / 20, 5**0.5 / 10, 3**-0.5])


class TestConvolvePairs:
    """The first piece f*g of ``convolve_pairs`` at the wrap-free length."""

    @given(
        st.sampled_from([31, 37, 97, 30, 64, 100]).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(0, (n - 1) // 2),
                st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                         min_size=1, max_size=4),
            )
        ),
        IRRATIONAL_SIGMAS,
    )
    @settings(max_examples=60)
    def test_short_support_matches_the_folded_convolution(self, drawn, sigma):
        n, h, rows = drawn
        values = [np.array(row, dtype=np.float64) for row in rows]
        for v in values:
            v[h + 1 :] = 0.0
        check_against_fold(values, sigma)

    @pytest.mark.parametrize("n", [29, 30])
    def test_support_past_half_of_zn_wraps_at_n(self, n):
        rng = np.random.default_rng(n)
        values = [rng.integers(0, 4, n).astype(np.float64) for _ in range(3)]
        for v, h in zip(values, (n - 3, n // 2 + 1, 4)):
            v[h + 1 :] = 0.0
            v[h] = 1.0
        check_against_fold(values, 2**0.5 / 20)

    def test_point_mass_at_h_reaches_2h(self):
        # 2h = 16 is 5-smooth, so a length one short of 2h + 1 would wrap the
        # point 2h of f*f onto the point 0 and lose one point of the support
        n, h = 37, 8
        f = np.zeros(n)
        f[[0, h]] = 1.0
        g = np.zeros(n)
        g[h] = 1.0
        rep = check_against_fold([f, g], 2**0.5 / 20)
        assert rep.support.tolist() == [3, 2, 1]

    def test_short_support_with_smoothed_splits(self):
        # the first piece runs short while f1*g1 and the mixed pieces of the
        # smoothed splits stay cyclic at N
        n, h = 128, 40
        rng = np.random.default_rng(5)
        fs = []
        for _ in range(4):
            v = rng.random(n)
            v[h + 1 :] = 0.0
            fs.append(v)
        v = np.zeros(n)
        v[h] = float(n)
        fs.append(v)
        ds = split_densities(fs, [0.1] * len(fs))
        assert ds[-1].bohr.size == 1 and all(d.bohr.size > 1 for d in ds[:-1])
        pairs = [(i, j) for i in range(5) for j in range(i, 5)]
        rep = convolve_pairs(
            fs, [0.1] * 5, pairs, [0.1] * len(pairs), 0.05, sums=row_sums(fs)
        )
        for p, (i, j) in enumerate(pairs):
            f, g, df, dg = fs[i], fs[j], ds[i], ds[j]
            want = pair_pieces_oracle(f, df.f1, df.f2, g, dg.f1, dg.f2, 0.05)
            assert rep.support[p] == positive_support(f, g)
            assert rep.main_count[p] == want["main_count"]
            assert rep.main_l1[p] == pytest.approx(want["main_l1"], rel=1e-9)
            for c, key in enumerate(("12", "21", "22")):
                assert rep.error_count[p, c] == want[f"err{key}_count"]
                assert rep.error_l2sq[p, c] == pytest.approx(
                    want[f"err{key}_l2sq"], rel=1e-9, abs=1e-12
                )


class TestSmoothLength:
    def test_matches_brute_force(self):
        def smallest_smooth(n):
            m = max(n, 1)
            while True:
                rest = m
                for p in (2, 3, 5):
                    while rest % p == 0:
                        rest //= p
                if rest == 1:
                    return m
                m += 1

        for n in range(5001):
            assert smooth_length(n) == smallest_smooth(n), n


class TestHalfSpectrumParseval:
    @given(st.integers(min_value=1, max_value=24).flatmap(
        lambda n: st.tuples(nonneg_values(n), nonneg_values(n))))
    @settings(max_examples=60)
    def test_matches_oracle_convolution(self, fg):
        f, g = fg
        n = len(f)
        prod = np.fft.rfft(f) * np.fft.rfft(g)
        want = float(np.sum(convolve_oracle(f, g) ** 2))
        got = float(l2sq_from_half_spectrum(prod, n))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_rows_odd_and_even(self, n):
        rng = np.random.default_rng(n)
        rows = rng.random((3, n))
        got = l2sq_from_half_spectrum(np.fft.rfft(rows, axis=-1), n)
        assert np.allclose(got, np.sum(rows**2, axis=-1), rtol=1e-12)
