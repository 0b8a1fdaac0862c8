import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from primesum.errors import DomainError, InvariantViolation
import primesum.zm_sumsets as zm
import primesum.zn_spectral as zs
from primesum.expcli.cli import main, parse_set_spec
from primesum.ntheory import factorize, unit_indicator
from primesum.zm_sumsets import (
    SubsetOfZm,
    capital_R,
    choose_moment_order,
    cyclic_sumset_size,
    integer_sumset_flags,
    kth_moment,
    rep_histogram,
    sumset,
    znstar_certificate,
)

from oracles import (
    int_sumset_enum,
    relaxed_rep_enum,
    rep_enum,
    sumset_enum,
    trial_primes,
    units_of,
)


def member_sets(m, max_size=16):
    return st.sets(st.integers(min_value=0, max_value=m - 1), max_size=max_size)


class TestSubsetOfZm:
    def test_roundtrip(self):
        b = SubsetOfZm.from_members(10, [1, 3, 7])
        assert b.members_array().tolist() == [1, 3, 7]
        assert b.cardinality == 3

    def test_units(self):
        assert SubsetOfZm.units(10).members_array().tolist() == [1, 3, 7, 9]

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            SubsetOfZm.from_members(10, [10])
        with pytest.raises(DomainError):
            SubsetOfZm.from_members(10, [1, 10**23])

    def test_many_members_over_a_large_modulus(self):
        m = 9_699_690  # the primorial of 19
        members = (np.arange(10**5, dtype=np.int64) * 97) % m
        start = time.perf_counter()
        b = SubsetOfZm.from_members(m, members)
        assert time.perf_counter() - start < 2.0
        assert b.cardinality == members.size
        assert np.array_equal(b.members_array(), np.sort(members))

    def test_members_found_once_into_read_only_arrays(self, monkeypatch):
        flatnonzero, scans = np.flatnonzero, []

        def counting(a):
            scans.append(a.size)
            return flatnonzero(a)

        b = SubsetOfZm.from_members(2310, units_of(2310)[:400])
        monkeypatch.setattr(np, "flatnonzero", counting)
        # the unit checks, both sumset routes and both routes of capital_R
        znstar_certificate(b, factorize(2310))
        assert b.members_array() is b.members_array()
        assert scans.count(2310) == 1
        assert b.indicator.dtype == bool
        assert b.members_array().dtype == np.int64
        assert not b.indicator.flags.writeable
        assert not b.members_array().flags.writeable

    @pytest.mark.parametrize(
        "indicator",
        [np.zeros(9, bool), np.zeros(11, bool), np.zeros((2, 5), bool), np.zeros(10, np.uint8)],
        ids=["short", "long", "two-dimensional", "uint8"],
    )
    def test_rejects_an_indicator_of_the_wrong_length_or_dtype(self, indicator):
        with pytest.raises(DomainError, match="bool array of length 10"):
            SubsetOfZm(m=10, indicator=indicator)


class TestSumset:
    def test_hand_count(self):
        b = SubsetOfZm.from_members(10, [1, 3])
        assert sumset(b).members_array().tolist() == [2, 4, 6]

    def test_empty(self):
        e = SubsetOfZm.from_members(10, [])
        assert sumset(e).cardinality == 0

    def test_units_of_30(self):
        b = SubsetOfZm.units(30)
        got = set(sumset(b).members_array().tolist())
        assert got == sumset_enum(b.members_array().tolist(), 30)

    @given(st.integers(min_value=2, max_value=128), st.data())
    def test_matches_enumeration(self, m, data):
        members = data.draw(member_sets(m))
        b = SubsetOfZm.from_members(m, sorted(members))
        got = set(sumset(b).members_array().tolist())
        assert got == sumset_enum(members, m)

    @staticmethod
    def count_rfft(monkeypatch) -> list:
        rfft, calls = np.fft.rfft, []

        def counting_rfft(a, *args, **kwargs):
            calls.append(a.size)
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        return calls

    def test_self_convolution_takes_one_forward_transform(self, monkeypatch):
        # 600^2 pairs are more than the 8000 log2(8000) butterflies (log2
        # rounded down) of the real FFT at the padded length 16000, so the
        # counts come from FFTs
        m = 8000
        rng = np.random.default_rng(5)
        b = SubsetOfZm.from_members(m, rng.choice(m, 600, replace=False).tolist())
        calls = self.count_rfft(monkeypatch)
        expected = sumset_enum(b.members_array().tolist(), m)
        assert set(sumset(b).members_array().tolist()) == expected
        assert cyclic_sumset_size(b) == len(expected)
        assert len(calls) == 2

    def test_sparse_counts_take_no_transform(self, monkeypatch):
        m = 8000
        rng = np.random.default_rng(5)
        b = SubsetOfZm.from_members(m, rng.choice(m, 150, replace=False).tolist())
        calls = self.count_rfft(monkeypatch)
        expected = sumset_enum(b.members_array().tolist(), m)
        assert set(sumset(b).members_array().tolist()) == expected
        assert cyclic_sumset_size(b) == len(expected)
        assert calls == []

    @given(st.integers(min_value=1, max_value=120), st.booleans(), st.data())
    def test_counts_match_enumeration_on_both_routes(self, m, dense, data):
        # the bincount route serves at most (L/2) log2(L/2) pairs, and
        # counts more than 2m - 1 of them in several chunks; the empty set
        # is drawn on the sparse side
        cut = math.isqrt(butterfly_bound(2 * m - 1))
        assume(not dense or cut < m)
        lo, hi = (cut + 1, m) if dense else (0, min(cut, m))
        members = sorted(
            data.draw(st.sets(st.integers(0, m - 1), min_size=lo, max_size=hi))
        )
        b = SubsetOfZm.from_members(m, members)
        with mock.patch.object(zm, "_convolve_int_exact", wraps=zm._convolve_int_exact) as fft:
            assert rep_histogram(b).tolist() == rep_enum(members, m).tolist()
        assert fft.called == dense
        assert zm._sumset_counts(b).tolist() == rep_enum(members, m).tolist()

    @given(st.integers(min_value=2, max_value=200), st.data())
    def test_cyclic_size_agrees(self, m, data):
        members = np.asarray(sorted(data.draw(member_sets(m))), dtype=np.int64)
        b = SubsetOfZm.from_members(m, members)
        assert cyclic_sumset_size(b) == sumset(b).cardinality


def sumset_members(a) -> tuple[int, np.ndarray, set[int]]:
    """``integer_sumset_flags`` of a finite integer set, with the members
    offset + i that its flags mark."""
    lo, flags = integer_sumset_flags(np.array(sorted(a), dtype=np.int64))
    return lo, flags, set((lo + np.flatnonzero(flags)).tolist())


class TestIntegerSumset:
    def test_hand_count(self):
        lo, flags, _ = sumset_members([1, 3])
        assert lo == 2
        assert flags.tolist() == [True, False, True, False, True]

    def test_identity(self):
        # a set holding 0 lies inside its sumset; a singleton doubles
        s = {0, 4, 9, 11}
        assert s <= sumset_members(s)[2]
        assert sumset_members([7])[2] == {14}

    def test_primes_one_mod_six(self):
        primes = [q for q in trial_primes(100) if q % 6 == 1]
        total = sumset_members(primes)[2]
        assert all(x % 6 == 2 for x in total)
        assert total == int_sumset_enum(primes)

    @given(st.sets(st.integers(min_value=0, max_value=500), min_size=1, max_size=20))
    def test_matches_enumeration(self, a):
        lo, flags, members = sumset_members(a)
        assert lo == 2 * min(a)
        assert flags.size == 2 * (max(a) - min(a)) + 1
        assert members == int_sumset_enum(a)


def butterfly_bound(length: int) -> int:
    """The pair count up to which a linear convolution of the given length is
    counted by bincount: the (L/2) log2(L/2) butterflies, log2 rounded down,
    of a real FFT at the smallest 5-smooth L >= length."""
    half = zm.smooth_length(length) // 2
    return half * (half.bit_length() - 1)


def draw_cards(data, la, lb, lo, bound, above, same) -> tuple[int, int]:
    """Cardinalities in [lo, la] x [lo, lb] whose product lies above the
    bound, or at most at it; one shared cardinality when ``same``."""
    if same:
        cut = math.isqrt(bound)
        lo_a, hi_a = (cut + 1, la) if above else (lo, min(cut, la))
        assume(lo_a <= hi_a)
        card = data.draw(st.integers(lo_a, hi_a))
        return card, card
    if above:
        lo_a, hi_a = max(lo, -(-(bound + 1) // lb)), la
    else:
        lo_a, hi_a = lo, min(la, bound // lo)
    assume(lo_a <= hi_a)
    card_a = data.draw(st.integers(lo_a, hi_a))
    if above:
        lo_b, hi_b = max(lo, -(-(bound + 1) // card_a)), lb
    else:
        lo_b, hi_b = lo, min(lb, bound // card_a)
    assume(lo_b <= hi_b)
    return card_a, data.draw(st.integers(lo_b, hi_b))


class TestPairSumKernel:
    """The bincount-or-FFT rule behind every exact sumset, against
    brute-force ``np.add.outer`` counts, with pair counts drawn on both sides
    of the butterfly bound; the FFT (for integer sumsets, the residue-split
    convolution) is taken exactly above it."""

    @given(
        st.integers(min_value=1, max_value=150), st.booleans(), st.booleans(), st.data()
    )
    def test_cyclic_counts_fold_the_wrapped_sums(self, m, above, same, data):
        card_a, card_b = draw_cards(data, m, m, 1, butterfly_bound(2 * m - 1), above, same)
        x = np.sort(data.draw(st.permutations(range(m)))[:card_a])
        y = x if same else np.sort(data.draw(st.permutations(range(m)))[:card_b])
        a = np.zeros(m, dtype=np.int64)
        a[x] = 1
        b = a
        if not same:
            b = np.zeros(m, dtype=np.int64)
            b[y] = 1
        with mock.patch.object(zm, "_convolve_int_exact", wraps=zm._convolve_int_exact) as fft:
            counts = zm._cyclic_int_convolution(a, b)
        assert fft.called == above
        expected = np.bincount((np.add.outer(x, y) % m).ravel(), minlength=m)
        assert counts.tolist() == expected.tolist()
        # a fresh array, not a view that keeps the linear counts alive
        assert counts.base is None

    @pytest.mark.parametrize("card_b, above", [(5, False), (6, True)])
    def test_pairs_on_the_bound_are_counted_one_by_one(self, card_b, above):
        # Z_15 pads to 30, whose real FFT runs 15 log2 15 = 45 butterflies
        # (log2 rounded down): 9 x 5 pairs sit on the bound, 9 x 6 above it
        assert butterfly_bound(2 * 15 - 1) == 45
        x, y = np.arange(9), np.arange(card_b)
        a, b = np.zeros(15, dtype=bool), np.zeros(15, dtype=bool)
        a[x], b[y] = True, True
        with mock.patch.object(zm, "_convolve_int_exact", wraps=zm._convolve_int_exact) as fft:
            counts = zm._cyclic_int_convolution(a, b)
        assert fft.called == above
        expected = np.bincount((np.add.outer(x, y) % 15).ravel(), minlength=15)
        assert counts.tolist() == expected.tolist()

    @given(st.integers(min_value=1, max_value=200), st.booleans(), st.data())
    def test_integer_flags_on_both_sides_of_the_bound(self, la, above, data):
        # at most 200^2 pairs: above the bound, these are sets that a fixed
        # cap of millions of pairs would still count pair by pair
        card, _ = draw_cards(
            data, la, la, min(2, la), butterfly_bound(2 * la - 1), above, True
        )

        def members(span: int, card: int) -> np.ndarray:
            # 0 and span - 1 fix the span; the interior fills up to card
            ends = sorted({0, span - 1})
            inner = data.draw(st.permutations(range(1, span - 1)))[: card - len(ends)]
            offset = data.draw(st.integers(min_value=0, max_value=10**6))
            return offset + np.array(sorted(ends + inner), dtype=np.int64)

        a = members(la, card)
        with mock.patch.object(
            zm, "_split_sumset_flags", wraps=zm._split_sumset_flags
        ) as split:
            lo, flags = integer_sumset_flags(a)
        assert split.called == above
        sums = np.add.outer(a, a).ravel()
        assert lo == sums.min()
        expected = np.zeros(int(sums.max()) - lo + 1, dtype=bool)
        expected[sums - lo] = True
        assert flags.tolist() == expected.tolist()



def outer_flags(a: np.ndarray) -> tuple[int, list[bool]]:
    """The offset and flags of A + A over the integers, from every pair."""
    sums = np.add.outer(a, a).ravel()
    lo = int(sums.min())
    flags = np.zeros(int(sums.max()) - lo + 1, dtype=bool)
    flags[sums - lo] = True
    return lo, flags.tolist()


def split_flags(a: np.ndarray) -> tuple[int, np.ndarray]:
    """``_split_sumset_flags`` of an array of distinct members, given its
    size |A|."""
    return zm._split_sumset_flags(a, a.size)


@st.composite
def split_inputs(draw):
    """A sorted int64 array that fills a drawn set of residue classes mod
    30, each with one to a few members (a one-member class included when
    drawn), shifted by an offset of up to 10^12 either way."""
    residues = draw(st.sets(st.integers(0, 29), min_size=1))
    members = set()
    for r in residues:
        quotients = draw(st.sets(st.integers(0, 60), min_size=1, max_size=6))
        members.update(30 * q + r for q in quotients)
    offset = draw(st.integers(-(10**12), 10**12))
    return offset + np.array(sorted(members), dtype=np.int64)


class TestSplitSumset:
    """The residue-split convolution behind ``integer_sumset_flags``."""

    @given(split_inputs())
    def test_flags_match_the_outer_sums(self, a):
        lo, flags = split_flags(a)
        expected_lo, expected = outer_flags(a)
        assert lo == expected_lo
        assert flags.tolist() == expected

    @pytest.mark.parametrize("limit", [100, 3000])
    def test_primes_with_their_one_member_classes(self, limit):
        # 2, 3 and 5 are the only members of their classes mod 30
        primes = np.array(trial_primes(limit), dtype=np.int64)
        lo, flags = split_flags(primes)
        assert set((lo + np.flatnonzero(flags)).tolist()) == int_sumset_enum(
            primes.tolist()
        )
        # only one-member classes
        lo, flags = split_flags(primes[:3])
        assert (lo, flags.tolist()) == outer_flags(primes[:3])

    def test_one_stacked_forward_transform_and_blocked_inverses(self, monkeypatch):
        primes = np.array(trial_primes(3000), dtype=np.int64)
        rows = int(np.unique(primes % 30).size)
        positions = int(primes[-1]) // 30 + 1
        nfft = zm.smooth_length(2 * positions - 1)
        calls = {"rfft": [], "irfft": []}
        for name in calls:
            real = getattr(np.fft, name)

            def recording(a, n=None, *args, _real=real, _name=name, **kwargs):
                calls[_name].append((np.shape(a), n))
                return _real(a, n, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, recording)
        # two inverse rows per block
        monkeypatch.setattr(zs, "BLOCK_BYTES", 2 * 32 * nfft)
        split_flags(primes)
        assert calls["rfft"] == [((rows, positions), nfft)]
        sums = {int(x) for x in np.add.outer(primes % 30, primes % 30).ravel()}
        shapes = [shape for shape, n in calls["irfft"] if n == nfft]
        assert len(shapes) == len(calls["irfft"]) == -(-len(sums) // 2)
        assert [shape[0] for shape in shapes] == [2] * (len(sums) // 2) + [1] * (
            len(sums) % 2
        )

    def test_a_count_off_by_one_fails_the_pair_total(self, monkeypatch):
        round_exact = zm._certified_round

        def corrupted(conv, dtype):
            counts = round_exact(conv, dtype)
            counts.flat[-1] += 1
            return counts

        monkeypatch.setattr(zm, "_certified_round", corrupted)
        primes = np.array(trial_primes(1000), dtype=np.int64)
        with pytest.raises(InvariantViolation, match=r"expected \|A\|\^2"):
            split_flags(primes)

    def test_unrounded_counts_fail_the_certificate(self, monkeypatch):
        primes = np.array(trial_primes(1000), dtype=np.int64)
        real = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: real(*a, **k) + 0.3)
        with pytest.raises(InvariantViolation, match="exactness certificate"):
            split_flags(primes)


PRIMES = [q for q in trial_primes(1500) if q > 100]
# moduli whose convolutions take one transform of length m, and moduli whose
# convolutions take the padded 5-smooth length
SMOOTH_MODULI = st.one_of(
    st.sampled_from([2, 6, 30, 210, 2310]),
    st.tuples(st.integers(0, 10), st.integers(0, 4))
    .map(lambda e: 2 ** e[0] * 5 ** e[1])
    .filter(lambda m: 2 <= m <= 2000),
)
ROUGH_MODULI = st.one_of(
    st.sampled_from(PRIMES), st.sampled_from([2 * q for q in PRIMES if q < 750])
)


class TestCyclicLength:
    """The length rule of ``_cyclic_int_convolution``: the FFT runs at m
    when m's factorization makes that cheaper than the padded 5-smooth
    length, and its result passes the same certificate."""

    @given(
        st.one_of(
            SMOOTH_MODULI.map(lambda m: (m, True)), ROUGH_MODULI.map(lambda m: (m, False))
        ),
        st.booleans(),
        st.booleans(),
        st.data(),
    )
    def test_counts_match_the_outer_sums_on_both_routes(self, modulus, above, same, data):
        m, smooth = modulus
        padded = zm.smooth_length(2 * m - 1)
        card_a, card_b = draw_cards(data, m, m, 1, butterfly_bound(2 * m - 1), above, same)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = np.sort(rng.choice(m, card_a, replace=False))
        y = x if same else np.sort(rng.choice(m, card_b, replace=False))
        a = np.zeros(m, dtype=bool)
        a[x] = True
        b = a
        if not same:
            b = np.zeros(m, dtype=bool)
            b[y] = True
        with mock.patch.object(zm, "_convolve_int_exact", wraps=zm._convolve_int_exact) as fft:
            counts = zm._cyclic_int_convolution(a, b)
        assert fft.called == above
        if above:
            assert fft.call_args.args[2] == (m if smooth else padded)
        expected = np.bincount((np.add.outer(x, y) % m).ravel(), minlength=m)
        assert counts.tolist() == expected.tolist()

    # the prime 30011 pads 60021 to the 5-smooth 2 * 3^5 * 5^3
    @pytest.mark.parametrize("m, length", [(30030, 30030), (30011, 60750)])
    def test_transform_length(self, monkeypatch, m, length):
        lengths = []
        rfft = np.fft.rfft

        def recording(a, n=None, *args, **kwargs):
            lengths.append(n)
            return rfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recording)
        units = SubsetOfZm.units(m).indicator
        counts = zm._cyclic_int_convolution(units, units)
        assert lengths == [length]
        # a pair of units summing to x has p - 1 choices mod p when p | x,
        # and p - 2 otherwise
        primes = factorize(m).prime_divisors
        expected = [
            math.prod(p - 1 if x % p == 0 else p - 2 for p in primes) for x in range(m)
        ]
        assert counts.tolist() == expected
        zm._cyclic_int_convolution(units, units.copy())
        assert lengths == [length] * 3

    @pytest.mark.parametrize("m", [30030, 30011])
    def test_an_off_integer_transform_fails_the_certificate(self, monkeypatch, m):
        irfft = np.fft.irfft

        def shifted(spec, n=None, *args, **kwargs):
            return irfft(spec, n, *args, **kwargs) + 0.3

        monkeypatch.setattr(np.fft, "irfft", shifted)
        units = SubsetOfZm.units(m).indicator
        with pytest.raises(InvariantViolation, match="exactness certificate"):
            zm._cyclic_int_convolution(units, units)


class TestRepHistogram:
    def test_z5_units(self):
        b = SubsetOfZm.from_members(5, [1, 2, 3, 4])
        assert rep_histogram(b).tolist() == [4, 3, 3, 3, 3]

    def test_singleton_zero(self):
        b = SubsetOfZm.from_members(6, [0])
        assert rep_histogram(b).tolist() == [1, 0, 0, 0, 0, 0]

    @given(st.integers(min_value=2, max_value=100), st.data())
    def test_matches_enumeration(self, m, data):
        members = sorted(data.draw(member_sets(m)))
        b = SubsetOfZm.from_members(m, members)
        hist = rep_histogram(b)
        assert hist.tolist() == rep_enum(members, m).tolist()
        assert int(np.sum(hist)) == len(members) ** 2
        assert not hist.flags.writeable


class TestCapitalR:
    def test_units_30_at_two(self):
        b = SubsetOfZm.units(30)
        r = capital_R(b, factorize(30))
        assert int(r[2]) == 3

    def test_empty(self):
        b = SubsetOfZm.from_members(30, [])
        assert not np.any(capital_R(b, factorize(30)))

    @given(st.sampled_from([6, 10, 15, 30, 42, 2310, 30030]), st.data())
    def test_matches_definition_and_dominates(self, m, data):
        units = units_of(m)
        members = sorted(data.draw(st.sets(st.sampled_from(units), max_size=8)))
        b = SubsetOfZm.from_members(m, members)
        mod = factorize(m)
        r_big = capital_R(b, mod)
        assert r_big.tolist() == relaxed_rep_enum(members, m).tolist()
        assert np.all(r_big >= rep_histogram(b))

    @given(
        st.sampled_from([1, 2, 6, 30, 2310, 30030]),
        st.sampled_from(["empty", "single", "full"]),
        st.data(),
    )
    def test_factored_mobius_matches_enumeration(self, m, kind, data):
        # capital_R returns only when the per-prime Moebius passes agree
        # with the convolution; all 5760^2 unit pairs of Z_30030 are too
        # many to enumerate, so its full set is left to the closed form below
        assume(not (kind == "full" and m == 30030))
        units = units_of(m)
        members = {
            "empty": [],
            "single": [data.draw(st.sampled_from(units))],
            "full": units,
        }[kind]
        b = SubsetOfZm.from_members(m, members)
        assert capital_R(b, factorize(m)).tolist() == relaxed_rep_enum(members, m).tolist()

    @pytest.mark.parametrize("m", [1, 2, 6, 30, 2310, 30030])
    def test_full_unit_group_closed_form(self, m):
        # a pair of units summing to x has p - 1 choices mod p when p | x,
        # and p - 2 otherwise
        primes = factorize(m).prime_divisors
        expected = [
            math.prod(p - 1 if x % p == 0 else p - 2 for p in primes) for x in range(m)
        ]
        assert capital_R(SubsetOfZm.units(m), factorize(m)).tolist() == expected

    def test_disagreeing_routes_raise(self, monkeypatch):
        import primesum.zm_sumsets as zm

        convolve = zm._cyclic_int_convolution

        def off_by_one(a, b):
            out = convolve(a, b)
            out[0] += 1
            return out

        monkeypatch.setattr(zm, "_cyclic_int_convolution", off_by_one)
        # 1 and 7 fold onto Z_15, where their 2 * 8 pairs with the units are
        # at most the 15 log2 15 butterflies at 30: counted pair by pair
        with pytest.raises(InvariantViolation):
            capital_R(SubsetOfZm.from_members(30, [1, 7]), factorize(30))


    @pytest.mark.parametrize("m", [1, 2, 3, 6, 15015, 30030, 510510])
    def test_unit_spectrum_is_the_transform_of_the_units(self, m):
        mod = factorize(m)
        spec = np.ones(m // 2 + 1, dtype=np.complex128)
        zm._apply_unit_spectrum(mod, spec)
        gap = np.abs(spec - np.fft.rfft(unit_indicator(mod)))
        assert gap.max() <= 1e-9 * mod.totient

    @pytest.mark.parametrize(
        "m, card, nfft",
        # 2310 folds onto 1155 and 15015 stays: both take one transform pair
        # at the odd modulus; 20014 folds onto the prime 10007, whose
        # convolution takes the padded length 20250 = 2 * 3^4 * 5^3
        [(2310, 60, 1155), (15015, 60, 15015), (20014, 40, 20250)],
    )
    def test_each_route_matches_enumeration(self, m, card, nfft):
        rng = np.random.default_rng(m)
        members = sorted(rng.choice(units_of(m), card, replace=False).tolist())
        b = SubsetOfZm.from_members(m, members)
        with mock.patch.object(zm, "_convolve_int_exact", wraps=zm._convolve_int_exact) as fft:
            r_big = capital_R(b, factorize(m))
        assert fft.call_count == 1
        assert fft.call_args.args[2] == nfft
        odd = m if m % 2 else m // 2
        # the closed-form unit spectrum comes as a callable multiplier
        assert callable(fft.call_args.args[1]) == (nfft == odd)
        assert r_big.tolist() == relaxed_rep_enum(members, m).tolist()

    @staticmethod
    def units_of_210():
        # 35 of the 48 units of Z_210, which fold onto Z_105: their pairs with
        # the units outnumber the butterflies at 216, so the route is one
        # transform pair at 105
        return SubsetOfZm.from_members(210, units_of(210)[:35])

    def test_a_flipped_spectrum_entry_fails_the_moebius_gate(self, monkeypatch):
        # flipping entry 0 moves every count down by 2 |B| phi(105) / 105 = 32,
        # an integer; some counts of at most |B| = 35 drop below 0, which the
        # rounding's range check rejects.  Moved up by 32 instead, every count
        # stays within uint8, the rounding certificate passes and the Moebius
        # gate must catch it
        spectrum = zm._apply_unit_spectrum
        for sign in (-1, 1):

            def shifted(mod, spec):
                spectrum(mod, spec)
                spec[0] += sign * 2 * spec[0].real

            monkeypatch.setattr(zm, "_apply_unit_spectrum", shifted)
            message = "outside uint8" if sign < 0 else "Moebius counts disagree"
            with pytest.raises(InvariantViolation, match=message):
                capital_R(self.units_of_210(), factorize(210))

    def test_counts_placed_on_the_odd_residues_fail_the_moebius_gate(self, monkeypatch):
        def on_odd_residues(r_half):
            r = np.tile(r_half, 2)
            r[0::2] = 0
            return r

        monkeypatch.setattr(zm, "_lift_half", on_odd_residues)
        with pytest.raises(InvariantViolation, match="unit-shift and Moebius counts disagree"):
            capital_R(self.units_of_210(), factorize(210))

    def test_znstar_bound_runs_one_transform_pair_at_half_length(self, monkeypatch, capsys):
        lengths = []
        rfft, irfft = np.fft.rfft, np.fft.irfft

        def recording(name, transform):
            def call(a, n=None, *args, **kwargs):
                lengths.append((name, n))
                return transform(a, n, *args, **kwargs)

            return call

        monkeypatch.setattr(np.fft, "rfft", recording("rfft", rfft))
        monkeypatch.setattr(np.fft, "irfft", recording("irfft", irfft))
        argv = ["znstar-bound", "--m", "510510", "--set-spec", "units-random:0.005:1"]
        assert main(argv) == 0
        assert "card=461" in capsys.readouterr().out
        assert lengths == [("rfft", 255255), ("irfft", 255255)]


@pytest.mark.parametrize(
    "certify",
    [capital_R, lambda b, mod: kth_moment(b, 2, mod), znstar_certificate],
    ids=["capital_R", "kth_moment", "znstar_certificate"],
)
def test_non_unit_member_rejected(certify):
    b = SubsetOfZm.from_members(30, [1, 6, 7])
    with pytest.raises(DomainError):
        certify(b, factorize(30))


def gcd_strata(mod) -> dict[int, np.ndarray]:
    """The layers X_d = {x : gcd(x, m) = d} that ``kth_moment`` bins its
    moments over, read from ``_gcd_layers`` and keyed by d ascending."""
    divisors, layer = zm._gcd_layers(mod)
    return {d: np.flatnonzero(layer == j) for j, d in enumerate(divisors)}


class TestDivisorStratification:
    @given(
        st.one_of(
            st.integers(min_value=1, max_value=2000),
            st.sampled_from([1, 2, 4, 27, 625, 1024, 1331, 1849, 1800]),
        )
    )
    def test_matches_gcd(self, m):
        mod = factorize(m)
        g = np.gcd(np.arange(m), m)
        strata = gcd_strata(mod)
        assert list(strata) == mod.divisors()
        for d, xs in strata.items():
            assert xs.tolist() == np.flatnonzero(g == d).tolist()

    def test_m30_layers(self):
        strata = gcd_strata(factorize(30))
        assert strata[6].tolist() == [6, 12, 18, 24]
        assert strata[30].tolist() == [0]

    def test_partition_identity(self):
        for m in (12, 30, 210):
            strata = gcd_strata(factorize(m))
            total = sum(len(v) for v in strata.values())
            assert total == m
            for d, xs in strata.items():
                assert len(xs) == factorize(m // d).totient


class TestKthMoment:
    def test_z5_units_second_moment(self):
        b = SubsetOfZm.from_members(5, [1, 2, 3, 4])
        cert = kth_moment(b, 2, factorize(5))
        assert cert.s_rb == 52
        assert abs(cert.comparator - 51.2) < 1e-12
        assert abs(cert.comparator_ratio - 1.015625) < 1e-12

    def test_first_moment_identity(self):
        # the first moment is the identity s_rb = |B|^2, which certifies
        # nothing: the certificate starts at k = 2
        b = SubsetOfZm.from_members(30, [1, 7, 13])
        with pytest.raises(DomainError, match="moment order must be >= 2"):
            kth_moment(b, 1, factorize(30))

    @given(st.data())
    def test_srb_below_sr_with_exact_strata(self, data):
        units = units_of(210)
        members = sorted(
            data.draw(st.sets(st.sampled_from(units), min_size=1, max_size=10))
        )
        b = SubsetOfZm.from_members(210, members)
        cert = kth_moment(b, 3, factorize(210))
        assert cert.s_rb <= cert.s_r
        assert sum(cert.stratified.values()) == cert.s_r
        assert cert.s_rb == sum(int(v) ** 3 for v in rep_enum(members, 210))
        relaxed = relaxed_rep_enum(members, 210)
        assert cert.s_r == sum(int(v) ** 3 for v in relaxed)
        divisors = factorize(210).divisors()
        assert list(cert.stratified) == divisors
        assert cert.stratified == {
            d: sum(int(relaxed[x]) ** 3 for x in range(210) if math.gcd(x, 210) == d)
            for d in divisors
        }


class TestNarrowCounts:
    """Every count of the certificate is held in the narrowest unsigned dtype
    that holds |B|, its bound: one byte up to |B| = 255, two from 256.  On
    both sides of that boundary the counts and the moments must equal int64
    oracles."""

    # at 30030 the 255^2 pairs of B + B are counted pair by pair; at 2310
    # they outnumber the butterflies at 4800, so the FFT runs at length m
    @pytest.mark.parametrize("m, rep_by_fft", [(30030, False), (2310, True)])
    @pytest.mark.parametrize("card, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_counts_and_moments_match_int64_oracles(self, m, rep_by_fft, card, dtype):
        rng = np.random.default_rng(card)
        members = sorted(rng.choice(units_of(m), card, replace=False).tolist())
        b = SubsetOfZm.from_members(m, members)
        mod = factorize(m)
        with mock.patch.object(zm, "_convolve_int_exact", wraps=zm._convolve_int_exact) as fft:
            hist = rep_histogram(b)
        assert fft.called == rep_by_fft
        big_r = capital_R(b, mod)
        assert hist.dtype == big_r.dtype == dtype
        rep = rep_enum(members, m).tolist()
        # the brute-force R: every member plus every unit, counted in int64
        sums = np.add.outer(np.array(members), np.array(units_of(m))) % m
        relaxed = np.bincount(sums.ravel(), minlength=m).tolist()
        assert hist.tolist() == rep
        assert big_r.tolist() == relaxed

        cert = kth_moment(b, 3, mod)
        assert cert.hist.tolist() == rep
        assert cert.s_rb == sum(v**3 for v in rep)
        assert cert.s_r == sum(v**3 for v in relaxed)
        strata = dict.fromkeys(mod.divisors(), 0)
        for d, v in zip(np.gcd(np.arange(m), m).tolist(), relaxed):
            strata[d] += v**3
        assert cert.stratified == strata

    def test_every_block_of_the_rounding_is_certified(self):
        size = zs.block_rows(1)
        exact = np.arange(2 * size + 1, dtype=np.float64) % 7
        assert zm._certified_round(exact.copy(), np.uint8).tolist() == exact.tolist()
        for where in (0, size - 1, size, 2 * size):
            conv = exact.copy()
            conv[where] += 0.3
            with pytest.raises(InvariantViolation, match="exactness certificate"):
                zm._certified_round(conv, np.uint8)
        rows = np.zeros((3, 5))
        rows[2, 4] = 0.3
        with pytest.raises(InvariantViolation, match="exactness certificate"):
            zm._certified_round(rows, np.uint8)

    def test_a_count_the_dtype_cannot_hold_fails_the_rounding(self):
        size = zs.block_rows(1)
        edge = np.zeros(2 * size + 1)
        edge[-1] = 255.0
        assert zm._certified_round(edge.copy(), np.uint8)[-1] == 255
        for bad in (256.0, -1.0):
            for where in (0, size, 2 * size):
                conv = edge.copy()
                conv[where] = bad
                with pytest.raises(InvariantViolation, match="outside uint8"):
                    zm._certified_round(conv, np.uint8)

    @pytest.mark.parametrize("m", [30030, 30011])
    def test_an_off_integer_entry_past_the_first_block_fails(self, monkeypatch, m):
        # blocks of 1000 points: the entry at m - 1 lies past the first one
        monkeypatch.setattr(zs, "BLOCK_BYTES", 32 * 1000)
        irfft = np.fft.irfft

        def shifted(spec, n=None, *args, **kwargs):
            out = irfft(spec, n, *args, **kwargs)
            out[m - 1] += 0.3
            return out

        monkeypatch.setattr(np.fft, "irfft", shifted)
        units = SubsetOfZm.units(m).indicator
        with pytest.raises(InvariantViolation, match="exactness certificate"):
            zm._cyclic_int_convolution(units, units)

    @pytest.mark.parametrize(
        "spec, card, bound", [("units-random:0.005:1", 461, 12), ("units-random:0.02:1", 1844, 24)]
    )
    def test_kth_moment_peak_bytes_per_residue(self, spec, card, bound):
        # tracemalloc counts numpy's own allocations, so the peak repeats;
        # capital_R's transform at length 255255 comes first, and the 1,844
        # members' pair sums are counted over Z_255255
        m = 510510
        b = parse_set_spec(spec, m)
        mod = factorize(m)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cert = kth_moment(b, 3, mod)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.card == card
        assert peak - before <= bound * m


class TestHolderLowerBound:
    """The Hoelder bound of ``kth_moment`` on unit subsets of squarefree
    moduli."""

    def test_pair_in_z10(self):
        b = SubsetOfZm.from_members(10, [1, 3])
        cert = kth_moment(b, 2, factorize(10))
        assert cert.s_rb == 6
        assert abs(cert.holder_bound - 16 / 6) < 1e-12
        assert cert.actual_sumset == 3

    def test_singleton(self):
        b = SubsetOfZm.from_members(10, [1])
        cert = kth_moment(b, 2, factorize(10))
        assert abs(cert.holder_bound - 1.0) < 1e-12
        assert cert.actual_sumset == 1

    def test_z5_units(self):
        b = SubsetOfZm.from_members(5, [1, 2, 3, 4])
        cert = kth_moment(b, 2, factorize(5))
        assert cert.s_rb == 52
        assert abs(cert.holder_bound - 256 / 52) < 1e-9
        assert cert.actual_sumset == 5

    @given(
        st.integers(min_value=2, max_value=60).filter(lambda m: factorize(m).squarefree),
        st.integers(min_value=2, max_value=4),
        st.data(),
    )
    def test_sound_on_random_sets(self, m, k, data):
        members = sorted(data.draw(st.sets(st.sampled_from(units_of(m)), min_size=1)))
        cert = kth_moment(SubsetOfZm.from_members(m, members), k, factorize(m))
        assert cert.actual_sumset >= cert.holder_bound - 1e-9


class TestChooseMomentOrder:
    def test_synthetic_small_alpha(self):
        raw, clamped = choose_moment_order(math.exp(-100.0))
        assert raw == 2
        assert clamped == 3

    def test_full_density_degenerate(self):
        raw, clamped = choose_moment_order(1.0)
        assert clamped == 3

    def test_units_filtered_pipeline_values(self):
        b = SubsetOfZm.from_members(30, [1, 7, 13, 19])
        alpha = b.cardinality / 8
        _, k = choose_moment_order(alpha)
        cert = kth_moment(b, k, factorize(30))
        brute = len(sumset_enum([1, 7, 13, 19], 30))
        assert cert.actual_sumset == brute
        assert cert.holder_bound <= brute + 1e-9


class TestHalfModulus:
    """An even modulus m = 2n runs the moment certificate over Z_n: B and
    the checked R fold onto Z_n, the gcd layer of d | n there is that of 2d
    in Z_m, and r_B is lifted back onto Z_m.  The odd 15015 runs over Z_m
    itself.  Every field must equal a brute-force count over all of Z_m."""

    @pytest.mark.parametrize("m", [2, 6, 30, 210, 2310, 30030, 15015])
    def test_certificate_matches_brute_force_over_all_of_zm(self, m):
        rng = np.random.default_rng(m)
        units = units_of(m)
        members = sorted(rng.choice(units, min(len(units), 40), replace=False).tolist())
        b = SubsetOfZm.from_members(m, members)
        mod = factorize(m)
        cert = kth_moment(b, 3, mod)
        rep = rep_enum(members, m).tolist()
        # the brute-force R: every member plus every unit, counted in int64
        sums = np.add.outer(np.array(members), np.array(units)) % m
        relaxed = np.bincount(sums.ravel(), minlength=m).tolist()
        assert cert.hist.shape == (m,) and not cert.hist.flags.writeable
        assert cert.hist.tolist() == rep
        assert cert.s_rb == sum(v**3 for v in rep)
        assert cert.s_r == sum(v**3 for v in relaxed)
        strata = dict.fromkeys(mod.divisors(), 0)
        for d, v in zip(np.gcd(np.arange(m), m).tolist(), relaxed):
            strata[d] += v**3
        assert list(cert.stratified) == list(strata)
        assert cert.stratified == strata
        assert cert.actual_sumset == len(sumset_enum(members, m))

    def test_a_fold_that_merges_two_members_fails(self):
        # 1 and 16 = 1 + 15 both reduce to 1 mod 15; 16 is even, so no set
        # of units of Z_30 holds both
        flags = SubsetOfZm.from_members(30, [1, 16]).indicator
        with pytest.raises(InvariantViolation, match="merged entries"):
            zm._fold_half(flags)


class TestZnStarCertificate:
    def test_squarefree_path(self):
        b = SubsetOfZm.from_members(30, [1, 7, 13, 19])
        rep = znstar_certificate(b, factorize(30))
        assert rep.final_bound <= rep.actual_cyclic + 1e-9

    @pytest.mark.parametrize("m", [4, 20, 1800])
    def test_a_non_squarefree_modulus_is_rejected(self, m):
        b = SubsetOfZm.from_members(m, units_of(m)[:4])
        with pytest.raises(DomainError, match=f"modulus must be squarefree, got {m}"):
            znstar_certificate(b, factorize(m))

    @given(st.sampled_from([6, 10, 30, 42, 66, 105]), st.data())
    def test_bound_below_actual(self, m, data):
        units = units_of(m)
        members = sorted(
            data.draw(st.sets(st.sampled_from(units), min_size=1))
        )
        b = SubsetOfZm.from_members(m, members)
        rep = znstar_certificate(b, factorize(m))
        assert rep.final_bound <= rep.actual_cyclic + 1e-9

    @pytest.mark.parametrize("m", [210, 2310])
    def test_actual_cyclic_matches_enumeration(self, m):
        members = units_of(m)[::3]
        rep = znstar_certificate(SubsetOfZm.from_members(m, members), factorize(m))
        assert rep.actual_cyclic == len(sumset_enum(members, m))

    def test_one_self_convolution_per_certificate(self, monkeypatch):
        import primesum.zm_sumsets as zm

        exact = zm._convolve_int_exact
        is_self = []

        def counting(a, b, nfft, **kwargs):
            is_self.append(np.array_equal(a, b))
            return exact(a, b, nfft, **kwargs)

        monkeypatch.setattr(zm, "_convolve_int_exact", counting)
        # 400 of the 480 units of Z_2310, which fold onto Z_1155: both
        # products have more pairs than the butterflies at 2400, 1200 log2
        # 1200, so both take the FFT
        b = SubsetOfZm.from_members(2310, units_of(2310)[:400])
        znstar_certificate(b, factorize(2310))
        # B * units for capital_R, then B * B for the histogram
        assert is_self == [False, True]
        # 12 units of Z_210 are counted pair by pair over Z_105, with no
        # transform: 144 pairs, and 12 * 48 = 576 with the units of Z_105,
        # at most the 108 log2 108 = 648 butterflies at 216
        is_self.clear()
        znstar_certificate(SubsetOfZm.from_members(210, units_of(210)[::4]), factorize(210))
        assert is_self == []
