import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from primesum.errors import DomainError
from primesum.ntheory import (
    factorize,
    primorial,
    sieve_primes,
    unit_indicator,
)

from oracles import brute_phi, trial_primes


class TestSievePrimes:
    def test_ten(self):
        assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]

    def test_boundary_two(self):
        assert sieve_primes(2).primes.tolist() == [2]

    def test_thirty(self):
        table = sieve_primes(30)
        assert table.primes.size == 10
        assert int(table.primes[-1]) == 29

    def test_below_two_rejected(self):
        with pytest.raises(DomainError):
            sieve_primes(1)

    @given(st.integers(min_value=2, max_value=2000))
    def test_matches_trial_division(self, n):
        assert sieve_primes(n).primes.tolist() == trial_primes(n)

    @given(st.integers(min_value=2, max_value=2000), st.data())
    def test_prefix_is_a_view_of_the_table(self, n, data):
        table = sieve_primes(n)
        limit = data.draw(st.integers(min_value=0, max_value=n))
        prefix = table.upto(limit)
        assert prefix.limit == limit
        assert prefix.primes.tolist() == [p for p in trial_primes(n) if p <= limit]
        assert prefix.primes.size == 0 or np.shares_memory(prefix.primes, table.primes)

    def test_prefix_past_the_limit_rejected(self):
        with pytest.raises(DomainError):
            sieve_primes(100).upto(101)


class TestPrimorial:
    def test_w5(self):
        mod = primorial(5)
        assert mod.m == 30
        assert mod.totient == 8
        assert mod.prime_divisors == (2, 3, 5)

    def test_w2_boundary(self):
        mod = primorial(2)
        assert mod.m == 2
        assert mod.totient == 1

    def test_w11(self):
        mod = primorial(11)
        assert mod.m == 2310
        assert mod.totient == 480

    def test_below_two_rejected(self):
        with pytest.raises(DomainError):
            primorial(1)

    @given(st.integers(min_value=2, max_value=13))
    def test_against_direct_product(self, w):
        mod = primorial(w)
        ps = trial_primes(w)
        expected = 1
        for p in ps:
            expected *= p
        assert mod.m == expected
        assert mod.totient == brute_phi(expected)
        assert mod.squarefree


class TestFactorize:
    def test_thirty(self):
        mod = factorize(30)
        assert mod.prime_divisors == (2, 3, 5)
        assert mod.totient == 8
        assert mod.squarefree

    def test_twelve(self):
        mod = factorize(12)
        assert mod.primes == ((2, 2), (3, 1))
        assert mod.totient == 4
        assert not mod.squarefree

    def test_one(self):
        mod = factorize(1)
        assert mod.primes == ()
        assert mod.totient == 1

    @given(st.integers(min_value=1, max_value=10000))
    def test_reconstruction_and_phi(self, m):
        mod = factorize(m)
        prod = 1
        for p, e in mod.primes:
            prod *= p**e
        assert prod == m
        assert mod.totient == brute_phi(m)

    def test_divisors_of_30(self):
        assert sorted(factorize(30).divisors()) == [
            1, 2, 3, 5, 6, 10, 15, 30,
        ]


class TestUnitIndicator:
    @given(
        st.one_of(
            st.integers(min_value=1, max_value=2000),
            st.sampled_from([1, 2, 4, 27, 625, 1024, 1331, 1849, 1800]),
        )
    )
    def test_unit_indicator_marks_the_units(self, m):
        units = unit_indicator(factorize(m))
        assert np.array_equal(units, np.gcd(np.arange(m), m) == 1)
