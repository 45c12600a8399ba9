"""Unit tests for repro.utils (primes, humanize)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import format_bytes, format_time, next_pow2, prime_factors


class TestPrimeFactors:
    def test_small_values(self):
        assert prime_factors(1) == []
        assert prime_factors(2) == [2]
        assert prime_factors(12) == [2, 2, 3]
        assert prime_factors(360) == [2, 2, 2, 3, 3, 5]
        assert prime_factors(97) == [97]

    def test_pow2(self):
        assert prime_factors(1024) == [2] * 10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prime_factors(0)
        with pytest.raises(ValueError):
            prime_factors(-4)

    @given(st.integers(min_value=1, max_value=100_000))
    def test_product_recovers_input(self, n):
        assert math.prod(prime_factors(n)) == n

    @given(st.integers(min_value=2, max_value=100_000))
    def test_factors_are_prime(self, n):
        for p in prime_factors(n):
            assert all(p % d for d in range(2, int(p**0.5) + 1))


class TestPow2:
    def test_next_pow2(self):
        assert next_pow2(1) == 1
        assert next_pow2(3) == 4
        assert next_pow2(1024) == 1024
        assert next_pow2(1025) == 2048

    def test_next_pow2_rejects(self):
        with pytest.raises(ValueError):
            next_pow2(0)

    @given(st.integers(min_value=1, max_value=2**40))
    def test_next_pow2_properties(self, n):
        m = next_pow2(n)
        assert m & (m - 1) == 0 and m >= n and (m == 1 or m // 2 < n)


class TestHumanize:
    def test_bytes(self):
        assert format_bytes(0) == "0.0 B"
        assert format_bytes(80_000) == "80.0 KB"
        assert format_bytes(25e9) == "25.0 GB"
        assert format_bytes(-1500) == "-1.5 KB"

    def test_time(self):
        assert format_time(1.5) == "1.500 s"
        assert format_time(3.2e-3) == "3.200 ms"
        assert format_time(3.2e-6) == "3.200 us"
        assert format_time(5e-9) == "5.000 ns"
        assert format_time(float("nan")) == "nan"
