"""Tests for mantissa trimming and format-emulating casts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import PrecisionError
from repro.precision import FP16, FP32, cast_via_format, roundtrip_error, trim_mantissa
from repro.precision.formats import trimmed_format

finite_f64 = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=64),
    elements=st.floats(
        min_value=-1e30, max_value=1e30, allow_nan=False, allow_infinity=False, width=64
    ),
)


class TestTrimMantissa:
    def test_52_bits_is_identity(self, rng):
        x = rng.standard_normal(100)
        assert np.array_equal(trim_mantissa(x, 52), x)

    def test_23_bits_equals_fp32_cast(self, rng):
        """Keeping 23 bits reproduces the FP32 significand rounding for
        values inside FP32's exponent range."""
        x = rng.random(10_000) * 2.0 - 1.0
        trimmed = trim_mantissa(x, 23)
        cast = x.astype(np.float32).astype(np.float64)
        assert np.array_equal(trimmed, cast)

    def test_rounds_to_nearest(self):
        # 1 + 2^-24 is exactly between 1 and 1+2^-23 for m=23: ties-to-even -> 1
        x = np.array([1.0 + 2.0**-24])
        assert trim_mantissa(x, 23)[0] == 1.0
        # slightly above the midpoint rounds up
        x = np.array([1.0 + 2.0**-24 + 2.0**-40])
        assert trim_mantissa(x, 23)[0] == 1.0 + 2.0**-23

    def test_truncate_mode_chops(self):
        x = np.array([1.0 + 2.0**-24 + 2.0**-40])
        assert trim_mantissa(x, 23, rounding="truncate")[0] == 1.0

    def test_preserves_specials(self):
        x = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0])
        y = trim_mantissa(x, 10)
        assert np.isposinf(y[0]) and np.isneginf(y[1]) and np.isnan(y[2])
        assert y[3] == 0.0 and y[4] == 0.0

    def test_overflow_carry_into_exponent(self):
        # all-ones mantissa rounds up to the next power of two
        x = np.array([np.nextafter(2.0, 0.0)])  # 1.111...1 * 2^0
        assert trim_mantissa(x, 10)[0] == 2.0

    def test_complex_input(self, rng):
        z = rng.random(64) + 1j * rng.random(64)
        out = trim_mantissa(z, 23)
        assert out.dtype == np.complex128
        ref = z.astype(np.complex64).astype(np.complex128)
        assert np.array_equal(out, ref)

    def test_does_not_mutate_input(self, rng):
        x = rng.random(16)
        x0 = x.copy()
        trim_mantissa(x, 8)
        assert np.array_equal(x, x0)

    @pytest.mark.parametrize("rounding", ["nearest", "truncate"])
    def test_nan_payloads_preserved_unrounded(self, rounding):
        """Regression: ``truncate`` masked the NaN payload in place, so a
        NaN carried only by its low bits came back as an infinity."""
        bits = np.array([0x7FF0_0000_0000_0001, 0xFFF0_0000_0000_0400], dtype=np.uint64)
        out = trim_mantissa(bits.view(np.float64), 8, rounding=rounding)
        assert np.array_equal(out.view(np.uint64), bits)

    @pytest.mark.parametrize("bad", [0, 53])
    def test_rejects_bad_bits(self, bad, rng):
        with pytest.raises(PrecisionError):
            trim_mantissa(rng.random(4), bad)

    def test_rejects_bad_mode(self, rng):
        with pytest.raises(PrecisionError):
            trim_mantissa(rng.random(4), 23, rounding="stochastic")

    def test_rejects_wrong_dtype(self):
        with pytest.raises(PrecisionError):
            trim_mantissa(np.arange(4, dtype=np.float32), 10)

    @given(finite_f64, st.integers(min_value=1, max_value=52))
    @settings(max_examples=60, deadline=None)
    def test_relative_error_bounded_by_unit_roundoff(self, x, m):
        """|trim(x) - x| <= u_m * |x| element-wise (round-to-nearest)."""
        y = trim_mantissa(x, m)
        u = trimmed_format(m).unit_roundoff
        assert np.all(np.abs(y - x) <= u * np.abs(x) + 1e-300)

    @given(finite_f64, st.integers(min_value=1, max_value=52))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, x, m):
        once = trim_mantissa(x, m)
        twice = trim_mantissa(once, m)
        assert np.array_equal(once, twice)


class TestCastViaFormat:
    def test_fp64_is_copy(self, rng):
        x = rng.random(32)
        y = cast_via_format(x, "fp64")
        assert np.array_equal(x, y) and y is not x

    def test_fp32_matches_numpy(self, rng):
        x = rng.standard_normal(256)
        assert np.array_equal(cast_via_format(x, FP32), x.astype(np.float32).astype(np.float64))

    def test_fp16_overflow_saturates_to_inf(self):
        y = cast_via_format(np.array([1e6]), FP16)
        assert np.isinf(y[0])

    def test_bf16_keeps_fp32_range(self):
        y = cast_via_format(np.array([1e38, 1.0 + 2.0**-8]), "bf16")
        assert np.isfinite(y[0])  # in range
        assert y[1] == 1.0 or y[1] == 1.0 + 2.0**-7  # 7-bit mantissa grid

    def test_complex_fp32(self, rng):
        z = rng.random(16) + 1j * rng.random(16)
        assert np.array_equal(
            cast_via_format(z, "fp32"), z.astype(np.complex64).astype(np.complex128)
        )

    def test_complex_fp16(self, rng):
        z = rng.random(16) + 1j * rng.random(16)
        out = cast_via_format(z, "fp16")
        ref_re = z.real.astype(np.float16).astype(np.float64)
        ref_im = z.imag.astype(np.float16).astype(np.float64)
        assert np.array_equal(out.real, ref_re) and np.array_equal(out.imag, ref_im)

    def test_roundtrip_error_scale(self, rng):
        x = rng.random(100_000)
        err32 = roundtrip_error(x, "fp32")
        err16 = roundtrip_error(x, "fp16")
        assert 1e-9 < err32 < 1e-7
        assert 1e-5 < err16 < 1e-3
        assert roundtrip_error(x, "fp64") == 0.0

    def test_roundtrip_error_zero_input(self):
        assert roundtrip_error(np.zeros(8), "fp16") == 0.0
