"""Tests for the ZFP-like transform codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression import CastCodec, ZfpLikeCodec, evaluate_codec
from repro.compression.zfp_like import fwd_lift, inv_lift, pack_bits, unpack_bits
from repro.errors import CompressionError

well_scaled = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=400),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
)


class TestLiftingTransform:
    def test_near_inverse(self, rng):
        v = rng.integers(-(2**45), 2**45, size=(1000, 4), dtype=np.int64)
        back = inv_lift(fwd_lift(v))
        assert np.abs(back - v).max() <= 2  # zfp's lossy pair: ±2 ulps

    def test_no_magnitude_growth_forward(self, rng):
        v = rng.integers(-(2**45), 2**45, size=(5000, 4), dtype=np.int64)
        f = fwd_lift(v)
        assert np.abs(f).max() <= np.abs(v).max() * 1.01 + 4

    def test_decorrelates_smooth_data(self):
        t = np.linspace(0, 2 * np.pi, 4096)
        s = (np.sin(t) * 2**40).astype(np.int64).reshape(-1, 4)
        f = fwd_lift(s)
        # high-order coefficients should be far smaller than the signal
        assert np.abs(f[:, 1:]).mean() < np.abs(s).mean() / 100

    def test_axis_argument(self, rng):
        v = rng.integers(-(2**40), 2**40, size=(10, 4, 4, 4), dtype=np.int64)
        a = fwd_lift(v, axis=1)
        b = np.moveaxis(fwd_lift(np.moveaxis(v, 1, -1)), -1, 1)
        assert np.array_equal(a, b)


class TestBitPacking:
    @pytest.mark.parametrize("width", [1, 3, 7, 8, 13, 32, 60])
    def test_roundtrip(self, rng, width):
        u = rng.integers(0, 2**min(width, 62), size=257, dtype=np.uint64)
        u &= (np.uint64(1) << np.uint64(width)) - np.uint64(1)
        packed = pack_bits(u, width)
        assert packed.size == (257 * width + 7) // 8
        back = unpack_bits(packed, 257, width)
        assert np.array_equal(back, u)

    def test_rejects_bad_width(self):
        with pytest.raises(CompressionError):
            pack_bits(np.zeros(4, dtype=np.uint64), 0)
        with pytest.raises(CompressionError):
            pack_bits(np.zeros(4, dtype=np.uint64), 65)

    def test_unpack_short_stream_rejected(self):
        with pytest.raises(CompressionError):
            unpack_bits(np.zeros(1, dtype=np.uint8), 100, 8)


class TestZfpFixedRate:
    @pytest.mark.parametrize("rate", [2.0, 4.0, 8.0])
    def test_achieved_rate_close_to_requested(self, rng, rate):
        rep = evaluate_codec(ZfpLikeCodec(rate=rate), rng.random(64 * 50))
        assert rep.rate == pytest.approx(rate, rel=0.15)

    def test_smooth_beats_random_at_equal_rate(self, rng, smooth_field):
        """The paper's spatial-correlation claim (Section IV-A)."""
        codec = ZfpLikeCodec(rate=8.0)
        smooth = evaluate_codec(codec, smooth_field)
        random = evaluate_codec(codec, rng.random(smooth_field.size))
        assert smooth.rel_l2 < random.rel_l2 / 100

    def test_beats_truncation_on_smooth_data(self, smooth_field):
        """Fixed rate 4 vs FP64->FP16 (also rate 4): lower max error."""
        zfp = evaluate_codec(ZfpLikeCodec(rate=4.0), smooth_field)
        cast = evaluate_codec(CastCodec("fp16", scaled=True), smooth_field)
        assert zfp.max_abs < cast.max_abs / 10

    def test_roundtrip_shape_dtype(self, random_complex):
        codec = ZfpLikeCodec(rate=4.0)
        back = codec.decompress(codec.compress(random_complex))
        assert back.shape == random_complex.shape and back.dtype == np.complex128

    def test_zero_data(self):
        codec = ZfpLikeCodec(rate=4.0)
        back = codec.decompress(codec.compress(np.zeros(200)))
        assert np.array_equal(back, np.zeros(200))

    def test_partial_block(self, rng):
        x = rng.random(17)  # far from a 64 multiple
        codec = ZfpLikeCodec(rate=2.0)
        back = codec.decompress(codec.compress(x))
        assert back.shape == (17,)
        assert np.abs(back - x).max() < 1e-6

    def test_rejects_bad_rate(self):
        with pytest.raises(CompressionError):
            ZfpLikeCodec(rate=0.5)
        with pytest.raises(CompressionError):
            ZfpLikeCodec(rate=100.0)

    def test_rejects_both_or_neither_mode(self):
        with pytest.raises(CompressionError):
            ZfpLikeCodec()
        with pytest.raises(CompressionError):
            ZfpLikeCodec(rate=2.0, tolerance=1e-6)

    @given(well_scaled)
    @settings(max_examples=30, deadline=None)
    def test_rate2_roundtrip_reasonable(self, x):
        codec = ZfpLikeCodec(rate=2.0)
        back = codec.decompress(codec.compress(x))
        scale = np.abs(x).max() or 1.0
        assert np.abs(back - x).max() <= 1e-5 * scale


class TestZfpFixedAccuracy:
    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
    def test_error_within_tolerance_factor(self, rng, tol):
        x = rng.random(64 * 40) * 2 - 1
        codec = ZfpLikeCodec(tolerance=tol)
        rep = evaluate_codec(codec, x)
        assert rep.max_abs <= 2.0 * tol  # small safety factor, documented

    def test_smooth_data_gets_better_rate(self, rng, smooth_field):
        codec = ZfpLikeCodec(tolerance=1e-6)
        smooth = evaluate_codec(codec, smooth_field)
        random = evaluate_codec(codec, rng.random(smooth_field.size))
        assert smooth.rate > 2.0 * random.rate

    def test_variable_rate_reported_as_none(self):
        assert ZfpLikeCodec(tolerance=1e-6).rate is None

    def test_looser_tolerance_compresses_more(self, smooth_field):
        loose = evaluate_codec(ZfpLikeCodec(tolerance=1e-3), smooth_field)
        tight = evaluate_codec(ZfpLikeCodec(tolerance=1e-9), smooth_field)
        assert loose.rate > tight.rate

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(CompressionError):
            ZfpLikeCodec(tolerance=0.0)

    @given(well_scaled, st.sampled_from([1e-2, 1e-5, 1e-8]))
    @settings(max_examples=30, deadline=None)
    def test_tolerance_property(self, x, tol):
        codec = ZfpLikeCodec(tolerance=tol)
        back = codec.decompress(codec.compress(x))
        # the tolerance is relative to the message's peak; the lossy
        # lifting pair has an intrinsic ~2**-40 relative floor
        assert np.abs(back - x).max() <= max(4.0 * tol, 2.0**-40) * float(np.abs(x).max())
