"""Tests for tolerance-driven codec selection (Section III): one budget,
split in quadrature over ``events`` compressions, bounded by each codec."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import (
    CastCodec,
    IdentityCodec,
    MantissaTrimCodec,
    ZfpLikeCodec,
    codec_for_tolerance,
)
from repro.compression.selection import guaranteed_error, mantissa_bits_for_tolerance
from repro.errors import ToleranceError


class TestMantissaBitsForTolerance:
    def test_examples(self):
        assert mantissa_bits_for_tolerance(1e-8) == 26
        assert mantissa_bits_for_tolerance(2.0**-24) == 23

    def test_monotone(self):
        tols = [10.0**-k for k in range(1, 16)]
        bits = [mantissa_bits_for_tolerance(t) for t in tols]
        assert all(a <= b for a, b in zip(bits, bits[1:]))

    def test_clamped(self):
        assert mantissa_bits_for_tolerance(1e-30) == 52
        assert mantissa_bits_for_tolerance(0.9) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ToleranceError):
            mantissa_bits_for_tolerance(0.0)


class TestCodecForTolerance:
    def test_tight_tolerance_stays_exact(self):
        assert isinstance(codec_for_tolerance(1e-14, 8, n=1), IdentityCodec)

    def test_moderate_tolerance_uses_fp32_cast(self):
        codec = codec_for_tolerance(1e-6, 8, n=1)
        assert isinstance(codec, CastCodec) and codec.fmt.name == "FP32"

    def test_loose_tolerance_uses_fp16_cast(self):
        codec = codec_for_tolerance(1e-2, 8, n=1)
        assert isinstance(codec, CastCodec) and codec.fmt.name == "FP16"
        assert codec.scaled  # overflow-safe variant chosen automatically

    def test_intermediate_tolerance_uses_trim(self):
        codec = codec_for_tolerance(1e-10, 8, n=1)
        assert isinstance(codec, MantissaTrimCodec)
        assert 23 < codec.mantissa_bits <= 44

    def test_no_native_casts(self):
        """Where no native cast's bound fits the share, the fewest trim
        bits that do; a cast wherever one fits."""
        for e_tol in (1e-8, 1e-9, 1e-10, 1e-11, 1e-12):
            codec = codec_for_tolerance(e_tol, 8, n=1)
            assert isinstance(codec, MantissaTrimCodec)
            assert guaranteed_error(codec.error_bound, 8, n=1) <= e_tol
            fewer = MantissaTrimCodec(codec.mantissa_bits - 1)
            assert guaranteed_error(fewer.error_bound, 8, n=1) > e_tol
        assert isinstance(codec_for_tolerance(1e-7, 1, n=1), CastCodec)

    def test_smooth_hint_selects_zfp(self):
        codec = codec_for_tolerance(1e-6, 8, n=1, data_hint="smooth")
        assert isinstance(codec, ZfpLikeCodec) and codec.tolerance is not None

    def test_rejects_bad_hint(self):
        with pytest.raises(ToleranceError):
            codec_for_tolerance(1e-6, 8, n=1, data_hint="fractal")

    def test_rejects_nonpositive(self):
        with pytest.raises(ToleranceError):
            codec_for_tolerance(-1e-6, 8, n=1)

    def test_selection_actually_honours_tolerance(self, rng):
        """End-to-end: one message through the codec chosen for one event
        stays below e_tol."""
        x = rng.random(4096)
        for e_tol in (1e-3, 1e-6, 1e-9, 1e-12):
            codec = codec_for_tolerance(e_tol, 1, n=1)
            if isinstance(codec, IdentityCodec):
                continue
            back = codec.decompress(codec.compress(x))
            rel = np.linalg.norm(back - x) / np.linalg.norm(x)
            assert rel < e_tol

    def test_rate_monotone_in_tolerance(self):
        """Looser tolerances must never compress less."""
        rates = []
        for e_tol in (1e-12, 1e-9, 1e-6, 1e-3):
            codec = codec_for_tolerance(e_tol, 8, n=1)
            rates.append(codec.rate or 1.0)
        assert all(a <= b for a, b in zip(rates, rates[1:]))


class TestToleranceOfCodec:
    """Every codec states its own per-message bound (``error_bound``)."""

    def test_lossless_is_zero(self):
        assert IdentityCodec().error_bound == 0.0

    def test_cast_and_trim(self):
        assert CastCodec("fp32").error_bound == 2.0**-24
        assert CastCodec("fp16", scaled=True).error_bound == 2.0**-11
        assert MantissaTrimCodec(30).error_bound == 2.0**-31
        assert MantissaTrimCodec(30, rounding="truncate").error_bound == 2.0**-30

    def test_zfp_accuracy_mode(self):
        """Twice the tolerance (the codec's documented factor), and never
        under its accuracy floor."""
        assert ZfpLikeCodec(tolerance=1e-6).error_bound == 2e-6
        assert ZfpLikeCodec(tolerance=1e-16).error_bound == 2.0**-38

    def test_zfp_rate_mode_unbounded(self):
        assert ZfpLikeCodec(rate=4.0).error_bound is None
        assert guaranteed_error(ZfpLikeCodec(rate=4.0).error_bound, 8, n=1) == float("inf")

    def test_roundtrip_with_selection(self):
        """Selection and the reverse rule agree: what the allocator picks
        guarantees the request, with no slack."""
        for events in (1, 6, 8, 12):
            for e_tol in (1e-2, 1e-4, 1e-7, 1e-11, 1e-13):
                for hint in ("random", "smooth"):
                    codec = codec_for_tolerance(e_tol, events, data_hint=hint, n=16**3)
                    assert guaranteed_error(codec.error_bound, events, 16**3) <= e_tol
