"""Tests for the user-facing Fft3d plan (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import CastCodec, IdentityCodec, MantissaTrimCodec, ZfpLikeCodec
from repro.errors import PlanError
from repro.fft import Fft3d, batched_fft, batched_ifft
from repro.runtime import VirtualWorld


class TestLocalFft:
    def test_matches_numpy_fp64(self, rng):
        a = rng.random((4, 8, 3)) + 1j * rng.random((4, 8, 3))
        for axis in range(3):
            assert np.allclose(batched_fft(a, axis), np.fft.fft(a, axis=axis), rtol=1e-12)

    def test_ifft_inverts(self, rng):
        a = rng.random((5, 6, 7)) + 0j
        for axis in range(3):
            assert np.allclose(batched_ifft(batched_fft(a, axis), axis), a, rtol=1e-12)

    def test_fp32_stays_single(self, rng):
        a = rng.random((4, 4, 4))
        out = batched_fft(a, 0, precision="fp32")
        assert out.dtype == np.complex64

    def test_bad_precision_rejected(self, rng):
        with pytest.raises(PlanError):
            batched_fft(rng.random((2, 2, 2)), 0, precision="fp8")


class TestForwardCorrectness:
    @pytest.mark.parametrize(
        "shape,p",
        [
            ((16, 16, 16), 1),
            ((16, 16, 16), 8),
            ((24, 20, 18), 6),
            ((32, 16, 8), 12),
            ((13, 11, 9), 4),  # odd, non-divisible
        ],
    )
    def test_matches_numpy_fftn(self, rng, shape, p):
        x = rng.random(shape) + 1j * rng.random(shape)
        plan = Fft3d(shape, p)
        ref = np.fft.fftn(x)
        got = plan.forward(x)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-13

    def test_backward_matches_numpy_ifftn(self, rng):
        shape = (16, 16, 16)
        x = rng.random(shape) + 1j * rng.random(shape)
        plan = Fft3d(shape, 6)
        assert np.allclose(plan.backward(x), np.fft.ifftn(x), rtol=1e-12)

    def test_roundtrip_fp64(self, rng):
        plan = Fft3d((16, 16, 16), 8)
        assert plan.roundtrip_error(rng.random((16, 16, 16))) < 1e-14

    def test_real_input_handled(self, rng):
        plan = Fft3d((8, 8, 8), 2)
        x = rng.random((8, 8, 8))  # real float64 input
        assert np.allclose(plan.forward(x), np.fft.fftn(x), rtol=1e-12)

    def test_fp32_precision_level(self, rng):
        plan = Fft3d((16, 16, 16), 4, precision="fp32")
        err = plan.roundtrip_error(rng.random((16, 16, 16)))
        assert 1e-8 < err < 1e-5


class TestCompressedTransforms:
    def test_cast_fp32_error_level(self, rng):
        plan = Fft3d((16, 16, 16), 8, codec=CastCodec("fp32"))
        err = plan.roundtrip_error(rng.random((16, 16, 16)))
        assert 1e-9 < err < 1e-6

    def test_mixed_beats_all_fp32(self, rng):
        """The paper's headline accuracy claim (Table II ordering)."""
        x = rng.random((32, 32, 32))
        e_mixed = Fft3d((32, 32, 32), 8, codec=CastCodec("fp32")).roundtrip_error(x)
        e_fp32 = Fft3d((32, 32, 32), 8, precision="fp32").roundtrip_error(x)
        e_fp64 = Fft3d((32, 32, 32), 8).roundtrip_error(x)
        assert e_fp64 < e_mixed < e_fp32

    def test_trim_codec_error_tracks_bits(self, rng):
        x = rng.random((16, 16, 16))
        errs = [
            Fft3d((16, 16, 16), 4, codec=MantissaTrimCodec(m)).roundtrip_error(x)
            for m in (40, 32, 24)
        ]
        assert errs[0] < errs[1] < errs[2]

    def test_zfp_codec_supported(self, rng):
        plan = Fft3d((16, 16, 16), 4, codec=ZfpLikeCodec(tolerance=1e-8))
        err = plan.roundtrip_error(rng.random((16, 16, 16)))
        assert err < 1e-5

    def test_identity_codec_exact(self, rng):
        x = rng.random((8, 8, 8)) + 1j * rng.random((8, 8, 8))
        exact = Fft3d((8, 8, 8), 2).forward(x)
        viacodec = Fft3d((8, 8, 8), 2, codec=IdentityCodec()).forward(x)
        assert np.array_equal(exact, viacodec)

    def test_e_tol_api(self, rng):
        x = rng.random((16, 16, 16))
        plan = Fft3d((16, 16, 16), 4, e_tol=1e-6)
        assert plan.codec is not None
        err = plan.roundtrip_error(x)
        assert err < 1e-6
        assert plan.guaranteed_tolerance <= 1e-6

    def test_e_tol_tight_means_exact(self):
        plan = Fft3d((8, 8, 8), 2, e_tol=1e-15)
        from repro.compression import IdentityCodec as Id

        assert isinstance(plan.codec, Id)

    def test_stats_accounting(self, rng):
        shape = (16, 16, 16)
        plan = Fft3d(shape, 4, codec=CastCodec("fp32"))
        plan.forward(rng.random(shape))
        stats = plan.last_stats
        assert len(stats.reshapes) == 4
        assert stats.logical_bytes == 4 * 16**3 * 16  # 4 reshapes x full grid
        assert stats.achieved_rate == pytest.approx(2.0)

    def test_compression_reduces_traffic(self, rng):
        shape = (16, 16, 16)
        x = rng.random(shape)
        w1, w2 = VirtualWorld(4), VirtualWorld(4)
        Fft3d(shape, 4).forward(x, world=w1)
        Fft3d(shape, 4, codec=CastCodec("fp32")).forward(x, world=w2)
        assert w2.traffic.total_bytes == pytest.approx(w1.traffic.total_bytes / 2, rel=0.01)


class TestValidation:
    def test_codec_requires_fp64(self):
        with pytest.raises(PlanError):
            Fft3d((8, 8, 8), 2, precision="fp32", codec=CastCodec("fp32"))

    def test_codec_and_etol_exclusive(self):
        with pytest.raises(PlanError):
            Fft3d((8, 8, 8), 2, codec=CastCodec("fp32"), e_tol=1e-6)

    def test_bad_shape_rejected(self):
        with pytest.raises(PlanError):
            Fft3d((8, 8), 2)
        with pytest.raises(PlanError):
            Fft3d((8, 8, 1), 2)

    def test_scatter_gather_roundtrip(self, rng):
        shape = (12, 10, 8)
        plan = Fft3d(shape, 6)
        x = (rng.random(shape) + 1j * rng.random(shape)).astype(np.complex128)
        assert np.array_equal(plan.gather(plan.scatter(x)), x)

    def test_scatter_shape_check(self, rng):
        plan = Fft3d((8, 8, 8), 2)
        with pytest.raises(PlanError):
            plan.scatter(rng.random((4, 4, 4)))

    def test_describe_mentions_layouts(self):
        text = Fft3d((16, 16, 16), 8, codec=CastCodec("fp32")).describe()
        assert "reshape" in text and "cast_fp32" in text and "bricks" in text

    def test_a_lossy_schedule_does_not_claim_to_be_exact(self, rng):
        """A trimming plan's guarantee and summary are its codec's; an
        exact plan guarantees its transform's round-off, an unbounded
        codec nothing."""
        plan = Fft3d((8, 8, 8), 4, e_tol=1e-10)
        x = rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8))
        error = plan.roundtrip_error(x)
        assert 0.0 < error <= plan.guaranteed_tolerance <= 1e-10
        assert "none (exact)" not in plan.describe()
        assert plan.codec.name in plan.describe()
        assert 0.0 < Fft3d((8, 8, 8), 4).guaranteed_tolerance < 1e-13
        assert "none (exact)" in Fft3d((8, 8, 8), 4).describe()
        unbounded = Fft3d((8, 8, 8), 4, codec=ZfpLikeCodec(rate=8.0))
        assert unbounded.guaranteed_tolerance == float("inf")
