"""Tests for the distributed 2-D FFT (Fft2d)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import CastCodec
from repro.errors import PlanError
from repro.fft import Fft2d, Fft3d
from repro.trace import tracing


class TestForward:
    @pytest.mark.parametrize("shape,p", [((32, 32), 1), ((32, 24), 6), ((17, 13), 4)])
    def test_matches_numpy_fft2(self, rng, shape, p):
        x = rng.random(shape) + 1j * rng.random(shape)
        plan = Fft2d(shape, p)
        ref = np.fft.fft2(x)
        assert np.linalg.norm(plan.forward(x) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_backward(self, rng):
        x = rng.random((16, 16)) + 0j
        plan = Fft2d((16, 16), 4)
        assert np.allclose(plan.backward(x), np.fft.ifft2(x), rtol=1e-12)

    def test_roundtrip(self, rng):
        assert Fft2d((32, 32), 8).roundtrip_error(rng.random((32, 32))) < 1e-14

    def test_fp32(self, rng):
        err = Fft2d((32, 32), 4, precision="fp32").roundtrip_error(rng.random((32, 32)))
        assert 1e-9 < err < 1e-5

    def test_compressed(self, rng):
        plan = Fft2d((32, 32), 4, codec=CastCodec("fp32"))
        err = plan.roundtrip_error(rng.random((32, 32)))
        assert 1e-10 < err < 1e-6
        assert plan.last_stats.achieved_rate == pytest.approx(2.0)
        assert len(plan.last_stats.reshapes) == 3  # 2-D: three reshapes

    def test_e_tol(self, rng):
        plan = Fft2d((16, 16), 2, e_tol=1e-4)
        assert plan.roundtrip_error(rng.random((16, 16))) < 1e-4

    def test_scatter_gather(self, rng):
        plan = Fft2d((12, 10), 4)
        x = (rng.random((12, 10)) + 1j * rng.random((12, 10))).astype(np.complex128)
        assert np.array_equal(plan.gather(plan.scatter(x)), x)

    def test_validation(self):
        with pytest.raises(PlanError):
            Fft2d((8,), 2)
        with pytest.raises(PlanError):
            Fft2d((8, 1), 2)
        with pytest.raises(PlanError):
            Fft2d((8, 8), 2, precision="fp32", codec=CastCodec("fp32"))
        with pytest.raises(PlanError):
            Fft2d((8, 8), 2).forward(np.zeros((4, 4)))


class TestSharedPipeline:
    def test_traced_forward_has_one_compute_span_per_rank_and_stage(self, rng):
        p = 4
        with tracing() as tracer:
            Fft2d((32, 32), p).forward(rng.random((32, 32)))
        spans = [s for s in tracer.span_events() if s.kind == "local_fft"]
        assert len(spans) == 2 * p  # used to be zero: the 2-D loop had no spans
        assert sorted((s.rank, s.attrs["axis"]) for s in spans) == sorted(
            (r, axis) for r in range(p) for axis in (0, 1)
        )

    def test_fft3d_compute_span_count_is_unchanged(self, rng):
        p = 4
        with tracing() as tracer:
            Fft3d((8, 8, 8), p).forward(rng.random((8, 8, 8)))
        assert sum(s.kind == "local_fft" for s in tracer.span_events()) == 3 * p

    def test_batch_dimension_rides_along(self, rng):
        """Negative transform axes, as in Fft3d: a leading batch passes through."""
        x = rng.random((3, 12, 10)) + 1j * rng.random((3, 12, 10))
        plan = Fft2d((12, 10), 4)
        assert np.allclose(plan.forward(x), np.fft.fft2(x), rtol=1e-12)
