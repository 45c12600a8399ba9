"""Tests for the real-to-complex distributed FFT (Rfft3d)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import CastCodec, MantissaTrimCodec
from repro.errors import PlanError
from repro.fft import Rfft3d
from repro.fft.reshape import ReshapePlan
from repro.runtime import VirtualWorld
from repro.trace import tracing


class TestForward:
    @pytest.mark.parametrize(
        "shape,p",
        [((16, 16, 16), 1), ((16, 16, 16), 4), ((24, 20, 18), 6), ((16, 16, 15), 4)],
    )
    def test_matches_numpy_rfftn(self, rng, shape, p):
        x = rng.random(shape)
        plan = Rfft3d(shape, p)
        got = plan.forward(x)
        ref = np.fft.rfftn(x)
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_output_shape(self):
        assert Rfft3d((16, 16, 16), 2).out_shape == (16, 16, 9)
        assert Rfft3d((16, 16, 15), 2).out_shape == (16, 16, 8)

    def test_rejects_complex_input(self, rng):
        plan = Rfft3d((8, 8, 8), 2)
        with pytest.raises(PlanError, match="real input"):
            plan.forward(rng.random((8, 8, 8)) + 0j)

    def test_rejects_wrong_shape(self, rng):
        with pytest.raises(PlanError):
            Rfft3d((8, 8, 8), 2).forward(rng.random((4, 4, 4)))


class TestRoundtrip:
    def test_exact_roundtrip(self, rng):
        plan = Rfft3d((16, 16, 16), 4)
        assert plan.roundtrip_error(rng.random((16, 16, 16))) < 1e-14

    def test_odd_last_dimension(self, rng):
        plan = Rfft3d((12, 12, 11), 4)
        assert plan.roundtrip_error(rng.random((12, 12, 11))) < 1e-13

    def test_backward_matches_numpy(self, rng):
        shape = (16, 16, 16)
        x = rng.random(shape)
        X = np.fft.rfftn(x)
        plan = Rfft3d(shape, 4)
        assert np.allclose(plan.backward(X), x, atol=1e-12)

    def test_compressed_roundtrip(self, rng):
        plan = Rfft3d((16, 16, 16), 4, codec=CastCodec("fp32"))
        err = plan.roundtrip_error(rng.random((16, 16, 16)))
        assert 1e-10 < err < 1e-6
        assert plan.last_stats.achieved_rate == pytest.approx(2.0)

    def test_e_tol_api(self, rng):
        plan = Rfft3d((16, 16, 16), 4, e_tol=1e-6)
        assert plan.codec is not None
        assert plan.roundtrip_error(rng.random((16, 16, 16))) < 1e-6

    def test_trim_codec_on_real_stage(self, rng):
        """The first reshape moves float64 reals; codecs must handle it."""
        plan = Rfft3d((16, 16, 16), 4, codec=MantissaTrimCodec(30))
        err = plan.roundtrip_error(rng.random((16, 16, 16)))
        assert err < 1e-7


class TestVolumeSavings:
    def test_half_spectrum_moves_fewer_bytes(self, rng):
        shape = (16, 16, 16)
        x = rng.random(shape)
        w_r2c = VirtualWorld(4)
        Rfft3d(shape, 4).forward(x, world=w_r2c)
        from repro.fft import Fft3d

        w_c2c = VirtualWorld(4)
        Fft3d(shape, 4).forward(x.astype(np.complex128), world=w_c2c)
        assert w_r2c.traffic.total_bytes < w_c2c.traffic.total_bytes

    def test_savings_metric(self):
        plan = Rfft3d((16, 16, 16), 4)
        assert 1.5 < plan.communication_savings_vs_complex < 2.1

    def test_validation_errors(self):
        with pytest.raises(PlanError):
            Rfft3d((8, 8), 2)  # not 3-D
        with pytest.raises(PlanError):
            Rfft3d((8, 8, 8), 2, codec=CastCodec("fp32"), e_tol=1e-6)


class TestStageLists:
    @pytest.mark.parametrize("codec,tol", [(None, 1e-12), (CastCodec("fp32"), 1e-6)])
    def test_transforms_construct_no_plans(self, rng, monkeypatch, codec, tol):
        """Both stage lists are built by the constructor: ``backward`` used
        to rebuild its four reshape plans on every call."""
        shape = (16, 16, 15)
        plan = Rfft3d(shape, 4, codec=codec)
        built = []
        init = ReshapePlan.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ReshapePlan, "__init__", counting_init)
        x = rng.random(shape)
        for _ in range(2):
            back = plan.backward(plan.forward(x))
        assert built == []
        assert np.linalg.norm(back - x) <= tol * np.linalg.norm(x)

    def test_inverse_list_mirrors_the_forward_one(self):
        plan = Rfft3d((12, 10, 9), 6)
        for fwd, inv in zip(plan.stages, reversed(plan.inverse_stages)):
            assert (inv.reshape.src, inv.reshape.dst) == (fwd.reshape.dst, fwd.reshape.src)
        assert [s.axis for s in plan.inverse_stages] == [0, 1, 2, None]

    def test_traced_forward_has_one_compute_span_per_rank_and_stage(self, rng):
        p = 4
        plan = Rfft3d((16, 16, 16), p)
        with tracing() as tracer:
            plan.forward(rng.random((16, 16, 16)))
        spans = [s for s in tracer.span_events() if s.kind == "local_fft"]
        assert len(spans) == 3 * p  # used to be zero: the r2c loop had no spans
        assert sorted((s.rank, s.attrs["axis"]) for s in spans) == sorted(
            (r, axis) for r in range(p) for axis in (2, 1, 0)
        )
