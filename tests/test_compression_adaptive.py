"""How one round-trip budget ``e_tol`` is split over a transform's reshapes.

A plan carries one codec for every reshape: with equal reshape volumes
the quadrature rule gives every compression the same share, so a
per-stage schedule would only carry copies of one codec.  (The class
names are those of the per-stage schedules the allocator replaced.)
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.compression import (
    CastCodec,
    IdentityCodec,
    MantissaTrimCodec,
    ShuffleZlibCodec,
    ZfpLikeCodec,
    codec_for_tolerance,
)
from repro.compression.selection import (
    error_share,
    guaranteed_error,
    mantissa_bits_for_tolerance,
)
from repro.errors import PlanError, ToleranceError
from repro.fft import Fft2d, Fft3d, Rfft3d


class TestSchedule:
    def test_construction(self):
        """The benchmark's trim plan: one codec, every message held
        against e_tol / sqrt(8) less the round-off, e_tol kept whole."""
        plan = Fft3d((128, 128, 128), 4, e_tol=1e-10)
        assert plan.codec.name == "trim_m34"
        assert plan.e_tol == 1e-10
        assert plan.share == error_share(1e-10, 8, 128**3)
        assert 3.53e-11 < plan.share <= 1e-10 / math.sqrt(8)
        assert plan.codec.error_bound <= plan.share
        assert plan.guaranteed_tolerance <= plan.e_tol

    def test_stage_bounds(self):
        """``events``: one compression per reshape, each way."""
        assert Fft3d((8, 8, 8), 4, e_tol=1e-6).events == 8
        assert Rfft3d((8, 8, 8), 4, e_tol=1e-6).events == 8
        assert Fft2d((8, 8), 4, e_tol=1e-6).events == 6
        assert Fft3d((8, 8, 8), 4).share is None

    def test_empty_rejected(self):
        with pytest.raises(ToleranceError):
            error_share(1e-6, 0, n=1)
        with pytest.raises(ToleranceError):
            error_share(0.0, 8, n=1)
        # the round-off leaves nothing to spend: exact transport
        assert error_share(1e-16, 8, 128**3) == 0.0
        assert isinstance(codec_for_tolerance(1e-16, 8, n=128**3), IdentityCodec)

    def test_mixed_rates(self):
        """The rule in reverse, per codec bound."""
        assert guaranteed_error(0.0, 8, n=1) == 0.0
        assert guaranteed_error(2.0**-24, 8, n=1) == pytest.approx(math.sqrt(8) * 2.0**-24)
        assert guaranteed_error(None, 8, n=1) == math.inf
        assert guaranteed_error(0.0, 8, 16**3) > 0.0  # the transform's round-off
        assert IdentityCodec().error_bound == ShuffleZlibCodec().error_bound == 0.0
        assert CastCodec("fp32").error_bound == 2.0**-24
        assert MantissaTrimCodec(30).error_bound == 2.0**-31
        assert ZfpLikeCodec(tolerance=1e-6).error_bound == 2e-6
        assert ZfpLikeCodec(rate=4.0).error_bound is None


class TestScheduleForTolerance:
    def test_quadrature_saves_bits_vs_linear(self):
        """Quadrature over 8 events keeps fewer bits than a linear split."""
        quad = codec_for_tolerance(1e-10, 8, n=1)
        assert isinstance(quad, MantissaTrimCodec)
        assert quad.mantissa_bits < mantissa_bits_for_tolerance(1e-10 / 8)
        assert math.sqrt(8) * quad.error_bound <= 1e-10

    def test_validation(self):
        with pytest.raises(ToleranceError):
            codec_for_tolerance(0.0, 8, n=1)
        with pytest.raises(ToleranceError):
            codec_for_tolerance(1e-6, 0, n=1)
        with pytest.raises(ToleranceError):
            codec_for_tolerance(1e-6, 8, n=1, data_hint="vibes")


class TestScheduleInFft:
    def test_schedule_meets_total_tolerance(self, rng):
        x = rng.random((16, 16, 16))
        for e_tol in (1e-4, 1e-7, 1e-10):
            plan = Fft3d((16, 16, 16), 4, e_tol=e_tol)
            assert plan.roundtrip_error(x) <= e_tol

    def test_quadrature_budget_ships_fewer_bytes(self, rng):
        """The whole point: the quadrature split buys compression over a
        codec picked for a linear one, and both meet the total."""
        x = rng.random((16, 16, 16))
        e_tol = 1e-10
        quad = Fft3d((16, 16, 16), 4, e_tol=e_tol)
        linear = MantissaTrimCodec(mantissa_bits_for_tolerance(e_tol / 8))
        lin = Fft3d((16, 16, 16), 4, codec=linear)
        assert quad.roundtrip_error(x) <= e_tol
        assert lin.roundtrip_error(x) <= e_tol
        assert quad.last_stats.wire_bytes <= lin.last_stats.wire_bytes

    def test_heterogeneous_stages(self, rng):
        """One codec per plan: every reshape ships at its rate."""
        plan = Fft3d((16, 16, 16), 4, e_tol=1e-10)
        plan.forward(rng.random((16, 16, 16)))
        rates = {r.achieved_rate for r in plan.last_stats.reshapes}
        assert rates == {plan.codec.rate}

    def test_wrong_stage_count_rejected(self):
        """Per-stage schedules are gone: the option no longer exists."""
        with pytest.raises(TypeError):
            Fft3d((8, 8, 8), 2, codec_schedule=(CastCodec("fp32"),) * 4)

    def test_exclusive_with_codec(self):
        with pytest.raises(PlanError):
            Fft3d((8, 8, 8), 2, codec=CastCodec("fp32"), e_tol=1e-6)


def test_exchanges_verify_against_the_share(rng):
    """Each bound exchange holds every message against the share, not
    the total."""
    from repro.runtime import ThreadWorld

    plan = Fft3d((8, 8, 8), 4, e_tol=1e-10)
    x = rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8))
    blocks = plan.scatter(x)

    def kernel(comm):
        plan.forward_spmd(comm, blocks[comm.rank])
        return {b.exchange.e_tol for b in plan._bind(comm, "osc", "flat", ()).bound}

    assert ThreadWorld(4).run(kernel) == [{plan.share}] * 4
    assert np.isclose(plan.share, 1e-10 / math.sqrt(8), rtol=1e-6)
