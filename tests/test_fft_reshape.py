"""Tests for reshape plans: virtual and SPMD execution, with codecs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import make_exchange
from repro.compression import CastCodec, IdentityCodec
from repro.errors import PlanError
from repro.fft import Box3d, ReshapePlan, brick_decomposition, pencil_decomposition
from repro.collectives.base import ExchangeStats
from repro.runtime import VirtualWorld, run_spmd


def _global_field(shape, rng):
    return (rng.random(shape) + 1j * rng.random(shape)).astype(np.complex128)


def _scatter(decomp, x):
    full = Box3d((0, 0, 0), x.shape)
    return [np.ascontiguousarray(x[decomp.box_of(r).slices_within(full)]) for r in range(decomp.nranks)]


def _reshape(plan, comm, local, **config):
    """One reshape through the exchange ``make_exchange(comm, **config)`` builds."""
    op = make_exchange(comm, **config)
    try:
        return plan.run_spmd(comm, local, op)
    finally:
        op.free()


def _gather(decomp, locals_, shape):
    out = np.empty(shape, dtype=locals_[0].dtype)
    full = Box3d((0, 0, 0), shape)
    for r in range(decomp.nranks):
        out[decomp.box_of(r).slices_within(full)] = locals_[r]
    return out


class TestPlanConstruction:
    def test_message_count_and_volume(self):
        shape = (16, 16, 16)
        src = brick_decomposition(shape, 8)
        dst = pencil_decomposition(shape, 8, 0)
        plan = ReshapePlan(src, dst)
        assert plan.total_bytes(16) == 16**3 * 16  # every cell moves once
        assert plan.n_messages >= 8

    def test_incoming_outgoing_symmetry(self):
        shape = (12, 12, 12)
        plan = ReshapePlan(brick_decomposition(shape, 6), pencil_decomposition(shape, 6, 1))
        outgoing = {(s, d) for s in range(6) for d, _ in plan.pairs[s]}
        incoming = {(s, d) for d in range(6) for s, _ in plan.incoming[d]}
        assert outgoing == incoming

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PlanError):
            ReshapePlan(brick_decomposition((8, 8, 8), 4), brick_decomposition((8, 8, 9), 4))

    def test_rank_mismatch_rejected(self):
        with pytest.raises(PlanError):
            ReshapePlan(brick_decomposition((8, 8, 8), 4), brick_decomposition((8, 8, 8), 8))


class TestVirtualExecution:
    @pytest.mark.parametrize("shape,p", [((16, 16, 16), 8), ((24, 20, 18), 6), ((13, 11, 9), 4)])
    def test_reshape_is_pure_relayout(self, rng, shape, p):
        """A reshape must not change the global field, only its layout."""
        x = _global_field(shape, rng)
        src = brick_decomposition(shape, p)
        dst = pencil_decomposition(shape, p, 0)
        plan = ReshapePlan(src, dst)
        world = VirtualWorld(p)
        out = plan.run_virtual(world, _scatter(src, x))
        assert np.array_equal(_gather(dst, out, shape), x)

    def test_chain_of_reshapes(self, rng):
        shape = (16, 16, 16)
        p = 6
        x = _global_field(shape, rng)
        layouts = [brick_decomposition(shape, p)] + [
            pencil_decomposition(shape, p, a) for a in range(3)
        ]
        world = VirtualWorld(p)
        locals_ = _scatter(layouts[0], x)
        for a, b in zip(layouts, layouts[1:]):
            locals_ = ReshapePlan(a, b).run_virtual(world, locals_)
        assert np.array_equal(_gather(layouts[-1], locals_, shape), x)

    def test_codec_applied_per_message(self, rng):
        shape = (16, 16, 16)
        p = 4
        x = _global_field(shape, rng)
        src = brick_decomposition(shape, p)
        dst = pencil_decomposition(shape, p, 2)
        plan = ReshapePlan(src, dst)
        world = VirtualWorld(p)
        stats = ExchangeStats()
        out = plan.run_virtual(world, _scatter(src, x), codec=CastCodec("fp32"), stats=stats)
        got = _gather(dst, out, shape)
        assert not np.array_equal(got, x)  # lossy
        assert np.allclose(got, x, rtol=1e-6)
        assert stats.achieved_rate == pytest.approx(2.0)
        assert stats.logical_bytes == 16**3 * 16

    def test_traffic_logged_at_wire_size(self, rng):
        shape = (8, 8, 8)
        p = 4
        x = _global_field(shape, rng)
        src = brick_decomposition(shape, p)
        dst = pencil_decomposition(shape, p, 0)
        plan = ReshapePlan(src, dst)
        w_plain = VirtualWorld(p)
        plan.run_virtual(w_plain, _scatter(src, x))
        w_comp = VirtualWorld(p)
        plan.run_virtual(w_comp, _scatter(src, x), codec=CastCodec("fp32"))
        assert w_comp.traffic.total_bytes < w_plain.traffic.total_bytes

    def test_wrong_world_size_rejected(self, rng):
        shape = (8, 8, 8)
        plan = ReshapePlan(brick_decomposition(shape, 4), pencil_decomposition(shape, 4, 0))
        with pytest.raises(PlanError):
            plan.run_virtual(VirtualWorld(5), [np.zeros((2, 2, 2))] * 4)


class TestSpmdExecution:
    @pytest.mark.parametrize("method", ["reference", "pairwise", "osc"])
    def test_matches_virtual(self, rng, method):
        shape = (12, 10, 8)
        p = 4
        x = _global_field(shape, rng)
        src = brick_decomposition(shape, p)
        dst = pencil_decomposition(shape, p, 1)
        plan = ReshapePlan(src, dst)
        expected = plan.run_virtual(VirtualWorld(p), _scatter(src, x))
        locals_ = _scatter(src, x)

        def kernel(comm):
            return _reshape(plan, comm, locals_[comm.rank], method=method)

        res = run_spmd(p, kernel)
        for r in range(p):
            assert np.array_equal(res[r], expected[r])

    def test_compressed_alltoall_path(self, rng):
        shape = (12, 12, 12)
        p = 4
        x = _global_field(shape, rng)
        src = brick_decomposition(shape, p)
        dst = pencil_decomposition(shape, p, 0)
        plan = ReshapePlan(src, dst)
        locals_ = _scatter(src, x)

        def kernel(comm):
            op = make_exchange(comm, codec=CastCodec("fp32"))
            stats = ExchangeStats()
            out = plan.run_spmd(comm, locals_[comm.rank], op, stats=stats)
            op.free()
            return out, stats.achieved_rate

        res = run_spmd(p, kernel)
        out = _gather(dst, [r[0] for r in res], shape)
        assert np.allclose(out, x, rtol=1e-6)
        assert all(r[1] == pytest.approx(2.0) for r in res)

    def test_identity_codec_spmd_exact(self, rng):
        shape = (8, 8, 8)
        p = 2
        x = _global_field(shape, rng)
        src = brick_decomposition(shape, p)
        dst = pencil_decomposition(shape, p, 2)
        plan = ReshapePlan(src, dst)
        locals_ = _scatter(src, x)

        def kernel(comm):
            return _reshape(plan, comm, locals_[comm.rank], codec=IdentityCodec())

        res = run_spmd(p, kernel)
        assert np.array_equal(_gather(dst, res, shape), x)

    def test_exchange_is_borrowed(self, rng):
        """The caller's exchange keeps its cached window across reshapes
        and is the caller's to free.  (Bricks -> z-pencils: bricks ->
        x-pencils keeps every cell on its rank at p = 2, and a reshape
        with nothing to put creates no window.)"""
        shape = (8, 8, 8)
        plan = ReshapePlan(brick_decomposition(shape, 2), pencil_decomposition(shape, 2, 2))
        assert any(d != s for s, row in enumerate(plan.pairs) for d, _ in row)
        locals_ = _scatter(plan.src, _global_field(shape, rng))

        def kernel(comm):
            op = make_exchange(comm, method="osc")
            first = plan.run_spmd(comm, locals_[comm.rank], op)
            cached = op.transport.win
            second = plan.run_spmd(comm, locals_[comm.rank], op)
            kept = cached is not None and op.transport.win is cached
            op.free()
            return kept, op.transport.win is None, np.array_equal(first, second)

        assert run_spmd(2, kernel) == [(True, True, True)] * 2

    def test_wrong_local_shape_rejected(self, rng):
        shape = (8, 8, 8)
        plan = ReshapePlan(brick_decomposition(shape, 2), pencil_decomposition(shape, 2, 0))

        def kernel(comm):
            return plan.run_spmd(comm, np.zeros((3, 3, 3), dtype=np.complex128))

        with pytest.raises(PlanError):
            run_spmd(2, kernel, timeout=5.0)
