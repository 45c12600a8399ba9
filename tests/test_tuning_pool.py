"""Staging-buffer pool: semantics, counters, and zero-alloc hot paths."""

import numpy as np
import pytest

from repro.collectives import CompressedOscAlltoallv, OscAlltoallv, make_exchange
from repro.compression.truncation import CastCodec
from repro.errors import TuningError
from repro.fft.decomposition import brick_decomposition, pencil_decomposition
from repro.fft.reshape import ReshapePlan
from repro.runtime.thread_rt import ThreadWorld
from repro.trace import tracing
from repro.tuning import BufferPool


class TestBufferPoolSemantics:
    def test_acquire_exact_length_over_pow2_arena(self):
        pool = BufferPool()
        buf = pool.acquire(100)
        assert buf.dtype == np.uint8 and buf.size == 100
        assert buf.base is not None and buf.base.size == 128  # pow2 size class

    def test_release_then_acquire_reuses_the_arena(self):
        pool = BufferPool()
        a = pool.acquire(100)
        base = a.base
        assert pool.release(a)
        b = pool.acquire(90)  # same size class
        assert b.base is base
        assert pool.hits == 1 and pool.misses == 1

    def test_release_accepts_derived_views(self):
        pool = BufferPool()
        buf = pool.acquire(64)
        view = buf[10:30].reshape(2, 10)  # view of a view
        assert pool.release(view)
        assert pool.active == 0

    def test_foreign_and_double_release_are_noops(self):
        pool = BufferPool()
        assert not pool.release(np.zeros(16, dtype=np.uint8))
        buf = pool.acquire(16)
        assert pool.release(buf)
        assert not pool.release(buf)  # second release of the same arena
        assert pool.releases == 1

    def test_zero_size_acquire_allocates_nothing(self):
        pool = BufferPool()
        buf = pool.acquire(0)
        assert buf.size == 0
        assert pool.misses == 0 and pool.hits == 0
        assert not pool.release(buf)

    def test_acquire_array_typed_shapes(self):
        pool = BufferPool()
        arr = pool.acquire_array((3, 4), np.complex128)
        assert arr.shape == (3, 4) and arr.dtype == np.complex128
        arr[:] = 1 + 2j  # writable
        assert pool.release(arr)
        again = pool.acquire_array((3, 4), np.complex128)
        assert pool.hits == 1

    def test_max_per_class_bounds_retention(self):
        pool = BufferPool(max_per_class=1)
        a, b = pool.acquire(32), pool.acquire(32)
        pool.release(a)
        pool.release(b)
        assert pool.dropped == 1
        assert pool.retained_bytes == 32

    def test_rejects_bad_arguments(self):
        with pytest.raises(TuningError):
            BufferPool(max_per_class=0)
        with pytest.raises(TuningError):
            BufferPool().acquire(-1)

    def test_counters_exported_through_trace(self):
        with tracing() as tracer:
            pool = BufferPool()
            buf = pool.acquire(10)
            pool.release(buf)
            pool.acquire(10)
        assert tracer.counter_total("pool_misses") == 1
        assert tracer.counter_total("pool_hits") == 1


class TestZeroAllocHotPaths:
    """ISSUE acceptance: steady-state exchanges allocate nothing new."""

    def test_compressed_exchange_zero_misses_after_warmup_8_ranks(self):
        p = 8
        rng = np.random.default_rng(0)
        send = [[rng.standard_normal(48) for _ in range(p)] for _ in range(p)]

        def kernel(comm):
            pool = BufferPool()
            op = CompressedOscAlltoallv(comm, CastCodec("fp32"), pool=pool)
            try:
                op(send[comm.rank])  # warm-up call
                warm_misses = pool.misses
                for _ in range(10):
                    op(send[comm.rank])
                return warm_misses, pool.misses, pool.active
            finally:
                op.free()

        for warm, after, active in ThreadWorld(p).run(kernel):
            assert after == warm, "steady-state exchange allocated staging memory"
            assert active == 0, "exchange leaked pooled buffers"

    def test_osc_exchange_reuses_recv_copies(self):
        """Raw OSC stages nothing: its boxes are fresh arrays of the sender's
        dtype and shape, not pooled copies, so the pool stays untouched."""
        p = 4
        rng = np.random.default_rng(1)
        send = [[rng.standard_normal(32) for _ in range(p)] for _ in range(p)]

        def kernel(comm):
            pool = BufferPool()
            op = OscAlltoallv(comm, pool=pool)
            try:
                accepted = []
                for _ in range(2):
                    recv = op(send[comm.rank])
                    accepted += [pool.release(block) for block in recv]
                return pool.misses, pool.releases, any(accepted)
            finally:
                op.free()

        for misses, releases, accepted in ThreadWorld(p).run(kernel):
            assert (misses, releases, accepted) == (0, 0, False)

    def test_reshape_run_spmd_zero_misses_after_warmup(self):
        shape, nranks = (12, 12, 12), 4
        plan = ReshapePlan(
            brick_decomposition(shape, nranks), pencil_decomposition(shape, nranks, 0)
        )

        def kernel(comm):
            rng = np.random.default_rng(comm.rank)
            box = plan.src.box_of(comm.rank)
            local = (
                rng.standard_normal(box.shape) + 1j * rng.standard_normal(box.shape)
            ).astype(np.complex128)
            pool = BufferPool()
            op = CompressedOscAlltoallv(comm, CastCodec("fp32"), pool=pool)
            try:
                plan.run_spmd(comm, local, op, pool=pool)
                warm = pool.misses
                out_a = plan.run_spmd(comm, local, op, pool=pool)
                out_b = plan.run_spmd(comm, local, op, pool=pool)
                return warm, pool.misses, pool.active, np.array_equal(out_a, out_b)
            finally:
                op.free()

        for warm, after, active, stable in ThreadWorld(nranks).run(kernel):
            assert after == warm, "repeated reshape allocated staging memory"
            assert active == 0
            assert stable

    def test_pooled_reshape_matches_unpooled(self):
        shape, nranks = (8, 8, 8), 4
        plan = ReshapePlan(
            brick_decomposition(shape, nranks), pencil_decomposition(shape, nranks, 1)
        )

        def kernel(comm, pooled):
            rng = np.random.default_rng(100 + comm.rank)
            box = plan.src.box_of(comm.rank)
            local = (
                rng.standard_normal(box.shape) + 1j * rng.standard_normal(box.shape)
            ).astype(np.complex128)
            pool = BufferPool() if pooled else None
            op = make_exchange(comm, codec=CastCodec("fp32"), pool=pool)
            try:
                return plan.run_spmd(comm, local, op, pool=pool)
            finally:
                op.free()

        plain = ThreadWorld(nranks).run(kernel, False)
        pooled = ThreadWorld(nranks).run(kernel, True)
        for a, b in zip(plain, pooled):
            assert np.array_equal(a, b)
