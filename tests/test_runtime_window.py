"""Tests for one-sided RMA windows (the Algorithm 3 substrate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WindowError
from repro.runtime import run_spmd


class TestWindowBasics:
    def test_put_visible_after_fence(self):
        def kernel(comm):
            win = comm.win_create(8)
            win.fence()
            win.put(np.array([float(comm.rank + 1)]), (comm.rank + 1) % comm.size)
            win.fence()
            val = float(win.local_view().view(np.float64)[0])
            win.free()
            return val

        res = run_spmd(4, kernel)
        assert res == [4.0, 1.0, 2.0, 3.0]

    def test_put_with_offset(self):
        def kernel(comm):
            win = comm.win_create(8 * comm.size)
            win.fence()
            # everyone writes its rank into slot `rank` of rank 0's window
            win.put(np.array([float(comm.rank)]), 0, offset=8 * comm.rank)
            win.fence()
            out = win.local_view().view(np.float64).copy()
            win.free()
            return out

        res = run_spmd(3, kernel)
        assert np.array_equal(res[0], [0.0, 1.0, 2.0])


class TestWindowErrors:
    def test_put_out_of_bounds(self):
        def kernel(comm):
            win = comm.win_create(8)
            win.fence()
            win.put(np.zeros(2), 0)  # 16 bytes into an 8-byte window

        with pytest.raises(WindowError):
            run_spmd(2, kernel, timeout=5.0)

    def test_negative_offset(self):
        def kernel(comm):
            win = comm.win_create(8)
            win.fence()
            win.put(np.zeros(1), 0, offset=-4)

        with pytest.raises(WindowError):
            run_spmd(2, kernel, timeout=5.0)

    def test_reserve_out_of_bounds(self):
        def kernel(comm):
            win = comm.win_create(8)
            win.fence()
            win.reserve(0, 4, 8)  # 4 + 8 bytes into an 8-byte window

        with pytest.raises(WindowError):
            run_spmd(2, kernel, timeout=5.0)

    def test_reserve_after_free_rejected(self):
        def kernel(comm):
            win = comm.win_create(8)
            win.free()
            win.reserve(0, 0, 8)

        with pytest.raises(WindowError):
            run_spmd(2, kernel, timeout=5.0)

    def test_use_after_free_rejected(self):
        def kernel(comm):
            win = comm.win_create(8)
            win.free()
            win.put(np.zeros(1), 0)

        with pytest.raises(WindowError):
            run_spmd(2, kernel, timeout=5.0)

    def test_multiple_windows_coexist(self):
        def kernel(comm):
            w1 = comm.win_create(8)
            w2 = comm.win_create(16)
            w1.fence()
            w2.fence()
            w1.put(np.array([1.0]), 0)
            w2.put(np.array([2.0]), 0, offset=8)
            w1.fence()
            w2.fence()
            a = float(w1.local_view().view(np.float64)[0]) if comm.rank == 0 else None
            b = float(w2.local_view().view(np.float64)[1]) if comm.rank == 0 else None
            w1.free()
            w2.free()
            return a, b

        res = run_spmd(2, kernel)
        assert res[0] == (1.0, 2.0)


class TestReservedWritesUnderFaults:
    """``Window.reserve`` takes every chaos rule a put takes: the written
    bytes are what an injected bit flip lands in, on exit."""

    def _frame_through_a_reservation(self, faults, *, fail=False):
        from repro.collectives.wire import open_frame, seal, stage
        from repro.compression import CastCodec
        from repro.errors import WireIntegrityError
        from repro.runtime.thread_rt import ThreadWorld

        values = np.linspace(-3.0, 3.0, 96).reshape(8, 12)[:, 1::2]
        codec = CastCodec("fp32")

        def kernel(comm):
            win = comm.win_create(1024)
            win.fence()
            written = None
            if comm.rank == 0:
                try:
                    with win.reserve(1, 16, 1000) as slot:
                        meta_len, nbytes, _, _ = stage(slot.view, codec, values)
                        slot.written = written = seal(slot.view, meta_len, nbytes).size
                        if fail:
                            raise ValueError("the writer gave up")
                except ValueError:
                    pass
            win.fence()
            outcome = None
            if comm.rank == 1:
                try:
                    msg, consumed = open_frame(win.local_view()[16:])
                    out = np.empty(values.shape)
                    codec.decode_into(msg.payload, msg.header, out)
                    outcome = np.array_equal(out, values.astype(np.float32)), consumed
                except WireIntegrityError as exc:
                    outcome = str(exc)
            slack = win.local_view().copy()
            win.free()
            return written, outcome, slack

        world = ThreadWorld(2, timeout=10.0, faults=faults)
        return world, world.run(kernel)

    def test_clean_reservation_round_trips(self):
        world, ((written, _, _), (_, outcome, slack)) = self._frame_through_a_reservation(None)
        assert outcome == (True, written)
        assert not slack[:16].any() and not slack[16 + written :].any()

    def test_bitflip_lands_in_the_written_bytes_and_the_crc_catches_it(self):
        from repro.faults import FaultPlan, FaultRule

        for seed in range(8):  # wherever it lands: header, metadata or payload
            flip = FaultPlan([FaultRule("bitflip", rank=0, peer=1)], seed=seed)
            world, ((written, _, _), (_, outcome, slack)) = self._frame_through_a_reservation(flip)
            assert world.injector.injected("bitflip") == 1
            assert isinstance(outcome, str), f"seed {seed}: a flipped frame decoded ({outcome})"
            assert not slack[:16].any() and not slack[16 + written :].any(), "flipped outside"

    def test_a_failed_writer_is_not_corrupted_further_and_releases_the_lock(self):
        from repro.faults import FaultPlan, FaultRule

        flip = FaultPlan([FaultRule("bitflip", rank=0, peer=1)], seed=1)
        world, (_, (_, outcome, _)) = self._frame_through_a_reservation(flip, fail=True)
        assert world.injector.injected("bitflip") == 0
        assert outcome[0] is True  # the fence was reached: the target's lock was let go
