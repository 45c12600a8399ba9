"""Process-runtime-specific tests: shared-memory transport, teardown.

The backend-agnostic ``Comm`` semantics run against ProcessWorld in
``test_runtime_contract.py``.  This file covers what only the process
substrate promises: spill segments for oversized messages, ring
wraparound under sustained traffic, zero-copy windows across address
spaces, child-death surfacing, one-shot lifecycle, and leak-clean
teardown (no ``/dev/shm`` segments, no zombie children — the
``leak_check`` fixture of ``conftest.py``) even after failures.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.errors import CommunicatorError, UnsupportedFaultError
from repro.faults import FaultPlan
from repro.runtime import ProcessWorld
from repro.runtime.shm import SEG_PREFIX, fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process runtime needs the fork start method"
)


def _shm_segments() -> list[str]:
    return sorted(
        os.path.basename(p) for p in glob.glob(f"/dev/shm/{SEG_PREFIX}*")
    )


class TestTransport:
    def test_spill_path_large_message(self, leak_check):
        """A message far bigger than the ring travels via a spill segment."""
        n = 600_000  # 4.8 MB of float64 through a 1 MB ring

        def kernel(comm):
            if comm.rank == 0:
                comm.send(np.arange(n, dtype=np.float64), dest=1)
                return None
            got = comm.recv(source=0)
            return (got.size, float(got[0]), float(got[-1]), got.dtype.str)

        res = ProcessWorld(2, ring_capacity=1 << 20).run(kernel)
        assert res[1] == (n, 0.0, float(n - 1), "<f8")

    def test_ring_wraparound_many_messages(self, leak_check):
        """Sustained traffic forces the ring cursor to wrap several times."""
        rounds, size = 200, 1024  # ~1.6 MB total through a 64 KiB ring

        def kernel(comm):
            if comm.rank == 0:
                for k in range(rounds):
                    comm.send(np.full(size, float(k)), dest=1, tag=0)
                return None
            total = 0.0
            for _ in range(rounds):
                total += float(comm.recv(source=0, tag=0)[0])
            return total

        res = ProcessWorld(2, ring_capacity=1 << 16).run(kernel)
        assert res[1] == float(sum(range(rounds)))

    def test_bidirectional_flood_no_deadlock(self, leak_check):
        """Both ranks flooding a small ring at once must make progress
        (a blocked sender still drains its own ring)."""
        rounds = 64

        def kernel(comm):
            peer = 1 - comm.rank
            acc = 0.0
            for k in range(rounds):
                comm.send(np.full(2048, float(k)), dest=peer, tag=1)
            for _ in range(rounds):
                acc += float(comm.recv(source=peer, tag=1)[0])
            return acc

        res = ProcessWorld(2, ring_capacity=1 << 15, timeout=30.0).run(kernel)
        assert res == [float(sum(range(rounds)))] * 2

    def test_window_is_cross_process_shared_memory(self, leak_check):
        """A put lands in the peer's address space: real shared memory,
        observable without any message carrying the bytes."""

        def kernel(comm):
            win = comm.win_create(8)
            win.fence()
            if comm.rank == 0:
                win.put(np.arange(1, 9, dtype=np.uint8), 1)
            win.fence()
            # Rank 1 reads its own mapping; the data only got there if
            # the arena is genuinely shared across the fork boundary.
            got = win.local_view().copy() if comm.rank == 1 else None
            win.free()
            return None if got is None else got.tolist()

        res = ProcessWorld(2).run(kernel)
        assert res[1] == [1, 2, 3, 4, 5, 6, 7, 8]


class TestFailureSurface:
    def test_child_exception_carries_rank_and_traceback(self, leak_check):
        def kernel(comm):
            if comm.rank == 2:
                raise ValueError("boom on two")
            comm.barrier()

        with pytest.raises(ValueError, match="boom on two") as excinfo:
            ProcessWorld(4, timeout=10.0).run(kernel)
        assert excinfo.value.rank == 2
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("child traceback" in n for n in notes)

    def test_child_hard_crash_surfaces_exit_code(self, leak_check):
        def kernel(comm):
            if comm.rank == 1:
                os._exit(7)  # no exception, no result payload
            comm.barrier()

        with pytest.raises(CommunicatorError, match="exit|died") as excinfo:
            ProcessWorld(2, timeout=10.0).run(kernel)
        assert "7" in str(excinfo.value) or "without returning" in str(excinfo.value)

    def test_leak_clean_after_failure(self, leak_check):
        """Even a failing run with a live window must unlink everything
        (the leak_check fixture does the actual assertion)."""

        def kernel(comm):
            win = comm.win_create(64)
            win.fence()
            if comm.rank == 0:
                raise RuntimeError("die with a window open")
            comm.barrier()

        with pytest.raises(RuntimeError):
            ProcessWorld(2, timeout=10.0).run(kernel)

    def test_unpicklable_result_reported_not_hung(self, leak_check):
        def kernel(comm):
            return lambda: None  # locals are unpicklable

        with pytest.raises(CommunicatorError, match="not picklable"):
            ProcessWorld(2, timeout=10.0).run(kernel)


class TestLifecycle:
    def test_one_shot_second_run_rejected(self, leak_check):
        world = ProcessWorld(2, timeout=10.0)
        assert world.run(lambda comm: comm.rank) == [0, 1]
        with pytest.raises(CommunicatorError, match="one-shot|already executed"):
            world.run(lambda comm: comm.rank)

    def test_fault_plan_rejected(self, leak_check):
        with pytest.raises(UnsupportedFaultError):
            ProcessWorld(2, faults=FaultPlan())

    def test_context_manager_unlinks_unused_world(self, leak_check):
        with ProcessWorld(2, timeout=10.0) as world:
            assert _shm_segments() != []  # rings + control block exist
            assert world.uid.startswith(SEG_PREFIX)
        # leak_check asserts the segments are gone

    def test_segment_and_primitive_census(self, leak_check, monkeypatch):
        """A live world owns exactly its control state ``{uid}s``, the
        telemetry block ``{uid}t`` and one ring per rank — no private
        control segment beside the state — and 2p + 1 fork-shared locks
        (ring, window target, store) and p + 1 conditions (ring, state)."""
        import collections

        import repro.runtime.proc as proc

        made = collections.Counter()

        class CountingContext:
            def __init__(self, ctx):
                self._ctx = ctx

            def Lock(self):
                made["Lock"] += 1
                return self._ctx.Lock()

            def Condition(self, lock=None):
                made["Condition"] += 1
                return self._ctx.Condition(lock)

            def __getattr__(self, name):
                return getattr(self._ctx, name)

        get_context = proc.mp.get_context
        monkeypatch.setattr(proc.mp, "get_context", lambda method: CountingContext(get_context(method)))
        before = set(_shm_segments())
        with ProcessWorld(4, timeout=10.0) as world:
            uid = world.uid
            expected = {f"{uid}s"} | {f"{uid}r{r}" for r in range(4)}
            if world.telemetry is not None:
                expected.add(f"{uid}t")
            assert set(_shm_segments()) - before == expected
            assert made == {"Lock": 9, "Condition": 5}

    def test_close_is_idempotent(self, leak_check):
        world = ProcessWorld(2, timeout=10.0)
        world.close()
        world.close()


class TestTracerSpooling:
    def test_child_spans_merge_onto_parent_timeline(self, leak_check):
        from repro.trace import get_tracer, install
        from repro.trace.core import Tracer

        tracer = Tracer(enabled=True)
        previous = get_tracer()
        install(tracer)
        try:

            def kernel(comm):
                from repro.trace import span

                with span("child-work", items=comm.rank):
                    comm.barrier()

            ProcessWorld(3, timeout=10.0).run(kernel)
        finally:
            install(previous)
        spans = [s for s in tracer.span_events() if s.kind == "child-work"]
        assert sorted(s.rank for s in spans) == [0, 1, 2]
        assert all(s.t1_ns >= s.t0_ns for s in spans)
