"""Process-launcher tests, and the ring transport on both launchers.

The backend-agnostic ``Comm`` semantics run against ProcessWorld in
``test_runtime_contract.py``.  This file covers the ring under load on
both launchers — messages cut into parts, wraparound under sustained
traffic, mutual floods — and what only the process launcher promises:
zero-copy windows across address spaces, child-death surfacing,
one-shot lifecycle, and leak-clean teardown (no ``/dev/shm`` segments,
no zombie children — the ``leak_check`` fixture of ``conftest.py``)
even after failures.
"""

from __future__ import annotations

import glob
import os
import time

import numpy as np
import pytest

from repro.errors import CommunicatorError, UnsupportedFaultError
from repro.faults import FaultPlan
from repro.runtime import RUNTIMES, ProcessWorld, make_world
from repro.runtime.shm import DEFAULT_RING_CAPACITY, SEG_PREFIX, fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process runtime needs the fork start method"
)


def _shm_segments() -> list[str]:
    return sorted(
        os.path.basename(p) for p in glob.glob(f"/dev/shm/{SEG_PREFIX}*")
    )


class TestTransport:
    """Ring tests take the runtime: they are sized against the default
    ring (1 MiB), which both launchers use."""

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_message_larger_than_the_ring(self, runtime, leak_check):
        """A message far bigger than the ring travels in parts."""
        n = 600_000  # 4.8 MB of float64 through a 1 MiB ring

        def kernel(comm):
            if comm.rank == 0:
                comm.send(np.arange(n, dtype=np.float64), dest=1)
                return None
            got = comm.recv(source=0)
            return (got.size, float(got[0]), float(got[-1]), got.dtype.str)

        res = make_world(runtime, 2, timeout=30.0).run(kernel)
        assert res[1] == (n, 0.0, float(n - 1), "<f8")

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_ring_wraparound_many_messages(self, runtime, leak_check):
        """Sustained traffic forces the ring cursor to wrap several times."""
        rounds, size = 200, 8192  # 12.8 MB total through a 1 MiB ring

        def kernel(comm):
            if comm.rank == 0:
                for k in range(rounds):
                    comm.send(np.full(size, float(k)), dest=1, tag=0)
                return None
            total = 0.0
            for _ in range(rounds):
                total += float(comm.recv(source=0, tag=0)[0])
            return total

        res = make_world(runtime, 2, timeout=30.0).run(kernel)
        assert res[1] == float(sum(range(rounds)))

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_bidirectional_flood_no_deadlock(self, runtime, leak_check):
        """Both ranks flooding the ring at once must make progress (a
        blocked sender still drains its own ring)."""
        rounds = 64  # 8 MiB each way through a 1 MiB ring

        def kernel(comm):
            peer = 1 - comm.rank
            acc = 0.0
            for k in range(rounds):
                comm.send(np.full(16384, float(k)), dest=peer, tag=1)
            for _ in range(rounds):
                acc += float(comm.recv(source=peer, tag=1)[0])
            return acc

        res = make_world(runtime, 2, timeout=30.0).run(kernel)
        assert res == [float(sum(range(rounds)))] * 2

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_parts_interleave_without_a_segment_of_their_own(self, runtime, leak_check):
        """A message 4x the ring, cut into parts that interleave with a
        third rank's small messages: it arrives intact, order holds per
        (source, tag), and while it is in flight the world owns only its
        fixed segments (rings, control state, telemetry block)."""
        n = 4 * DEFAULT_RING_CAPACITY // 8 + 1234
        smalls = 40

        def kernel(comm):
            if comm.rank == 0:
                comm.send(np.array([0.0, 0.0]), dest=1, tag=5)
                comm.send(np.arange(n, dtype=np.float64), dest=1, tag=7)
                comm.send(np.array([0.0, 1.0]), dest=1, tag=5)
                return None
            if comm.rank == 2:
                for k in range(smalls):
                    comm.send(np.array([2.0, float(k)]), dest=1, tag=5)
                return None
            time.sleep(0.3)  # rank 0 is blocked mid-message on a full ring
            names = comm.world.segments.names()
            seqs = {0: [], 2: []}
            for _ in range(smalls + 2):
                source, seq = comm.recv(tag=5)
                seqs[int(source)].append(int(seq))
            big = comm.recv(source=0, tag=7)
            return names, seqs, bool(np.array_equal(big, np.arange(n, dtype=np.float64)))

        names, seqs, intact = make_world(runtime, 3, timeout=30.0).run(kernel)[1]
        assert intact
        assert seqs == {0: [0, 1], 2: list(range(smalls))}
        assert {"r0", "r1", "r2"} <= set(names) <= {"r0", "r1", "r2", "s", "t"}

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
        control segment beside the state — and 2p fork-shared locks
        (ring, window target) and p + 1 conditions (ring, state)."""
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
            expected = {f"{uid}s", f"{uid}t"} | {f"{uid}r{r}" for r in range(4)}
            assert set(_shm_segments()) - before == expected
            assert made == {"Lock": 8, "Condition": 5}

    def test_close_is_idempotent(self, leak_check):
        world = ProcessWorld(2, timeout=10.0)
        world.close()
        world.close()


class TestTracerSpooling:
    def test_child_spans_merge_onto_parent_timeline(self, leak_check):
        from repro.trace import get_tracer, install
        from repro.trace.core import Tracer

        tracer = Tracer()
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

    def test_an_unpicklable_attribute_loses_only_that_ranks_trace(self, leak_check):
        """Tracing never kills a rank: rank 1's span carries a lock, which
        does not pickle, so its records stay home; its result and the
        other ranks' spans still arrive."""
        import threading

        from repro.trace import span, tracing

        def kernel(comm):
            attrs = {"lock": threading.Lock()} if comm.rank == 1 else {}
            with span("child-work", **attrs):
                comm.barrier()
            return 10 * comm.rank

        with tracing() as tracer:
            results = ProcessWorld(3, timeout=10.0).run(kernel)
        assert results == [0, 10, 20]
        spans = [s for s in tracer.span_events() if s.kind == "child-work"]
        assert sorted(s.rank for s in spans) == [0, 2]

    def test_records_ride_with_the_unpicklable_result_message(self, leak_check):
        """A return value that does not pickle is replaced by an error
        message on the same pipe, and the rank's records travel with it."""
        import threading

        from repro.trace import span, tracing

        def kernel(comm):
            with span("child-work"):
                comm.barrier()
            return threading.Lock() if comm.rank == 1 else comm.rank

        with tracing() as tracer:
            with pytest.raises(CommunicatorError, match="not picklable"):
                ProcessWorld(3, timeout=10.0).run(kernel)
        spans = [s for s in tracer.span_events() if s.kind == "child-work"]
        assert sorted(s.rank for s in spans) == [0, 1, 2]
