"""Thread-runtime-specific tests.

The backend-agnostic ``Comm`` semantics (point-to-point, tag matching,
collectives, windows, abort propagation) moved to
``test_runtime_contract.py``, where they run against *every* runtime.
What stays here is behaviour only the thread launcher promises: ranks
share one address space, so closures over Python objects are visible
across ranks, and a world object can be driven directly — run after
run, with a control plane and a segment namespace that stay private to
the process and a watchdog that scans at a bounded rate.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import CommunicatorError, RevokedError, StallError
from repro.faults import FaultPlan, FaultRule
from repro.fft import Fft3d
from repro.runtime import ThreadWorld, run_spmd


class TestSharedAddressSpace:
    """Threads (unlike processes) share Python objects across ranks."""

    def test_closure_mutation_visible_across_ranks(self):
        order = []

        def kernel(comm):
            if comm.rank == 0:
                time.sleep(0.05)
                order.append("slow")
            comm.barrier()
            if comm.rank == 1:
                order.append("after")

        run_spmd(2, kernel)
        assert order == ["slow", "after"]

    def test_send_does_not_alias_sender_buffer(self):
        """Even in one address space, send() must deep-copy (buffered
        semantics) — the receiver must never see the sender's later
        mutation through an aliased array."""

        def kernel(comm):
            if comm.rank == 0:
                buf = np.ones(4)
                comm.send(buf, dest=1)
                buf[:] = -1.0
                return None
            time.sleep(0.05)  # mutate-before-recv only works with threads
            return comm.recv(source=0)

        res = run_spmd(2, kernel)
        assert np.array_equal(res[1], np.ones(4))


class TestWorldLifecycle:
    def test_world_rejects_zero_ranks(self):
        with pytest.raises(CommunicatorError):
            ThreadWorld(0)

    def test_world_is_reusable(self):
        """A ThreadWorld (unlike a ProcessWorld) supports repeated runs."""
        world = ThreadWorld(2, timeout=10.0)
        first = world.run(lambda comm: comm.allgather(comm.rank))
        second = world.run(lambda comm: comm.allgather(comm.rank + 10))
        assert first == [[0, 1]] * 2
        assert second == [[10, 11]] * 2


class TestAbort:
    def test_abort_wakes_a_blocked_recv_on_the_notify(self, monkeypatch):
        """The contract suite's case of the same name, on rank threads,
        where the receiver also sees the aborting rank's exception chained
        onto its :class:`RuntimeAbort`."""
        from repro.errors import RuntimeAbort
        from repro.runtime.shm import ShmRing

        monkeypatch.setitem(ShmRing.wait.__kwdefaults__, "quantum", 5.0)
        seen = {}

        def kernel(comm):
            if comm.rank == 0:
                time.sleep(0.2)  # rank 1 is parked on its ring by now
                raise ValueError("boom")
            t0 = time.monotonic()
            try:
                comm.recv(source=0, tag=1)
            except RuntimeAbort as exc:
                seen["waited"], seen["cause"] = time.monotonic() - t0, exc.__cause__
                raise

        with pytest.raises(ValueError, match="boom"):
            ThreadWorld(2, timeout=20.0).run(kernel)
        assert seen["waited"] < 2.5
        assert isinstance(seen["cause"], ValueError)  # the aborting rank's exception, chained

    def test_abort_snapshots_the_survivor_worlds_under_the_shrink_lock(self):
        """One rank aborts while a peer is inside ``shrunk_world``: abort
        used to walk the survivor worlds' mailboxes, and a peer's insert
        in the middle of the walk broke it ("dictionary changed size
        during iteration").  Survivor worlds share the root's rings, so
        abort now notifies those and never walks the survivor cache.
        Replayed without timing: the notify itself hands a concurrent
        shrink all the time it wants."""
        world = ThreadWorld(3, timeout=5.0)
        world.shrunk_world((0, 1), 1)
        shrinker = threading.Thread(target=world.shrunk_world, args=((0, 2), 1), daemon=True)
        kick = world.rings[0].kick

        def kick_while_a_peer_shrinks():
            shrinker.start()
            shrinker.join(0.3)  # inserts now
            kick()

        class NoWalk(dict):
            def values(self):
                raise AssertionError("abort walked the survivor worlds")

            __iter__ = items = values

        world.rings[0].kick = kick_while_a_peer_shrinks
        world._shrunk = NoWalk(world._shrunk)
        world.abort("rank 0 raised ValueError: boom")
        shrinker.join(5.0)
        assert not shrinker.is_alive()
        assert set(dict.keys(world._shrunk)) == {((0, 1), 1), ((0, 2), 1)}
        assert world.abort_reason() == "rank 0 raised ValueError: boom"


class TestRingUnderPreemption:
    def test_parts_interleave_under_a_short_switch_interval(self):
        """Four rank threads on fewer cores flood each other with messages
        long enough to be cut into parts between short ones, while the
        interpreter switches threads every 10 us: every message arrives
        whole, in order per (source, tag)."""
        n_long = 75_000  # 600 kB of float64: three parts of a 1 MiB ring

        def kernel(comm):
            me, peers = comm.rank, [r for r in range(comm.size) if r != comm.rank]
            for k in range(4):
                for peer in peers:
                    comm.send(np.full(10, me * 100 + k), peer, tag=1)
                    if k % 2 == 0:
                        comm.send(np.full(n_long, float(me * 100 + k)), peer, tag=2)
            ok = True
            for peer in peers:
                for k in range(4):
                    ok &= bool(np.all(comm.recv(peer, tag=1) == peer * 100 + k))
                for k in (0, 2):
                    got = comm.recv(peer, tag=2)
                    ok &= got.size == n_long and bool(np.all(got == peer * 100 + k))
            return ok

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert ThreadWorld(4, timeout=30.0).run(kernel) == [True] * 4
        finally:
            sys.setswitchinterval(interval)


class TestRunEpochs:
    """Each ``run()`` is a new epoch of the control state; what a run
    concluded (registry, revoke word) carries over on purpose."""

    SUSPECT = 0.3

    @staticmethod
    def _kernel(comm):
        try:
            for _ in range(3):
                comm.barrier()
        except RevokedError as exc:
            (failure,) = exc.report.failures
            return ("revoked", failure.rank, failure.classification, failure.last_beat_age)
        except StallError:
            return "stalled"
        return "clean"

    def test_hang_in_the_second_run_is_detected_like_in_the_first(self):
        """The watchdog used to be blind from the second run on (the done
        flags of run 1 were never cleared): survivors sat out ``timeout``
        and the victim was never detected."""
        # the hang lands on rank 1's sixth transport op: run 2, third barrier
        faults = FaultPlan(rules=[FaultRule(kind="hang", rank=1, after=5, max_triggers=1)])
        world = ThreadWorld(3, timeout=4.0, suspect_after=self.SUSPECT, faults=faults)
        assert world.run(self._kernel) == ["clean"] * 3
        t0 = time.monotonic()
        second = world.run(self._kernel)
        assert time.monotonic() - t0 < 4.0  # nobody sat out the timeout
        assert second[1] is None  # the wedged rank returns nothing
        for verdict, rank, classification, silence in (second[0], second[2]):
            assert (verdict, rank, classification) == ("revoked", 1, "deadlock")
            assert self.SUSPECT < silence <= 2 * self.SUSPECT
        # Carried over on purpose: a revoked world stays revoked, and says
        # so at the first operation of the next run.
        third = world.run(self._kernel)
        assert [v[:3] for v in third] == [("revoked", 1, "deadlock")] * 3

    def test_agreement_arena_is_per_run(self):
        """16 rounds per generation is a per-run budget on a multi-shot world."""
        world = ThreadWorld(2, timeout=10.0)

        def kernel(comm):
            return [comm.agree() for _ in range(12)]

        for _ in range(3):  # 36 rounds in all
            assert world.run(kernel) == [[0b11] * 12] * 2


class TestPrivateControlPlane:
    def test_thread_world_touches_no_shared_memory(self):
        """No ``/dev/shm`` entry, no file, no ``multiprocessing`` primitive."""
        before = sorted(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else []
        world = ThreadWorld(4, timeout=10.0)

        def kernel(comm):
            win = comm.win_create(64)
            win.fence()
            win.free()
            return comm.agree(), comm.allgather(comm.rank)

        world.run(kernel)
        assert (sorted(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else []) == before
        assert isinstance(world.state.buf, bytearray)
        assert type(world.state.cond) is threading.Condition
        assert all(type(ring.cond) is threading.Condition for ring in world.rings)


class TestScanRate:
    """The watchdog scan is rate limited per rank — ``min(0.05,
    suspect_after / 4)`` s apart — not run on every wake-up of a waiter
    (it used to be: ~25 scans per warm 64^3 round trip over 4 ranks on
    the one-sided path, ~55 on the pairwise one)."""

    @pytest.mark.parametrize("method", ["osc", "pairwise"])
    def test_scans_per_round_trip(self, method):
        shape, p, trips = (64, 64, 64), 4, 10
        plan = Fft3d(shape, p)
        rng = np.random.default_rng(7)
        blocks = plan.scatter(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        world = ThreadWorld(p, timeout=60.0)
        scans: list[float] = []
        poll = world.monitor.poll

        def counting_poll():
            scans.append(time.monotonic())
            return poll()

        world.monitor.poll = counting_poll

        def kernel(comm):
            def round_trip(block):
                return plan.forward_spmd(
                    comm, plan.forward_spmd(comm, block, method=method), method=method, inverse=True
                )

            block = round_trip(blocks[comm.rank])  # warm: binds the plan
            comm.barrier()
            t0 = time.monotonic()
            for _ in range(trips):
                block = round_trip(block)
            comm.barrier()
            return t0, time.monotonic()

        spans = world.run(kernel)
        t0, t1 = min(s[0] for s in spans), max(s[1] for s in spans)
        timed = sum(t0 <= t <= t1 for t in scans)
        # one scan per rank per 50 ms, whatever the number of wake-ups
        assert timed <= p * ((t1 - t0) / 0.05 + 1)
