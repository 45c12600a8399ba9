"""Flight-recorder behaviour under injected faults, on both runtimes.

The black-box promise: when a rank dies mid-FFT — thread kill/hang or a
hard SIGKILL of a child process — the crash dump reconstructs what every
rank was doing, with *no* tracer installed, including the dead rank's
final events recovered from its ring (shared memory, for processes).
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.errors import RankFailureError, ReproError
from repro.faults import FaultPlan, FaultRule
from repro.fft import Fft3d
from repro.runtime import make_world
from repro.runtime.proc import ProcessWorld
from repro.runtime.shm import fork_available
from repro.runtime.thread_rt import ThreadWorld
from repro.telemetry import FlightEvent
from repro.telemetry import blackbox as bb

RUNTIMES = [
    "thread",
    pytest.param(
        "proc",
        marks=pytest.mark.skipif(not fork_available(), reason="needs the fork start method"),
    ),
]


def _field(shape, seed=3):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        np.complex128
    )


def _fft_kernel(fft, data):
    def kernel(comm):
        local = fft.scatter(data)[comm.rank]
        return fft.forward_spmd(comm, local)

    return kernel


class TestThreadWorldBlackbox:
    """Injected kill/hang with no resilient wrapper: the world raises
    RankFailureError and attaches a black-box dump naming the victim."""

    @pytest.mark.parametrize("kind", ["kill", "hang"])
    def test_unrecovered_fault_attaches_blackbox(self, kind):
        nranks, shape = 4, (8, 8, 8)
        fft = Fft3d(shape, nranks, e_tol=1e-6)
        # Fire the fault deep enough into the plan that at least one
        # reshape exchange completed and sits in the ring (a bound
        # transform is 12 transport ops per rank: 1 win_create, 7 puts,
        # 4 fences).
        plan = FaultPlan(rules=[FaultRule(kind=kind, rank=1, after=8)])
        world = ThreadWorld(nranks, timeout=8.0, faults=plan, suspect_after=0.3)
        with pytest.raises(RankFailureError) as excinfo:
            world.run(_fft_kernel(fft, _field(shape)))
        dump = getattr(excinfo.value, "blackbox", None)
        assert dump is not None, "RankFailureError must carry a black-box dump"
        assert dump["schema"] == bb.BLACKBOX_SCHEMA
        # The failure report names the victim ...
        assert dump["failure_report"]["failed_ranks"] == [1]
        # ... and the merged timeline shows work before the watchdog verdict.
        kinds = [e["kind"] for e in dump["merged"]]
        assert "exchange-round" in kinds
        assert "rank-failed" in kinds
        assert "detect" in kinds
        victims = [e["rank"] for e in dump["merged"] if e["kind"] == "rank-failed"]
        assert 1 in victims
        # The dump is also retrievable without holding the exception.
        assert bb.last_blackbox() is dump

    def test_recovered_drill_leaves_recovery_timeline_in_ring(self):
        from repro.resilience.checkpoint import ResilientFft3d

        nranks, shape = 4, (8, 8, 8)
        data = _field(shape)
        fft = ResilientFft3d(shape, nranks, e_tol=1e-6)
        plan = FaultPlan(rules=[FaultRule(kind="kill", rank=1, after=8)])
        world = ThreadWorld(nranks, timeout=10.0, faults=plan, suspect_after=0.3)

        def kernel(comm):
            local = fft.plan.scatter(data)[comm.rank]
            return fft.run_spmd(comm, local).block

        world.run(kernel)
        # No abort, so no dump was emitted — but the always-on ring holds
        # the full detect -> agree -> shrink -> restart story regardless.
        assert world.last_blackbox is None
        kinds = {e.kind for events in world.flight.events_by_rank().values() for e in events}
        assert {"rank-failed", "detect", "agree", "shrink", "restart"} <= kinds


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestProcessWorldBlackbox:
    """SIGKILL and hangs in real child processes: the parent recovers the
    victim's ring from the shared-memory telemetry segment post-mortem."""

    def test_sigkilled_child_ring_recovered(self):
        nranks, shape = 4, (8, 8, 8)
        fft = Fft3d(shape, nranks, e_tol=1e-6)
        data = _field(shape)

        def kernel(comm):
            local = fft.scatter(data)[comm.rank]
            for it in range(2):
                out = fft.forward_spmd(comm, local)
                if comm.rank == 1 and it == 1:
                    os.kill(os.getpid(), signal.SIGKILL)
            return out.shape

        world = ProcessWorld(nranks, timeout=30.0)
        with pytest.raises(ReproError):
            world.run(kernel)
        dump = world.last_blackbox
        assert dump is not None, "abort must harvest a black-box dump"
        assert "died" in dump["reason"] or "exit" in dump["reason"]
        # The victim's ring survived its death in shared memory.
        victim_ring = dump["rings"].get("1", [])
        assert victim_ring, "rank 1's flight ring must be recovered post-mortem"
        kinds = {e["kind"] for e in victim_ring}
        assert "exchange-round" in kinds
        # Error-vs-tolerance events made it in too (e_tol was set).
        assert "error" in kinds
        # The harvest names the victim's exit in the dump's reason.
        assert "rank 1" in dump["reason"]

    def test_hung_child_dump_on_timeout(self):
        import time as _time

        def kernel(comm):
            ring = comm.world.flight
            ring.write(comm.rank, sets=dict(phase="exchange"))
            ring.write(comm.rank, (("exchange-round", -1, 0, 64.0, 0.0, ""),))
            if comm.rank == 1:
                _time.sleep(60.0)  # never beats the 3 s deadline
            comm.barrier()

        world = ProcessWorld(2, timeout=3.0)
        with pytest.raises(ReproError):
            world.run(kernel)
        dump = world.last_blackbox
        assert dump is not None
        ring = dump["rings"].get("1", [])
        assert any(e["kind"] == "exchange-round" for e in ring)
        # The live slots captured where the hung rank was stuck.
        assert dump["live"]["1"]["phase"] == "exchange"

    def test_clean_run_produces_no_dump(self):
        def kernel(comm):
            return comm.rank

        world = ProcessWorld(2, timeout=15.0)
        assert world.run(kernel) == [0, 1]
        assert world.last_blackbox is None


class TestOneDumpPath:
    """Both launchers dump through ``World.blackbox`` over their own ring:
    a rank killed mid-FFT leaves the same dump shape on either."""

    KEYS = {
        "schema", "reason", "created_at", "host", "pid", "nranks", "uid",
        "rings", "merged", "live", "failure_report", "metrics",
    }
    FIELDS = set(FlightEvent.__slots__)

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_kill_dump_has_the_same_fields_on_both_launchers(self, runtime):
        nranks, shape = 4, (8, 8, 8)
        fft = Fft3d(shape, nranks, e_tol=1e-6)
        plan = FaultPlan(rules=[FaultRule(kind="kill", rank=1, after=8)])
        world = make_world(runtime, nranks, timeout=10.0, faults=plan, suspect_after=0.5)
        with pytest.raises(ReproError):
            world.run(_fft_kernel(fft, _field(shape)))
        dump = world.last_blackbox
        assert dump is not None and bb.last_blackbox() is dump
        assert set(dump) == self.KEYS
        assert dump["failure_report"]["failed_ranks"] == [1]
        assert set(dump["rings"]) == set(dump["live"]) == {str(r) for r in range(nranks)}
        for events in dump["rings"].values():
            assert all(set(e) == self.FIELDS for e in events)
        assert all(set(e) == self.FIELDS | {"t_rel_ms"} for e in dump["merged"])
        assert "exchange-round" in {e["kind"] for e in dump["rings"]["1"]}
