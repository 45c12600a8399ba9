"""Rank-failure tolerance: detection, agreement, shrink, restart.

Covers the ``repro.resilience`` package plus the runtime plumbing it
rides on (DESIGN.md §10): the CRC-framed checkpoint store, ABFT reshape
checksums, the end-to-end kill/hang FFT drills, the :class:`RetryPolicy`
total-deadline budget, and the virtual runtime's refusal of fault plans.
The control state and the watchdog are in ``test_control_plane.py``, the
communicator-level recovery arc in ``test_runtime_contract.py``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.errors import (
    AbftError,
    CheckpointError,
    CommunicatorError,
    FaultConfigError,
    StallError,
    UnsupportedFaultError,
)
from repro.faults import FaultInjector, FaultPlan, FaultRule, RetryPolicy
from repro.fft.plan import Fft3d
from repro.resilience import (
    CheckpointStore,
    ResilientFft3d,
    bitmap_ranks,
    ranks_bitmap,
    reshape_checksums,
    verify_checksums,
)
from repro.runtime.shm import fork_available
from repro.runtime.thread_rt import ThreadWorld, run_spmd
from repro.runtime.virtual import VirtualWorld


def _roundtrip_kernel(fft: ResilientFft3d, data: np.ndarray):
    """Forward+inverse transform; rank 0 of the final comm returns the
    assembled global array plus recovery metadata."""

    def kernel(comm):
        local = fft.plan.scatter(data)[comm.rank]
        fwd = fft.run_spmd(comm, local)
        back = fft.run_spmd(fwd.comm, fwd.block, inverse=True)
        blocks = back.comm.allgather(back.block)
        if back.comm.rank != 0:
            return None
        return back.plan.gather(blocks), fwd.recovered or back.recovered, (
            back.report or fwd.report
        )

    return kernel


# -- RetryPolicy total-deadline budget ---------------------------------------------


class TestRetryBudget:
    def test_unbounded_by_default(self):
        policy = RetryPolicy()
        assert policy.max_elapsed is None
        assert policy.remaining(1e9) == float("inf")
        assert not policy.budget_exhausted(1e9)

    def test_remaining_and_exhaustion(self):
        policy = RetryPolicy(max_elapsed=0.5)
        assert policy.remaining(0.0) == pytest.approx(0.5)
        assert policy.remaining(0.2) == pytest.approx(0.3)
        assert policy.remaining(0.5) == 0.0
        assert policy.remaining(2.0) == 0.0
        assert not policy.budget_exhausted(0.49)
        assert policy.budget_exhausted(0.5)

    def test_delay_clamped_to_remaining_budget(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=1.0, jitter=0.0, max_elapsed=0.3)
        assert policy.delay(0) == pytest.approx(1.0)  # no elapsed -> unclamped
        assert policy.delay(0, elapsed=0.25) == pytest.approx(0.05)
        assert policy.delay(0, elapsed=0.3) == 0.0
        # without a budget, elapsed is irrelevant
        assert RetryPolicy(base_delay=1.0, max_delay=1.0, jitter=0.0).delay(
            0, elapsed=99.0
        ) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(FaultConfigError):
            RetryPolicy(max_elapsed=-0.1)
        with pytest.raises(FaultConfigError):
            RetryPolicy(max_elapsed=1.0).remaining(-1.0)

    def test_spent_budget_skips_same_codec_retries(self):
        """A codec hiccup with no time budget left degrades immediately."""
        from repro.collectives import SlotExchange
        from repro.compression import CastCodec

        plan = FaultPlan([FaultRule("codec", rank=0)], seed=2)
        world = ThreadWorld(4, faults=plan)

        def kernel(comm):
            rng = np.random.default_rng(comm.rank)
            op = SlotExchange(
                comm,
                CastCodec("fp32"),
                retry_policy=RetryPolicy(
                    max_attempts=5, base_delay=1e-4, max_elapsed=0.0
                ),
            )
            try:
                op([rng.standard_normal(32) for _ in range(comm.size)])
            finally:
                op.free()
            return op.last_report

        report0 = world.run(kernel)[0]
        assert report0.count("transient-codec") == 1
        assert report0.count("budget-exhausted") == 1
        assert report0.count("retry") == 0  # max_attempts never consulted
        assert report0.count("degrade") == 1


# -- VirtualWorld refuses fault plans ----------------------------------------------


class TestVirtualWorldFaults:
    def test_no_faults_accepted(self):
        VirtualWorld(4)
        VirtualWorld(4, faults=None)
        VirtualWorld(4, faults=FaultPlan())  # empty plan is harmless

    @pytest.mark.parametrize("kind", ["kill", "hang"])
    def test_process_faults_rejected(self, kind):
        plan = FaultPlan(rules=[FaultRule(kind=kind, rank=0)])
        with pytest.raises(UnsupportedFaultError, match="per-rank threads"):
            VirtualWorld(4, faults=plan)

    def test_message_faults_rejected(self):
        plan = FaultPlan(rules=[FaultRule(kind="drop", rank=1)])
        with pytest.raises(UnsupportedFaultError, match="message transport"):
            VirtualWorld(4, faults=plan)

    def test_injector_rejected_too(self):
        injector = FaultInjector(FaultPlan(rules=[FaultRule(kind="hang", rank=2)]))
        with pytest.raises(UnsupportedFaultError):
            VirtualWorld(4, faults=injector)


# -- per-call recv timeouts ---------------------------------------------------------


class TestRecvTimeout:
    def test_caller_timeout_honoured(self):
        """recv(timeout=...) must trip long before the world deadline."""

        def kernel(comm):
            if comm.rank == 1:
                t0 = time.monotonic()
                with pytest.raises(StallError) as exc_info:
                    comm.recv(source=0, timeout=0.15)  # never sent
                took = time.monotonic() - t0
                return took, str(exc_info.value)
            time.sleep(0.6)  # keep rank 0 alive so only the timeout fires
            return None

        results = run_spmd(2, kernel, timeout=30.0)
        took, message = results[1]
        assert took < 5.0  # far under the 30 s world deadline
        assert "rank 1" in message and "source=rank 0" in message
        assert "timed out" in message and "limit 0.15s" in message

    def test_irecv_wait_timeout_honoured(self):
        def kernel(comm):
            if comm.rank == 1:
                req = comm.irecv(source=0)
                with pytest.raises(StallError):
                    req.wait(timeout=0.15)
            else:
                time.sleep(0.5)

        run_spmd(2, kernel, timeout=30.0)


# -- agreement ----------------------------------------------------------------------
# (the watchdog and the agreement slots themselves: tests/test_control_plane.py)


class TestAgreement:
    def test_bitmap_helpers_roundtrip(self):
        ranks = (0, 2, 5)
        bitmap = ranks_bitmap(ranks)
        assert bitmap == 0b100101
        assert bitmap_ranks(bitmap, 6) == ranks
        assert bitmap_ranks(ranks_bitmap(()), 4) == ()


# -- checkpoint store ---------------------------------------------------------------


class TestCheckpointStore:
    """The one store, over a thread world's segment namespace."""

    @staticmethod
    def _store():
        return CheckpointStore(ThreadWorld(2).segments)

    def test_save_load_roundtrip(self, rng):
        store = self._store()
        block = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        store.save(("t", 0), block)
        out = store.load(("t", 0))
        assert out.dtype == block.dtype and out.shape == block.shape
        np.testing.assert_array_equal(out, block)

    def test_missing_key(self):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            self._store().load("nope")

    def test_corruption_detected(self, rng):
        store = self._store()
        store.save("k", rng.standard_normal(16))
        seg = store.segments.attach(store._segment("k"))
        seg.buf[seg.buf.size - 64] ^= 0xFF  # flip payload bits; CRC must catch it
        with pytest.raises(CheckpointError, match="failed validation"):
            store.load("k")

    def test_last_complete_stage_requires_all_ranks(self, rng):
        store = self._store()
        block = rng.standard_normal(4)
        for r in range(3):
            store.save(("fft3d", 3, 0, r), block)
        store.save(("fft3d", 3, 1, 0), block)  # stage 1 incomplete (rank 1/2 missing)
        assert store.last_complete_stage("fft3d", 3) == 0
        assert self._store().last_complete_stage("fft3d", 3) is None


# -- ABFT reshape checksums ---------------------------------------------------------


class TestAbft:
    def test_checksums_agree_across_identity_reshape(self, rng):
        plan = Fft3d((8, 8, 8), 4)
        rplan = plan.reshapes[0]
        data = rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8))
        locals_ = plan.scatter(data)

        def kernel(comm):
            block = locals_[comm.rank]
            mine = reshape_checksums(rplan, comm.rank, block)
            sent: dict = {}
            for entries in comm.allgather(mine.entries):
                sent.update(entries)
            out = rplan.run_spmd(comm, block)
            got = reshape_checksums(rplan, comm.rank, out, direction="recv")
            return verify_checksums(sent, got, 1e-12)

        checked = run_spmd(4, kernel, timeout=30.0)
        assert all(c > 0 for c in checked)

    def test_violation_raises(self, rng):
        plan = Fft3d((8, 8, 8), 4)
        rplan = plan.reshapes[0]
        data = rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8))
        locals_ = plan.scatter(data)

        def kernel(comm):
            block = locals_[comm.rank]
            mine = reshape_checksums(rplan, comm.rank, block)
            sent: dict = {}
            for entries in comm.allgather(mine.entries):
                sent.update(entries)
            out = rplan.run_spmd(comm, block)
            if comm.rank == 2:
                out = out + 1.0  # silent corruption after the exchange
            got = reshape_checksums(rplan, comm.rank, out, direction="recv")
            try:
                verify_checksums(sent, got, 1e-12)
            except AbftError as exc:
                return str(exc)
            return None

        results = run_spmd(4, kernel, timeout=30.0)
        assert results[2] is not None and "checksum" in results[2]
        assert all(r is None for i, r in enumerate(results) if i != 2)

    def test_an_unbounded_codec_is_refused(self):
        """The checks hold every reshape within the codec's bound: a codec
        that states none would fail the first one mid-transform."""
        from repro.compression import ZfpLikeCodec
        from repro.errors import PlanError

        with pytest.raises(PlanError, match="states none"):
            ResilientFft3d((8, 8, 8), 2, codec=ZfpLikeCodec(rate=8.0))
        ResilientFft3d((8, 8, 8), 2, codec=ZfpLikeCodec(rate=8.0), abft=False)

    def test_missing_sender_entry_is_an_error(self, rng):
        plan = Fft3d((8, 8, 8), 2)
        rplan = plan.reshapes[0]
        locals_ = plan.scatter(rng.standard_normal((8, 8, 8)).astype(complex))

        def kernel(comm):
            out = rplan.run_spmd(comm, locals_[comm.rank])
            got = reshape_checksums(rplan, comm.rank, out, direction="recv")
            with pytest.raises(AbftError, match="no sender checksum"):
                verify_checksums({}, got, 1e-6)

        run_spmd(2, kernel, timeout=30.0)


# -- end-to-end kill / hang drills --------------------------------------------------


class TestKillRecovery:
    def test_fft_completes_on_shrunk_comm(self, rng):
        shape, nranks = (16, 8, 8), 4
        data = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ).astype(np.complex128)
        fft = ResilientFft3d(shape, nranks, e_tol=1e-6)
        plan = FaultPlan(rules=[FaultRule(kind="kill", rank=1, after=12)])
        world = ThreadWorld(nranks, timeout=20.0, faults=plan, suspect_after=0.5)
        results = [r for r in world.run(_roundtrip_kernel(fft, data)) if r is not None]
        assert len(results) == 1
        full, recovered, report = results[0]
        assert recovered
        err = np.max(np.abs(full - data)) / np.max(np.abs(data))
        assert err <= fft.plan.guaranteed_tolerance
        assert report is not None
        assert report.failed_ranks == [1]
        assert report.recovered
        assert report.phase_sequence_complete()
        assert 1 not in report.survivors

    def test_recovery_phases_land_in_chrome_trace(self, rng):
        from repro.trace import chrome_trace, tracing

        shape, nranks = (8, 8, 8), 4
        data = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ).astype(np.complex128)
        fft = ResilientFft3d(shape, nranks, e_tol=1e-6)
        plan = FaultPlan(rules=[FaultRule(kind="kill", rank=2, after=8)])
        with tracing() as tracer:
            world = ThreadWorld(nranks, timeout=20.0, faults=plan, suspect_after=0.5)
            world.run(_roundtrip_kernel(fft, data))
            spans = {s.kind for s in tracer.span_events()}
            events = chrome_trace(tracer)["traceEvents"]
        assert {"detect", "agree", "shrink", "restart", "checkpoint"} <= spans
        names = {e.get("name") for e in events}
        assert {"detect", "agree", "shrink", "restart"} <= names


class TestResilientSharesTheStageRunner:
    """The resilient pipeline runs Fft3d's own stage body, so it verifies
    ``e_tol`` per message and stages through the pool exactly as
    ``Fft3d.forward_spmd`` does (it used to build its exchanges with
    ``e_tol=None`` and no pool)."""

    SHAPE, P, E_TOL = (8, 8, 8), 4, 1e-6

    def _telemetry_of(self, run_rank, data):
        from repro import telemetry
        from repro.telemetry import metrics

        telemetry.reset()
        metrics.get_registry().clear()
        world = ThreadWorld(self.P, timeout=30.0)
        world.run(run_rank)
        errors = {
            rank: [(ev.round, ev.value, ev.value2) for ev in events if ev.kind == "error"]
            for rank, events in world.flight.events_by_rank().items()
        }
        reg = metrics.get_registry()
        headroom = [reg.gauge("repro_error_headroom", rank=r).value for r in range(self.P)]
        return errors, headroom

    def test_records_the_same_error_telemetry_as_fft3d(self, rng):
        data = rng.standard_normal(self.SHAPE) + 1j * rng.standard_normal(self.SHAPE)
        plain = Fft3d(self.SHAPE, self.P, e_tol=self.E_TOL)
        resilient = ResilientFft3d(self.SHAPE, self.P, e_tol=self.E_TOL)
        blocks = plain.scatter(data)
        want = self._telemetry_of(lambda comm: plain.forward_spmd(comm, blocks[comm.rank]), data)
        got = self._telemetry_of(
            lambda comm: resilient.run_spmd(comm, blocks[comm.rank]).block, data
        )
        errors, headroom = got
        assert got == want
        assert sorted(errors) == list(range(self.P))
        assert all(len(evs) == 4 for evs in errors.values())  # one per reshape
        assert all(0.0 <= h < self.E_TOL for h in headroom)
        stats = resilient.plan.last_stats.reshapes
        assert len(stats) == 4 * self.P and all(r.clean for r in stats)

    def test_stages_through_the_pool(self, rng):
        from repro.tuning import BufferPool

        data = rng.standard_normal(self.SHAPE) + 1j * rng.standard_normal(self.SHAPE)
        # the reference alltoallv is the one bound method that still packs
        # into pool scratch (the window exchanges and the bound pairwise
        # ring stage nothing: tests/test_exchange_hotpath.py holds lossy to zero)
        resilient = ResilientFft3d(self.SHAPE, self.P, method="reference")
        blocks = resilient.plan.scatter(data)

        def kernel(comm):
            pool = BufferPool()
            first = resilient.run_spmd(comm, blocks[comm.rank], pool=pool).block
            warm = pool.misses
            again = resilient.run_spmd(comm, blocks[comm.rank], pool=pool).block
            return warm, pool.misses, pool.active, np.array_equal(first, again)

        for warm, after, active, stable in ThreadWorld(self.P, timeout=30.0).run(kernel):
            assert warm > 0, "the pool was never used"
            assert after == warm, "a warm resilient transform allocated staging memory"
            assert active == 0 and stable


class TestHangRecovery:
    def test_hang_detected_well_under_join_deadline(self, rng):
        shape, nranks = (8, 8, 8), 4
        timeout = 6.0
        data = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ).astype(np.complex128)
        fft = ResilientFft3d(shape, nranks, e_tol=1e-6)
        plan = FaultPlan(rules=[FaultRule(kind="hang", rank=1, after=8)])
        world = ThreadWorld(nranks, timeout=timeout, faults=plan, suspect_after=0.3)
        t0 = time.monotonic()
        results = [r for r in world.run(_roundtrip_kernel(fft, data)) if r is not None]
        took = time.monotonic() - t0
        assert took < 2 * timeout  # surfaced well before the join deadline
        full, recovered, report = results[0]
        assert recovered
        err = np.max(np.abs(full - data)) / np.max(np.abs(data))
        assert err <= fft.plan.guaranteed_tolerance
        (failure,) = report.failures
        assert failure.kind == "hang"
        assert failure.classification in ("deadlock", "dead")


class TestResilienceCli:
    def test_kill_drill_writes_artifacts(self, tmp_path):
        from repro.resilience.cli import run_resilience_cli

        code = run_resilience_cli(
            kind="kill", nranks=4, n=8, after=8, out=str(tmp_path)
        )
        assert code == 0
        report = json.loads((tmp_path / "failure_report_kill.json").read_text())
        assert report["schema"] == "repro-failure-report-v1"
        assert report["recovered"] is True
        trace = json.loads((tmp_path / "trace_resilience_kill.json").read_text())
        names = {e.get("name") for e in trace["traceEvents"]}
        assert {"agree", "shrink", "restart"} <= names

    def test_unknown_kind_rejected(self):
        from repro.resilience.cli import run_drill

        with pytest.raises(ValueError, match="unknown drill kind"):
            run_drill("meteor")

    def test_unknown_runtime_rejected(self):
        from repro.resilience.cli import run_drill

        with pytest.raises(ValueError, match="unknown runtime"):
            run_drill("kill", runtime="carrier-pigeon")


# -- real process death: proc-runtime recovery drills ---------------------------------


needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process runtime needs the fork start method"
)


@needs_fork
class TestProcKillRecovery:
    """A SIGKILLed child process mid-exchange; survivors finish the FFT.

    The tentpole end-to-end: real process death (not an injected thread
    exception), ULFM recovery over the shared-memory runtime, and the
    checkpoint store outliving the child that wrote it.
    """

    @pytest.mark.parametrize("variant", ["flat", "two-level"])
    def test_sigkill_mid_exchange_fft_completes(self, variant, rng):
        import glob

        from repro.compression.truncation import CastCodec
        from repro.machine.spec import laptop_spec
        from repro.machine.topology import Topology
        from repro.runtime.proc import ProcessWorld

        shape, nranks = (16, 8, 8), 4
        data = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ).astype(np.complex128)
        fft = ResilientFft3d(
            shape,
            nranks,
            codec=CastCodec("fp32"),
            topology=Topology(laptop_spec(), nranks),
            variant=variant,
        )
        plan = FaultPlan(rules=[FaultRule(kind="kill", rank=1, after=12)])
        world = ProcessWorld(nranks, timeout=20.0, faults=plan, suspect_after=0.5)
        results = [r for r in world.run(_roundtrip_kernel(fft, data)) if r is not None]
        assert len(results) == 1
        full, recovered, report = results[0]
        assert recovered
        err = np.max(np.abs(full - data)) / np.max(np.abs(data))
        assert err <= fft.plan.guaranteed_tolerance
        assert report is not None
        assert report.failed_ranks == [1]
        assert report.recovered
        assert report.phase_sequence_complete()  # detect→agree→shrink→restart
        assert json.loads(json.dumps(report.to_json()))["schema"] == (
            "repro-failure-report-v1"
        )
        assert 1 not in report.survivors
        # Leak-clean: no world segments (rings, state, checkpoints) left.
        assert glob.glob(f"/dev/shm/{world.uid}*") == []

    def test_survivors_rebuild_shrunk_topology(self, rng):
        from repro.compression.truncation import CastCodec
        from repro.machine.spec import laptop_spec
        from repro.machine.topology import Topology
        from repro.runtime.proc import ProcessWorld

        shape, nranks = (16, 8, 8), 4
        data = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ).astype(np.complex128)
        fft = ResilientFft3d(
            shape,
            nranks,
            codec=CastCodec("fp32"),
            topology=Topology(laptop_spec(), nranks),
            variant="two-level",
        )
        plan = FaultPlan(rules=[FaultRule(kind="kill", rank=1, after=12)])

        def kernel(comm):
            local = fft.plan.scatter(data)[comm.rank]
            fwd = fft.run_spmd(comm, local)
            if fwd.comm.rank != 0:
                return None
            topo = fwd.plan.topology
            return (
                type(topo).__name__,
                tuple(fwd.comm.parent_ranks),
                topo.ranks_on_node(0),
                topo.ranks_on_node(1),
            )

        world = ProcessWorld(nranks, timeout=20.0, faults=plan, suspect_after=0.5)
        results = [r for r in world.run(kernel) if r is not None]
        # Old rank 1 died on node 0; survivor placement keeps node ids.
        assert results == [("ShrunkTopology", (0, 2, 3), (0,), (1, 2))]

    def test_proc_drill_via_cli_runner(self):
        from repro.resilience.cli import run_drill

        ok, err, report, text = run_drill(
            "kill", runtime="proc", n=8, timeout=20.0, suspect_after=0.5
        )
        assert ok, text
        assert report is not None and report.recovered
        assert report.phase_sequence_complete()


# -- durable shared-memory checkpoint store -------------------------------------------


@needs_fork
class TestShmCheckpointStore:
    """The one store, over a process world's kind of namespace: named
    ``/dev/shm`` segments, durable across the writer's death."""

    def _store(self):
        import multiprocessing as mp

        from repro.runtime.shm import ShmSegments

        uid = f"reprotest{np.random.randint(1 << 30):x}"
        return CheckpointStore(ShmSegments(uid, mp.get_context("fork")))

    def _cleanup(self, store, keys):
        for key in keys:
            store.discard(key)
        store.close()

    def test_roundtrip_and_has(self):
        store = self._store()
        key = ("fft3d", 4, 2, 1)
        try:
            block = np.arange(24, dtype=np.complex128).reshape(2, 3, 4)
            n = store.save(key, block, meta={"stage": 2})
            assert n > 0
            assert store.has(key)
            out = store.load(key)
            assert out.dtype == block.dtype and out.shape == block.shape
            np.testing.assert_array_equal(out, block)
        finally:
            self._cleanup(store, [key])

    def test_missing_key_raises(self):
        store = self._store()
        try:
            assert not store.has(("nope", 0))
            with pytest.raises(CheckpointError, match="no checkpoint"):
                store.load(("nope", 0))
        finally:
            store.close()

    def test_overwrite_and_grow(self):
        store = self._store()
        key = ("k",)
        try:
            store.save(key, np.zeros(4))
            big = np.random.default_rng(0).standard_normal((8, 8))
            store.save(key, big)  # larger frame: segment is recreated
            np.testing.assert_array_equal(store.load(key), big)
        finally:
            self._cleanup(store, [key])

    def test_torn_write_reads_as_missing(self):
        from multiprocessing.shared_memory import SharedMemory

        store = self._store()
        key = ("torn",)
        try:
            store.save(key, np.ones(16))
            # Simulate a writer SIGKILLed mid-save: committed length zeroed.
            seg = SharedMemory(name=store.segments.uid + store._segment(key), create=False)
            seg.buf[:8] = b"\x00" * 8
            seg.close()
            assert not store.has(key)
            with pytest.raises(CheckpointError, match="no checkpoint"):
                store.load(key)
        finally:
            self._cleanup(store, [key])

    def test_discard_then_absent(self):
        store = self._store()
        key = ("gone",)
        store.save(key, np.ones(3))
        store.discard(key)
        try:
            assert not store.has(key)
        finally:
            store.close()

    def test_survives_writer_death(self):
        """A child process saves, is SIGKILLed, the parent still loads."""
        import os
        import signal

        from multiprocessing import get_context

        store = self._store()
        key = ("fft3d", 2, 1, 0)
        block = np.linspace(0.0, 1.0, 32).reshape(4, 8)

        def child():
            store.save(key, block, meta={"stage": 1})
            os.kill(os.getpid(), signal.SIGKILL)

        proc = get_context("fork").Process(target=child)
        proc.start()
        proc.join(10.0)
        try:
            assert proc.exitcode == -signal.SIGKILL
            np.testing.assert_array_equal(store.load(key), block)
            assert store.last_complete_stage("fft3d", 2) is None  # rank 1 missing
        finally:
            self._cleanup(store, [key])

    def test_for_comm_dispatch(self):
        """Thread comms and proc comms get the one store class, over their
        world's namespace."""
        from repro.runtime.proc import ProcessWorld

        def kernel(comm):
            store = CheckpointStore(comm.world.segments)
            store.close()
            return type(store).__name__, type(comm.world.segments).__name__

        assert run_spmd(2, kernel) == [("CheckpointStore", "Segments")] * 2
        with ProcessWorld(2, timeout=20.0) as world:
            assert world.run(kernel) == [("CheckpointStore", "ShmSegments")] * 2
