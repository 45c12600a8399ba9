"""The one control plane, on both of its backings.

:class:`~repro.resilience.monitor.ControlState` runs over a private
``bytearray`` under a ``threading.Condition`` (what a ``ThreadWorld``
builds) or over a named shared-memory segment under a fork-shared
condition (what a ``ProcessWorld`` builds); the
:class:`~repro.resilience.monitor.Watchdog` on top is the same class.
Everything here runs against both — the segment one under
``leak_check`` — with the runtime's only contribution, ``gone(rank)``,
replaced by a stub.  The communicator-level arc (``agree`` / ``shrink``
/ ``revoke`` on real worlds) is in ``test_runtime_contract.py``.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import sys
import threading
import time
from multiprocessing.shared_memory import SharedMemory

import pytest

from repro.errors import (
    BarrierBrokenError,
    CommunicatorError,
    RevokedError,
    RuntimeAbort,
    StallError,
)
from repro.resilience import ControlState, FailureReport, Watchdog
from repro.runtime.shm import SEG_PREFIX, fork_available

BACKINGS = [
    "private",
    pytest.param(
        "segment",
        marks=pytest.mark.skipif(
            not fork_available(), reason="fork-shared conditions need the fork start method"
        ),
    ),
]


@pytest.fixture(params=BACKINGS)
def make_state(request):
    """``make_state(nranks)`` -> a fresh ControlState on the backing under test."""
    if request.param == "private":
        yield ControlState
        return
    request.getfixturevalue("leak_check")
    ctx = mp.get_context("fork")
    made: list[tuple[ControlState, SharedMemory]] = []

    def make(nranks: int) -> ControlState:
        seg = SharedMemory(
            name=f"{SEG_PREFIX}ctl{os.getpid()}-{len(made)}",
            create=True,
            size=ControlState.nbytes(nranks),
        )
        made.append((ControlState(nranks, seg.buf, ctx.Condition()), seg))
        return made[-1][0]

    yield make
    for state, seg in made:
        state.freeze()  # drops the views of the mapping
        seg.close()
        seg.unlink()


@pytest.fixture
def run_parties(request, make_state):
    """``run_parties(fns)`` -> one outcome per function, each run on an
    executor of the backing under test: a thread over the private
    buffer, a forked child over the named segment.  An outcome is
    ``("ok", value)`` or ``(exception type name, message)``."""

    def outcome(fn):
        try:
            return ("ok", fn())
        except BaseException as exc:  # noqa: BLE001 - the outcome *is* the exception
            return (type(exc).__name__, str(exc))

    def in_threads(fns, join=30.0):
        out = [None] * len(fns)

        def body(i):
            out[i] = outcome(fns[i])

        threads = [threading.Thread(target=body, args=(i,), daemon=True) for i in range(len(fns))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(join)
        assert not any(t.is_alive() for t in threads), "a party never came back"
        return out

    def in_children(fns, join=30.0):
        ctx = mp.get_context("fork")
        pipes, procs = [], []
        for fn in fns:
            recv_end, send_end = ctx.Pipe(duplex=False)
            procs.append(ctx.Process(target=lambda fn=fn, c=send_end: c.send(outcome(fn)), daemon=True))
            pipes.append(recv_end)
        for proc in procs:
            proc.start()
        out = [pipe.recv() if pipe.poll(join) else None for pipe in pipes]
        for proc in procs:
            proc.join(join)
        assert None not in out and not any(p.is_alive() for p in procs), "a party never came back"
        return out

    return in_children if request.node.callspec.params["make_state"] == "segment" else in_threads


def watchdog(state: ControlState, members=None, *, suspect_after: float, gone=None) -> Watchdog:
    return Watchdog(
        state,
        tuple(range(state.nranks)) if members is None else members,
        suspect_after=suspect_after,
        gone=gone or (lambda rank: None),
        runtime_label="test",
    )


class TestControlPlane:
    # -- detection ----------------------------------------------------------------------

    def test_done_ranks_never_declared_dead(self, make_state):
        mon = watchdog(make_state(2), suspect_after=0.01)
        mon.start()
        mon.mark_done(0)
        time.sleep(0.03)
        mon.beat(1)  # the other rank is genuinely alive
        assert mon.classify(0) == "alive"
        assert mon.poll() == []  # silence after a clean finish is expected
        assert 0 in mon.absent_ranks()  # but it no longer counts for agreement

    def test_silent_rank_declared_deadlocked(self, make_state):
        mon = watchdog(make_state(2), suspect_after=0.01)
        mon.start()
        time.sleep(0.05)
        mon.beat(0)  # rank 0 stays chatty; rank 1 never beats
        (failure,) = mon.poll()
        assert (failure.rank, failure.kind, failure.classification) == (1, "hang", "deadlock")
        assert mon.dead_ranks() == frozenset({1})
        assert mon.alive_bitmap() == 0b01
        assert mon.poll() == []  # recorded once, by the first observer

    def test_gone_rank_declared_dead(self, make_state):
        mon = watchdog(
            make_state(2), suspect_after=60.0, gone=lambda g: "executor gone" if g == 1 else None
        )
        mon.start()
        assert mon.classify(1) == "dead"
        (failure,) = mon.poll()
        assert (failure.rank, failure.kind, failure.detail) == (1, "crash", "executor gone")

    def test_declare_failed_idempotent(self, make_state):
        mon = watchdog(make_state(3), suspect_after=10.0)
        mon.start()
        first = mon.declare_failed(2, "kill", "test")
        second = mon.declare_failed(2, "crash", "later duplicate")
        assert first == second and first.kind == "kill"  # first declaration wins
        assert len(mon.failures()) == 1

    def test_failure_record_field_widths(self, make_state):
        """kind 16 B, classification 16 B, detail 96 B — on both backings."""
        mon = watchdog(make_state(2), suspect_after=10.0)
        mon.start()
        failure = mon.declare_failed(1, "k" * 40, "d" * 200, classification="c" * 40)
        assert (len(failure.kind), len(failure.classification), len(failure.detail)) == (16, 16, 96)

    # -- a rank that finishes while being checked ------------------------------------------

    def _finishing_rank(self, make_state):
        """Rank 1 marks itself done and exits between the watchdog's two
        reads (gone?, then the done bit): it finished cleanly and must
        not be declared crashed.  The exit is replayed inside ``gone`` —
        no timing."""
        state = make_state(2)

        def exits_cleanly_while_being_checked(rank):
            state.mark_done(rank)
            return "executor gone"

        mon = watchdog(state, (1,), suspect_after=60.0, gone=exits_cleanly_while_being_checked)
        mon.start()
        return mon

    def test_poll_does_not_declare_a_finished_rank_dead(self, make_state):
        mon = self._finishing_rank(make_state)
        assert mon.poll() == []
        assert mon.failures() == []

    def test_classify_says_alive(self, make_state):
        assert self._finishing_rank(make_state).classify(0) == "alive"

    # -- the blocked-op rows: straggler vs deadlock -----------------------------------------

    def test_blocked_rows_tell_straggler_from_deadlock(self, make_state):
        state = make_state(3)
        mon = watchdog(state, suspect_after=0.02)
        mon.start()

        def everyone_beacons_on():
            time.sleep(0.04)
            for r in range(3):
                mon.beat(r)  # nobody is silent

        state.set_blocked(0, "recv", peer=1, tag=7)
        state.set_blocked(1, "barrier")
        assert state.blocked(0)[:3] == ("recv", 1, 7)
        assert state.blocked(1)[:3] == ("barrier", -1, -1)
        assert mon.classify(0) == "alive"  # blocked, but not yet past the deadline
        everyone_beacons_on()
        # rank 2 still makes progress, so 0 and 1 are merely late ...
        assert [mon.classify(r) for r in range(3)] == ["straggler", "straggler", "alive"]
        state.set_blocked(2, "recv", peer=0)
        everyone_beacons_on()
        # ... until every unfinished rank waits on another: a cycle
        assert [mon.classify(r) for r in range(3)] == ["deadlock"] * 3
        mon.mark_done(2)  # a finished rank is not part of any cycle
        assert mon.classify(0) == "deadlock" and mon.classify(2) == "alive"
        state.clear_blocked(0)
        assert state.blocked(0) is None and mon.classify(0) == "alive"
        assert mon.poll() == []  # classification only: no one was declared failed

    # -- agreement ------------------------------------------------------------------------

    def _agree(self, state, contributions, slot=0, absent=frozenset):
        results = {}

        def contribute(rank):
            results[rank] = state.agree_wait(
                slot, rank, contributions[rank], nranks=state.nranks, absent=absent, timeout=5.0
            )

        threads = [threading.Thread(target=contribute, args=(r,)) for r in contributions]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results

    def test_agree_is_and_of_contributions(self, make_state):
        results = self._agree(make_state(3), {0: 0b111, 1: 0b011, 2: 0b111})
        assert set(results.values()) == {0b011}

    def test_agree_drops_absent_contributors(self, make_state):
        """Rank 2 never contributes; once it is absent the others decide,
        with its bit masked out whatever they believed."""
        results = self._agree(make_state(3), {0: 0b111, 1: 0b111}, absent=lambda: {2})
        assert results == {0: 0b011, 1: 0b011}

    # -- the run epoch ---------------------------------------------------------------------

    def test_start_resets_the_epoch_and_keeps_the_conclusions(self, make_state):
        state = make_state(3)
        mon = watchdog(state, suspect_after=10.0)
        mon.start()
        mon.mark_done(0)
        state.set_blocked(1, "recv", 0, 3)
        self._agree(state, {0: 0b111, 1: 0b101, 2: 0b111}, slot=5)
        mon.declare_failed(2, "kill", "run 1")
        state.revoke("run 1 lost rank 2", 0)
        state.bump_gen(1)
        with mon.phase("agree", 0):
            pass
        mon.start()  # the next run
        assert not state.is_done(0) and state.blocked(1) is None
        # slot 5 is free again: a fresh round decides on fresh contributions
        assert set(self._agree(state, {0: 0b111, 1: 0b111}, slot=5, absent=lambda: {2}).values()) == {
            0b011
        }
        # what run 1 concluded stays: registry, revoke word, generation, timeline
        assert mon.dead_ranks() == frozenset({2})
        assert state.revoked_reason(0) == "run 1 lost rank 2" and state.revoked_reason(1) is None
        assert state.cur_gen() == 1
        assert {name for name, *_ in state.spans()} == {"detect", "agree"}

    # -- views and reports ------------------------------------------------------------------

    def test_member_view_translates_ranks(self, make_state):
        state = make_state(4)
        root = watchdog(state, suspect_after=10.0)
        view = watchdog(state, (0, 2, 3), suspect_after=10.0)  # rank 1 was lost earlier
        root.start()
        root.declare_failed(1, "kill", "first episode")
        view.declare_failed(2, "hang", "second episode")  # original rank 3
        assert [f.rank for f in root.failures()] == [1, 3]
        assert [f.rank for f in view.failures()] == [2]  # rank 1 is not a member
        assert view.build_report().survivors == [0, 1] and view.alive_bitmap() == 0b011

    def test_report_sequence_and_json(self, make_state):
        mon = watchdog(make_state(4), suspect_after=10.0)
        mon.start()
        mon.declare_failed(3, "kill", "test")
        for phase in ("agree", "shrink", "restart"):
            with mon.phase(phase, rank=0):
                time.sleep(0.002)
        report = mon.build_report(recovered=True)
        assert isinstance(report, FailureReport)
        assert report.failed_ranks == [3]
        assert report.survivors == [0, 1, 2]
        assert report.phase_sequence_complete()
        payload = report.to_json()
        assert payload["schema"] == "repro-failure-report-v1"
        json.dumps(payload)  # artefact must be JSON-serialisable as-is

    def test_frozen_copy_reads_post_mortem(self, make_state):
        """What the parent of a process world does after unlinking."""
        state = make_state(2)
        mon = watchdog(state, suspect_after=10.0)
        mon.start()
        mon.declare_failed(1, "kill", "before the freeze")
        state.freeze()
        assert isinstance(state.buf, bytearray)
        assert [f.rank for f in mon.failures()] == [1]
        assert mon.build_report().phases().keys() == {"detect"}


class TestBarrierAndAbort:
    """The one barrier and the one abort word, with real waiters on both
    backings.  Row rules: a world abort breaks every row; a departing
    waiter (own deadline, raising poll) breaks its own; rows are
    independent per shrink generation; ``start()`` re-arms the rows and
    nothing else."""

    def _break_row(self, state, gen, parties):
        """A lone waiter's deadline passes: the row is left broken."""
        with pytest.raises(StallError, match="barrier broken .rank timed out"):
            state.barrier(gen, parties, 0.03)

    def test_release_and_reuse_across_generations(self, make_state, run_parties):
        """1200 back-to-back episodes on one row, in lockstep: nobody
        passes episode ``k`` before every party has announced it (the pid
        word of the rank rows is the shared scratch)."""
        parties, episodes = 3, 1200
        state = make_state(parties)

        def party(me):
            def run():
                for k in range(1, episodes + 1):
                    state.set_pid(me, k)
                    state.barrier(0, parties, 20.0)
                    behind = [r for r in range(parties) if state.pid(r) < k]
                    if behind:
                        return f"episode {k} released before ranks {behind} arrived"
                return episodes

            return run

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # rank threads: preempt inside the row updates too
        try:
            outcomes = run_parties([party(r) for r in range(parties)])
        finally:
            sys.setswitchinterval(interval)
        assert outcomes == [("ok", episodes)] * parties

    def test_own_deadline_is_a_stall_and_breaks_the_row_for_peers(self, make_state, run_parties):
        state = make_state(3)

        def impatient():
            state.barrier(0, 3, 0.3)

        def patient():
            t0 = time.monotonic()
            try:
                state.barrier(0, 3, 20.0)
            except BarrierBrokenError as exc:
                assert not isinstance(exc, StallError)  # a peer left, this rank did not stall
                return time.monotonic() - t0
            return "released without its third party"

        (kind, message), (ok, waited) = run_parties([impatient, patient])
        assert kind == "BarrierStallError" and message.startswith("barrier broken (rank timed out")
        assert ok == "ok" and waited < 10.0  # woken by the departure, not by its own deadline
        with pytest.raises(BarrierBrokenError):  # and the row stays broken
            state.barrier(0, 3, 1.0)

    def test_a_raising_poll_breaks_the_row(self, make_state, run_parties):
        state = make_state(3)

        def revoked():
            def poll():
                raise RevokedError("the communicator was revoked under me")

            state.barrier(0, 3, 20.0, poll=poll)

        def bystander():
            state.barrier(0, 3, 20.0)

        assert run_parties([revoked, bystander]) == [
            ("RevokedError", "the communicator was revoked under me"),
            ("BarrierBrokenError", "barrier broken (timeout or aborted peer)"),
        ]

    def test_abort_wakes_every_waiter(self, make_state, run_parties):
        """A waiter that polls surfaces the abort itself (what a
        communicator's progress callback does); one that does not gets
        the echo.  Neither sits out its 60 s deadline."""
        state = make_state(3)

        def check_abort():
            if state.abort_reason() is not None:
                raise RuntimeAbort(state.abort_reason())

        def waiter(poll):
            def run():
                t0 = time.monotonic()
                try:
                    state.barrier(0, 3, 60.0, poll=poll)
                finally:
                    assert time.monotonic() - t0 < 30.0
            return run

        def aborter():
            while state._bars[state._COUNT] < 2:  # both are counted in (generation 0's row)
                time.sleep(0.005)
            state.abort("rank 2 raised ValueError: boom")
            state.abort("a later reason loses")

        assert run_parties([waiter(check_abort), waiter(None), aborter]) == [
            ("RuntimeAbort", "rank 2 raised ValueError: boom"),
            ("BarrierBrokenError", "barrier broken (timeout or aborted peer)"),
            ("ok", None),
        ]
        assert state.abort_reason() == "rank 2 raised ValueError: boom"
        with pytest.raises(BarrierBrokenError):  # every row, whatever its generation or size
            state.barrier(3, 1, 1.0)

    def test_abort_reason_is_bounded(self, make_state):
        state = make_state(2)
        assert state.abort_reason() is None
        state.abort("x" * 5000)
        assert state.abort_reason() == "x" * 1024

    def test_rows_are_independent_per_generation(self, make_state, run_parties):
        """Generation 0's row was broken by the failure; the survivors'
        row one generation up — fewer parties — works."""
        state = make_state(3)
        self._break_row(state, 0, 3)

        def survivor():
            for _ in range(50):
                state.barrier(1, 2, 20.0)
            return "through"

        assert run_parties([survivor, survivor]) == [("ok", "through")] * 2
        with pytest.raises(BarrierBrokenError):
            state.barrier(0, 3, 1.0)

    def test_start_rearms_the_rows_but_not_abort_or_revoke(self, make_state):
        state = make_state(2)
        self._break_row(state, 0, 2)
        state.revoke("run 1 lost rank 1", 0)
        state.start()  # the next run of a multi-shot world
        state.barrier(0, 1, 1.0)  # whole again (a single party releases itself)
        assert state.revoked_reason(0) == "run 1 lost rank 1"
        state.abort("run 2 gave up")
        state.start()
        assert state.abort_reason() == "run 2 gave up"
        with pytest.raises(BarrierBrokenError):
            state.barrier(0, 1, 1.0)

    def test_generation_out_of_range_is_a_typed_error(self, make_state):
        state = make_state(2)
        for gen in (-1, 8):
            with pytest.raises(CommunicatorError, match="out of range"):
                state.barrier(gen, 2, 1.0)
