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
import threading
import time
from multiprocessing.shared_memory import SharedMemory

import pytest

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
