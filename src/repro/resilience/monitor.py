"""The ULFM control plane: one control state, one watchdog, reports.

The fence-synchronised exchanges of the paper (Alg. 3) have the classic
failure mode of bulk-synchronous code: one dead or wedged rank stalls
every peer for the full window.  This module is the *detection and
bookkeeping* half of the fault-tolerance story, written once for rank
threads and forked ranks:

* :class:`ControlState` — beacons, done flags, blocked-op rows, the
  failure registry, the abort word, the generational revoke word, the
  agreement slots, the barrier rows and the recovery timeline in one
  flat buffer: a private ``bytearray``
  under a ``threading.Condition`` for a thread world, a named
  shared-memory segment under a fork-shared condition for a process
  world (the caller supplies both; this module imports nothing from the
  runtime — the runtimes import *it*);
* :class:`Watchdog` — a member view over that state.  Every rank
  beacons at each transport operation and keeps beaconing while
  *blocked* (a rank waiting on a dead peer is itself perfectly alive);
  :meth:`Watchdog.poll` — run by whichever rank happens to be blocked,
  no watchdog thread — declares a rank failed when it is gone or its
  beacon is silent past ``suspect_after``; a stall is *classified*, not
  just timed out: ``dead``, ``deadlock`` (alive but silent, or every
  unfinished rank blocked past the deadline), ``straggler`` (blocked
  past the deadline while someone still makes progress);
* :class:`FailureReport` — who failed, how each stall was classified,
  and the detect → agree → shrink → restart timeline, instead of an
  opaque ``TimeoutError``.

The recovery arc that drives all this (``agree`` / ``shrink`` /
``revoke``) is :class:`repro.runtime.base.Comm`'s.
"""

from __future__ import annotations

import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from repro.errors import BarrierBrokenError, BarrierStallError, CommunicatorError
from repro.telemetry import emit, scope

__all__ = [
    "STALL_CLASSIFICATIONS",
    "RankFailure",
    "PhaseSpan",
    "FailureReport",
    "ControlState",
    "Watchdog",
]

#: How a stalled rank can be classified by the watchdog.
STALL_CLASSIFICATIONS = ("alive", "straggler", "deadlock", "dead")

#: Recovery phases, in protocol order.
RECOVERY_PHASES = ("detect", "agree", "shrink", "restart")


@dataclass
class RankFailure:
    """One detected rank failure.

    ``kind`` is the *cause* (``kill``, ``hang``, ``crash``, ``timeout``);
    ``classification`` is what the watchdog *observed* (``dead`` for an
    exited thread, ``deadlock`` for an alive-but-silent one, …).
    """

    rank: int
    kind: str
    classification: str
    detail: str = ""
    detected_at: float = 0.0  # seconds since monitor start
    last_beat_age: float = 0.0  # beacon silence at detection time

    def to_json(self) -> dict[str, Any]:
        return {
            "rank": self.rank,
            "kind": self.kind,
            "classification": self.classification,
            "detail": self.detail,
            "detected_at_s": round(self.detected_at, 6),
            "last_beat_age_s": round(self.last_beat_age, 6),
        }


@dataclass
class PhaseSpan:
    """One recovery phase interval on one rank (monitor-clock seconds)."""

    name: str
    rank: int
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "rank": self.rank,
            "t0_s": round(self.t0, 6),
            "t1_s": round(self.t1, 6),
            "duration_s": round(self.duration, 6),
        }


@dataclass
class FailureReport:
    """Structured record of a failure episode and its recovery.

    Produced by the runtime instead of an opaque timeout: who failed and
    how the stall was classified, who survived, and the per-rank
    detect/agree/shrink/restart timeline.
    """

    nranks: int = 0
    failures: list[RankFailure] = field(default_factory=list)
    survivors: list[int] = field(default_factory=list)
    phase_spans: list[PhaseSpan] = field(default_factory=list)
    recovered: bool = False
    detail: str = ""

    @property
    def failed_ranks(self) -> list[int]:
        return sorted(f.rank for f in self.failures)

    def phases(self) -> dict[str, float]:
        """Aggregate duration per phase (earliest start → latest end)."""
        out: dict[str, float] = {}
        for name in RECOVERY_PHASES:
            spans = [s for s in self.phase_spans if s.name == name]
            if spans:
                out[name] = max(s.t1 for s in spans) - min(s.t0 for s in spans)
        return out

    def phase_sequence_complete(self) -> bool:
        """True when every recovery phase was recorded, in order."""
        agg = self.phases()
        if any(name not in agg for name in RECOVERY_PHASES):
            return False
        starts = [
            min(s.t0 for s in self.phase_spans if s.name == name)
            for name in RECOVERY_PHASES
        ]
        return starts == sorted(starts)

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": "repro-failure-report-v1",
            "nranks": self.nranks,
            "failed_ranks": self.failed_ranks,
            "survivors": list(self.survivors),
            "recovered": self.recovered,
            "detail": self.detail,
            "failures": [f.to_json() for f in self.failures],
            "phases": {k: round(v, 6) for k, v in self.phases().items()},
            "phase_spans": [s.to_json() for s in self.phase_spans],
        }

    def summary(self) -> str:
        if not self.failures:
            return f"{self.nranks} ranks: no failures detected"
        parts = [
            f"rank {f.rank} {f.kind} ({f.classification}, "
            f"detected at t+{f.detected_at:.3f}s)"
            for f in self.failures
        ]
        tail = "recovered" if self.recovered else "not recovered"
        phases = self.phases()
        if phases:
            tail += " [" + " -> ".join(
                f"{k}:{phases[k] * 1e3:.1f}ms" for k in RECOVERY_PHASES if k in phases
            ) + "]"
        return f"{self.nranks} ranks: " + "; ".join(parts) + f" — {tail}"


#: One recorded rank failure: rank, detected_at s, last_beat_age s,
#: kind, classification, detail.
_FAIL_REC = struct.Struct("<qdd16s16s96s")
#: One recovery-phase span: rank, t0 s, t1 s, phase name.
_SPAN_REC = struct.Struct("<qdd16s")
_MAX_FAILURES = 32
_MAX_SPANS = 512
#: Agreement slots; each shrink generation owns :data:`ROUNDS_PER_GEN`
#: consecutive ones (slot = generation * ROUNDS_PER_GEN + round).
_MAX_ROUNDS = 128
ROUNDS_PER_GEN = 16
#: Shrink generations the arena has room for; each also owns one barrier row.
_MAX_GENS = _MAX_ROUNDS // ROUNDS_PER_GEN
#: How often a blocked agreement or barrier re-checks and runs its poll.
QUANTUM = 0.02
#: Operations a rank can be recorded as blocked in (row code = index).
_BLOCKED_OPS = ("", "recv", "barrier", "agree")


def _text(raw: bytes) -> str:
    return raw.rstrip(b"\x00").decode("utf-8", "replace")


class ControlState:
    """The ULFM control plane of one world, in one flat buffer.

    ``buf``/``cond`` select the backing: omitted, a private ``bytearray``
    under a ``threading.Condition`` (rank threads — no ``/dev/shm`` entry,
    no ``multiprocessing`` primitive); given, a named shared-memory
    segment's buffer of :meth:`nbytes` bytes under a fork-shared
    condition (forked ranks — the state survives the death of any rank
    process and is readable by the parent and every sibling).  Layout
    and methods are the same either way:

    * header words — revoked flag, reason length, revoked generation,
      current generation, failure count, span count, clock origin,
      started flag, aborted flag, abort-reason length — then the
      revocation reason and the abort reason;
    * one row per rank: beacon (machine-wide monotonic ns), pid, flags
      (bit 0 = *done*, exempting a cleanly-finished rank from
      suspicion), and the *blocked-op* row (since ns, op, peer, tag) —
      single-writer stores, lockless like the beacon, so the stall
      lattice works across processes;
    * the failure registry: fixed-size records, first declaration per
      rank wins (kind 16 B, classification 16 B, detail 96 B);
    * generational revocation: unlike an abort, a revoked world stays
      usable for recovery, and a revocation is scoped to a shrink
      *generation* — survivors that shrank past it keep communicating;
    * the abort word: set once with the first reason, it ends the world
      for every generation — every barrier row reads as broken;
    * the agreement arena: per-slot contribution bitmaps decided by a
      pessimistic AND (the ``MPIX_Comm_agree`` analogue);
    * the barrier rows, one per shrink generation (count, sense,
      broken), all waited on in :meth:`barrier`;
    * the recovery timeline: detect/agree/shrink/restart spans, appended
      by whoever observed them, so anyone can assemble the report.

    Ranks here are always *original-world* ranks; :class:`Watchdog`
    translates a shrunk communicator's dense numbering.
    """

    _REVOKED, _REASON_LEN, _REVOKE_GEN, _CUR_GEN, _N_FAIL, _N_SPAN, _T0, _STARTED = range(8)
    _ABORTED, _ABORT_LEN = 8, 9
    _HDR_WORDS = 16
    _REASON_CAP = 1024
    _BEACON, _PID, _FLAGS, _B_SINCE, _B_OP, _B_PEER, _B_TAG = range(7)
    _ROW_WORDS = 8
    _COUNT, _SENSE, _BROKEN = range(3)
    _BAR_WORDS = 4

    @classmethod
    def _offsets(cls, nranks: int) -> tuple[int, int, int, int, int, int]:
        rank_off = cls._HDR_WORDS * 8 + 2 * cls._REASON_CAP
        fail_off = rank_off + cls._ROW_WORDS * 8 * nranks
        span_off = fail_off + _MAX_FAILURES * _FAIL_REC.size
        agree_off = span_off + _MAX_SPANS * _SPAN_REC.size
        bar_off = agree_off + _MAX_ROUNDS * (3 + nranks) * 8
        end = bar_off + _MAX_GENS * cls._BAR_WORDS * 8
        return rank_off, fail_off, span_off, agree_off, bar_off, end

    @classmethod
    def nbytes(cls, nranks: int) -> int:
        """Size of the buffer a state for ``nranks`` ranks needs."""
        return cls._offsets(nranks)[-1]

    def __init__(self, nranks: int, buf=None, cond=None) -> None:
        if nranks > 62:
            raise CommunicatorError(
                f"agreement bitmaps support at most 62 ranks, got {nranks}"
            )
        self.nranks = int(nranks)
        self._reason_off = self._HDR_WORDS * 8
        self._abort_off = self._reason_off + self._REASON_CAP
        self._rank_off, self._fail_off, self._span_off, self._agree_off, self._bar_off, size = (
            self._offsets(self.nranks)
        )
        self._bar_end = size
        self.buf = bytearray(size) if buf is None else buf
        self.cond = threading.Condition() if cond is None else cond
        self._map()
        self._words[self._T0] = time.perf_counter_ns()

    def _map(self) -> None:
        n = self.nranks
        # Header words and barrier rows are read on every transport
        # operation and every fence: plain ints through a memoryview,
        # not NumPy scalars.
        view = memoryview(self.buf)
        self._words = view[: self._HDR_WORDS * 8].cast("q")
        self._bars = view[self._bar_off : self._bar_end].cast("q")
        self._ranks = np.frombuffer(
            self.buf, dtype=np.int64, count=self._ROW_WORDS * n, offset=self._rank_off
        ).reshape(n, self._ROW_WORDS)
        self._agree = np.frombuffer(
            self.buf, dtype=np.int64, count=_MAX_ROUNDS * (3 + n), offset=self._agree_off
        ).reshape(_MAX_ROUNDS, 3 + n)

    def freeze(self) -> None:
        """Swap the buffer for a private copy.

        The parent of a process world interprets the run (failure
        registry, recovery timeline) *after* the segment is unlinked; a
        frozen copy keeps every read method working post-mortem.
        """
        self.buf = bytearray(self.buf)
        self._map()

    # -- clock ------------------------------------------------------------------------

    def now(self) -> float:
        """Seconds since state creation (``perf_counter_ns`` is
        CLOCK_MONOTONIC: machine-wide, shared by every process)."""
        return (time.perf_counter_ns() - int(self._words[self._T0])) / 1e9

    # -- liveness ----------------------------------------------------------------------

    def start(self) -> None:
        """Arm the watchdog for one run epoch.

        Resets every beacon to *now* and clears the done flags, the
        blocked rows, the agreement arena and the barrier rows (a row
        the last run left broken or half-counted is whole again).  The
        failure registry, the abort and revoke words, the generation and
        the timeline carry over on purpose: a world revoked in one run
        stays revoked in the next, as ULFM keeps a revoked communicator
        revoked.
        """
        with self.cond:
            self._ranks[:, self._BEACON] = time.perf_counter_ns()
            self._ranks[:, self._FLAGS] = 0
            self._ranks[:, self._B_SINCE] = 0
            self._agree[:] = 0
            self.buf[self._bar_off : self._bar_end] = bytes(self._bar_end - self._bar_off)
            self._words[self._STARTED] = 1

    @property
    def started(self) -> bool:
        return bool(self._words[self._STARTED])

    def beacon(self, rank: int) -> None:
        self._ranks[rank, self._BEACON] = time.perf_counter_ns()

    def beacon_age(self, rank: int) -> float:
        return (time.perf_counter_ns() - int(self._ranks[rank, self._BEACON])) / 1e9

    def set_pid(self, rank: int, pid: int) -> None:
        self._ranks[rank, self._PID] = int(pid)

    def pid(self, rank: int) -> int:
        return int(self._ranks[rank, self._PID])

    def mark_done(self, rank: int) -> None:
        with self.cond:
            self._ranks[rank, self._FLAGS] |= 1

    def is_done(self, rank: int) -> bool:
        return bool(int(self._ranks[rank, self._FLAGS]) & 1)

    def set_blocked(self, rank: int, op: str, peer: int = -1, tag: int = -1) -> None:
        """``rank`` (the only writer of its row) starts waiting in ``op``;
        ``since`` is stored last, so a reader never sees a half-new row."""
        row = self._ranks[rank]
        row[self._B_OP], row[self._B_PEER], row[self._B_TAG] = _BLOCKED_OPS.index(op), peer, tag
        row[self._B_SINCE] = time.perf_counter_ns()

    def clear_blocked(self, rank: int) -> None:
        self._ranks[rank, self._B_SINCE] = 0

    def blocked(self, rank: int) -> tuple[str, int, int, float] | None:
        """``(op, peer, tag, seconds so far)`` while ``rank`` is blocked."""
        row = self._ranks[rank]
        since = int(row[self._B_SINCE])
        if not since:
            return None
        return (
            _BLOCKED_OPS[int(row[self._B_OP])],
            int(row[self._B_PEER]),
            int(row[self._B_TAG]),
            (time.perf_counter_ns() - since) / 1e9,
        )

    # -- failure registry ---------------------------------------------------------------

    def _failure_records(self) -> Iterator[tuple]:
        for i in range(int(self._words[self._N_FAIL])):
            yield _FAIL_REC.unpack_from(self.buf, self._fail_off + i * _FAIL_REC.size)

    def record_failure(
        self,
        rank: int,
        kind: str,
        classification: str,
        detail: str,
        detected_at: float,
        last_beat_age: float,
    ) -> bool:
        """Append a failure record; idempotent per rank (first wins).

        Returns True when this call created the record.
        """
        with self.cond:
            n = int(self._words[self._N_FAIL])
            if n >= _MAX_FAILURES or any(rec[0] == rank for rec in self._failure_records()):
                return False
            _FAIL_REC.pack_into(
                self.buf,
                self._fail_off + n * _FAIL_REC.size,
                rank,
                detected_at,
                last_beat_age,
                kind.encode("utf-8", "replace")[:16],
                classification.encode("utf-8", "replace")[:16],
                detail.encode("utf-8", "replace")[:96],
            )
            self._words[self._N_FAIL] = n + 1
            self.cond.notify_all()
            return True

    def failures(self) -> list[tuple[int, str, str, str, float, float]]:
        """Recorded failures as (rank, kind, classification, detail, at, age)."""
        with self.cond:
            return sorted(
                (int(rank), _text(kind), _text(cls), _text(detail), float(at), float(age))
                for rank, at, age, kind, cls, detail in self._failure_records()
            )

    def failed_ranks(self) -> frozenset[int]:
        with self.cond:
            return frozenset(int(rec[0]) for rec in self._failure_records())

    # -- abort and generational revocation ------------------------------------------------

    def _store_reason(self, off: int, len_word: int, reason: str) -> None:
        encoded = reason.encode("utf-8", "replace")[: self._REASON_CAP]
        self.buf[off : off + len(encoded)] = encoded
        self._words[len_word] = len(encoded)

    def _load_reason(self, off: int, len_word: int) -> str:
        n = int(self._words[len_word])
        return bytes(self.buf[off : off + n]).decode("utf-8", "replace")

    def abort(self, reason: str) -> None:
        """End the world (``MPI_Abort``): the first reason wins, every
        barrier row reads as broken from now on, every waiter wakes."""
        with self.cond:
            if not self._words[self._ABORTED]:
                self._store_reason(self._abort_off, self._ABORT_LEN, reason)
                self._words[self._ABORTED] = 1
            self.cond.notify_all()

    def abort_reason(self) -> str | None:
        if not self._words[self._ABORTED]:
            return None
        return self._load_reason(self._abort_off, self._ABORT_LEN)

    def revoke(self, reason: str, gen: int) -> None:
        """Revoke every communicator at generation ``<= gen``.

        A later revocation at a *higher* generation (a second failure
        after a shrink) replaces the reason; same-generation revocations
        keep the first reason.
        """
        with self.cond:
            if not self._words[self._REVOKED] or gen > int(self._words[self._REVOKE_GEN]):
                self._store_reason(self._reason_off, self._REASON_LEN, reason)
            self._words[self._REVOKE_GEN] = max(int(self._words[self._REVOKE_GEN]), gen)
            self._words[self._REVOKED] = 1
            self.cond.notify_all()

    def revoked_reason(self, gen: int = 0) -> str | None:
        """The revocation reason applying to generation ``gen`` (or None)."""
        if not self._words[self._REVOKED] or int(self._words[self._REVOKE_GEN]) < gen:
            return None
        return self._load_reason(self._reason_off, self._REASON_LEN)

    def bump_gen(self, gen: int) -> None:
        with self.cond:
            self._words[self._CUR_GEN] = max(int(self._words[self._CUR_GEN]), gen)

    def cur_gen(self) -> int:
        return int(self._words[self._CUR_GEN])

    # -- recovery timeline ---------------------------------------------------------------

    def add_span(self, name: str, rank: int, t0: float, t1: float) -> None:
        with self.cond:
            n = int(self._words[self._N_SPAN])
            if n >= _MAX_SPANS:  # pragma: no cover - timeline overflow
                return
            _SPAN_REC.pack_into(
                self.buf,
                self._span_off + n * _SPAN_REC.size,
                rank,
                t0,
                t1,
                name.encode("utf-8", "replace")[:16],
            )
            self._words[self._N_SPAN] = n + 1

    def spans(self) -> list[tuple[str, int, float, float]]:
        out = []
        with self.cond:
            for i in range(int(self._words[self._N_SPAN])):
                rank, t0, t1, name = _SPAN_REC.unpack_from(
                    self.buf, self._span_off + i * _SPAN_REC.size
                )
                out.append((_text(name), int(rank), float(t0), float(t1)))
        return out

    # -- agreement (MPIX_Comm_agree analogue) --------------------------------------------

    def agree_wait(
        self,
        slot: int,
        rank: int,
        bitmap: int,
        *,
        nranks: int,
        absent: Callable[[], frozenset[int]],
        poll: Callable[[], None] | None = None,
        timeout: float | None = None,
    ) -> int:
        """Contribute ``bitmap`` to round ``slot`` and block for the decision.

        ``nranks`` is the caller communicator's size (ranks and bitmap
        bits use its dense numbering).  A round completes once every
        rank **not absent** has contributed; ``absent`` returns the
        ranks that will never contribute (dead or cleanly done) and is
        re-read every quantum, so the protocol terminates while ranks
        are dying.  The decision is the bitwise AND of the expected
        contributions with the absent ranks masked out — any rank
        suspected by anyone is excluded (pessimistic, like ULFM: false
        suspicion costs a healthy rank, disagreement costs the job).
        The first observer of a complete round freezes the decision;
        everyone else, late contributors included, returns the same
        frozen value.  ``poll`` runs outside the lock each quantum
        (beacon + watchdog scan) and must not raise on revoke: this is
        the recovery path.
        """
        if not 0 <= slot < _MAX_ROUNDS:
            raise CommunicatorError(f"agreement slot {slot} out of range [0, {_MAX_ROUNDS})")
        row = self._agree[slot]
        start = time.monotonic()
        deadline = None if timeout is None else start + timeout
        with self.cond:
            row[3 + rank] = int(bitmap)
            row[2] |= 1 << rank
            self.cond.notify_all()
        while True:
            gone = frozenset(absent())
            exp = tuple(r for r in range(nranks) if r not in gone)
            with self.cond:
                if row[0]:
                    return int(row[1])
                mask = int(row[2])
                if exp and all(mask >> r & 1 for r in exp):
                    value = ~0
                    for r in exp:
                        value &= int(row[3 + r])
                    for r in gone:
                        value &= ~(1 << r)
                    row[1] = value & ((1 << nranks) - 1)
                    row[0] = 1
                    self.cond.notify_all()
                    return int(row[1])
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    have = [r for r in range(nranks) if mask >> r & 1]
                    raise CommunicatorError(
                        f"rank {rank}: agreement round {slot} timed out after "
                        f"{now - start:.3f}s (have {have}, waiting on "
                        f"{[r for r in exp if r not in have]}, absent {sorted(gone)})"
                    )
                self.cond.wait(QUANTUM if deadline is None else min(QUANTUM, deadline - now))
            if poll is not None:
                poll()

    # -- barrier -------------------------------------------------------------------------

    def barrier(
        self,
        gen: int,
        parties: int,
        timeout: float | None = None,
        *,
        poll: Callable[[], None] | None = None,
    ) -> None:
        """Wait in generation ``gen``'s row until ``parties`` ranks have.

        Sense-reversing: the last arrival resets the count and advances
        the sense, so the row is reusable at once.  Waiters wake every
        quantum and run ``poll`` *outside* the lock (beacon, watchdog
        scan, and whatever it raises — revocation, abort — ends the
        wait).  A waiter that leaves abnormally, through its own
        deadline (:class:`BarrierStallError`) or a raising ``poll``,
        breaks the row, so no peer counts on a departed participant;
        they get :class:`BarrierBrokenError`, as does everyone in any
        row once the world is aborted.  Rows are independent: survivors
        one generation up never see the row a dead rank broke.
        """
        if not 0 <= gen < _MAX_GENS:
            raise CommunicatorError(f"barrier generation {gen} out of range [0, {_MAX_GENS})")
        bars, words = self._bars, self._words
        row = gen * self._BAR_WORDS
        count, sense_at, broken = row + self._COUNT, row + self._SENSE, row + self._BROKEN
        start = time.monotonic()
        deadline = None if timeout is None else start + timeout
        with self.cond:
            if bars[broken] or words[self._ABORTED]:
                raise BarrierBrokenError("barrier broken (timeout or aborted peer)")
            sense = bars[sense_at]
            bars[count] += 1
            if bars[count] == parties:
                bars[count] = 0
                bars[sense_at] = sense + 1
                self.cond.notify_all()
                return
        try:
            while True:
                with self.cond:
                    if bars[sense_at] != sense:
                        return
                    if bars[broken] or words[self._ABORTED]:
                        raise BarrierBrokenError("barrier broken (timeout or aborted peer)")
                    now = time.monotonic()
                    if deadline is not None and now >= deadline:
                        raise BarrierStallError(
                            f"barrier broken (rank timed out after {now - start:.3f}s)"
                        )
                    self.cond.wait(QUANTUM if deadline is None else min(QUANTUM, deadline - now))
                    if bars[sense_at] != sense:
                        return  # released: the wake-up path runs no poll
                # Outside the lock: the callback takes this condition itself.
                if poll is not None:
                    poll()
        except BaseException:
            with self.cond:
                bars[broken] = 1
                self.cond.notify_all()
            raise


class Watchdog:
    """Member view of a :class:`ControlState`: beacons, lattice, reports.

    ``members`` maps the view's dense ranks to the original world's, so
    a shrunk communicator's watchdog speaks its own numbering while
    reading the state every generation shares.  The runtime supplies
    only ``gone(rank)``: why original rank ``rank``'s executor is known
    to be gone (thread exited, pid gone or zombie), or ``None``.  The
    classification lattice, first match wins:

    * recorded failure            → its recorded classification
    * marked done                 → ``alive`` (silence is expected)
    * gone, done bit still clear  → ``dead``     (kind ``crash``)
    * beacon silent too long      → ``deadlock`` (kind ``hang``)
    * blocked past the deadline   → ``deadlock`` when every unfinished
      member is — a wait cycle: nobody can ever post the message
      everybody waits for — else ``straggler``
    * otherwise                   → ``alive``
    """

    def __init__(
        self,
        state: ControlState,
        members: tuple[int, ...],
        *,
        suspect_after: float,
        gone: Callable[[int], str | None],
        runtime_label: str,
    ) -> None:
        self.state = state
        self.members = tuple(members)
        self.nranks = len(self.members)
        #: Beacon silence (seconds) after which :meth:`poll` declares a
        #: rank failed — well under the blocking-op timeout, so a failure
        #: is classified long before peers would time out on their own.
        self.suspect_after = float(suspect_after)
        self._gone = gone
        #: Stamped onto ``repro_recoveries_total`` so dashboards can tell
        #: thread-world drills from real process recoveries.
        self.runtime_label = runtime_label
        self._index = {g: r for r, g in enumerate(self.members)}

    # -- liveness beacons ----------------------------------------------------------------

    def start(self) -> None:
        self.state.start()

    def beat(self, rank: int) -> None:
        """Liveness beacon from ``rank`` (called at every transport op)."""
        self.state.beacon(self.members[rank])

    def mark_done(self, rank: int) -> None:
        """``rank`` finished its kernel cleanly: it stops beaconing and
        its executor exits — both of which look exactly like death.
        Done exempts it from suspicion and from agreement's expected set."""
        self.state.mark_done(self.members[rank])

    # -- failure registry -----------------------------------------------------------------

    def _record(self, rank: int, kind: str, cls: str, detail: str) -> RankFailure | None:
        """Record a failure; the first observer alone gets it back and
        emits the detection window (last sign of life → verdict)."""
        state, g = self.state, self.members[rank]
        now, age = state.now(), state.beacon_age(g)
        if not state.record_failure(g, kind, cls, detail, now, age):
            return None
        state.add_span("detect", g, now - age, now)
        emit("detect", g, seconds=age, failure_kind=kind, classification=cls)
        return RankFailure(rank, kind, cls, detail, now, age)

    def declare_failed(
        self, rank: int, kind: str, detail: str = "", classification: str | None = None
    ) -> RankFailure:
        """Record a rank failure (idempotent: the first declaration wins)."""
        cls = classification or self.classify(rank)
        self._record(rank, kind, "dead" if cls == "alive" else cls, detail)
        for failure in self.failures():
            if failure.rank == rank:
                return failure
        raise CommunicatorError(  # pragma: no cover - registry overflow
            f"failure registry full; cannot record rank {self.members[rank]}"
        )

    def failures(self) -> list[RankFailure]:
        return [
            RankFailure(self._index[g], kind, cls, detail, at, age)
            for g, kind, cls, detail, at, age in self.state.failures()
            if g in self._index
        ]

    def dead_ranks(self) -> frozenset[int]:
        return frozenset(self._index[g] for g in self.state.failed_ranks() if g in self._index)

    def absent_ranks(self) -> frozenset[int]:
        """Ranks that will never contribute again: dead or cleanly done."""
        done = frozenset(r for r, g in enumerate(self.members) if self.state.is_done(g))
        return self.dead_ranks() | done

    def alive_bitmap(self) -> int:
        """Liveness as a bitmap (bit ``r`` set = rank ``r`` believed alive)."""
        dead = self.dead_ranks()
        return sum(1 << r for r in range(self.nranks) if r not in dead)

    # -- classification -------------------------------------------------------------------

    def _why_gone(self, g: int) -> str | None:
        """A rank sets its (monotonic) done bit before it exits, so an
        executor seen gone proves a crash only if the bit is *still*
        clear when re-read afterwards — reading it first races a clean
        exit."""
        why = self._gone(g)
        return why if why and not self.state.is_done(g) else None

    def _stuck(self, g: int) -> bool:
        blocked = self.state.blocked(g)
        return blocked is not None and blocked[3] > self.suspect_after

    def classify(self, rank: int) -> str:
        """The watchdog's current verdict on ``rank`` (see STALL_CLASSIFICATIONS)."""
        state, g = self.state, self.members[rank]
        failures = state.failures()
        for rec in failures:
            if rec[0] == g:
                return rec[2]
        if state.is_done(g):
            return "alive"
        if self._why_gone(g):
            return "dead"
        if state.started and state.beacon_age(g) > self.suspect_after:
            return "deadlock"
        if self._stuck(g):
            failed = {rec[0] for rec in failures}
            pending = [m for m in self.members if m not in failed and not state.is_done(m)]
            return "deadlock" if all(self._stuck(m) for m in pending) else "straggler"
        return "alive"

    def poll(self) -> list[RankFailure]:
        """Scan members; declare gone or silent ranks failed.

        Returns the deaths recorded by *this* call (other observers race
        idempotently).  Run opportunistically by ranks that are already
        awake — at transport operations and in blocked waits, rate
        limited by the communicator — never by a dedicated thread.
        """
        state = self.state
        if not state.started:
            return []
        new: list[RankFailure] = []
        failed = state.failed_ranks()
        for r, g in enumerate(self.members):
            if g in failed or state.is_done(g):
                continue
            why = self._why_gone(g)
            age = state.beacon_age(g)
            if why:
                failure = self._record(r, "crash", "dead", why)
            elif age > self.suspect_after:
                failure = self._record(
                    r,
                    "hang",
                    "deadlock",
                    f"beacon silent for {age:.3f}s (> suspect_after={self.suspect_after:g}s)",
                )
            else:
                continue
            if failure is not None:
                new.append(failure)
        return new

    # -- recovery timeline -----------------------------------------------------------------

    @contextmanager
    def phase(self, name: str, rank: int, **attrs: Any) -> Iterator[None]:
        """One recovery phase of ``rank``: a telemetry scope (span, live
        phase, ring event, ``repro_recoveries_total``; ``attrs`` ride on
        the span) and an interval in the shared timeline."""
        g = self.members[rank]
        t0 = self.state.now()
        try:
            with scope(name, g, runtime=self.runtime_label, **attrs):
                yield
        finally:
            self.state.add_span(name, g, t0, self.state.now())

    # -- reporting ---------------------------------------------------------------------------

    def build_report(self, *, recovered: bool = False, detail: str = "") -> FailureReport:
        """Snapshot the state into a :class:`FailureReport` (view numbering)."""
        failures = self.failures()
        failed = {f.rank for f in failures}
        return FailureReport(
            nranks=self.nranks,
            failures=failures,
            survivors=[r for r in range(self.nranks) if r not in failed],
            phase_spans=[
                PhaseSpan(name, self._index[g], t0, t1)
                for name, g, t0, t1 in self.state.spans()
                if g in self._index
            ],
            recovered=recovered,
            detail=detail,
        )

