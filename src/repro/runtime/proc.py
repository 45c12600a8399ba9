"""Process-based SPMD runtime: every rank is a real OS process.

The thread runtime (:mod:`repro.runtime.thread_rt`) shares one GIL, so
local FFT/compress phases serialize and the profiler can never observe
true compute/communication overlap.  :class:`ProcessWorld` runs each
rank in a forked child and moves data through POSIX shared memory:

* **point-to-point** — a pickle-free mailbox per rank: one
  :class:`~repro.runtime.shm.ShmRing` segment each, fixed header
  structs + raw payload bytes, NumPy views in and out.  The receiving
  process drains its ring into a local pending queue and tag-matches
  there, so MPI wildcard (``ANY_SOURCE``/``ANY_TAG``) and
  non-overtaking semantics are identical to the thread runtime's
  :class:`~repro.runtime.mailbox.Mailbox`.
* **one-sided** — ``win_create`` maps the existing
  :class:`~repro.runtime.window.Window` abstraction onto a single
  collectively-created ``SharedMemory`` arena (deterministic name, one
  creation, every rank attaches), so put/get/fence stay zero-copy
  across processes.
* **collectives** — inherited unchanged from the :class:`Comm` ABC;
  ``bcast``/``gather`` object payloads ride the same ring transport.

Ranks are forked, not spawned: kernels in this codebase are closures
over NumPy arrays, which the ``spawn`` pickler cannot move, while fork
inherits them for free (and inherits the world's fork-shared locks,
which cannot be created after the fact).  Tracing survives the process
boundary through spool files: each child installs a fresh
:class:`~repro.trace.core.Tracer`, writes its events to a spool on
exit, and the parent merges every spool back into the installed tracer
(timestamps are CLOCK_MONOTONIC, machine-wide, so child spans land on
the parent timeline).

Teardown is leak-clean by construction: the parent unlinks every ring
and control segment after the run, sweeps any uid-prefixed leftovers
(spill segments of crashed receivers, unfreed window arenas), and
reaps children through a join → terminate → kill ladder.  A child's
exception is re-raised in the parent with ``.rank`` attached and the
original traceback appended as a note.

A :class:`ProcessWorld` is **one-shot**: ``run`` executes one SPMD
kernel and then closes the world (segments unlinked).

Failure model (the ULFM port): every transport operation beacons the
rank's liveness into a shared :class:`~repro.runtime.shm.ProcState`
segment and runs a peer-scan watchdog — blocked ranks classify each
member every quantum by *pid liveness* (a SIGKILLed child is gone from
``/proc`` — or a zombie, which counts as gone) and *beacon staleness*
(an alive-but-silent process is wedged).  A detected death revokes the
world generationally: every blocked survivor wakes with
:class:`~repro.errors.RevokedError` within one quantum, while
:meth:`ProcComm.agree` / :meth:`ProcComm.shrink` keep working — shrink
builds a survivor communicator over the *existing* rings and window
locks with rank remapping (no re-fork), and generation-encoded message
tags keep post-shrink traffic from matching pre-failure leftovers.
Fault plans are supported for the *process* kinds only: a ``kill`` rule
delivers a real ``SIGKILL`` to the victim's own pid, a ``hang`` rule
parks the victim without beacons until peers detect it.  Message-level
kinds (bitflip/drop/...) still raise
:class:`~repro.errors.UnsupportedFaultError` — they need the thread
runtime's mailbox hooks.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import shutil
import signal
import tempfile
import time
import traceback
import weakref
from collections import deque
from contextlib import contextmanager
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Callable, Iterator

import numpy as np

from repro.errors import (
    CommunicatorError,
    RankFailureError,
    RankHungError,
    RankKilledError,
    RevokedError,
    RuntimeAbort,
    StallError,
    UnsupportedFaultError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import PROCESS_FAULT_KINDS
from repro.resilience.agreement import bitmap_ranks
from repro.resilience.monitor import FailureReport, PhaseSpan, RankFailure
from repro.runtime.base import ANY_SOURCE, ANY_TAG, Comm, Request
from repro.runtime.mailbox import WAIT_QUANTUM
from repro.runtime.shm import (
    _PS_ROUNDS_PER_GEN,
    DEFAULT_RING_CAPACITY,
    ProcState,
    ShmRecord,
    ShmRing,
    WorldControl,
    any_to_describe,
    fork_available,
    make_uid,
    pid_alive,
    quiet_close,
    sweep_segments,
)
from repro.runtime.window import Window
from repro.telemetry.blackbox import (
    arm_signal_dump,
    build_blackbox,
    disarm_signal_dump,
    emit_blackbox,
)
from repro.telemetry.recorder import flight, install_sink, is_enabled, live_update
from repro.telemetry.shmseg import (
    DEFAULT_SHM_CAPACITY,
    ShmSink,
    ShmTelemetry,
    remove_runfile,
    write_runfile,
)
from repro.telemetry.metrics import counter as metrics_counter
from repro.trace import span as trace_span
from repro.trace.core import Tracer
from repro.trace.core import get_tracer as trace_get_tracer
from repro.trace.core import install as trace_install

__all__ = ["ProcessWorld", "ProcComm", "ProcMonitor", "run_spmd_proc"]

#: Default blocking-op timeout (same figure as the thread runtime).
DEFAULT_TIMEOUT = 120.0

#: Fraction of the blocking-op timeout after which a silent rank is
#: declared dead (same figure as the thread runtime).
SUSPECT_FRACTION = 0.25

#: Generation stride for message tags: a shrunk communicator's traffic
#: is tagged ``tag + gen * _GEN_STRIDE`` on the wire, so survivors never
#: match leftovers a dead rank posted before the failure.  Wide enough
#: that every algorithm tag (|tag| < ~2^20) decodes unambiguously.
_GEN_STRIDE = 1 << 44

#: Tag base for the dissemination barrier of shrunk communicators
#: (WorldControl's barrier counts the *original* rank count and is
#: unusable after a death).  Far below every algorithm tag.
_BARRIER_TAG = -1_000_000


def _cleanup_segments(
    owner_pid: int,
    rings: list[ShmRing],
    ctl: WorldControl,
    uid: str,
    telemetry: ShmTelemetry | None = None,
    state: ProcState | None = None,
) -> None:
    """Parent-side teardown; a no-op in forked children.

    Registered as a GC finalizer too, and fork copies the finalizer
    registry — the pid guard keeps an exiting child from unlinking
    segments the parent is still using.
    """
    if os.getpid() != owner_pid:
        return
    for ring in rings:
        ring.destroy()
    ctl.destroy()
    if telemetry is not None:
        telemetry.destroy()
    if state is not None:
        state.destroy()
    remove_runfile(uid)
    sweep_segments(uid)


def _encode_error(rank: int, exc: BaseException) -> tuple:
    """A pipe-safe error payload: the exception if picklable, else text."""
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        pickle.dumps(exc)
    except Exception:  # noqa: BLE001 - anything unpicklable falls back to text
        return ("err", rank, None, text)
    return ("err", rank, exc, text)


def _child_main(
    world: "ProcessWorld",
    rank: int,
    conn,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    spool_dir: str | None,
) -> None:
    """Entry point of one forked rank."""
    world._child_rank = rank
    world.state.set_pid(rank, os.getpid())
    # The fork copied the parent's tracer *buffers*; events recorded
    # here must go to a fresh tracer and travel home via the spool.
    parent_tracer = trace_get_tracer()
    child_tracer: Tracer | None = None
    if parent_tracer is not None and parent_tracer.enabled and spool_dir is not None:
        child_tracer = Tracer(span_histograms=parent_tracer.span_histograms_enabled)
        trace_install(child_tracer)
        child_tracer.bind_rank(rank)
    else:
        trace_install(None)
    if world.telemetry is not None:
        # Events recorded by this rank now land in the shared segment,
        # where the parent can read them even after this process dies.
        install_sink(ShmSink(world.telemetry))
        live_update(rank, alive=1.0, phase="start")
    comm = ProcComm(world, rank)
    try:
        result = fn(comm, *args, **kwargs)
        # Done *before* the result crosses the pipe: a cleanly-finished
        # rank's exit must not read as a crash to peers still working.
        world.state.mark_done(rank)
        payload = ("ok", rank, result)
        live_update(rank, done=1.0, phase="done")
    except (RankKilledError, RankHungError):
        # Expected death (injected fault): already in the failure
        # registry, world revoked — survivors decide whether to recover.
        payload = ("died", rank, None)
        live_update(rank, alive=0.0, phase="failed")
    except BaseException as exc:  # noqa: BLE001 - must not hang peers
        world._ctl.abort(f"rank {rank} raised {type(exc).__name__}: {exc}")
        payload = _encode_error(rank, exc)
        flight("abort", rank, detail=f"{type(exc).__name__}: {exc}"[:40])
        live_update(rank, alive=0.0, phase="failed")
    comm.release()  # arenas the kernel left cached on its communicator
    if child_tracer is not None:
        try:
            from repro.trace.export import write_spool

            write_spool(child_tracer, os.path.join(spool_dir, f"rank{rank}.json"))
        except Exception:  # noqa: BLE001 - tracing must never kill a rank
            pass
    try:
        conn.send(payload)
    except Exception:  # noqa: BLE001 - e.g. an unpicklable kernel return value
        try:
            conn.send(
                ("err", rank, None, f"rank {rank}: kernel return value is not picklable")
            )
        except Exception:  # noqa: BLE001
            pass
    conn.close()


class ProcMonitor:
    """Heartbeat watchdog over a shared :class:`ProcState` segment.

    API-compatible with :class:`~repro.resilience.monitor.HeartbeatMonitor`
    where the recovery stack needs it (beat/poll/declare_failed/phase/
    build_report/...), but every fact lives in shared memory: any
    process — parent or sibling — sees a death the instant the first
    observer records it, and the recovery timeline assembles across
    address spaces.

    A monitor instance is a *view*: ``members`` maps the view's dense
    ranks to the original world's ranks, so a shrunk world's monitor
    reports in its own numbering while reading the same segment.  The
    classification lattice for processes:

    * recorded failure         → its recorded classification
    * marked done              → ``alive`` (silence is expected)
    * pid gone or zombie       → ``dead``   (kind ``crash``)
    * beacon silent too long   → ``deadlock`` (kind ``hang``)
    * otherwise                → ``alive``
    """

    runtime_label = "proc"

    def __init__(
        self,
        state: ProcState,
        members: tuple[int, ...],
        *,
        suspect_after: float,
    ) -> None:
        self.state = state
        self.members = tuple(members)
        self.nranks = len(self.members)
        self.suspect_after = float(suspect_after)
        self._member_set = frozenset(self.members)

    # -- clock -------------------------------------------------------------------------

    def now(self) -> float:
        return self.state.now()

    # -- liveness beacons ----------------------------------------------------------------

    def start(self) -> None:
        self.state.start()

    def beat(self, rank: int) -> None:
        self.state.beacon(self.members[rank])

    def beat_age(self, rank: int) -> float:
        return self.state.beacon_age(self.members[rank])

    def mark_done(self, rank: int) -> None:
        self.state.mark_done(self.members[rank])

    @contextmanager
    def blocked(
        self, rank: int, op: str, peer: int | None = None, tag: int | None = None
    ) -> Iterator[None]:
        """Blocked-op attribution is not tracked across processes."""
        yield

    # -- failure registry -----------------------------------------------------------------

    def _to_failure(self, rec: tuple[int, str, str, str, float, float]) -> RankFailure:
        g, kind, cls, detail, at, age = rec
        return RankFailure(
            rank=self.members.index(g),
            kind=kind,
            classification=cls,
            detail=detail,
            detected_at=at,
            last_beat_age=age,
        )

    def declare_failed(
        self, rank: int, kind: str, detail: str = "", classification: str | None = None
    ) -> RankFailure:
        """Record a rank failure (idempotent: the first declaration wins)."""
        g = self.members[rank]
        cls = classification or self.classify(rank)
        if cls == "alive":
            cls = "dead"
        now = self.state.now()
        age = self.state.beacon_age(g)
        if self.state.record_failure(g, kind, cls, detail, now, age):
            # The detection window (last sign of life -> verdict) and the
            # flight events come from the first observer only.
            self.state.add_span("detect", g, now - age, now)
            flight("rank-failed", g, value=age, detail=f"{kind}/{cls}"[:40])
            flight("detect", g, value=age)
        for rec in self.state.failures():
            if rec[0] == g:
                return self._to_failure(rec)
        raise CommunicatorError(  # pragma: no cover - registry overflow
            f"failure registry full; cannot record rank {g}"
        )

    def failures(self) -> list[RankFailure]:
        return [
            self._to_failure(rec)
            for rec in self.state.failures()
            if rec[0] in self._member_set
        ]

    def dead_ranks(self) -> frozenset[int]:
        return frozenset(
            self.members.index(g)
            for g in self.state.failed_ranks()
            if g in self._member_set
        )

    def absent_ranks(self) -> frozenset[int]:
        """Ranks that will never contribute again: dead or cleanly done."""
        done = frozenset(
            r for r, g in enumerate(self.members) if self.state.is_done(g)
        )
        return self.dead_ranks() | done

    def alive_ranks(self) -> tuple[int, ...]:
        dead = self.dead_ranks()
        return tuple(r for r in range(self.nranks) if r not in dead)

    def alive_bitmap(self) -> int:
        bitmap = 0
        for r in self.alive_ranks():
            bitmap |= 1 << r
        return bitmap

    # -- classification -------------------------------------------------------------------

    def _process_gone(self, g: int) -> bool:
        """True when rank ``g``'s process died without finishing.

        A rank sets its (monotonic) done bit before it exits, so a pid
        seen gone proves a crash only if the bit is *still* clear when
        re-read afterwards — reading it first races a clean exit.
        """
        pid = self.state.pid(g)
        return bool(pid) and not pid_alive(pid) and not self.state.is_done(g)

    def classify(self, rank: int) -> str:
        g = self.members[rank]
        for rec in self.state.failures():
            if rec[0] == g:
                return rec[2]
        if self.state.is_done(g):
            return "alive"
        if self._process_gone(g):
            return "dead"
        if self.state.started and self.state.beacon_age(g) > self.suspect_after:
            return "deadlock"
        return "alive"

    def poll(self) -> list[RankFailure]:
        """Scan members; declare gone/silent processes dead.  Returns *new*
        deaths recorded by THIS call (other observers race idempotently)."""
        if not self.state.started:
            return []
        new: list[RankFailure] = []
        failed = self.state.failed_ranks()
        for r, g in enumerate(self.members):
            if g in failed or self.state.is_done(g):
                continue
            pid = self.state.pid(g)
            process_gone = self._process_gone(g)
            age = self.state.beacon_age(g)
            silent = age > self.suspect_after
            if not (process_gone or silent):
                continue
            if process_gone:
                kind, cls = "crash", "dead"
                detail = f"process died (pid {pid} gone)"
            else:
                kind, cls = "hang", "deadlock"
                detail = (
                    f"beacon silent for {age:.3f}s "
                    f"(> suspect_after={self.suspect_after:g}s)"
                )
            now = self.state.now()
            if self.state.record_failure(g, kind, cls, detail, now, age):
                self.state.add_span("detect", g, now - age, now)
                failure = RankFailure(
                    rank=r,
                    kind=kind,
                    classification=cls,
                    detail=detail,
                    detected_at=now,
                    last_beat_age=age,
                )
                new.append(failure)
                flight("rank-failed", g, value=age, detail=f"{kind}/{cls}"[:40])
                flight("detect", g, value=age)
        return new

    # -- recovery timeline -----------------------------------------------------------------

    @contextmanager
    def phase(self, name: str, rank: int) -> Iterator[None]:
        """Record one recovery phase interval in the shared timeline."""
        g = self.members[rank]
        t0 = self.state.now()
        live_update(g, phase=name)  # `repro monitor` shows recovery progress live
        try:
            yield
        finally:
            t1 = self.state.now()
            self.state.add_span(name, g, t0, t1)
            flight(name, g, value=t1 - t0)
            metrics_counter(
                "repro_recoveries_total", phase=name, runtime=self.runtime_label
            ).inc()

    # -- reporting ---------------------------------------------------------------------------

    def build_report(self, *, recovered: bool = False, detail: str = "") -> FailureReport:
        """Snapshot the shared segment into a FailureReport (view numbering)."""
        failures = self.failures()
        spans = [
            PhaseSpan(name, self.members.index(g), t0, t1)
            for name, g, t0, t1 in self.state.spans()
            if g in self._member_set
        ]
        survivors = [
            r for r in range(self.nranks) if all(f.rank != r for f in failures)
        ]
        return FailureReport(
            nranks=self.nranks,
            failures=failures,
            survivors=survivors,
            phase_spans=spans,
            recovered=recovered,
            detail=detail,
        )


class ProcessWorld:
    """Shared state of one process-per-rank SPMD execution.

    API-compatible with :class:`~repro.runtime.thread_rt.ThreadWorld`
    where the algorithms need it (``run``, ``timeout``, ``halted``,
    ``injector``, ``monitor``, ``release_window``, ULFM recovery via
    ``ProcComm.agree``/``shrink``); fault plans are accepted for the
    process kinds (``kill``/``hang``) and delivered to real child pids.
    """

    def __init__(
        self,
        nranks: int,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        faults: Any = None,
        suspect_after: float | None = None,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        telemetry_capacity: int = DEFAULT_SHM_CAPACITY,
    ) -> None:
        if nranks < 1:
            raise CommunicatorError(f"nranks must be >= 1, got {nranks}")
        if faults is None:
            self.injector = None
        else:
            if isinstance(faults, FaultInjector):
                plan, injector = faults.plan, faults
            elif isinstance(faults, FaultPlan):
                plan, injector = faults, FaultInjector(faults)
            else:
                raise UnsupportedFaultError(
                    f"faults must be a FaultPlan or FaultInjector, got {type(faults).__name__}"
                )
            if not plan.rules or any(
                r.kind not in PROCESS_FAULT_KINDS for r in plan.rules
            ):
                raise UnsupportedFaultError(
                    "ProcessWorld supports only process fault plans "
                    f"(non-empty, kinds in {PROCESS_FAULT_KINDS} — delivered as "
                    "real signals to child pids); message/codec faults run on "
                    "ThreadWorld"
                )
            self.injector = injector
        if not fork_available():
            raise CommunicatorError(
                "ProcessWorld requires the 'fork' start method (POSIX only)"
            )
        self.nranks = nranks
        self.timeout = timeout
        if suspect_after is None:
            suspect_after = max(0.05, SUSPECT_FRACTION * timeout)
        self.suspect_after = float(suspect_after)
        self.uid = make_uid()
        self._ctx = mp.get_context("fork")
        self._ctl = WorldControl(f"{self.uid}c", nranks, self._ctx)
        #: Shared resilience control plane: beacons, pids, failure
        #: registry, generational revocation, agreement arena, timeline.
        self.state = ProcState(f"{self.uid}s", nranks, self._ctx)
        self.monitor = ProcMonitor(
            self.state, tuple(range(nranks)), suspect_after=self.suspect_after
        )
        #: Per-process drained-but-unmatched records (shared by every
        #: communicator generation of this process — see ProcComm).
        self._local_pending: deque[ShmRecord] | None = None
        #: Per-process cache of shrunk-world wrappers, keyed on
        #: (survivor members, generation) so sequential failures with
        #: the same survivor set never resurrect a stale world.
        self._shrunk: dict[tuple[tuple[int, ...], int], "_ShrunkProcWorld"] = {}
        self.rings = [
            ShmRing(f"{self.uid}r{r}", ring_capacity, self._ctx) for r in range(nranks)
        ]
        # One fork-shared lock per *target rank*, shared by every window
        # (mp locks cannot be created after the fork, so they are
        # provisioned here).  Coarser than the thread runtime's
        # per-window locks; passive-target epochs on the same rank
        # through two windows at once would self-deadlock — no algorithm
        # in this codebase does that.
        self._win_locks = [self._ctx.Lock() for _ in range(nranks)]
        self._win_counter = 0
        self._windows: dict[int, tuple[SharedMemory, bool]] = {}
        self._child_rank: int | None = None
        self._spawned = False
        self._closed = False
        #: Per-process scratch store (ThreadWorld API parity).  Not
        #: shared across ranks here — resilience checkpointing that
        #: relies on a world-shared store is thread-runtime-only.
        self.store: dict[Any, Any] = {}
        self.store_lock = self._ctx.Lock()
        self._owner_pid = os.getpid()
        #: Shared-memory flight rings + live gauges, one block per rank
        #: (``{uid}t`` rides the world's segment namespace, so the
        #: crash sweep covers it).  Forked children inherit the mapping;
        #: ``python -m repro monitor`` attaches by name via the runfile.
        self.telemetry: ShmTelemetry | None = None
        self.last_blackbox: dict[str, Any] | None = None
        if is_enabled():
            self.telemetry = ShmTelemetry(
                f"{self.uid}t", nranks, capacity=telemetry_capacity
            )
            try:
                write_runfile(
                    self.uid, {"segment": f"{self.uid}t", "nranks": nranks}
                )
            except OSError:  # pragma: no cover - unwritable tempdir
                pass
        self._finalizer = weakref.finalize(
            self,
            _cleanup_segments,
            self._owner_pid,
            self.rings,
            self._ctl,
            self.uid,
            self.telemetry,
            self.state,
        )

    # -- abort / state -----------------------------------------------------------------

    def abort(self, reason: str, cause: BaseException | None = None) -> None:
        """Raise the world-wide abort flag; every blocked rank unwinds."""
        self._ctl.abort(reason)

    def abort_reason(self) -> str | None:
        return self._ctl.abort_reason()

    def check_abort(self) -> None:
        self._ctl.check_abort()

    @property
    def halted(self) -> bool:
        """True once the world is aborted or revoked (no new collectives)."""
        return (
            self._ctl.abort_reason() is not None
            or self.state.revoked_reason(0) is not None
        )

    # -- failure detection & revocation ---------------------------------------------------

    def revoke(self, reason: str) -> None:
        """ULFM-style revocation: wake every blocked rank promptly.

        Unlike :meth:`abort`, the world stays usable for recovery —
        :meth:`ProcComm.agree` / :meth:`ProcComm.shrink` keep working.
        Revokes every communicator generation up to the current one.
        """
        self.state.revoke(reason, self.state.cur_gen())

    @property
    def revoked(self) -> str | None:
        return self.state.revoked_reason(0)

    def declare_failed(self, rank: int, kind: str, detail: str = "") -> None:
        """Record a rank death and revoke the world so peers wake."""
        failure = self.monitor.declare_failed(
            rank, kind, detail, classification="dead"
        )
        self.revoke(
            f"rank {rank} {kind} ({failure.classification})"
            + (f": {detail}" if detail else "")
        )

    def shrunk_world(self, members: tuple[int, ...], gen: int) -> "_ShrunkProcWorld":
        """The (per-process, cache-keyed) survivor world over ``members``.

        Keyed on (members, generation): two sequential failures that
        leave the same survivor set must NOT resurrect the earlier
        shrunk world — its communicators are revoked at a lower
        generation and would fail every operation.
        """
        key = (tuple(members), int(gen))
        world = self._shrunk.get(key)
        if world is None:
            world = self._shrunk[key] = _ShrunkProcWorld(self, key[0], key[1])
        return world

    # -- barrier -----------------------------------------------------------------------

    def barrier_wait(self, rank: int | None = None, poll=None) -> None:
        self._ctl.barrier(self.timeout, poll=poll)

    # -- collective window creation ------------------------------------------------------

    def create_window(self, comm: "ProcComm", nbytes: int) -> Window:
        """Collective: one SharedMemory arena holds every rank's buffer.

        The arena name is deterministic (``{uid}w{win_id}``, with the
        per-process window counter advancing identically on every rank
        because creation is collective), so no name exchange is needed:
        rank 0 creates, a barrier publishes, everyone else attaches.
        """
        win_id = self._win_counter
        self._win_counter += 1
        sizes = comm.allgather(max(0, int(nbytes)))
        offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        total = int(offsets[-1])
        name = f"{self.uid}w{win_id}"
        if comm.rank == 0:
            shm = SharedMemory(name=name, create=True, size=max(1, total))
            comm.barrier()
        else:
            comm.barrier()  # arena exists after this
            shm = SharedMemory(name=name, create=False)
        base = np.frombuffer(shm.buf, dtype=np.uint8, count=total)
        buffers = [
            base[int(offsets[r]) : int(offsets[r]) + sizes[r]] for r in range(self.nranks)
        ]
        self._windows[win_id] = (shm, comm.rank == 0)
        comm.barrier()  # every rank attached before any put flies
        return Window(self, comm, buffers, self._win_locks, win_id=win_id)

    def release_window(self, win_id: int) -> None:
        """Close this rank's arena mapping; the creating rank unlinks.

        A kernel still holding views of the arena leaves the mapping
        alive until the process exits (``quiet_close``); the unlink —
        what leak-cleanliness needs — happens regardless.
        """
        entry = self._windows.pop(win_id, None)
        if entry is None:
            return
        shm, creator = entry
        quiet_close(shm)
        if creator:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

    # -- execution ---------------------------------------------------------------------

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> list[Any]:
        """Fork one process per rank, run ``fn(comm, ...)``, gather returns.

        One-shot: the world's segments are unlinked when the run ends
        (success or failure).  The first non-echo exception raised by
        any rank is re-raised here with ``.rank`` attached and the
        child's traceback appended as a note; a child that dies without
        reporting (crash, signal) surfaces as a :class:`CommunicatorError`
        naming its exit code.
        """
        if self._closed:
            raise CommunicatorError("ProcessWorld is closed (run() is one-shot)")
        if self._spawned:
            raise CommunicatorError(
                "ProcessWorld.run() already executed; create a fresh world"
            )
        if self._child_rank is not None:
            raise CommunicatorError("run() called inside a rank process")
        self._spawned = True
        parent_tracer = trace_get_tracer()
        spool_dir = None
        if parent_tracer is not None and parent_tracer.enabled:
            spool_dir = tempfile.mkdtemp(prefix="repro-spool-")
        usr1_armed = False
        if self.telemetry is not None:
            usr1_armed = arm_signal_dump(self._snapshot_blackbox)
        conns = []
        procs = []
        payloads: list[Any] = [None] * self.nranks
        # Arm the watchdog before any child exists: forked ranks beacon
        # against a started clock from their very first transport op.
        self.state.start()
        try:
            for rank in range(self.nranks):
                recv_end, send_end = self._ctx.Pipe(duplex=False)
                proc = self._ctx.Process(
                    target=_child_main,
                    args=(self, rank, send_end, fn, args, kwargs, spool_dir),
                    name=f"spmd-proc-rank-{rank}",
                    daemon=True,
                )
                conns.append(recv_end)
                procs.append((proc, send_end))
            for proc, _ in procs:
                proc.start()
            for rank, (proc, _) in enumerate(procs):
                # Children set their own pid too, but a rank killed in
                # its first instants must still be classifiable by pid.
                self.state.set_pid(rank, proc.pid)
            for _, send_end in procs:
                send_end.close()  # child holds the only writer now
            payloads = self._collect([p for p, _ in procs], conns)
        finally:
            self._reap([p for p, _ in procs])
            for conn in conns:
                conn.close()
            if spool_dir is not None:
                try:
                    self._merge_spools(parent_tracer, spool_dir)
                finally:
                    shutil.rmtree(spool_dir, ignore_errors=True)
            if usr1_armed:
                disarm_signal_dump()
            try:
                self._note_child_deaths([p for p, _ in procs])
                self._harvest_blackbox(payloads)
            finally:
                self.close()
        return self._interpret(payloads, [p for p, _ in procs])

    def _snapshot_blackbox(self) -> dict[str, Any]:
        """Freeze the shared telemetry segment into a dump dict (SIGUSR1)."""
        assert self.telemetry is not None
        return build_blackbox(
            self.telemetry.events_by_rank(),
            reason="SIGUSR1",
            nranks=self.nranks,
            live=self.telemetry.live_snapshot(),
            uid=self.uid,
        )

    def _note_rank_death(self, rank: int, exitcode: Any) -> None:
        """Parent-side death record: declare the rank failed and revoke
        the world so blocked survivors wake within one quantum.  The
        children's own pid-scan races this idempotently."""
        try:
            if self.state.is_done(rank) or rank in self.state.failed_ranks():
                return
            kind = "kill" if exitcode == -signal.SIGKILL else "crash"
            self.declare_failed(
                rank, kind, f"process died with exit code {exitcode}"
            )
        except Exception:  # noqa: BLE001 - bookkeeping must not mask the root error
            pass

    def _note_child_deaths(self, procs: list) -> None:
        """After the reap: record any abnormal child exit that nothing
        noticed yet (the EOF/is_alive race can eat the in-flight one),
        so the failure registry and black-box harvest see the death."""
        try:
            for rank, proc in enumerate(procs):
                if proc.exitcode not in (0, None):
                    self._note_rank_death(rank, proc.exitcode)
        except Exception:  # noqa: BLE001 - bookkeeping must not mask the root error
            pass

    def _harvest_blackbox(self, payloads: list[Any]) -> None:
        """Post-mortem: recover every rank's flight ring from shared
        memory when the run failed — the segment outlives dead children,
        so the victim's last events are still there to dump.  A run that
        *recovered* (some rank returned ok despite recorded failures)
        is a success and gets no dump."""
        if self.telemetry is None:
            return
        reason = self._ctl.abort_reason()
        failures = self.state.failures()
        # Recovered = an *injected* episode that survivors worked around.
        # An unexpected death always dumps, even if peers finished fine.
        recovered = self.injector is not None and any(
            p is not None and p[0] == "ok" for p in payloads
        )
        if failures and not recovered:
            # Failure-derived reason beats the abort echo: the abort may
            # be a survivor's RevokedError, which never names the victim.
            reason = "; ".join(
                f"rank {g} {kind} ({cls}): {detail}"
                for g, kind, cls, detail, _, _ in failures
            )
        if reason is None:
            return
        try:
            self.last_blackbox = emit_blackbox(
                f"proc-world abort: {reason}",
                recorder=self.telemetry,
                uid=self.uid,
                nranks=self.nranks,
            )
        except Exception:  # noqa: BLE001 - the dump must not mask the root error
            pass

    def _collect(self, procs: list, conns: list) -> list[Any]:
        """Read result pipes while children run (a child sending a large
        result blocks in the pipe until the parent reads it — waiting
        for join first would deadlock)."""
        payloads: list[Any] = [None] * self.nranks
        done = [False] * self.nranks
        deadline = time.monotonic() + self.timeout * 2 + 5.0
        death_noted: set[int] = set()
        while not all(done):
            progressed = False
            for rank, (proc, conn) in enumerate(zip(procs, conns)):
                if done[rank]:
                    continue
                if conn.poll(0):
                    try:
                        payloads[rank] = conn.recv()
                    except EOFError:
                        # Pipe torn with no payload: the child died (a
                        # SIGKILL races the is_alive check below, and the
                        # EOF often wins).  Declare + revoke so peers
                        # wake and can start recovery.
                        if (
                            not proc.is_alive()
                            and proc.exitcode not in (0, None)
                            and rank not in death_noted
                        ):
                            death_noted.add(rank)
                            self._note_rank_death(rank, proc.exitcode)
                    done[rank] = True
                    progressed = True
                elif not proc.is_alive():
                    # Late flush: the payload may have raced the exit.
                    if conn.poll(0.05):
                        continue
                    done[rank] = True
                    progressed = True
                    if proc.exitcode not in (0, None) and rank not in death_noted:
                        death_noted.add(rank)
                        # Wake peers blocked on the corpse promptly.
                        self._note_rank_death(rank, proc.exitcode)
            if all(done):
                break
            if time.monotonic() >= deadline:
                self._ctl.abort("parent join deadline exceeded")
                break
            if not progressed:
                time.sleep(0.01)
        return payloads

    def _reap(self, procs: list) -> None:
        """Join every child; escalate to terminate, then kill."""
        for proc in procs:
            proc.join(timeout=max(1.0, self.timeout * 0.5))
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)

    def _merge_spools(self, tracer, spool_dir: str) -> None:
        from repro.trace.export import absorb_spool

        if tracer is None:
            return
        for rank in range(self.nranks):
            path = os.path.join(spool_dir, f"rank{rank}.json")
            if os.path.exists(path):
                try:
                    absorb_spool(tracer, path)
                except Exception:  # noqa: BLE001 - a torn spool must not mask results
                    pass

    def _rank_failure_error(self) -> RankFailureError:
        """The run failed *because ranks died* and nothing recovered:
        surface the failure registry, not whichever echo a survivor
        happened to raise."""
        report = self.monitor.build_report(detail="no recovery attempted")
        detail = "; ".join(f"rank {f.rank}: {f.detail}" for f in report.failures)
        exc = RankFailureError(
            report.summary() + (f" — {detail}" if detail else ""), report=report
        )
        exc.blackbox = self.last_blackbox  # type: ignore[attr-defined]
        return exc

    def _interpret(self, payloads: list[Any], procs: list) -> list[Any]:
        results: list[Any] = [None] * self.nranks
        errors: list[tuple[int, BaseException, str]] = []
        failed = self.state.failed_ranks()
        ok_any = False
        for rank, payload in enumerate(payloads):
            if payload is None:
                if self.injector is not None and rank in failed:
                    # Injected death: the victim's slot stays None and
                    # survivors decide whether the run succeeded.
                    continue
                code = procs[rank].exitcode
                exc = CommunicatorError(
                    f"rank {rank} process exited (code {code}) without returning a result"
                )
                errors.append((rank, exc, ""))
            elif payload[0] == "ok":
                results[rank] = payload[2]
                ok_any = True
            elif payload[0] == "died":
                # The rank unwound through an injected fault (hang) and
                # reported its own death; already in the registry.
                continue
            else:
                _, rank_, exc, text = payload
                if exc is None:
                    exc = CommunicatorError(f"rank {rank_} failed:\n{text}")
                errors.append((rank_, exc, text))
        if errors:
            # Surface the root cause, not whichever echo came from the
            # lowest rank (same policy as ThreadWorld.run).
            def is_echo(exc: BaseException) -> bool:
                return isinstance(exc, (RuntimeAbort, RevokedError)) or (
                    isinstance(exc, CommunicatorError) and "barrier broken" in str(exc)
                )

            originals = [e for e in errors if not is_echo(e[1])]
            if not originals and failed:
                # Every error is a revocation/abort echo of a real death.
                raise self._rank_failure_error()
            rank, exc, text = sorted(originals or errors, key=lambda e: e[0])[0]
            exc.rank = rank  # type: ignore[attr-defined]
            if text and hasattr(exc, "add_note"):
                exc.add_note(f"raised on rank {rank} of ProcessWorld; child traceback:\n{text}")
            raise exc
        if failed and not ok_any:
            # Every rank died or vanished before producing a result.
            raise self._rank_failure_error()
        return results

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Unlink every world segment (parent only; idempotent)."""
        if self._closed or self._child_rank is not None:
            return
        self._closed = True
        self._finalizer.detach()
        _cleanup_segments(
            self._owner_pid, self.rings, self._ctl, self.uid, self.telemetry, self.state
        )

    def __enter__(self) -> "ProcessWorld":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class ProcComm(Comm):
    """Per-process communicator handle (lives only inside a rank).

    Generalized over worlds: the root :class:`ProcessWorld` (generation
    0, identity rank mapping) and :class:`_ShrunkProcWorld` survivors
    (generation ≥ 1, ``members`` maps dense survivor ranks back to the
    original ranks whose rings still carry the traffic).  Every
    generation of one process shares the root's pending queue; the
    generation rides the wire tag, so a shrunk communicator never
    matches leftovers a dead rank posted before the failure.
    """

    def __init__(self, world: Any, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.nranks
        self._root: ProcessWorld = getattr(world, "root", world)
        members = getattr(world, "members", None)
        self._members: tuple[int, ...] = (
            tuple(members) if members is not None else tuple(range(world.nranks))
        )
        self._member_set = frozenset(self._members)
        self._gen: int = getattr(world, "gen", 0)
        self._old_rank = self._members[rank]
        self._ring = self._root.rings[self._old_rank]
        if self._root._local_pending is None:
            self._root._local_pending = deque()
        #: Shared with every other generation in this process: one ring
        #: drain must never swallow another generation's records.
        self._pending: deque[ShmRecord] = self._root._local_pending
        self._monitor: ProcMonitor = world.monitor
        self._last_scan = 0.0
        self._agree_round = 0
        self._barrier_seq = 0

    @property
    def parent_ranks(self) -> tuple[int, ...]:
        """This communicator's ranks in the *original* world's numbering."""
        return self._members

    # -- generation-encoded tags ----------------------------------------------------------

    def _enc(self, tag: int) -> int:
        return tag + self._gen * _GEN_STRIDE

    @staticmethod
    def _dec(raw: int) -> tuple[int, int]:
        # Round-to-nearest stride: algorithm tags may be negative
        # (barrier/bcast internals), and Python floor-division keeps
        # the decode exact for |tag| < _GEN_STRIDE / 2.
        gen = (raw + _GEN_STRIDE // 2) // _GEN_STRIDE
        return gen, raw - gen * _GEN_STRIDE

    # -- transport preamble --------------------------------------------------------------

    def _pre(self, op: str, peer: int | None = None) -> None:
        self._monitor.beat(self.rank)
        if self._gen == 0 and self._root.injector is not None:
            action = self._root.injector.fail_action(self.rank, op)
            if action == "kill":
                self._kill_self(op)
            elif action == "hang":
                self._hang_self(op)
        self._root.check_abort()
        self._scan()
        self._check_revoked()

    def _kill_self(self, op: str) -> None:
        """Injected ``kill``: a *real* SIGKILL to our own pid — peers
        must detect the death from the outside, exactly as they would a
        node OOM-killing the rank."""
        flight("fault-kill", self._old_rank, detail=op[:40])
        live_update(self._old_rank, alive=0.0, phase="killed")
        os.kill(os.getpid(), signal.SIGKILL)
        raise RankKilledError(  # pragma: no cover - SIGKILL is not catchable
            f"rank {self._old_rank}: injected kill in {op}"
        )

    def _hang_self(self, op: str) -> None:
        """Injected ``hang``: park without beacons until peers detect us
        (the watchdog's beacon-staleness path), then unwind."""
        flight("fault-hang", self._old_rank, detail=op[:40])
        live_update(self._old_rank, phase="hung")
        state = self._root.state
        deadline = time.monotonic() + self._root.timeout * 2
        while (
            state.revoked_reason(0) is None
            and self._root.abort_reason() is None
            and time.monotonic() < deadline
        ):
            time.sleep(WAIT_QUANTUM)  # no beacons: silence IS the fault
        detail = f"injected hang in {op}"
        if state.revoked_reason(0) is None and self._root.abort_reason() is None:
            detail += " (never detected: no peer polled the watchdog)"
        self._monitor.declare_failed(
            self.rank, "hang", detail, classification="deadlock"
        )
        state.revoke(f"rank {self._old_rank} hang (deadlock): {detail}", self._gen)
        live_update(self._old_rank, alive=0.0, phase="failed")
        raise RankHungError(
            f"rank {self._old_rank}: {detail}",
            report=self._monitor.build_report(detail=detail),
        )

    def _scan(self) -> None:
        """Peer-scan watchdog: classify members by pid liveness and
        beacon staleness; a new death revokes this generation."""
        now = time.monotonic()
        if now - self._last_scan < min(0.05, self._root.suspect_after / 4):
            return
        self._last_scan = now
        if self._root.abort_reason() is not None:
            return
        for failure in self._monitor.poll():
            g = self._monitor.members[failure.rank]
            self._root.state.revoke(
                f"rank {g} declared {failure.classification} "
                f"({failure.kind}): {failure.detail}",
                self._gen,
            )

    def _check_revoked(self) -> None:
        reason = self._root.state.revoked_reason(self._gen)
        if reason is not None:
            raise RevokedError(
                f"communicator revoked: {reason}",
                report=self._monitor.build_report(detail=reason),
            )

    def _progress(self) -> None:
        """Drain this rank's own ring into the pending queue.

        Runs inside every blocked wait (full-ring sends, barriers,
        recv quanta): a rank blocked *sending* still consumes what
        peers sent it, so mutual floods cannot deadlock, and aborts,
        deaths and revocations surface within one quantum.
        """
        records = self._ring.drain()
        if records:
            self._pending.extend(records)
        self._monitor.beat(self.rank)
        self._root.check_abort()
        self._scan()
        self._check_revoked()

    def _progress_recovery(self) -> None:
        """Progress for agree/shrink: drains and scans but never raises —
        agreement must terminate on a revoked communicator (that is its
        entire purpose)."""
        records = self._ring.drain()
        if records:
            self._pending.extend(records)
        self._monitor.beat(self.rank)
        self._scan()

    def _find_pending(self, source: int, tag: int) -> ShmRecord | None:
        src_old = None if source == ANY_SOURCE else self._members[source]
        for i, rec in enumerate(self._pending):
            gen, base = self._dec(rec.tag)
            if gen != self._gen:
                continue
            if src_old is None:
                if rec.source not in self._member_set:
                    continue  # a dead rank's pre-failure leftovers
            elif rec.source != src_old:
                continue
            if tag != ANY_TAG and base != tag:
                continue
            del self._pending[i]
            return rec
        return None

    def _has_pending(self, source: int, tag: int) -> bool:
        src_old = None if source == ANY_SOURCE else self._members[source]
        for rec in self._pending:
            gen, base = self._dec(rec.tag)
            if gen != self._gen:
                continue
            if src_old is None:
                if rec.source not in self._member_set:
                    continue
            elif rec.source != src_old:
                continue
            if tag == ANY_TAG or base == tag:
                return True
        return False

    # -- point to point ------------------------------------------------------------------

    def send(self, data: np.ndarray, dest: int, tag: int = 0) -> None:
        self._check_rank(dest)
        self._pre("send", dest)
        self._root.rings[self._members[dest]].post(
            self._old_rank,
            self._enc(tag),
            np.asarray(data),
            timeout=self._root.timeout,
            poll=self._progress,
        )

    def _matched_recv(self, source: int, tag: int, timeout: float | None) -> np.ndarray:
        limit = self._root.timeout if timeout is None else timeout
        start = time.monotonic()
        deadline = start + limit
        while True:
            self._progress()
            rec = self._find_pending(source, tag)
            if rec is not None:
                return rec.payload
            now = time.monotonic()
            if now >= deadline:
                raise StallError(
                    f"rank {self.rank}: recv({any_to_describe(source, tag)}) "
                    f"timed out after {now - start:.3f}s "
                    f"(limit {limit}s) — peer dead, wedged, or deadlocked"
                )
            self._ring.wait(deadline - now, quantum=WAIT_QUANTUM)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> np.ndarray:
        if source != ANY_SOURCE:
            self._check_rank(source)
        self._pre("recv", None if source == ANY_SOURCE else source)
        return self._matched_recv(source, tag, timeout)

    def isend(self, data: np.ndarray, dest: int, tag: int = 0) -> Request:
        self.send(data, dest, tag)  # eager buffered: complete on post
        return Request.completed()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        if source != ANY_SOURCE:
            self._check_rank(source)
        self._pre("irecv", None if source == ANY_SOURCE else source)

        def complete(timeout: float | None) -> np.ndarray:
            return self._matched_recv(source, tag, timeout)

        def probe() -> bool:
            # Non-consuming: drains the transport into pending (which a
            # later wait() matches from), never removes a match.
            self._progress()
            return self._has_pending(source, tag)

        return Request(complete, probe=probe)

    # -- collectives ---------------------------------------------------------------------

    def barrier(self) -> None:
        self._pre("barrier")
        if self._gen == 0:
            try:
                self._root._ctl.barrier(self._root.timeout, poll=self._progress)
            except CommunicatorError:
                # The shared barrier breaks for everyone when any waiter
                # unwinds; surface the *cause* (death/revocation) over
                # the generic "barrier broken" echo where we can.
                self._root.check_abort()
                self._check_revoked()
                raise
            return
        self._dissemination_barrier()

    def _dissemination_barrier(self) -> None:
        """Tag-disambiguated dissemination barrier for shrunk worlds:
        the WorldControl barrier counts the *original* rank count and is
        unusable after a death."""
        seq = self._barrier_seq
        self._barrier_seq += 1
        token = np.zeros(1, dtype=np.uint8)
        step, k = 1, 0
        while step < self.size:
            tag = _BARRIER_TAG - seq * 64 - k
            self.send(token, (self.rank + step) % self.size, tag)
            self.recv((self.rank - step) % self.size, tag)
            step <<= 1
            k += 1

    # -- failure handling (ULFM analogues) -----------------------------------------------

    def revoke(self, reason: str = "revoked by application") -> None:
        """Revoke the communicator (``MPIX_Comm_revoke``)."""
        self._root.state.revoke(f"rank {self._old_rank}: {reason}", self._gen)
        self.release()

    def agree(self, bitmap: int | None = None) -> int:
        """Fault-aware agreement on a liveness bitmap (``MPIX_Comm_agree``).

        Contributes this rank's view (default: the watchdog's) and
        returns the decided bitmap — identical on every survivor.
        Usable on a revoked world; that is its purpose.  Runs in a
        shared-memory agreement slot keyed on (generation, round).
        """
        if bitmap is None:
            bitmap = self._monitor.alive_bitmap()
        round_no = self._agree_round
        self._agree_round += 1
        if round_no >= _PS_ROUNDS_PER_GEN:
            raise CommunicatorError(
                f"rank {self.rank}: agreement rounds exhausted for generation "
                f"{self._gen} ({_PS_ROUNDS_PER_GEN} per generation)"
            )
        slot = self._gen * _PS_ROUNDS_PER_GEN + round_no
        self._monitor.beat(self.rank)
        with trace_span("agree", rank=self.rank, round=round_no):
            with self._monitor.phase("agree", self.rank):
                return self._root.state.agree_wait(
                    slot,
                    self.rank,
                    int(bitmap),
                    nranks=self.size,
                    absent=self._monitor.absent_ranks,
                    poll=self._progress_recovery,
                    timeout=self._root.timeout,
                )

    def shrink(self, survivors: tuple[int, ...] | None = None) -> "ProcComm":
        """Build a working communicator over the survivors
        (``MPIX_Comm_shrink``).

        No re-fork: the survivor world reuses the existing rings and
        window locks with a dense rank remapping, one generation up —
        its traffic is tag-isolated from everything that came before.
        """
        if survivors is None:
            survivors = bitmap_ranks(self.agree(), self.size)
        survivors = tuple(sorted(survivors))
        if self.rank not in survivors:
            raise CommunicatorError(
                f"rank {self.rank} cannot shrink onto survivors {survivors} "
                "(it is not one of them)"
            )
        with trace_span("shrink", rank=self.rank, survivors=len(survivors)):
            with self._monitor.phase("shrink", self.rank):
                members = tuple(self._members[r] for r in survivors)
                new_gen = self._gen + 1
                self._root.state.bump_gen(new_gen)
                new_world = self._root.shrunk_world(members, new_gen)
                new_comm = ProcComm(new_world, survivors.index(self.rank))
                new_comm._monitor.beat(new_comm.rank)
                self._hand_over(new_comm)
                return new_comm

    def failure_report(self, **kwargs: Any) -> FailureReport:
        """Snapshot the watchdog's view of this world (see FailureReport)."""
        return self._monitor.build_report(**kwargs)

    # -- one sided -----------------------------------------------------------------------

    def win_create(self, nbytes: int) -> Window:
        self._pre("win_create")
        return self.world.create_window(self, nbytes)

    # -- misc ----------------------------------------------------------------------------

    def abort(self, msg: str = "user abort") -> None:
        self._root._ctl.abort(f"rank {self._old_rank}: {msg}")
        raise RuntimeAbort(msg)


class _ShrunkProcWorld:
    """Survivor view over a :class:`ProcessWorld`: same rings, window
    locks and control plane, dense rank numbering over ``members``, one
    generation up.  Built by ``ProcComm.shrink`` (never directly); one
    instance per (members, generation) per process."""

    def __init__(
        self, root: ProcessWorld, members: tuple[int, ...], gen: int
    ) -> None:
        self.root = root
        self.members = tuple(members)
        self.gen = int(gen)
        self.nranks = len(self.members)
        self.timeout = root.timeout
        self.uid = root.uid
        self.suspect_after = root.suspect_after
        #: Injected faults target generation 0 only: the episode is over.
        self.injector = None
        self.state = root.state
        self.rings = root.rings
        self.telemetry = root.telemetry
        self.monitor = ProcMonitor(
            root.state, self.members, suspect_after=root.suspect_after
        )
        self.store = root.store
        self.store_lock = root.store_lock
        self._win_counter = 0
        self._windows: dict[int, tuple[SharedMemory, bool]] = {}
        self._local_pending = None  # unused: ProcComm resolves via root

    # -- delegation ----------------------------------------------------------------------

    def abort(self, reason: str, cause: BaseException | None = None) -> None:
        self.root.abort(reason, cause)

    def abort_reason(self) -> str | None:
        return self.root.abort_reason()

    def check_abort(self) -> None:
        self.root.check_abort()

    @property
    def halted(self) -> bool:
        return (
            self.root.abort_reason() is not None
            or self.state.revoked_reason(self.gen) is not None
        )

    def revoke(self, reason: str) -> None:
        self.state.revoke(reason, self.gen)

    @property
    def revoked(self) -> str | None:
        return self.state.revoked_reason(self.gen)

    def shrunk_world(self, members: tuple[int, ...], gen: int) -> "_ShrunkProcWorld":
        return self.root.shrunk_world(members, gen)

    # -- collective window creation --------------------------------------------------------

    def create_window(self, comm: "ProcComm", nbytes: int) -> Window:
        """Same protocol as the root world's, with a generation-scoped
        arena name and the survivor subset of the fork-shared locks."""
        win_id = self._win_counter
        self._win_counter += 1
        sizes = comm.allgather(max(0, int(nbytes)))
        offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        total = int(offsets[-1])
        name = f"{self.uid}wg{self.gen}x{win_id}"
        if comm.rank == 0:
            shm = SharedMemory(name=name, create=True, size=max(1, total))
            comm.barrier()
        else:
            comm.barrier()  # arena exists after this
            shm = SharedMemory(name=name, create=False)
        base = np.frombuffer(shm.buf, dtype=np.uint8, count=total)
        buffers = [
            base[int(offsets[r]) : int(offsets[r]) + sizes[r]]
            for r in range(self.nranks)
        ]
        self._windows[win_id] = (shm, comm.rank == 0)
        comm.barrier()  # every rank attached before any put flies
        locks = [self.root._win_locks[g] for g in self.members]
        return Window(self, comm, buffers, locks, win_id=win_id)

    def release_window(self, win_id: int) -> None:
        entry = self._windows.pop(win_id, None)
        if entry is None:
            return
        shm, creator = entry
        quiet_close(shm)
        if creator:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass


def run_spmd_proc(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = DEFAULT_TIMEOUT,
    **kwargs: Any,
) -> list[Any]:
    """One-shot helper: build a :class:`ProcessWorld` and run ``fn`` on it."""
    return ProcessWorld(nranks, timeout=timeout).run(fn, *args, **kwargs)
