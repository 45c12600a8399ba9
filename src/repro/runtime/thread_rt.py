"""Thread-based SPMD runtime: every rank is a Python thread.

This is the testing substrate for the communication *algorithms*
(pairwise ring, OSC ring, compression pipeline): real concurrency, real
blocking semantics, real data movement through shared memory.  NumPy
copies release the GIL, so ranks genuinely overlap on large buffers.

Usage::

    def kernel(comm, n):
        data = np.full(n, comm.rank, dtype=np.float64)
        return comm.alltoallv([data] * comm.size)

    results = run_spmd(4, kernel, 1024)   # list of per-rank returns

Failure model (``repro.resilience``): every transport operation beacons
the rank's liveness to a :class:`~repro.resilience.monitor.HeartbeatMonitor`
and consults the fault injector for ``kill``/``hang`` process faults.
Blocked operations (recv, barrier, fences) wait in quanta and run the
watchdog each quantum, so a dead or wedged peer is detected, classified
(straggler / dead / deadlock) and broadcast as a *revocation* — every
blocked rank wakes with :class:`~repro.errors.RevokedError` within one
quantum instead of timing out independently.  Survivors then run the
ULFM-style recovery sequence: :meth:`ThreadComm.agree` for a consistent
liveness view, :meth:`ThreadComm.shrink` for a working communicator over
the survivors.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from typing import Any, Callable

import numpy as np

from repro.errors import (
    CommunicatorError,
    RankFailureError,
    RankHungError,
    RankKilledError,
    RevokedError,
    RuntimeAbort,
    StallError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.resilience.agreement import AgreementSpace, bitmap_ranks
from repro.resilience.monitor import FailureReport, HeartbeatMonitor, RevocableBarrier
from repro.runtime.base import ANY_SOURCE, ANY_TAG, Comm, Request
from repro.runtime.mailbox import Envelope, Mailbox
from repro.runtime.window import Window
from repro.telemetry.blackbox import emit_blackbox
from repro.trace import bind_rank as trace_bind_rank
from repro.trace import get_tracer as trace_get_tracer
from repro.trace import span as trace_span

__all__ = ["ThreadWorld", "ThreadComm", "run_spmd"]

#: Default blocking-op timeout — generous, but converts deadlocks into errors.
DEFAULT_TIMEOUT = 120.0

#: Fraction of the blocking-op timeout after which a silent rank is
#: declared dead.  Detection must land *well before* peers would have
#: timed out on their own (and far under the 2x join deadline).
SUSPECT_FRACTION = 0.25


class ThreadWorld:
    """Shared state of one SPMD execution (mailboxes, barrier, windows).

    Pass ``faults`` (a :class:`~repro.faults.FaultPlan` or a prebuilt
    :class:`~repro.faults.FaultInjector`) to run the world under
    deterministic fault injection; ``None`` (the default) leaves every
    transport hook a no-op.  ``suspect_after`` overrides the watchdog's
    silence threshold (default: ``SUSPECT_FRACTION * timeout``).
    """

    def __init__(
        self,
        nranks: int,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        faults: FaultPlan | FaultInjector | None = None,
        suspect_after: float | None = None,
    ) -> None:
        if nranks < 1:
            raise CommunicatorError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        self.timeout = timeout
        self.mailboxes = [Mailbox(r) for r in range(nranks)]
        self._barrier = RevocableBarrier(nranks)
        self._win_lock = threading.Lock()
        self._win_registry: dict[Any, list[Any]] = {}
        self._win_counter: dict[int, int] = {}
        self._abort_reason: str | None = None
        self._abort_cause: BaseException | None = None
        if faults is None or isinstance(faults, FaultInjector):
            self.injector = faults
        else:
            self.injector = FaultInjector(faults)
        if suspect_after is None:
            suspect_after = max(0.05, SUSPECT_FRACTION * timeout)
        self.monitor = HeartbeatMonitor(nranks, suspect_after=suspect_after)
        self.agreement = AgreementSpace(nranks)
        self._revoke_lock = threading.Lock()
        self._revoked: str | None = None
        self._hang_release = threading.Event()
        self._shrink_lock = threading.Lock()
        # Keyed on (survivor set, run epoch): a ThreadWorld is multi-shot,
        # and a failure episode in a later run() must not resurrect the
        # shrunk world (stale mailboxes, finished monitor) of an earlier
        # run that happened to lose the same ranks.
        self._shrunk: dict[tuple[tuple[int, ...], int], "ThreadWorld"] = {}
        self._epoch = 0
        self._detect_traced: set[int] = set()
        #: World-shared key/value store surviving rank death (see
        #: repro.resilience.checkpoint — the "burst buffer").
        self.store: dict[Any, Any] = {}
        self.store_lock = threading.Lock()

    # -- abort handling ----------------------------------------------------------

    def abort(self, reason: str, cause: BaseException | None = None) -> None:
        """Poison every blocking primitive so all ranks unwind promptly."""
        if self._abort_reason is None:
            self._abort_reason = reason
            self._abort_cause = cause
        self._barrier.abort()
        self._hang_release.set()
        for mb in self.mailboxes:
            mb.abort(reason, cause)

    def check_abort(self) -> None:
        if self._abort_reason is not None:
            if self._abort_cause is not None:
                raise RuntimeAbort(self._abort_reason) from self._abort_cause
            raise RuntimeAbort(self._abort_reason)

    # -- failure detection & revocation --------------------------------------------

    @property
    def halted(self) -> bool:
        """True once the world is aborted or revoked (no new collectives)."""
        return self._abort_reason is not None or self._revoked is not None

    def revoke(self, reason: str) -> None:
        """ULFM-style revocation: wake every blocked rank promptly.

        Unlike :meth:`abort`, the world stays *usable for recovery*:
        mailboxes are kicked, not poisoned, and :meth:`ThreadComm.agree`
        / :meth:`ThreadComm.shrink` keep working.  Idempotent; the first
        reason wins.
        """
        with self._revoke_lock:
            if self._revoked is None:
                self._revoked = reason
        self._hang_release.set()
        self._barrier.abort()
        for mb in self.mailboxes:
            mb.kick()

    @property
    def revoked(self) -> str | None:
        return self._revoked

    def check_revoked(self) -> None:
        if self._revoked is not None:
            raise RevokedError(
                f"communicator revoked: {self._revoked}",
                report=self.monitor.build_report(detail=self._revoked),
            )

    def _trace_detect(self, failure: Any) -> None:
        """Record the detection window (last beacon -> verdict) as a span.

        The interval is only known in hindsight, so it goes through
        :meth:`Tracer.record_span` rather than a context manager; deduped
        per rank since declarations are idempotent.
        """
        with self._revoke_lock:
            if failure.rank in self._detect_traced:
                return
            self._detect_traced.add(failure.rank)
        tracer = trace_get_tracer()
        if tracer is not None:
            tracer.record_span(
                "detect",
                failure.rank,
                duration_ns=int(failure.last_beat_age * 1e9),
                failure_kind=failure.kind,
                classification=failure.classification,
            )

    def declare_failed(self, rank: int, kind: str, detail: str = "") -> None:
        """Record a rank death and revoke the world so peers wake."""
        failure = self.monitor.declare_failed(rank, kind, detail)
        self._trace_detect(failure)
        self.revoke(
            f"rank {rank} {kind} ({failure.classification})"
            + (f": {detail}" if detail else "")
        )

    def poll_rank(self, rank: int, *, recovery: bool = False) -> None:
        """Per-quantum callback for rank ``rank``'s blocked waits.

        Beacons liveness, runs the watchdog (newly detected deaths
        revoke the world), then surfaces abort/revocation — except in
        ``recovery`` mode, where agree/shrink must keep progressing on a
        revoked world.
        """
        self.monitor.beat(rank)
        for failure in self.monitor.poll():
            self._trace_detect(failure)
            self.revoke(
                f"rank {failure.rank} declared {failure.classification} "
                f"({failure.kind}): {failure.detail}"
            )
        if not recovery:
            self.check_abort()
            self.check_revoked()

    # -- process-fault endpoints (called on the victim's own thread) ------------------

    def kill_rank(self, rank: int, op: str) -> None:
        """Terminate ``rank`` now: record the death, revoke, unwind."""
        failure = self.monitor.declare_failed(
            rank, "kill", f"injected kill at {op}", classification="dead"
        )
        self._trace_detect(failure)
        self.revoke(f"rank {rank} killed at {op}")
        raise RankKilledError(
            f"rank {rank} killed by fault injection at {op}",
            report=self.monitor.build_report(),
        )

    def hang_rank(self, rank: int, op: str) -> None:
        """Wedge ``rank``: stop beaconing and park until peers revoke.

        The thread makes no progress and sends no beacons, so the
        watchdog running on *blocked peers* declares it dead (silence >
        ``suspect_after``, classification ``deadlock``) and revokes the
        world — which sets the release event and lets the wedged thread
        unwind with :class:`RankHungError`.
        """
        released = self._hang_release.wait(timeout=self.timeout * 2)
        detail = f"injected hang at {op}"
        if not released:
            detail += " (never detected: no peer polled the watchdog)"
        self._trace_detect(self.monitor.declare_failed(rank, "hang", detail))
        raise RankHungError(
            f"rank {rank} wedged by fault injection at {op}",
            report=self.monitor.build_report(),
        )

    # -- barrier ---------------------------------------------------------------------

    def barrier_wait(self, rank: int | None = None) -> None:
        self.check_abort()
        self.check_revoked()
        poll = None if rank is None else (lambda: self.poll_rank(rank))
        blocked = (
            nullcontext() if rank is None else self.monitor.blocked(rank, "barrier")
        )
        with blocked:
            try:
                self._barrier.wait(timeout=self.timeout, poll=poll)
            except threading.BrokenBarrierError:
                self.check_abort()
                self.check_revoked()
                raise CommunicatorError(
                    "barrier broken (timeout or aborted peer)"
                ) from None

    # -- collective window creation ------------------------------------------------

    def create_window(self, comm: "ThreadComm", nbytes: int) -> Window:
        """Collective: every rank contributes its exposed buffer size."""
        rank = comm.rank
        with self._win_lock:
            win_id = self._win_counter.get(rank, 0)
            self._win_counter[rank] = win_id + 1
            slot = self._win_registry.setdefault(win_id, [None] * self.nranks)
            slot[rank] = np.zeros(max(0, int(nbytes)), dtype=np.uint8)
        self.barrier_wait(rank)  # all contributions visible
        with self._win_lock:
            entry = self._win_registry[win_id]
            buffers = list(entry)
            locks_key = ("locks", win_id)
            locks = self._win_registry.get(locks_key)  # type: ignore[arg-type]
            if locks is None:
                locks = [threading.Lock() for _ in range(self.nranks)]
                self._win_registry[locks_key] = locks  # type: ignore[index]
        return Window(self, comm, buffers, locks, win_id=win_id)

    def release_window(self, win_id: int) -> None:
        """Deregister a freed window's buffers and locks (idempotent).

        Called by :meth:`Window.free` on every rank after its closing
        barrier, so no rank can still be touching the entries.  Without
        this the registry leaked every buffer and per-window lock for
        the lifetime of the world.
        """
        with self._win_lock:
            self._win_registry.pop(win_id, None)
            self._win_registry.pop(("locks", win_id), None)

    # -- shrink (ULFM MPIX_Comm_shrink analogue) --------------------------------------

    def shrunk_world(self, survivors: tuple[int, ...]) -> "ThreadWorld":
        """The (cached) replacement world over ``survivors``.

        Every survivor asking for the same tuple *within one run* gets
        the *same* world — fresh mailboxes, a barrier sized to the
        survivor count, no fault plan (the injected episode is over),
        and an armed monitor.  The cache key includes the run epoch so
        a repeat failure episode in a later ``run()`` builds a fresh
        world instead of reusing one with stale state.
        """
        with self._shrink_lock:
            key = (survivors, self._epoch)
            world = self._shrunk.get(key)
            if world is None:
                world = ThreadWorld(len(survivors), timeout=self.timeout, faults=None)
                world.monitor.start()
                # Survivors share the parent's burst-buffer store so
                # checkpoints written before the failure stay reachable.
                world.store = self.store
                world.store_lock = self.store_lock
                self._shrunk[key] = world
            return world

    def mark_rank_done(self, rank: int) -> None:
        """Exempt ``rank`` from the watchdog in this world and any shrunk
        descendants it survived into (its thread is about to exit; that
        must not read as a crash to peers still finishing)."""
        self.monitor.mark_done(rank)
        with self._shrink_lock:
            shrunk = list(self._shrunk.items())
        for (survivors, _epoch), world in shrunk:
            if rank in survivors:
                world.mark_rank_done(survivors.index(rank))

    # -- execution -------------------------------------------------------------------

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> list[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank; gather returns.

        The first exception raised by any rank aborts the world and is
        re-raised (with rank annotation) in the caller.  Injected rank
        deaths (:class:`RankKilledError` / :class:`RankHungError`) are
        *expected* terminal failures: the victim's slot is ``None`` and
        the world is revoked, not aborted — survivors may recover.  If
        nobody recovers, the caller gets a :class:`RankFailureError`
        carrying the watchdog's :class:`FailureReport` instead of an
        opaque timeout.
        """
        results: list[Any] = [None] * self.nranks
        errors: list[tuple[int, BaseException]] = []
        err_lock = threading.Lock()
        self._epoch += 1  # new run = new shrink-cache generation
        self.monitor.start()

        def body(rank: int) -> None:
            comm = ThreadComm(self, rank)
            self.monitor.register_thread(rank, threading.current_thread())
            trace_bind_rank(rank)  # spans on this thread attribute to its rank
            try:
                results[rank] = fn(comm, *args, **kwargs)
            except (RankKilledError, RankHungError):
                # Expected death: already recorded + revoked; survivors
                # decide whether to recover.  The victim returns nothing.
                results[rank] = None
            except BaseException as exc:  # noqa: BLE001 - must not hang peers
                with err_lock:
                    errors.append((rank, exc))
                self.abort(f"rank {rank} raised {type(exc).__name__}: {exc}", cause=exc)
            finally:
                # However this rank leaves, its thread is exiting on
                # purpose — the watchdog must not read the exit (or the
                # ensuing beacon silence) as a crash.  Injected deaths
                # are already in the failure registry and keep priority.
                self.mark_rank_done(rank)
                # Whatever the kernel cached on its communicator (a plan's
                # window) must not outlive the run in this world's registry.
                comm.release()

        threads = [
            threading.Thread(target=body, args=(r,), name=f"spmd-rank-{r}", daemon=True)
            for r in range(self.nranks)
        ]
        for t in threads:
            t.start()
        for rank, t in enumerate(threads):
            t.join(timeout=self.timeout * 2)
            if t.is_alive():
                # Last resort: declare the laggard dead, revoke (frees
                # hang-parked threads), and give it a beat to unwind.
                self.declare_failed(rank, "timeout", "failed to finish before join deadline")
                t.join(timeout=max(1.0, self.timeout * 0.5))
                if t.is_alive():
                    self.abort("join timeout")
                    report = self.monitor.build_report(detail="join timeout")
                    exc = RankFailureError(
                        f"{t.name} failed to finish (deadlock?)", report=report
                    )
                    exc.blackbox = emit_blackbox(  # type: ignore[attr-defined]
                        f"thread-world join timeout: {t.name}", failure_report=report
                    )
                    raise exc
        if errors:
            # An aborting rank makes its peers unwind with RuntimeAbort /
            # revocation / broken-barrier errors; surface the *root
            # cause* instead of whichever echo happened to come from the
            # lowest rank.
            def is_echo(exc: BaseException) -> bool:
                return isinstance(exc, (RuntimeAbort, RevokedError)) or (
                    isinstance(exc, CommunicatorError) and "barrier broken" in str(exc)
                )

            originals = [(r, e) for r, e in errors if not is_echo(e)]
            if not originals and self.monitor.failures():
                # Every error is an echo of an injected rank death that
                # nobody recovered from: report the failure structurally.
                report = self.monitor.build_report(detail="no recovery attempted")
                exc = RankFailureError(report.summary(), report=report)
                exc.blackbox = emit_blackbox(  # type: ignore[attr-defined]
                    f"thread-world rank failure: {report.summary()}",
                    failure_report=report,
                )
                raise exc
            rank, exc = sorted(originals or errors, key=lambda e: e[0])[0]
            emit_blackbox(f"thread-world abort: rank {rank} raised {type(exc).__name__}")
            raise exc
        return results


class ThreadComm(Comm):
    """Per-thread communicator handle."""

    def __init__(self, world: ThreadWorld, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.nranks

    # -- transport preamble ----------------------------------------------------------

    def _pre(self, op: str, peer: int | None = None) -> None:
        """Run before every transport operation: beacon, check, inject.

        This is where process faults land: a matching ``kill`` rule
        unwinds this rank immediately, a ``hang`` rule parks it (no
        beacons, no progress) until the watchdog-driven revocation
        releases it.
        """
        world = self.world
        world.monitor.beat(self.rank)
        world.check_abort()
        world.check_revoked()
        injector = world.injector
        if injector is not None:
            action = injector.fail_action(self.rank, op)
            if action == "kill":
                world.kill_rank(self.rank, op)
            elif action == "hang":
                world.hang_rank(self.rank, op)

    # -- point to point -------------------------------------------------------------

    def send(self, data: np.ndarray, dest: int, tag: int = 0) -> None:
        self._check_rank(dest)
        self._pre("send", dest)
        payload = np.ascontiguousarray(data).copy()  # buffered semantics
        injector = self.world.injector
        if injector is not None:
            delay = injector.straggle_delay(self.rank)
            if delay > 0.0:
                time.sleep(delay)
            action = injector.p2p_action(self.rank, dest, tag)
            if action == "drop":
                return
            self.world.mailboxes[dest].post(Envelope(self.rank, tag, payload))
            if action == "duplicate":
                self.world.mailboxes[dest].post(Envelope(self.rank, tag, payload.copy()))
            return
        self.world.mailboxes[dest].post(Envelope(self.rank, tag, payload))

    def _matched_recv(
        self, source: int, tag: int, timeout: float | None
    ) -> np.ndarray:
        """Shared blocking-receive core for recv and irecv completion.

        ``timeout=None`` means the world default (a caller-supplied
        ``0`` is honoured as an immediate deadline, not swallowed).  A
        deadline miss is re-raised as a :class:`StallError` carrying the
        watchdog's classification of the awaited peer and the current
        :class:`FailureReport`.
        """
        world = self.world
        limit = world.timeout if timeout is None else timeout
        peer = None if source == ANY_SOURCE else source
        with world.monitor.blocked(self.rank, "recv", peer, tag):
            try:
                env = world.mailboxes[self.rank].match(
                    source, tag, limit, poll=lambda: world.poll_rank(self.rank)
                )
            except StallError as exc:
                exc.report = world.monitor.build_report(detail=str(exc))
                if peer is not None:
                    exc.classification = world.monitor.classify(peer)
                raise
        return env.payload

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
        self.send(data, dest, tag)  # eager buffered: completes on post
        return Request.completed()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        if source != ANY_SOURCE:
            self._check_rank(source)
        self._pre("irecv", None if source == ANY_SOURCE else source)

        def complete(timeout: float | None) -> np.ndarray:
            # The caller's wait(timeout) is honoured verbatim — 0 is a
            # valid immediate deadline, only None falls back to the
            # world default (previously `timeout or world.timeout`
            # silently discarded both).
            return self._matched_recv(source, tag, timeout)

        mailbox = self.world.mailboxes[self.rank]
        return Request(complete, probe=lambda: mailbox.peek(source, tag))

    # -- collectives ------------------------------------------------------------------

    def barrier(self) -> None:
        self._pre("barrier")
        self.world.barrier_wait(self.rank)

    # -- one sided ---------------------------------------------------------------------

    def win_create(self, nbytes: int) -> Window:
        self._pre("win_create")
        return self.world.create_window(self, nbytes)

    # -- failure handling (ULFM analogues) -----------------------------------------------

    def revoke(self, reason: str = "revoked by application") -> None:
        """Revoke the communicator (``MPIX_Comm_revoke``)."""
        self.world.revoke(f"rank {self.rank}: {reason}")
        self.release()

    def agree(self, bitmap: int | None = None) -> int:
        """Fault-aware agreement on a liveness bitmap (``MPIX_Comm_agree``).

        Contributes this rank's view (default: the watchdog's) and
        returns the decided bitmap — identical on every survivor.
        Usable on a revoked world; that is its purpose.
        """
        world = self.world
        if bitmap is None:
            bitmap = world.monitor.alive_bitmap()
        round_no = world.agreement.next_round(self.rank)
        with trace_span("agree", rank=self.rank, round=round_no):
            with world.monitor.phase("agree", self.rank), world.monitor.blocked(
                self.rank, "agree"
            ):
                return world.agreement.agree(
                    self.rank,
                    round_no,
                    bitmap,
                    dead_ranks=world.monitor.absent_ranks,
                    poll=lambda: world.poll_rank(self.rank, recovery=True),
                    timeout=world.timeout,
                )

    def shrink(self, survivors: tuple[int, ...] | None = None) -> "ThreadComm":
        """Build a working communicator over the survivors (``MPIX_Comm_shrink``).

        Without an explicit survivor set, runs :meth:`agree` first so
        every caller shrinks to the *same* world.  Returns a new
        :class:`ThreadComm` whose rank is this rank's index among the
        survivors (ranks are dense again; ring permutations recompute
        from the new size).
        """
        world = self.world
        if survivors is None:
            survivors = bitmap_ranks(self.agree(), self.size)
        survivors = tuple(sorted(survivors))
        if self.rank not in survivors:
            raise CommunicatorError(
                f"rank {self.rank} cannot shrink onto survivors {survivors} "
                "(it is not one of them)"
            )
        with trace_span("shrink", rank=self.rank, survivors=len(survivors)):
            with world.monitor.phase("shrink", self.rank):
                new_world = world.shrunk_world(survivors)
                new_rank = survivors.index(self.rank)
                new_world.monitor.register_thread(new_rank, threading.current_thread())
                new_world.monitor.beat(new_rank)
                new_comm = ThreadComm(new_world, new_rank)
                # Survivor map in *original-world* ranks (composes
                # across repeated shrinks) — lets topology-aware layers
                # keep node placement for the survivors.
                new_comm._parent_ranks = tuple(self.parent_ranks[r] for r in survivors)
                self._hand_over(new_comm)
                return new_comm

    def failure_report(self, **kwargs: Any) -> FailureReport:
        """Snapshot the watchdog's view of this world (see FailureReport)."""
        return self.world.monitor.build_report(**kwargs)

    # -- misc ---------------------------------------------------------------------------

    def abort(self, msg: str = "user abort") -> None:
        self.world.abort(f"rank {self.rank}: {msg}")
        raise RuntimeAbort(msg)


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = DEFAULT_TIMEOUT,
    faults: FaultPlan | FaultInjector | None = None,
    **kwargs: Any,
) -> list[Any]:
    """One-shot helper: build a :class:`ThreadWorld` and run ``fn`` on it."""
    return ThreadWorld(nranks, timeout=timeout, faults=faults).run(fn, *args, **kwargs)
