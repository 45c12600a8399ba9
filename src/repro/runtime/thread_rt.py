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

Failure model: the one both runtimes share (:mod:`repro.runtime.base`,
:mod:`repro.resilience.monitor`), over a private
:class:`~repro.resilience.monitor.ControlState` — no ``/dev/shm`` entry,
no ``multiprocessing`` primitive.  What is the thread runtime's own: a
rank is *gone* when its thread has exited; an injected ``kill`` unwinds
the victim's thread with :class:`~repro.errors.RankKilledError` after
recording the death; a survivor world is a fresh set of mailboxes one
generation up over the same control state.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

import numpy as np

from repro.errors import RankFailureError, RankHungError, RankKilledError
from repro.faults import FaultInjector, FaultPlan
from repro.resilience.monitor import ControlState, FailureReport
from repro.runtime.base import DEFAULT_TIMEOUT, Comm, World
from repro.runtime.mailbox import Envelope, Mailbox
from repro.runtime.window import Window
from repro.telemetry.blackbox import emit_blackbox
from repro.trace import bind_rank as trace_bind_rank

__all__ = ["ThreadWorld", "ThreadComm", "run_spmd"]


class ThreadWorld(World):
    """Shared state of one SPMD execution (mailboxes, windows).

    Pass ``faults`` (a :class:`~repro.faults.FaultPlan` or a prebuilt
    :class:`~repro.faults.FaultInjector`) to run the world under
    deterministic fault injection; ``None`` (the default) leaves every
    transport hook a no-op.  ``suspect_after`` overrides the watchdog's
    silence threshold (default: ``SUSPECT_FRACTION * timeout``).

    A ThreadWorld is multi-shot.  Each :meth:`run` is a new epoch of the
    control state: beacons, done flags, blocked rows, the agreement
    arena and the barrier rows start afresh, and so do the survivor
    worlds.  What a run *concluded* carries over on purpose — the
    failure registry, the abort and revoke words, the recovery
    timeline: a world revoked in one run
    answers :class:`~repro.errors.RevokedError` at the first operation
    of the next, as ULFM keeps a revoked communicator revoked.
    """

    runtime_label = "thread"

    def __init__(
        self,
        nranks: int,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        faults: FaultPlan | FaultInjector | None = None,
        suspect_after: float | None = None,
    ) -> None:
        super().__init__(nranks, timeout, suspect_after)
        self.mailboxes = [Mailbox(r) for r in range(nranks)]
        self._win_lock = threading.Lock()
        self._win_registry: dict[Any, list[Any]] = {}
        self._win_counter: dict[int, int] = {}
        if faults is None or isinstance(faults, FaultInjector):
            self.injector = faults
        else:
            self.injector = FaultInjector(faults)
        #: Original rank -> its thread of the current run (shared with
        #: the survivor worlds: the watchdog asks it who is gone).
        self._threads: dict[int, threading.Thread] = {}
        self._watch(ControlState(nranks))
        #: World-shared key/value store surviving rank death (see
        #: repro.resilience.checkpoint — the "burst buffer").
        self.store: dict[Any, Any] = {}
        self.store_lock = threading.Lock()

    def _gone(self, rank: int) -> str | None:
        thread = self._threads.get(rank)
        if thread is None or thread.ident is None or thread.is_alive():
            return None
        return "thread exited without unwinding"

    def _blackbox(self, report: FailureReport) -> dict[str, Any]:
        return emit_blackbox(
            f"thread-world rank failure: {report.summary()}", failure_report=report
        )

    # -- abort handling ----------------------------------------------------------

    def abort(self, reason: str, cause: BaseException | None = None) -> None:
        """Abort, chaining ``cause`` (the aborting rank's exception) onto
        every peer's :class:`RuntimeAbort`, and wake blocked receivers
        now: the abort word notifies barrier waiters only."""
        root = self.root
        if self.abort_reason() is None:
            root._abort_cause = cause
        super().abort(reason)
        with root._shrink_lock:  # a peer may be shrinking right now
            worlds = (root, *root._shrunk.values())
        for world in worlds:
            for mb in world.mailboxes:
                mb.kick()

    # -- collective window creation ------------------------------------------------

    def create_window(self, comm: "ThreadComm", nbytes: int) -> Window:
        """Collective: every rank contributes its exposed buffer size.

        Each rank holds the entry it filled in, not its registry key: a
        peer past the synchronisation may release the window (it ended,
        or died) before a slower rank looks it up.
        """
        rank = comm.rank
        with self._win_lock:
            win_id = self._win_counter.get(rank, 0)
            self._win_counter[rank] = win_id + 1
            buffers = self._win_registry.setdefault(win_id, [None] * self.nranks)
            buffers[rank] = np.zeros(max(0, int(nbytes)), dtype=np.uint8)
            locks = self._win_registry.setdefault(
                ("locks", win_id), [threading.Lock() for _ in range(self.nranks)]
            )
        comm._sync()  # all contributions visible
        return Window(self, comm, list(buffers), locks, win_id=win_id)

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

    def _survivor_world(self, members: tuple[int, ...], gen: int) -> "ThreadWorld":
        """Fresh mailboxes for the survivor count, no fault plan (the
        injected episode is over), over this world's
        control state, threads and burst-buffer store — checkpoints
        written before the failure stay reachable."""
        world = ThreadWorld(len(members), timeout=self.timeout, suspect_after=self.suspect_after)
        world.root, world.members, world.gen = self, members, gen
        world._threads = self._threads
        world._watch(self.state)
        world.store, world.store_lock = self.store, self.store_lock
        return world

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

        def body(rank: int) -> None:
            comm = ThreadComm(self, rank)
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
                self.monitor.mark_done(rank)
                # Whatever the kernel cached on its communicator (a plan's
                # window) must not outlive the run in this world's registry.
                comm.release()

        threads = [
            threading.Thread(target=body, args=(r,), name=f"spmd-rank-{r}", daemon=True)
            for r in range(self.nranks)
        ]
        # A new epoch: the last run's survivor worlds retire, the
        # watchdog learns the new threads (not yet started is not gone)
        # and is armed before the first of them can scan.
        self._shrunk.clear()
        self._threads.clear()
        self._threads.update(enumerate(threads))
        self.monitor.start()
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
            rank, exc = self._root_cause(errors)
            emit_blackbox(f"thread-world abort: rank {rank} raised {type(exc).__name__}")
            raise exc
        return results


class ThreadComm(Comm):
    """Per-thread communicator handle: mailbox transport."""

    world: ThreadWorld

    def _kill_self(self, op: str) -> None:
        """Injected ``kill``: record the death, revoke, unwind this thread."""
        me = self._me
        self._watchdog.declare_failed(
            self.rank, "kill", f"injected kill at {op}", classification="dead"
        )
        self._state.revoke(f"rank {me} killed at {op}", self._gen)
        raise RankKilledError(
            f"rank {me} killed by fault injection at {op}", report=self.failure_report()
        )

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

    def _match(self, source: int, tag: int, limit: float) -> np.ndarray:
        mailbox = self.world.mailboxes[self.rank]
        return mailbox.match(source, tag, limit, poll=self._progress).payload

    def _probe(self, source: int, tag: int) -> bool:
        self.world.check_abort()
        return self.world.mailboxes[self.rank].peek(source, tag)


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
