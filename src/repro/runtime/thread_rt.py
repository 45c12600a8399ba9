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

The substrate is the one :class:`~repro.runtime.base.World` writes for
both launchers — rings, window arenas and checkpoints in a segment
namespace — over :class:`~repro.runtime.shm.Segments`, private
anonymous mappings, and a private
:class:`~repro.resilience.monitor.ControlState`: no ``/dev/shm`` entry,
no ``multiprocessing`` primitive.  What is the thread launcher's own: a
rank is *gone* when its thread has exited; an injected ``kill`` unwinds
the victim's thread with :class:`~repro.errors.RankKilledError` after
recording the death.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.errors import RankFailureError, RankHungError, RankKilledError
from repro.faults import FaultInjector, FaultPlan
from repro.resilience.monitor import ControlState
from repro.runtime.base import DEFAULT_TIMEOUT, Comm, World
from repro.runtime.shm import DEFAULT_RING_CAPACITY, Segments, make_uid
from repro.telemetry import bind
from repro.trace import bind_rank as trace_bind_rank

__all__ = ["ThreadWorld", "run_spmd"]


class ThreadWorld(World):
    """The thread launcher of one SPMD execution.

    Pass ``faults`` (a :class:`~repro.faults.FaultPlan` or a prebuilt
    :class:`~repro.faults.FaultInjector`) to run the world under
    deterministic fault injection; ``None`` (the default) leaves every
    transport hook a no-op.  ``suspect_after`` overrides the watchdog's
    silence threshold (default: ``SUSPECT_FRACTION * timeout``).

    A ThreadWorld is multi-shot.  Each :meth:`run` is a new epoch of the
    control state: beacons, done flags, blocked rows, the agreement
    arena and the barrier rows start afresh, and so do the survivor
    worlds and the flight ring's live rows.  What a run *concluded*
    carries over on purpose — the failure registry, the abort and revoke
    words, the recovery timeline, the ring's events: a world revoked in
    one run answers :class:`~repro.errors.RevokedError` at the first
    operation of the next, as ULFM keeps a revoked communicator revoked.
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
        if faults is None or isinstance(faults, FaultInjector):
            self.injector = faults
        else:
            self.injector = FaultInjector(faults)
        #: Original rank -> its thread of the current run (shared with
        #: the survivor worlds: the watchdog asks it who is gone).
        self._threads: dict[int, threading.Thread] = {}
        self._watch(ControlState(nranks))
        self.uid = make_uid()
        self.segments = Segments()
        self._lay_out(DEFAULT_RING_CAPACITY)

    def _gone(self, rank: int) -> str | None:
        thread = self._threads.get(rank)
        if thread is None or thread.ident is None or thread.is_alive():
            return None
        return "thread exited without unwinding"

    def _kill(self, comm: Comm, op: str) -> None:
        """Injected ``kill``: record the death, revoke, unwind this thread."""
        me = comm._me
        comm._watchdog.declare_failed(
            comm.rank, "kill", f"injected kill at {op}", classification="dead"
        )
        self.state.revoke(f"rank {me} killed at {op}", comm._gen)
        raise RankKilledError(
            f"rank {me} killed by fault injection at {op}", report=comm.failure_report()
        )

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
        ok = [False] * self.nranks
        errors: list[tuple[int, BaseException]] = []
        err_lock = threading.Lock()

        def body(rank: int) -> None:
            comm = Comm(self, rank)
            trace_bind_rank(rank)  # spans on this thread attribute to its rank
            bind(self.flight)
            try:
                results[rank] = fn(comm, *args, **kwargs)
                ok[rank] = True
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
        # A new epoch: the last run's survivor worlds retire and the
        # watchdog is armed before the first thread can scan.  It learns
        # a thread only once ``start()`` has returned: a thread that has
        # its ident but is not yet marked started reads as not alive, so
        # a peer scanning then would declare it dead.
        self._shrunk.clear()
        self._threads.clear()
        prev = self._open_flight()
        stuck = None
        try:
            self.monitor.start()
            for rank, t in enumerate(threads):
                t.start()
                self._threads[rank] = t
            for rank, t in enumerate(threads):
                t.join(timeout=self.timeout * 2)
                if t.is_alive():
                    # Last resort: declare the laggard dead, revoke (frees
                    # hang-parked threads), and give it a beat to unwind.
                    self.declare_failed(rank, "timeout", "failed to finish before join deadline")
                    t.join(timeout=max(1.0, self.timeout * 0.5))
                    if t.is_alive():
                        self.abort("join timeout")
                        stuck = t
                        break
        finally:
            self._close_flight(prev, recovered=self.injector is not None and any(ok))
        if stuck is not None:
            exc = RankFailureError(
                f"{stuck.name} failed to finish (deadlock?)",
                report=self.monitor.build_report(detail="join timeout"),
            )
            exc.blackbox = self.last_blackbox  # type: ignore[attr-defined]
            raise exc
        if errors:
            rank, exc = self._root_cause(errors)
            raise exc
        return results


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
