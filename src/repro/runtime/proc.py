"""Process-based SPMD runtime: every rank is a real OS process.

Thread ranks share one GIL, so their local FFT / compress phases
serialize.  :class:`ProcessWorld` runs each rank in a forked child over
the substrate :class:`~repro.runtime.base.World` writes for both
launchers — one ring per rank, window arenas, checkpoints — in a
namespace of POSIX shared-memory segments
(:class:`~repro.runtime.shm.ShmSegments`, named ``{uid}{name}``, under
fork-shared locks), so those phases genuinely overlap.

Ranks are forked, not spawned: kernels are closures over NumPy arrays,
which fork inherits (with the fork-shared locks, which cannot be
created after the fact) and the ``spawn`` pickler cannot move.  Under
an installed tracer each child records into a fresh
:class:`~repro.trace.core.Tracer`, whose records ride home with its
result on the result pipe and are absorbed by the parent's
(CLOCK_MONOTONIC timestamps land on the parent timeline); a SIGKILLed
rank's records die with it — what survives a kill is its share of the
flight ring, segment ``t``.  A
:class:`ProcessWorld` is **one-shot**: after its ``run`` the parent
reaps the children (join → terminate → kill) and sweeps every
uid-prefixed segment, leak-clean even after failures; a child's
exception is re-raised with ``.rank`` and its traceback as a note.

What is the process launcher's own: the
:class:`~repro.resilience.monitor.ControlState` lives in segment ``s``
under a fork-shared condition, so it survives any rank's death and the
parent reads it post-mortem; a rank is *gone* when its pid is (or is a
zombie); an injected ``kill`` is a real ``SIGKILL`` to the victim's own
pid.  Fault plans are supported for the *process* kinds only;
message-level kinds raise :class:`~repro.errors.UnsupportedFaultError`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import time
import traceback
import weakref
from typing import Any, Callable

from repro.errors import (
    CommunicatorError,
    RankHungError,
    RankKilledError,
    UnsupportedFaultError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import PROCESS_FAULT_KINDS
from repro.resilience.monitor import ControlState
from repro.runtime.base import DEFAULT_TIMEOUT, Comm, World
from repro.runtime.shm import (
    DEFAULT_RING_CAPACITY,
    Mapping,
    ShmRing,
    ShmSegments,
    fork_available,
    make_uid,
    pid_alive,
    sweep_segments,
)
from repro.telemetry import arm_signal_dump, bind, disarm_signal_dump, emit
from repro.telemetry.shmseg import remove_runfile, write_runfile
from repro.trace.core import Tracer
from repro.trace.core import get_tracer as trace_get_tracer
from repro.trace.core import install as trace_install

__all__ = ["ProcessWorld"]


def _cleanup_segments(
    owner_pid: int,
    uid: str,
    rings: list[ShmRing],
    mappings: list[Mapping],
    state: ControlState,
) -> None:
    """Parent-side teardown; a no-op in forked children.

    Registered as a GC finalizer too, and fork copies the finalizer
    registry — the pid guard keeps an exiting child from unlinking
    segments the parent is still using.
    """
    if os.getpid() != owner_pid:
        return
    for ring in rings:
        ring.detach()
    # The parent reads the registry and the timeline after the unlink.
    state.freeze()
    for mapping in mappings:
        mapping.close()
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
) -> None:
    """Entry point of one forked rank."""
    world._child_rank = rank
    world.state.set_pid(rank, os.getpid())
    # The fork copied the parent's tracer and its records; this rank
    # records into a fresh one, whose records ride home with the result.
    tracer = Tracer() if trace_get_tracer() is not None else None
    trace_install(tracer)
    if tracer is not None:
        tracer.bind_rank(rank)
    # Events recorded by this rank land in the world's flight ring, where
    # the parent reads them even after this process dies.
    bind(world.flight)
    emit("start", rank)
    comm = Comm(world, rank)
    try:
        result = fn(comm, *args, **kwargs)
        # Done *before* the result crosses the pipe: a cleanly-finished
        # rank's exit must not read as a crash to peers still working.
        world.state.mark_done(rank)
        payload = ("ok", rank, result)
        emit("done", rank)
    except (RankKilledError, RankHungError):
        # Expected death (injected fault): already in the failure
        # registry, world revoked — survivors decide whether to recover.
        payload = ("died", rank, None)
        emit("failed", rank)
    except BaseException as exc:  # noqa: BLE001 - must not hang peers
        world.abort(f"rank {rank} raised {type(exc).__name__}: {exc}")
        payload = _encode_error(rank, exc)
        emit("abort", rank, detail=f"{type(exc).__name__}: {exc}")
    comm.release()  # arenas the kernel left cached on its communicator
    records = b""
    if tracer is not None:
        try:
            records = pickle.dumps(tracer.records())
        except Exception:  # noqa: BLE001 - tracing must never kill a rank
            pass  # an attribute that does not pickle loses this rank's trace
    unpicklable = ("err", rank, None, f"rank {rank}: kernel return value is not picklable")
    for message in (payload, unpicklable):
        try:
            conn.send((message, records))
            break
        except Exception:  # noqa: BLE001 - e.g. an unpicklable kernel return value
            continue
    conn.close()


class ProcessWorld(World):
    """The process launcher of one SPMD execution.

    The same surface as :class:`~repro.runtime.thread_rt.ThreadWorld`
    (``run``, ``timeout``, ``halted``, ``injector``, ``monitor``, ULFM
    recovery via ``comm.agree``/``shrink``); fault plans are accepted
    for the process kinds (``kill``/``hang``) and delivered to real
    child pids.
    """

    runtime_label = "proc"

    def __init__(
        self,
        nranks: int,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        faults: Any = None,
        suspect_after: float | None = None,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
    ) -> None:
        super().__init__(nranks, timeout, suspect_after)
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
        self.uid = make_uid()
        self._ctx = mp.get_context("fork")
        self.segments = ShmSegments(self.uid, self._ctx)
        #: The control plane in segment ``s``: beacons, pids, failure
        #: registry, abort word, generational revocation, agreement
        #: arena, barrier rows, timeline.
        state_seg = self.segments.create("s", ControlState.nbytes(nranks))
        self._watch(ControlState(nranks, memoryview(state_seg.buf), self._ctx.Condition()))
        # Fork-shared locks cannot be created after the fork: the rings'
        # and the window locks are provisioned here.  The flight ring,
        # ``{uid}t``, takes none: each process locks its own writes.
        segs = self._lay_out(ring_capacity)
        self._child_rank: int | None = None
        self._spawned = False
        self._closed = False
        self._owner_pid = os.getpid()
        try:  # how ``python -m repro monitor`` finds the flight ring
            write_runfile(self.uid, {"nranks": nranks})
        except OSError:  # pragma: no cover - unwritable tempdir
            pass
        self._cleanup = (
            self._owner_pid,
            self.uid,
            self.rings,
            [state_seg, *segs],
            self.state,
        )
        self._finalizer = weakref.finalize(self, _cleanup_segments, *self._cleanup)

    def _gone(self, rank: int) -> str | None:
        pid = self.state.pid(rank)
        if pid and not pid_alive(pid):
            return f"process died (pid {pid} gone)"
        return None

    def _kill(self, comm: Comm, op: str) -> None:
        """Injected ``kill``: a *real* SIGKILL to our own pid — peers
        must detect the death from the outside, exactly as they would a
        node OOM-killing the rank."""
        emit("fault-kill", comm._me, detail=op)
        os.kill(os.getpid(), signal.SIGKILL)
        raise RankKilledError(  # pragma: no cover - SIGKILL is not catchable
            f"rank {comm._me}: injected kill in {op}"
        )

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
        tracer = trace_get_tracer()
        usr1_armed = arm_signal_dump(lambda: self.blackbox("SIGUSR1"))
        conns = []
        procs = []
        payloads: list[Any] = [None] * self.nranks
        traces: list[bytes] = [b""] * self.nranks
        prev = self._open_flight()
        # Arm the watchdog before any child exists: forked ranks beacon
        # against a started clock from their very first transport op.
        self.state.start()
        try:
            for rank in range(self.nranks):
                recv_end, send_end = self._ctx.Pipe(duplex=False)
                proc = self._ctx.Process(
                    target=_child_main,
                    args=(self, rank, send_end, fn, args, kwargs),
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
            payloads, traces = self._collect([p for p, _ in procs], conns)
        finally:
            self._reap([p for p, _ in procs])
            for conn in conns:
                conn.close()
            if usr1_armed:
                disarm_signal_dump()
            try:
                self._note_child_deaths([p for p, _ in procs])
                # Recovered = an *injected* episode that survivors worked
                # around; an unexpected death always dumps.
                recovered = self.injector is not None and any(
                    p is not None and p[0] == "ok" for p in payloads
                )
                self._close_flight(prev, recovered)
            finally:
                self.close()
        if tracer is not None:
            for records in traces:
                if records:
                    tracer.absorb(pickle.loads(records))
        return self._interpret(payloads, [p for p, _ in procs])

    def _note_rank_death(self, rank: int, exitcode: Any) -> None:
        """Parent-side death record: declare the rank failed and revoke
        the world so blocked survivors wake within one quantum.  The
        children's own pid-scan races this idempotently."""
        try:
            if self.state.is_done(rank) or rank in self.state.failed_ranks():
                return
            kind = "kill" if exitcode == -signal.SIGKILL else "crash"
            self.declare_failed(
                rank, kind, f"process died with exit code {exitcode}", classification="dead"
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

    def _collect(self, procs: list, conns: list) -> tuple[list[Any], list[bytes]]:
        """Read result pipes while children run (a child sending a large
        result blocks in the pipe until the parent reads it — waiting
        for join first would deadlock); returns every rank's payload and
        its pickled trace records (``b""``: none)."""
        payloads: list[Any] = [None] * self.nranks
        traces: list[bytes] = [b""] * self.nranks
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
                        payloads[rank], traces[rank] = conn.recv()
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
                self.abort("parent join deadline exceeded")
                break
            if not progressed:
                time.sleep(0.01)
        return payloads, traces

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
            rank, exc, text = self._root_cause(errors)
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
        _cleanup_segments(*self._cleanup)

    def __enter__(self) -> "ProcessWorld":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
