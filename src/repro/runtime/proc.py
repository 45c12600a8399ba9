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
and the control-state segment after the run, sweeps any uid-prefixed
leftovers (spill segments of crashed receivers, unfreed window arenas),
and reaps children through a join → terminate → kill ladder.  A child's
exception is re-raised in the parent with ``.rank`` attached and the
original traceback appended as a note.

A :class:`ProcessWorld` is **one-shot**: ``run`` executes one SPMD
kernel and then closes the world (segments unlinked).

Failure model: the one both runtimes share (:mod:`repro.runtime.base`,
:mod:`repro.resilience.monitor`), with the
:class:`~repro.resilience.monitor.ControlState` laid out in a named
segment under a fork-shared condition, so it survives the death of any
rank process and the parent reads it post-mortem.  What is the process
runtime's own: a rank is *gone* when its pid is (a SIGKILLed child is
gone from ``/proc`` — or a zombie, which counts as gone); an injected
``kill`` is a real ``SIGKILL`` to the victim's own pid; a survivor
world is a view over the *existing* rings and window locks with rank
remapping (no re-fork), and generation-encoded message tags keep
post-shrink traffic from matching pre-failure leftovers.  Fault plans
are supported for the *process* kinds only; message-level kinds
(bitflip/drop/...) raise :class:`~repro.errors.UnsupportedFaultError` —
they need the thread runtime's mailbox hooks.
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
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Callable

import numpy as np

from repro.errors import (
    CommunicatorError,
    RankHungError,
    RankKilledError,
    StallError,
    UnsupportedFaultError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import PROCESS_FAULT_KINDS
from repro.resilience.monitor import ControlState
from repro.runtime.base import ANY_SOURCE, ANY_TAG, DEFAULT_TIMEOUT, Comm, World
from repro.runtime.shm import (
    DEFAULT_RING_CAPACITY,
    ShmRecord,
    ShmRing,
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
from repro.telemetry import emit, fold_live
from repro.telemetry.recorder import install_sink, is_enabled
from repro.telemetry.shmseg import (
    DEFAULT_SHM_CAPACITY,
    ShmSink,
    ShmTelemetry,
    remove_runfile,
    write_runfile,
)
from repro.trace.core import Tracer
from repro.trace.core import get_tracer as trace_get_tracer
from repro.trace.core import install as trace_install

__all__ = ["ProcessWorld", "ProcComm"]

#: Generation stride for message tags: a shrunk communicator's traffic
#: is tagged ``tag + gen * _GEN_STRIDE`` on the wire, so survivors never
#: match leftovers a dead rank posted before the failure.  Wide enough
#: that every algorithm tag (|tag| < ~2^20) decodes unambiguously.
_GEN_STRIDE = 1 << 44


def _cleanup_segments(
    owner_pid: int,
    rings: list[ShmRing],
    uid: str,
    telemetry: ShmTelemetry | None,
    state: ControlState,
    state_seg: SharedMemory,
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
    if telemetry is not None:
        telemetry.destroy()
    # The parent reads the registry and the timeline after the unlink.
    state.freeze()
    quiet_close(state_seg)
    try:
        state_seg.unlink()
    except FileNotFoundError:
        pass
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
        child_tracer = Tracer()
        trace_install(child_tracer)
        child_tracer.bind_rank(rank)
    else:
        trace_install(None)
    if world.telemetry is not None:
        # Events recorded by this rank now land in the shared segment,
        # where the parent can read them even after this process dies.
        install_sink(ShmSink(world.telemetry))
        emit("start", rank)
    comm = ProcComm(world, rank)
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


class _ProcView(World):
    """What the root world and its survivor views do the same way, each
    over its own ``members`` / ``gen``: pid liveness and window arenas."""

    runtime_label = "proc"

    def _gone(self, rank: int) -> str | None:
        pid = self.state.pid(rank)
        if pid and not pid_alive(pid):
            return f"process died (pid {pid} gone)"
        return None

    # -- collective window creation ------------------------------------------------------

    def create_window(self, comm: "ProcComm", nbytes: int) -> Window:
        """Collective: one SharedMemory arena holds every rank's buffer.

        The arena name is deterministic (``{uid}w{win_id}``, generation-
        scoped for a survivor view, with the per-process window counter
        advancing identically on every rank because creation is
        collective), so no name exchange is needed: rank 0 creates, a
        barrier publishes, everyone else attaches.  The locks are the
        members' share of the root's fork-shared ones.
        """
        win_id = self._win_counter
        self._win_counter += 1
        sizes = comm.allgather(max(0, int(nbytes)))
        offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        total = int(offsets[-1])
        scope = "w" if self.gen == 0 else f"wg{self.gen}x"
        name = f"{self.uid}{scope}{win_id}"
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
        locks = [self.root._win_locks[g] for g in self.members]
        return Window(self, comm, buffers, locks, win_id=win_id)

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


class ProcessWorld(_ProcView):
    """Shared state of one process-per-rank SPMD execution.

    The same surface as :class:`~repro.runtime.thread_rt.ThreadWorld`
    (``run``, ``timeout``, ``halted``, ``injector``, ``monitor``, ULFM
    recovery via ``comm.agree``/``shrink``); fault plans are accepted
    for the process kinds (``kill``/``hang``) and delivered to real
    child pids.
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
        #: The control plane in a named segment: beacons, pids, failure
        #: registry, abort word, generational revocation, agreement
        #: arena, barrier rows, timeline.
        self._state_seg = SharedMemory(
            name=f"{self.uid}s", create=True, size=ControlState.nbytes(nranks)
        )
        self._watch(ControlState(nranks, self._state_seg.buf, self._ctx.Condition()))
        #: Per-process drained-but-unmatched records (shared by every
        #: communicator generation of this process — see ProcComm).
        self._local_pending: deque[ShmRecord] | None = None
        self.rings = [
            ShmRing(f"{self.uid}r{r}", ring_capacity, self._ctx) for r in range(nranks)
        ]
        # One fork-shared lock per *target rank*, shared by every window
        # (mp locks cannot be created after the fork, so they are
        # provisioned here).  Coarser than the thread runtime's
        # per-window locks, which is harmless: a put holds its target's
        # lock only for its own copy.
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
            self.uid,
            self.telemetry,
            self.state,
            self._state_seg,
        )


    def _survivor_world(self, members: tuple[int, ...], gen: int) -> "_ShrunkProcWorld":
        return _ShrunkProcWorld(self, members, gen)

    def _blackbox(self, report: Any) -> dict[str, Any] | None:
        return self.last_blackbox

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
                if self.telemetry is not None:
                    # The ranks' per-rank metrics are their live rows: fold
                    # them into this process's sink, which the registry reads.
                    fold_live(self.telemetry.live_snapshot())
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

    def _harvest_blackbox(self, payloads: list[Any]) -> None:
        """Post-mortem: recover every rank's flight ring from shared
        memory when the run failed — the segment outlives dead children,
        so the victim's last events are still there to dump.  A run that
        *recovered* (some rank returned ok despite recorded failures)
        is a success and gets no dump."""
        if self.telemetry is None:
            return
        reason = self.abort_reason()
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
                self.abort("parent join deadline exceeded")
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
        _cleanup_segments(
            self._owner_pid,
            self.rings,
            self.uid,
            self.telemetry,
            self.state,
            self._state_seg,
        )

    def __enter__(self) -> "ProcessWorld":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class ProcComm(Comm):
    """Per-process communicator handle (lives only inside a rank): ring
    transport.

    Generalized over worlds: the root :class:`ProcessWorld` (generation
    0, identity rank mapping) and :class:`_ShrunkProcWorld` survivors
    (generation ≥ 1, ``members`` maps dense survivor ranks back to the
    original ranks whose rings still carry the traffic).  Every
    generation of one process shares the root's pending queue; the
    generation rides the wire tag, so a shrunk communicator never
    matches leftovers a dead rank posted before the failure.
    """

    def __init__(self, world: _ProcView, rank: int) -> None:
        super().__init__(world, rank)
        self._root: ProcessWorld = world.root
        self._members = world.members
        self._member_set = frozenset(self._members)
        self._ring = self._root.rings[self._me]
        if self._root._local_pending is None:
            self._root._local_pending = deque()
        #: Shared with every other generation in this process: one ring
        #: drain must never swallow another generation's records.
        self._pending: deque[ShmRecord] = self._root._local_pending

    # -- generation-encoded tags ----------------------------------------------------------

    def _enc(self, tag: int) -> int:
        return tag + self._gen * _GEN_STRIDE

    @staticmethod
    def _dec(raw: int) -> tuple[int, int]:
        # Round-to-nearest stride: algorithm tags may be negative
        # (bcast/gather internals), and Python floor-division keeps
        # the decode exact for |tag| < _GEN_STRIDE / 2.
        gen = (raw + _GEN_STRIDE // 2) // _GEN_STRIDE
        return gen, raw - gen * _GEN_STRIDE

    # -- runtime hooks of the shared failure handling ---------------------------------------

    def _kill_self(self, op: str) -> None:
        """Injected ``kill``: a *real* SIGKILL to our own pid — peers
        must detect the death from the outside, exactly as they would a
        node OOM-killing the rank."""
        emit("fault-kill", self._me, detail=op)
        os.kill(os.getpid(), signal.SIGKILL)
        raise RankKilledError(  # pragma: no cover - SIGKILL is not catchable
            f"rank {self._me}: injected kill in {op}"
        )

    def _drain(self) -> None:
        """Drain this rank's own ring into the pending queue."""
        records = self._ring.drain()
        if records:
            self._pending.extend(records)

    def _find_pending(self, source: int, tag: int, *, take: bool = True) -> ShmRecord | None:
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
            if take:
                del self._pending[i]
            return rec
        return None

    # -- point to point ------------------------------------------------------------------

    def send(self, data: np.ndarray, dest: int, tag: int = 0) -> None:
        self._check_rank(dest)
        self._pre("send", dest)
        self._root.rings[self._members[dest]].post(
            self._me,
            self._enc(tag),
            np.asarray(data),
            timeout=self._root.timeout,
            poll=self._progress,
        )

    def _match(self, source: int, tag: int, limit: float) -> np.ndarray:
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
            self._ring.wait(deadline - now)

    def _probe(self, source: int, tag: int) -> bool:
        # Non-consuming: drains the transport into pending (which a
        # later wait() matches from), never removes a match.
        self._progress()
        return self._find_pending(source, tag, take=False) is not None


class _ShrunkProcWorld(_ProcView):
    """Survivor view over a :class:`ProcessWorld`: same rings, window
    locks and control state, dense rank numbering over ``members``, one
    generation up.  Built by ``Comm.shrink`` (never directly); one
    instance per (members, generation) per process."""

    def __init__(self, root: ProcessWorld, members: tuple[int, ...], gen: int) -> None:
        super().__init__(len(members), root.timeout, root.suspect_after)
        self.root, self.members, self.gen = root, members, gen
        self.uid = root.uid
        self.rings = root.rings
        self.telemetry = root.telemetry
        #: Injected faults target generation 0 only: the episode is over.
        self.injector = None
        self.store = root.store
        self.store_lock = root.store_lock
        self._win_counter = 0
        self._windows: dict[int, tuple[SharedMemory, bool]] = {}
        self._watch(root.state)
