"""The communicator, and everything the two launchers share.

A world is a launcher over one substrate.  The launcher —
:class:`~repro.runtime.thread_rt.ThreadWorld` (threads) or
:class:`~repro.runtime.proc.ProcessWorld` (fork) — supplies a segment
namespace (``world.segments``, :mod:`repro.runtime.shm`) with the
``ctx`` for its locks, a control state, ``run``, ``_gone`` (a thread
that exited, a pid that is gone) and ``_kill`` (a raise, a real
``SIGKILL``).  :class:`World` and :class:`Comm` write the rest once
over it: one ring per rank, the flight ring, the point-to-point
transport, window arenas, survivor worlds, the operation preamble
(beacon, injected faults, abort / scan / revoked checks), abort and the
barrier, the ULFM recovery arc (``revoke`` / ``agree`` / ``shrink``)
over the world's :class:`~repro.resilience.monitor.ControlState`, the
stall enrichment, and the reading of a finished run — its live rows
folded into the registry and, when it failed, its black-box dump.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import (
    BarrierBrokenError,
    CommunicatorError,
    RankFailureError,
    RankHungError,
    RevokedError,
    RuntimeAbort,
    StallError,
)
from repro.resilience.agreement import bitmap_ranks
from repro.resilience.monitor import (
    QUANTUM,
    ROUNDS_PER_GEN,
    STALL_CLASSIFICATIONS,
    FailureReport,
    Watchdog,
)
from repro.runtime.shm import Mapping, ShmRecord, ShmRing, any_to_describe
from repro.runtime.window import Window
from repro.telemetry import bind, emit, emit_blackbox, fold_live
from repro.telemetry.shmseg import ShmTelemetry
from repro.utils.arrays import no_alias_copy

__all__ = ["ANY_SOURCE", "ANY_TAG", "DEFAULT_TIMEOUT", "Request", "World", "Comm"]

#: Default blocking-op timeout — generous, but converts deadlocks into errors.
DEFAULT_TIMEOUT = 120.0

#: Fraction of the blocking-op timeout after which a silent rank is
#: declared dead.  Detection must land *well before* peers would have
#: timed out on their own (and far under the 2x join deadline).
SUSPECT_FRACTION = 0.25

#: Wildcard source rank for ``recv``/``irecv`` (mirrors ``MPI_ANY_SOURCE``).
ANY_SOURCE = -1
#: Wildcard tag (mirrors ``MPI_ANY_TAG``).
ANY_TAG = -1

#: Generation stride for message tags: a shrunk communicator's traffic
#: is tagged ``tag + gen * _GEN_STRIDE`` on the ring, so survivors never
#: match leftovers a dead rank posted before the failure.  Wide enough
#: that every algorithm tag (|tag| < ~2^20) decodes unambiguously.
_GEN_STRIDE = 1 << 44


class Request:
    """Handle for a non-blocking operation (mirrors ``MPI_Request``).

    ``probe`` is the runtime's non-blocking completion check: it must
    return ``True`` once ``wait()`` would succeed without blocking, and
    must never consume the matched message (so a ``test()``/``wait()``
    sequence still yields the data).  Without a probe, ``test()`` only
    reflects whether ``wait()`` already ran.
    """

    def __init__(
        self,
        complete: Callable[[float | None], Any],
        *,
        probe: Callable[[], bool] | None = None,
    ) -> None:
        self._complete = complete
        self._probe = probe
        self._done = False
        self._value: Any = None

    def wait(self, timeout: float | None = None) -> Any:
        """Block until the operation finishes; returns the received data
        for receive requests and ``None`` for send requests."""
        if not self._done:
            self._value = self._complete(timeout)
            self._done = True
        return self._value

    def test(self) -> bool:
        """Non-blocking completion probe (does not consume the message)."""
        if self._done:
            return True
        return bool(self._probe()) if self._probe is not None else False

    @classmethod
    def completed(cls, value: Any = None) -> "Request":
        """An already-finished request (e.g. an eagerly-buffered isend)."""
        req = cls(lambda timeout: value)
        req._done = True
        req._value = value
        return req


def is_echo(exc: BaseException) -> bool:
    """Is ``exc`` the echo of a failure elsewhere?  An aborting or dying
    rank makes its peers unwind with abort, revocation and broken-barrier
    errors; none of those is a root cause."""
    return isinstance(exc, (RuntimeAbort, RevokedError, BarrierBrokenError))


class World:
    """What a thread world and a process world share.

    The handles of one control plane — ``state`` (the
    :class:`~repro.resilience.monitor.ControlState`) and ``monitor`` (a
    :class:`~repro.resilience.monitor.Watchdog` over ``members``, this
    world's ranks in the original world's numbering) — and of one
    substrate in ``segments``: a ring and a pending queue per original
    rank, a window lock per target rank, and ``flight``, the world's
    flight ring (:meth:`_lay_out`).  A survivor world
    (:class:`SurvivorWorld`) is a view one shrink ``gen`` up over its
    ``root``'s state and substrate.
    """

    #: Names the runtime on recovery metrics.
    runtime_label: str
    #: The aborting rank's exception where it was raised in this process
    #: (rank threads); it cannot live in the control state's flat buffer.
    _abort_cause: BaseException | None = None
    #: The dump of this world's last failed run (:meth:`blackbox`).
    last_blackbox: dict[str, Any] | None = None

    def __init__(self, nranks: int, timeout: float, suspect_after: float | None) -> None:
        if nranks < 1:
            raise CommunicatorError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        self.timeout = timeout
        if suspect_after is None:
            suspect_after = max(0.05, SUSPECT_FRACTION * timeout)
        self.suspect_after = float(suspect_after)
        self.root: World = self
        self.members: tuple[int, ...] = tuple(range(nranks))
        self.gen = 0
        #: Survivor worlds by (members, generation): two sequential
        #: failures that leave the same survivor set must not resurrect
        #: the earlier world — it is revoked at a lower generation.
        self._shrunk: dict[tuple[tuple[int, ...], int], World] = {}
        self._shrink_lock = threading.Lock()

    def _lay_out(self, ring_capacity: int) -> list[Mapping]:
        """Build the substrate in ``self.segments``: ring ``r{rank}`` of
        ``ring_capacity`` bytes per rank, with its lock and condition,
        one window lock per target rank, all from the namespace's
        ``ctx``; each rank's queue of drained, unmatched messages; and
        the flight ring in segment ``t``.  Returns the mappings made."""
        ctx = self.segments.ctx
        segs = [self.segments.create(f"r{r}", 64 + ring_capacity) for r in range(self.nranks)]
        self.rings = [ShmRing(seg.buf, ctx) for seg in segs]
        self._win_locks = [ctx.Lock() for _ in range(self.nranks)]
        self.pending: list[deque[ShmRecord]] = [deque() for _ in range(self.nranks)]
        self.flight = ShmTelemetry.create(self.segments, self.nranks)
        return [*segs, self.flight.mapping]

    def _watch(self, state) -> None:
        """Adopt ``state`` and build this world's member view of it."""
        self.state = state
        self.monitor = Watchdog(
            state,
            self.members,
            suspect_after=self.suspect_after,
            gone=self._gone,
            runtime_label=self.runtime_label,
        )

    # -- abort and revocation ---------------------------------------------------------

    def abort(self, reason: str, cause: BaseException | None = None) -> None:
        """Raise the world-wide abort word (first reason wins): every
        barrier breaks, and a notify on every ring wakes the ranks
        blocked there now.  ``cause``, the aborting rank's exception
        where it was raised in this process, chains onto every peer's
        :class:`RuntimeAbort` (rank threads)."""
        root = self.root
        if self.abort_reason() is None:
            root._abort_cause = cause
        self.state.abort(reason)
        for ring in root.rings:
            ring.kick()

    def abort_reason(self) -> str | None:
        return self.state.abort_reason()

    def check_abort(self) -> None:
        reason = self.state.abort_reason()
        if reason is not None:
            raise RuntimeAbort(reason) from self.root._abort_cause

    @property
    def revoked(self) -> str | None:
        return self.state.revoked_reason(self.gen)

    @property
    def halted(self) -> bool:
        """True once the world is aborted or revoked (no new collectives)."""
        return self.abort_reason() is not None or self.revoked is not None

    def revoke(self, reason: str) -> None:
        """ULFM-style revocation of every generation up to the current one.

        Unlike ``abort``, the world stays *usable for recovery*:
        ``agree`` / ``shrink`` keep working.  Blocked ranks notice within
        one wait quantum.  Idempotent; the first reason wins.
        """
        self.state.revoke(reason, self.state.cur_gen())

    def declare_failed(
        self, rank: int, kind: str, detail: str = "", classification: str | None = None
    ) -> None:
        """Record a rank death (classified by the watchdog unless the
        caller knows better) and revoke the world so peers wake."""
        failure = self.monitor.declare_failed(rank, kind, detail, classification)
        self.revoke(
            f"rank {rank} {kind} ({failure.classification})" + (f": {detail}" if detail else "")
        )

    # -- shrink ----------------------------------------------------------------------

    def shrunk_world(self, members: tuple[int, ...], gen: int) -> "World":
        """The survivor world over ``members`` at generation ``gen``:
        every survivor asking gets the same one."""
        root = self.root
        key = (tuple(members), int(gen))
        with root._shrink_lock:
            world = root._shrunk.get(key)
            if world is None:
                world = root._shrunk[key] = SurvivorWorld(root, *key)
            return world

    # -- windows ----------------------------------------------------------------------

    def create_window(self, comm: "Comm", nbytes: int) -> Window:
        """Collective: one arena in the namespace holds every rank's buffer.

        The ranks allgather their sizes; rank 0 creates the arena — named
        ``w{id}``, generation-scoped on a survivor world, with ``id``
        counted per communicator, so no name exchange is needed — a
        barrier publishes it, every other rank attaches, and a second
        barrier holds every put until all have.  The locks are the
        members' share of the root's per-target ones.
        """
        win_id = comm._windows
        comm._windows += 1
        sizes = comm.allgather(max(0, int(nbytes)))
        offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        name = f"w{win_id}" if self.gen == 0 else f"wg{self.gen}x{win_id}"
        if comm.rank == 0:
            try:
                arena = self.segments.create(name, int(offsets[-1]))
            except FileExistsError:  # leaked by an earlier run of a thread world
                self.segments.unlink(name)
                arena = self.segments.create(name, int(offsets[-1]))
            comm.barrier()
        else:
            comm.barrier()  # the arena exists after this
            arena = self.segments.attach(name)
        buffers = [arena.buf[offsets[r] : offsets[r + 1]] for r in range(self.nranks)]
        comm.barrier()  # every rank attached before any put flies
        locks = [self.root._win_locks[g] for g in self.members]
        return Window(self, comm, buffers, locks, win_id, (name, arena, comm.rank == 0))

    # -- flight recording ---------------------------------------------------------------

    def blackbox(self, reason: str, report: FailureReport | None = None) -> dict[str, Any]:
        """Freeze the world's flight ring into a black-box dump (with the
        failure ``report``, when one exists); it becomes
        ``last_blackbox`` here and in the process."""
        root = self.root
        root.last_blackbox = emit_blackbox(
            root.flight, reason, failure_report=report, uid=root.uid
        )
        return root.last_blackbox

    def _open_flight(self) -> Any:
        """A run's start: the live rows at zero (a new epoch), no dump yet,
        and the calling thread recording into this world's ring.  Returns
        the ring it recorded into before."""
        self.flight.zero_live()
        self.last_blackbox = None
        return bind(self.flight)

    def _close_flight(self, prev: Any, recovered: bool) -> None:
        """A run's end: fold its live rows into the registry, dump the ring
        when the run failed and did not ``recover``, and give the calling
        thread back the ring ``prev``."""
        try:
            fold_live(self.flight.live_snapshot())
            reason = self.abort_reason()
            failures = self.state.failures()
            if failures and not recovered:
                # Failure-derived reason beats the abort echo: the abort may
                # be a survivor's RevokedError, which never names the victim.
                reason = "; ".join(
                    f"rank {g} {kind} ({cls}): {detail}"
                    for g, kind, cls, detail, _, _ in failures
                )
            if reason is not None:
                report = self.monitor.build_report(detail=reason)
                self.blackbox(f"{self.runtime_label}-world abort: {reason}", report)
        except Exception:  # noqa: BLE001 - the dump must not mask the root error
            pass
        finally:
            bind(prev)

    # -- reading a finished run ---------------------------------------------------------

    def _rank_failure_error(self) -> RankFailureError:
        """The run failed *because ranks died* and nothing recovered:
        surface the failure registry, not whichever echo a survivor
        happened to raise."""
        report = self.monitor.build_report(detail="no recovery attempted")
        detail = "; ".join(f"rank {f.rank}: {f.detail}" for f in report.failures)
        exc = RankFailureError(
            report.summary() + (f" — {detail}" if detail else ""), report=report
        )
        dump = self.root.last_blackbox
        if dump is None:
            dump = self.blackbox(f"{self.runtime_label}-world rank failure: {detail}", report)
        exc.blackbox = dump  # type: ignore[attr-defined]
        return exc

    def _root_cause(self, errors: list[tuple]) -> tuple:
        """The entry of ``errors`` — ``(rank, exception, ...)`` tuples — a
        failed run raises: the lowest-ranked root cause, not whichever
        echo came first.  When every error echoes a recorded rank death,
        raises the :class:`RankFailureError` instead."""
        originals = [e for e in errors if not is_echo(e[1])]
        if not originals and self.state.failed_ranks():
            raise self._rank_failure_error()
        return min(originals or errors, key=lambda e: e[0])


class SurvivorWorld(World):
    """Survivor view over a root world: the root's rings, window locks,
    namespace and control state, dense rank numbering over ``members``,
    one generation up.  Built by ``Comm.shrink`` (never directly); one
    instance per (members, generation) per process."""

    #: Injected faults target generation 0 only: the episode is over.
    injector = None

    def __init__(self, root: World, members: tuple[int, ...], gen: int) -> None:
        self.runtime_label = root.runtime_label
        super().__init__(len(members), root.timeout, root.suspect_after)
        self.root, self.members, self.gen = root, members, gen
        self.segments = root.segments
        self._watch(root.state)

    def _gone(self, rank: int) -> str | None:
        return self.root._gone(rank)


class Comm:
    """Per-rank communicator handle for SPMD code, over the root world's
    rings: this rank drains its own ring into its pending queue and
    tag-matches there (MPI wildcard and non-overtaking semantics), and
    posts into the destination's.  Every generation of one rank shares
    the queue; the generation rides the ring tag, so a shrunk
    communicator never matches leftovers a dead rank posted before the
    failure."""

    def __init__(self, world: World, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.nranks
        #: This rank in the original world's numbering (the control
        #: state's and the rings', whatever the generation).
        self._me = world.members[rank]
        self._members = world.members
        self._member_set = frozenset(world.members)
        self._rings = world.root.rings
        self._ring = self._rings[self._me]
        self._pending: deque[ShmRecord] = world.root.pending[self._me]
        self._state = world.state
        self._watchdog: Watchdog = world.monitor
        self._gen: int = world.gen
        #: The watchdog scans at most this often per rank, however many
        #: operations and wake-ups there are in between.
        self._scan_every = min(0.05, world.suspect_after / 4)
        self._last_scan = 0.0
        self._agree_round = 0
        #: Windows created on this communicator (names their arenas).
        self._windows = 0

    @property
    def parent_ranks(self) -> tuple[int, ...]:
        """Original-world rank of each member of this communicator.

        The identity ``(0, .., size-1)`` for a world communicator, the
        survivor map after a shrink (it composes across repeated
        shrinks), so layers that hold machine placement by original rank
        (topologies, window locks) can follow one.
        """
        return self.world.members

    # -- cached per-rank state ---------------------------------------------------

    @property
    def attrs(self) -> dict[Any, Any]:
        """State cached on this communicator (``MPI_Comm_set_attr`` style).

        A layer that builds something once per communicator — an FFT
        plan's exchange binding — keeps it here, so it is per-rank state
        with the communicator's lifetime.  Values have a ``release()``
        that gives their resources back locally, with no collective.
        """
        return self.__dict__.setdefault("_attrs", {})

    def release(self) -> None:
        """Locally release everything cached on this communicator.

        The runtimes call it when a communicator retires: its run ends,
        or a ``shrink`` / ``revoke`` replaces it.
        """
        for value in self.__dict__.pop("_attrs", {}).values():
            value.release()

    def _hand_over(self, successor: "Comm") -> None:
        """``shrink`` replaced this communicator by ``successor``.

        What was cached here goes now (no barrier — the dead cannot
        join one); what the successor caches goes when this, the run's
        own communicator, is released at the end of the run.
        """
        self.release()
        self.attrs["shrunk"] = successor

    # -- transport preamble and progress -------------------------------------------

    def _pre(self, op: str, peer: int | None = None) -> None:
        """Run before every transport operation.

        Beacon, then the injected process faults — a matching ``kill``
        rule ends this rank now, a ``hang`` rule parks it — then the
        abort check, the rate-limited watchdog scan and the revoked
        check.
        """
        self._watchdog.beat(self.rank)
        injector = self.world.injector
        if injector is not None:
            action = injector.fail_action(self.rank, op)
            if action == "kill":
                self.world._kill(self, op)
            elif action == "hang":
                self._hang_self(op)
        self.world.check_abort()
        self._scan()
        self._check_revoked()

    def _progress(self) -> None:
        """One quantum of a blocked wait (full-ring send, recv, barrier).

        Drains what the transport queued for this rank — a rank blocked
        *sending* still consumes what peers sent it, so mutual floods
        cannot deadlock — and keeps beaconing (a rank waiting on a dead
        peer is itself alive); aborts, deaths and revocations surface
        within one quantum.
        """
        self._drain()
        self._watchdog.beat(self.rank)
        self.world.check_abort()
        self._scan()
        self._check_revoked()

    def _progress_recovery(self) -> None:
        """Progress for agree/shrink: drains and scans but never raises —
        agreement must terminate on a revoked communicator (that is its
        entire purpose)."""
        self._drain()
        self._watchdog.beat(self.rank)
        self._scan()

    def _drain(self) -> None:
        """Drain this rank's own ring into its pending queue."""
        records = self._ring.drain()
        if records:
            self._pending.extend(records)

    def _scan(self) -> None:
        """Run the watchdog, at most once per ``_scan_every`` seconds; a
        new death revokes this generation."""
        now = time.monotonic()
        if now - self._last_scan < self._scan_every:
            return
        self._last_scan = now
        if self.world.abort_reason() is not None:
            return
        for failure in self._watchdog.poll():
            self._state.revoke(
                f"rank {self.parent_ranks[failure.rank]} declared "
                f"{failure.classification} ({failure.kind}): {failure.detail}",
                self._gen,
            )

    def _check_revoked(self) -> None:
        reason = self._state.revoked_reason(self._gen)
        if reason is not None:
            raise RevokedError(
                f"communicator revoked: {reason}",
                report=self._watchdog.build_report(detail=reason),
            )

    def _hang_self(self, op: str) -> None:
        """Injected ``hang``: park without beacons — silence IS the
        fault — until peers declare this rank dead (beacon staleness,
        classification ``deadlock``) and revoke, then unwind."""
        me = self._me
        emit("fault-hang", me, detail=op)
        world, state = self.world, self._state

        def released() -> bool:
            return state.revoked_reason(self._gen) is not None or world.abort_reason() is not None

        deadline = time.monotonic() + world.timeout * 2
        while not released() and time.monotonic() < deadline:
            time.sleep(QUANTUM)
        detail = f"injected hang at {op}"
        if not released():
            detail += " (never detected: no peer polled the watchdog)"
        self._watchdog.declare_failed(self.rank, "hang", detail, classification="deadlock")
        state.revoke(f"rank {me} hang (deadlock): {detail}", self._gen)
        emit("failed", me)
        raise RankHungError(
            f"rank {me} wedged by fault injection at {op}",
            report=self._watchdog.build_report(detail=detail),
        )

    def _explain_stall(self, exc: StallError, peer: int | None = None) -> None:
        """A deadline miss says what the watchdog saw: the report, and the
        classification of the awaited peer (with none to name — a
        barrier, a wildcard receive — the worst among the other ranks)."""
        exc.report = self.failure_report(detail=str(exc))
        peers = [peer] if peer is not None else [r for r in range(self.size) if r != self.rank]
        exc.classification = max(
            (self._watchdog.classify(r) for r in peers),
            key=STALL_CLASSIFICATIONS.index,
            default="unknown",
        )

    # -- failure handling (ULFM analogues) --------------------------------------------

    def revoke(self, reason: str = "revoked by application") -> None:
        """Revoke the communicator (``MPIX_Comm_revoke``)."""
        self._state.revoke(f"rank {self._me}: {reason}", self._gen)
        self.release()

    def agree(self, bitmap: int | None = None) -> int:
        """Fault-aware agreement on a liveness bitmap (``MPIX_Comm_agree``).

        Contributes this rank's view (default: the watchdog's) and
        returns the decided bitmap — identical on every survivor.
        Usable on a revoked world; that is its purpose.  Runs in the
        control state's agreement slot ``generation * 16 + round``.
        """
        watchdog = self._watchdog
        if bitmap is None:
            bitmap = watchdog.alive_bitmap()
        round_no = self._agree_round
        self._agree_round += 1
        if round_no >= ROUNDS_PER_GEN:
            raise CommunicatorError(
                f"rank {self.rank}: agreement rounds exhausted for generation "
                f"{self._gen} ({ROUNDS_PER_GEN} per generation)"
            )
        watchdog.beat(self.rank)
        with watchdog.phase("agree", self.rank, round=round_no):
            self._state.set_blocked(self._me, "agree")
            try:
                return self._state.agree_wait(
                    self._gen * ROUNDS_PER_GEN + round_no,
                    self.rank,
                    int(bitmap),
                    nranks=self.size,
                    absent=watchdog.absent_ranks,
                    poll=self._progress_recovery,
                    timeout=self.world.timeout,
                )
            finally:
                self._state.clear_blocked(self._me)

    def shrink(self, survivors: tuple[int, ...] | None = None) -> "Comm":
        """Build a working communicator over the survivors (``MPIX_Comm_shrink``).

        Without an explicit survivor set, runs :meth:`agree` first so
        every caller shrinks to the *same* world.  The new communicator
        is one generation up; its rank is this rank's index among the
        survivors (ranks are dense again; ring permutations recompute
        from the new size) and its traffic is isolated from everything
        that came before.
        """
        if survivors is None:
            survivors = bitmap_ranks(self.agree(), self.size)
        survivors = tuple(sorted(survivors))
        if self.rank not in survivors:
            raise CommunicatorError(
                f"rank {self.rank} cannot shrink onto survivors {survivors} "
                "(it is not one of them)"
            )
        with self._watchdog.phase("shrink", self.rank, survivors=len(survivors)):
            gen = self._gen + 1
            self._state.bump_gen(gen)
            world = self.world.shrunk_world(
                tuple(self.parent_ranks[r] for r in survivors), gen
            )
            new_comm = type(self)(world, survivors.index(self.rank))
            new_comm._watchdog.beat(new_comm.rank)
            self._hand_over(new_comm)
            return new_comm

    def failure_report(self, **kwargs: Any) -> FailureReport:
        """Snapshot the watchdog's view of this world (see FailureReport)."""
        return self._watchdog.build_report(**kwargs)

    def abort(self, msg: str = "user abort") -> None:
        self.world.abort(f"rank {self._me}: {msg}")
        raise RuntimeAbort(msg)

    # -- point to point --------------------------------------------------------

    def _enc(self, tag: int) -> int:
        return tag + self._gen * _GEN_STRIDE

    @staticmethod
    def _dec(raw: int) -> tuple[int, int]:
        # Round-to-nearest stride: algorithm tags may be negative
        # (bcast/gather internals), and Python floor-division keeps
        # the decode exact for |tag| < _GEN_STRIDE / 2.
        gen = (raw + _GEN_STRIDE // 2) // _GEN_STRIDE
        return gen, raw - gen * _GEN_STRIDE

    def send(self, data: np.ndarray, dest: int, tag: int = 0) -> None:
        """Buffered-blocking send: ``data`` is copied into the
        destination's ring; safe to reuse after.  Message-level faults
        (straggle, drop, duplicate) land here."""
        self._check_rank(dest)
        self._pre("send", dest)
        copies = 1
        injector = self.world.injector
        if injector is not None:
            delay = injector.straggle_delay(self.rank)
            if delay > 0.0:
                time.sleep(delay)
            action = injector.p2p_action(self.rank, dest, tag)
            if action == "drop":
                return
            copies = 2 if action == "duplicate" else 1
        ring = self._rings[self._members[dest]]
        for _ in range(copies):
            ring.post(
                self._me, self._enc(tag), data, timeout=self.world.timeout, poll=self._progress
            )

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

    def _match(self, source: int, tag: int, limit: float) -> np.ndarray:
        """Block (on the ring, running :meth:`_progress` each wake-up)
        until a matching message arrives; :class:`StallError` after
        ``limit`` seconds."""
        start = time.monotonic()
        deadline = start + limit
        self._drain()
        while True:
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
            self._progress()

    def _probe(self, source: int, tag: int) -> bool:
        """Is a matching message queued right now?  Drains the ring into
        the pending queue (which a later ``wait()`` matches from), never
        consumes the match."""
        self._progress()
        return self._find_pending(source, tag, take=False) is not None

    def _matched_recv(self, source: int, tag: int, timeout: float | None) -> np.ndarray:
        """Blocking-receive core of recv and irecv completion.

        ``timeout=None`` means the world default; a caller-supplied
        ``0`` is honoured as an immediate deadline, not swallowed.
        """
        limit = self.world.timeout if timeout is None else timeout
        peer = None if source == ANY_SOURCE else source
        # The blocked row: what this rank waits for, for everyone's lattice.
        self._state.set_blocked(
            self._me, "recv", -1 if peer is None else self.parent_ranks[peer], tag
        )
        try:
            return self._match(source, tag, limit)
        except StallError as exc:
            self._explain_stall(exc, peer)
            raise
        finally:
            self._state.clear_blocked(self._me)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> np.ndarray:
        """Blocking receive, returns a fresh array.

        ``timeout`` bounds the wait in seconds; ``None`` defers to the
        runtime default.  ``0`` is honoured as an immediate deadline.
        A deadline miss is a :class:`StallError` carrying the watchdog's
        classification of the awaited peer and the current
        :class:`FailureReport`.
        """
        if source != ANY_SOURCE:
            self._check_rank(source)
        self._pre("recv")
        return self._matched_recv(source, tag, timeout)

    def isend(self, data: np.ndarray, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (eager buffered: completes on post)."""
        self.send(data, dest, tag)
        return Request.completed()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; ``request.wait()`` returns the data."""
        if source != ANY_SOURCE:
            self._check_rank(source)
        self._pre("irecv")
        return Request(
            lambda timeout: self._matched_recv(source, tag, timeout),
            probe=lambda: self._probe(source, tag),
        )

    # -- collectives -----------------------------------------------------------

    def _barrier_wait(self) -> None:
        """Wait in this generation's barrier row, polling
        :meth:`_progress`: :class:`StallError` when this rank's own
        deadline passes, :class:`BarrierBrokenError` when a peer left."""
        self._state.barrier(self._gen, self.size, self.world.timeout, poll=self._progress)

    def barrier(self) -> None:
        """Synchronise all ranks."""
        self._pre("barrier")
        self._sync()

    def _sync(self) -> None:
        """The barrier proper, without the preamble (window creation
        synchronises through it without counting as an operation)."""
        self._state.set_blocked(self._me, "barrier")
        try:
            self._barrier_wait()
        except CommunicatorError as exc:
            # A barrier breaks for everyone when any waiter unwinds;
            # surface the *cause* (abort, death, revocation) over the
            # generic "barrier broken" echo where there is one.
            self.world.check_abort()
            self._check_revoked()
            if isinstance(exc, StallError):
                self._explain_stall(exc)
            raise
        finally:
            self._state.clear_blocked(self._me)

    def bcast(self, data: Any, root: int = 0) -> Any:
        """Broadcast a Python object from ``root`` (linear reference impl)."""
        self._check_rank(root)
        if self.rank == root:
            raw = np.frombuffer(_pickle_dumps(data), dtype=np.uint8)
            for r in range(self.size):
                if r != root:
                    self.send(raw, r, tag=-101)
            return data
        raw = self.recv(root, tag=-101)
        return _pickle_loads(raw.tobytes())

    def gather(self, data: Any, root: int = 0) -> list[Any] | None:
        """Gather Python objects to ``root`` (linear reference impl)."""
        self._check_rank(root)
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = data
            for r in range(self.size):
                if r != root:
                    raw = self.recv(r, tag=-102)
                    out[r] = _pickle_loads(raw.tobytes())
            return out
        self.send(np.frombuffer(_pickle_dumps(data), dtype=np.uint8), root, tag=-102)
        return None

    def allgather(self, data: Any) -> list[Any]:
        """Gather to everyone (gather + bcast reference impl)."""
        out = self.gather(data, root=0)
        return self.bcast(out, root=0)

    def alltoallv(self, send: Sequence[np.ndarray | None]) -> list[np.ndarray]:
        """Reference generalized all-to-all: ``send[d]`` goes to rank ``d``.

        ``None`` entries mean "no data for that destination" and produce
        empty receives.  This linear implementation (post all irecvs,
        send round-robin starting after own rank) is the baseline the
        ring algorithms are verified against.
        """
        if len(send) != self.size:
            raise CommunicatorError(
                f"alltoallv needs one (possibly None) buffer per rank: "
                f"got {len(send)} for size {self.size}"
            )
        empty = np.zeros(0, dtype=np.uint8)
        recv_reqs = [self.irecv(src, tag=-103) for src in range(self.size) if src != self.rank]
        for shift in range(1, self.size):
            dest = (self.rank + shift) % self.size
            chunk = send[dest]
            self.send(empty if chunk is None else np.ascontiguousarray(chunk), dest, tag=-103)
        out: list[np.ndarray] = [empty] * self.size
        out[self.rank] = no_alias_copy(send[self.rank])
        idx = 0
        for src in range(self.size):
            if src == self.rank:
                continue
            out[src] = recv_reqs[idx].wait()
            idx += 1
        return out

    # -- one-sided -------------------------------------------------------------

    def win_create(self, nbytes: int) -> Window:
        """Collectively create an RMA window exposing ``nbytes`` locally."""
        self._pre("win_create")
        return self.world.create_window(self, nbytes)

    # -- misc -------------------------------------------------------------------

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise CommunicatorError(f"rank {rank} out of range [0, {self.size})")


def _pickle_dumps(obj: Any) -> bytes:
    import pickle

    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _pickle_loads(raw: bytes) -> Any:
    # Control-plane payloads (bcast/gather objects) cross a transport
    # that other processes can write to, so they go through the same
    # restricted unpickler as wire frame v2 — a crafted frame naming an
    # unlisted global raises WireIntegrityError instead of executing.
    # Imported lazily: collectives imports runtime types at module load.
    from repro.collectives.wire import control_loads

    return control_loads(raw)
