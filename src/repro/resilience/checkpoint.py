"""Checkpointed FFT restart: CRC-framed pencil snapshots + shrink recovery.

The 3-D FFT pipeline (Fig. 1) is a chain of four reshapes and three
local FFT phases.  Each stage boundary is a natural checkpoint: the
rank's block in the stage's input layout *is* the complete state of the
transform.  :class:`ResilientFft3d` snapshots that state into a
:class:`CheckpointStore` in the world's segment namespace (the analogue
of a node-local burst buffer: it survives the death of the rank that
wrote it) before every reshape, and — when a rank dies or wedges
mid-stage — drives the ULFM recovery sequence:

1. **detect** — the heartbeat watchdog classifies the stall and revokes
   the world (see :mod:`repro.resilience.monitor`);
2. **agree** — survivors agree on the liveness bitmap
   (:meth:`~repro.runtime.base.Comm.agree`);
3. **shrink** — survivors rebuild a dense communicator
   (:meth:`~repro.runtime.base.Comm.shrink`);
4. **restart** — the last stage whose checkpoint set is complete
   (including the dead rank's — its snapshot outlived it) is assembled
   globally, re-partitioned over the *shrunk* layout, and the pipeline
   resumes from there on a plan rebuilt for the survivor count.

Checkpoint frames reuse the v2 wire format (:mod:`repro.collectives.wire`),
so every load is CRC-validated — a corrupted snapshot surfaces as a
typed :class:`~repro.errors.CheckpointError`, never as silently wrong
science.  Optionally, every reshape is ABFT-checked
(:mod:`repro.resilience.abft`): per-message linear checksums exchanged
out-of-band and validated against the codec's error budget.
"""

from __future__ import annotations

import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.collectives.wire import decode_wire, encode_wire
from repro.compression.base import CompressedMessage
from repro.errors import (
    CheckpointError,
    CommunicatorError,
    PlanError,
    RevokedError,
    StallError,
    WireIntegrityError,
)
from repro.fft.plan import Fft3d
from repro.machine.topology import ShrunkTopology
from repro.resilience.abft import reshape_checksums, verify_checksums
from repro.telemetry import scope
from repro.trace import span as trace_span
from repro.tuning.pool import BufferPool

__all__ = ["CheckpointStore", "ResilientFft3d", "SpmdResult"]

#: Number of pipeline stages (reshapes) in a 3-D transform.
_N_STAGES = 4


def _encode_frame(block: np.ndarray, meta: dict | None) -> np.ndarray:
    """Snapshot ``block`` as a self-validating v2 wire frame."""
    arr = np.ascontiguousarray(block)
    return encode_wire(
        CompressedMessage(
            "checkpoint",
            arr.reshape(-1).view(np.uint8),
            str(arr.dtype),
            arr.shape,
            dict(meta or {}),
        )
    )


def _decode_frame(key: Any, frame: np.ndarray) -> np.ndarray:
    """CRC-validate and rebuild the snapshot stored under ``key``."""
    try:
        msg, _ = decode_wire(frame)
    except WireIntegrityError as exc:
        raise CheckpointError(f"checkpoint {key!r} failed validation: {exc}") from exc
    try:
        dtype = np.dtype(msg.dtype_name)
    except TypeError as exc:
        raise CheckpointError(f"checkpoint {key!r} has bad dtype {msg.dtype_name!r}") from exc
    return msg.payload.view(dtype).reshape(msg.shape)


#: Segment header: committed frame bytes (0 = no valid snapshot), key length.
_CKPT_HDR = struct.Struct("<QI4x")


class CheckpointStore:
    """CRC-framed snapshots in a world's segment namespace (the burst buffer).

    One segment per key, named ``k{crc32(key):08x}`` in ``segments``
    (``world.segments``: private arrays on rank threads, ``/dev/shm`` on
    forked ranks), laid out as ``[u64 committed_bytes][u32 keylen][key]
    [v2 frame]``.  Durability is the point: a rank writes its snapshot
    into the segment, and the segment — unlike the rank's heap or
    stack — survives its death, so survivors, whose worlds share the
    namespace, can reload the dead rank's state during restart.

    The commit protocol makes torn writes read as *missing*, never as
    stale-or-corrupt: ``committed_bytes`` is zeroed before the frame
    is written and set last, so a writer killed mid-save leaves a key
    that :meth:`has`/:meth:`load` treat as absent (restart then picks an
    earlier globally complete stage).  The stored key bytes guard
    against crc32 name collisions.  Each key is written by exactly one
    rank, so there is no write-side locking; readers only attach after
    the writer is dead or the stage barrier has passed.  A process
    world's close-time sweep reclaims the segments.
    """

    def __init__(self, segments) -> None:
        self.segments = segments
        self._attached: dict[str, Any] = {}

    @staticmethod
    def _segment(key: Any) -> str:
        return f"k{zlib.crc32(repr(key).encode()) & 0xFFFFFFFF:08x}"

    def save(self, key: Any, block: np.ndarray, meta: dict | None = None) -> int:
        """Snapshot ``block`` under ``key``; returns the frame size in bytes."""
        frame = _encode_frame(block, meta)
        key_bytes = repr(key).encode()
        need = _CKPT_HDR.size + len(key_bytes) + int(frame.nbytes)
        name = self._segment(key)
        seg = self._attached.get(name)
        if seg is None:
            try:
                seg = self.segments.create(name, need)
            except FileExistsError:
                seg = self.segments.attach(name)
        if seg.buf.size < need:
            # Resize = invalidate + unlink + recreate.  A reader racing
            # the gap sees the key as missing, which is safe (restart
            # falls back to an earlier complete stage).
            _CKPT_HDR.pack_into(seg.buf, 0, 0, 0)
            self.segments.unlink(name)
            seg.close()
            seg = self.segments.create(name, need)
        self._attached[name] = seg
        buf = seg.buf
        _CKPT_HDR.pack_into(buf, 0, 0, len(key_bytes))  # invalidate
        off = _CKPT_HDR.size
        buf[off : off + len(key_bytes)] = np.frombuffer(key_bytes, dtype=np.uint8)
        off += len(key_bytes)
        buf[off : off + frame.nbytes] = frame
        _CKPT_HDR.pack_into(buf, 0, int(frame.nbytes), len(key_bytes))  # commit
        return int(frame.nbytes)

    def _frame(self, key: Any) -> np.ndarray | None:
        """Copy of the committed frame under ``key``, or None if absent."""
        name = self._segment(key)
        seg = self._attached.get(name)
        transient = seg is None
        if transient:
            try:
                seg = self.segments.attach(name)
            except FileNotFoundError:
                return None
        try:
            buf = seg.buf
            nbytes, keylen = _CKPT_HDR.unpack_from(buf, 0)
            off = _CKPT_HDR.size
            if nbytes == 0 or bytes(buf[off : off + keylen]) != repr(key).encode():
                return None  # torn, discarded, or a crc32 name collision
            return buf[off + keylen : off + keylen + nbytes].copy()
        finally:
            if transient:
                seg.close()

    def load(self, key: Any) -> np.ndarray:
        """Reload and CRC-validate the snapshot under ``key``."""
        frame = self._frame(key)
        if frame is None:
            raise CheckpointError(f"no checkpoint under key {key!r}")
        return _decode_frame(key, frame)

    def has(self, key: Any) -> bool:
        return self._frame(key) is not None

    def discard(self, key: Any) -> None:
        name = self._segment(key)
        seg = self._attached.pop(name, None)
        if seg is None:
            try:
                seg = self.segments.attach(name)
            except FileNotFoundError:
                return
        _CKPT_HDR.pack_into(seg.buf, 0, 0, 0)
        self.segments.unlink(name)
        seg.close()

    def close(self) -> None:
        """Drop this store's mappings (the segments stay in the namespace)."""
        for seg in self._attached.values():
            seg.close()
        self._attached.clear()

    def last_complete_stage(self, tag: str, nranks: int) -> int | None:
        """Deepest stage for which *every* rank's snapshot exists.

        Restart must resume from a globally consistent cut: a stage is
        restartable only when all ``nranks`` blocks of its input layout
        — notably the dead rank's — are present.
        """
        for stage in range(_N_STAGES - 1, -1, -1):
            if all(self.has((tag, nranks, stage, r)) for r in range(nranks)):
                return stage
        return None


@dataclass
class SpmdResult:
    """One rank's outcome of a failure-tolerant SPMD transform.

    Recovery is communicator surgery: after a shrink the caller's
    original ``comm`` is revoked and useless, so the result carries the
    communicator and plan that actually *produced* the block — chain
    further collective work (the inverse transform, a gather) through
    ``result.comm`` / ``result.plan``.
    """

    block: np.ndarray
    comm: Any
    plan: Fft3d
    recovered: bool = False
    report: Any = None  # FailureReport when recovered


class ResilientFft3d:
    """A :class:`~repro.fft.plan.Fft3d` that survives rank failures.

    Wraps the SPMD execution path with per-stage checkpoints, optional
    ABFT reshape checksums, and automatic shrink-and-restart recovery.
    Construction mirrors :class:`Fft3d`; the plan for the *current*
    communicator size is rebuilt on every shrink (pencil decompositions
    depend on the rank count).

    Parameters beyond :class:`Fft3d`'s:

    ``method``
        Reshape exchange algorithm (``"reference"``, ``"pairwise"``,
        ``"osc"``).
    ``abft``
        Verify per-message linear checksums around every reshape: within
        the codec's bound, so an unbounded codec is refused.
    ``max_recoveries``
        Recovery episodes tolerated in one transform before giving up
        and re-raising.

    Shared-object caveat: like ``Fft3d.last_stats``, the ``last_*``
    attributes are written by every rank thread — read them only after
    ``world.run`` returns.
    """

    #: Checkpoint key namespace.
    tag = "fft3d"

    def __init__(
        self,
        shape: tuple[int, int, int],
        nranks: int,
        *,
        precision: str = "fp64",
        codec=None,
        e_tol: float | None = None,
        data_hint: str = "random",
        topology=None,
        method: str = "reference",
        variant: str = "flat",
        abft: bool = True,
        max_recoveries: int = 2,
    ) -> None:
        self.shape = tuple(shape)
        self.precision = precision
        self._codec = codec
        self._e_tol = e_tol
        self._data_hint = data_hint
        self._topology = topology
        self.method = method
        self.variant = variant
        self.abft = bool(abft)
        self.max_recoveries = int(max_recoveries)
        self.plan = self._build_plan(nranks)
        if self.abft and self.plan.guaranteed_tolerance == float("inf"):
            raise PlanError(
                f"abft checks every reshape within the codec's bound, and "
                f"{self.plan.codec.name!r} states none"
            )
        # Plans per (rank count, survivor map): rebuilt on shrink,
        # cached so every rank thread of one world shares the same
        # object (last_stats lives on it).  self.plan stays pinned to
        # the construction size.
        self._plans = {(nranks, None): self.plan}
        self._plan_lock = threading.Lock()
        #: Plan that produced the most recent output (changes on shrink).
        self.active_plan: Fft3d = self.plan
        #: FailureReport of the most recent recovery (None = clean run).
        self.last_report = None
        # Transforms started, per rank thread / forked rank (this object
        # is shared by the rank threads of a world).
        self._started = threading.local()

    def _plan_for(self, nranks: int, parent_ranks=None) -> Fft3d:
        if parent_ranks is not None:
            parent_ranks = tuple(int(r) for r in parent_ranks)
            if parent_ranks == tuple(range(nranks)):
                parent_ranks = None  # identity map: the original dense world
        with self._plan_lock:
            key = (nranks, parent_ranks)
            plan = self._plans.get(key)
            if plan is None:
                plan = self._plans[key] = self._build_plan(nranks, parent_ranks)
            return plan

    def _build_plan(self, nranks: int, parent_ranks=None) -> Fft3d:
        topology = self._topology
        if topology is not None and getattr(topology, "nranks", nranks) != nranks:
            # The dense machine map no longer matches the shrunk world.
            # When the communicator tells us *which* original ranks
            # survived, keep node placement alive through a
            # ShrunkTopology (the two-level exchange then re-elects
            # leaders over live membership); otherwise drop to flat.
            if (
                parent_ranks is not None
                and len(parent_ranks) == nranks
                and getattr(topology, "nranks", 0) > nranks
                and max(parent_ranks) < topology.nranks
            ):
                topology = ShrunkTopology(topology, parent_ranks)
            else:
                topology = None
        return Fft3d(
            self.shape,
            nranks,
            precision=self.precision,
            codec=self._codec,
            e_tol=self._e_tol,
            data_hint=self._data_hint,
            topology=topology,
        )

    @property
    def checksum_tolerance(self) -> float:
        """Relative budget for ABFT comparisons (codec bound or e_tol)."""
        bound = self.plan.guaranteed_tolerance
        if self._e_tol is not None:
            bound = max(bound, self._e_tol)
        return bound

    # -- pipeline ---------------------------------------------------------------------

    def _run_stages(
        self, comm, plan: Fft3d, block: np.ndarray, start: int, inverse: bool, pool, tag: str
    ) -> np.ndarray:
        """Stages ``start..`` of the plan's stage list — through
        :class:`Fft3d`'s own stage halves — checkpointing each one,
        ABFT-checking each reshape.

        The reshapes run on the plan's binding to ``comm`` (see
        :meth:`Fft3d._bind`): after a shrink ``comm`` is a new
        communicator, hence a fresh binding — new window, epoch 0 on
        every survivor — while the dead generation's was released,
        without a barrier, when ``shrink`` retired its communicator.
        """
        store = CheckpointStore(comm.world.segments)
        try:
            for step, stage in enumerate(plan._pipeline(inverse)[start:], start):
                rplan = stage.reshape
                key = (tag, comm.size, step, comm.rank)
                with trace_span("checkpoint", rank=comm.rank, stage=step):
                    store.save(key, block, meta={"stage": step, "inverse": int(inverse)})
                sent = None
                if self.abft:
                    mine = reshape_checksums(rplan, comm.rank, block, stage=step)
                    sent = {}
                    for entries in comm.allgather(mine.entries):
                        sent.update(entries)
                bound = plan._bind(comm, self.method, self.variant, block.shape[:-3]).bound[step]
                block = plan._reshape_stage(bound, block, plan.last_stats, pool)
                if self.abft:
                    got = reshape_checksums(
                        rplan, comm.rank, block, stage=step, direction="recv"
                    )
                    verify_checksums(sent, got, self.checksum_tolerance)
                block = plan._fft_stage(comm, block, stage)
        finally:
            # Close the mappings here, not at garbage collection: a failed
            # run's traceback keeps this frame in a reference cycle, and
            # the cyclic collector finalizes a segment before the array
            # over its buffer, which cannot close ("BufferError: cannot
            # close exported pointers exist").
            store.close()
        return block

    # -- recovery ---------------------------------------------------------------------

    def _restart_block(
        self, store: CheckpointStore, old_plan: Fft3d, old_size: int, stage: int, sub, tag: str
    ) -> tuple[Fft3d, np.ndarray]:
        """Re-partition the checkpointed stage-``stage`` state for ``sub``.

        Loads every old rank's snapshot (the dead rank's included),
        assembles the global stage array, rebuilds the plan for the
        survivor count, and slices out this survivor's block in the new
        stage layout.
        """
        blocks = [store.load((tag, old_size, stage, r)) for r in range(old_size)]
        global_arr = old_plan.reshapes[stage].src.gather(blocks)
        new_plan = self._plan_for(sub.size, getattr(sub, "parent_ranks", None))
        new_layout = new_plan.reshapes[stage].src
        return new_plan, np.ascontiguousarray(global_arr[new_layout.where(sub.rank)])

    def _run(
        self, comm, plan: Fft3d, block: np.ndarray, start: int, inverse: bool, depth: int, pool,
        tag: str,
    ) -> SpmdResult:
        try:
            out = self._run_stages(comm, plan, block, start, inverse, pool, tag)
            return SpmdResult(block=out, comm=comm, plan=plan, recovered=depth > 0)
        except (RevokedError, StallError) as exc:
            if depth >= self.max_recoveries:
                raise
            return self._recover(comm, plan, inverse, exc, depth, pool, tag)

    def _recover(
        self, comm, plan: Fft3d, inverse: bool, exc: CommunicatorError, depth: int, pool, tag: str
    ) -> SpmdResult:
        world = comm.world
        store = CheckpointStore(comm.world.segments)
        sub = comm.shrink()  # agree (on survivors) + shrink; phases recorded
        stage = store.last_complete_stage(tag, comm.size)
        if stage is None:
            raise CheckpointError(
                f"rank {comm.rank}: no globally consistent checkpoint to restart "
                f"from after failure ({exc})"
            ) from exc
        with world.monitor.phase("restart", comm.rank, stage=stage, survivors=sub.size):
            new_plan, new_block = self._restart_block(store, plan, comm.size, stage, sub, tag)
            self.active_plan = new_plan
            result = self._run(sub, new_plan, new_block, stage, inverse, depth + 1, pool, tag)
        result.recovered = True
        result.report = world.monitor.build_report(
            recovered=True,
            detail=f"restarted from stage {stage} on {sub.size} survivors",
        )
        self.last_report = result.report
        return result

    # -- public API --------------------------------------------------------------------

    def run_spmd(
        self, comm, local: np.ndarray, *, inverse: bool = False, pool: BufferPool | None = None
    ) -> SpmdResult:
        """This rank's part of the transform, surviving rank failures.

        ``local`` is the rank's brick block under the plan matching
        ``comm.size`` (see :meth:`Fft3d.scatter`).  On a clean run the
        result's ``comm``/``plan`` are the ones passed in; after a
        recovery they are the shrunk communicator and its rebuilt plan,
        with the :class:`FailureReport` attached.  A killed rank never
        returns — it unwinds with ``RankKilledError`` and its slot in
        ``world.run``'s results is ``None``.
        """
        plan = self._plan_for(comm.size, getattr(comm, "parent_ranks", None))
        self.active_plan = plan
        block = np.ascontiguousarray(local, dtype=plan.dtype)
        # Checkpoints are namespaced by the transform they belong to, so
        # a restart never mixes in the later stages of an earlier
        # transform (every rank runs the same sequence of transforms, so
        # the count agrees); this rank's snapshots of the previous
        # transform — and leftovers of an earlier run under this name —
        # go now.
        seq = self._started.n = getattr(self._started, "n", 0) + 1
        tag = f"{self.tag}#{seq}"
        store = CheckpointStore(comm.world.segments)
        for stale in (f"{self.tag}#{seq - 1}", tag):
            for step in range(_N_STAGES):
                store.discard((stale, comm.size, step, comm.rank))
        with scope("fft", comm.rank, shape=self.shape, nranks=comm.size, inverse=inverse):
            result = self._run(comm, plan, block, 0, inverse, 0, pool, tag)
        self.active_plan = result.plan
        return result
