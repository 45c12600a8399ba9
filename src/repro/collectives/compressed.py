"""Compression-integrated one-sided all-to-all (Section V-B), self-healing.

Adds the two steps the paper describes on top of Algorithm 3:

1. *before the put*: compress the chunk bound for each destination into
   an internal staging buffer (the all-to-all send buffer is const, so
   compression "cannot be done in place");
2. *after the closing fence*: decompress everything received ("instead
   of a pipeline on the target side, we will decompress the entire
   buffer later, once communications are done" — the RMA API lacks the
   constructs for target-side pipelining).

On top of that the exchange is *resilient*: every frame on the wire is
checksummed (wire format v2), decode failures are detected per source
block, and a bounded recovery protocol retransmits failed blocks —
first with the original codec per the :class:`~repro.faults.RetryPolicy`,
then walking the degradation ladder **lossy -> lossless -> raw FP64**.
Transient codec failures at compress time and per-message ``e_tol``
violations degrade the same way.  Everything the machinery does is
recorded in a per-exchange :class:`~repro.faults.ResilienceReport`
(:attr:`last_report`); when nothing goes wrong the report is empty and
the exchange is byte-identical to the non-resilient one.

The GPU-stream pipeline (compress chunk *k+1* while chunk *k* flies) is
mirrored functionally by splitting each message into ``pipeline_chunks``
fragments, compressing and putting them one at a time; its *timing*
benefit is modelled in :mod:`repro.netsim.alltoall_model`.  The class
reports per-call :class:`ExchangeStats` so callers can verify the
volume reduction that drives the speedup.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.collectives.base import Boxes, Exchange, ExchangeStats
from repro.collectives.osc import OscTransport, SlotTable
from repro.collectives.wire import decode_wire, encode_wire, open_frame, seal, stage
from repro.compression.base import Codec, CompressedMessage, IdentityCodec
from repro.compression.lossless import ShuffleZlibCodec
from repro.errors import (
    CommunicatorError,
    CompressionError,
    RetryExhaustedError,
    TransientCodecError,
    WireIntegrityError,
)
from repro.faults import ResilienceReport, RetryPolicy
from repro.machine.topology import Topology
from repro.runtime.base import Comm
from repro.runtime.window import Reservation
from repro.telemetry.metrics import gauge as tele_gauge
from repro.telemetry.metrics import histogram as tele_histogram
from repro.tuning.pool import BufferPool
from repro.trace import span as trace_span

__all__ = ["CompressedOscAlltoallv"]

#: Tag base for recovery-round retransmissions (control plane).
_RETRY_TAG = -7000

#: Room a window slot reserves per frame for the v2 header (32 B) and
#: the pickled metadata (codec name, dtype, shape, a few header scalars:
#: ~50-120 B for the codecs of this package).
_FRAME_ROOM = 256


class CompressedOscAlltoallv(Exchange):
    """One-sided ring all-to-all with on-the-fly compression + recovery.

    Parameters
    ----------
    comm:
        Runtime communicator.
    codec:
        Message compressor (any :class:`~repro.compression.base.Codec`).
    topology:
        Optional machine topology for the node-aware ring permutation.
    pipeline_chunks:
        Number of fragments each message is split into, mirroring the
        CUDA-stream compression/transfer pipeline.  1 = no chunking.
    retry_policy:
        Bounded retry/backoff schedule for recovery rounds.  Defaults
        to :class:`RetryPolicy`\\ ``()`` (2 same-codec retries);
        :meth:`RetryPolicy.disabled` degrades on the first failure.
    e_tol:
        Optional per-message error tolerance.  When set, each lossy
        message's achieved relative error is measured as it is
        compressed (:meth:`Codec.compress_measured`); if it exceeds
        ``e_tol`` the message is sent through the lossless fallback
        instead.
    lossless_fallback:
        Lossless codec used by the degradation ladder (default:
        byte-shuffle + zlib).
    pool:
        Optional :class:`~repro.tuning.pool.BufferPool` staging the wire
        frames; with a warm pool a steady-state exchange allocates no
        per-call staging memory.
    tuned:
        Tuning-profile key that selected this exchange's configuration
        (stamped on the exchange span for the perf gate); ``None`` for
        hand-picked settings.
    """

    #: Algorithm name stamped on the exchange span.
    algorithm = "compressed-osc"

    def __init__(
        self,
        comm: Comm,
        codec: Codec,
        *,
        topology: Topology | None = None,
        pipeline_chunks: int = 1,
        retry_policy: RetryPolicy | None = None,
        e_tol: float | None = None,
        lossless_fallback: Codec | None = None,
        pool: BufferPool | None = None,
        tuned: str | None = None,
    ) -> None:
        super().__init__(comm, topology)
        if pipeline_chunks < 1:
            raise CommunicatorError(f"pipeline_chunks must be >= 1, got {pipeline_chunks}")
        self.codec = codec
        self.pipeline_chunks = int(pipeline_chunks)
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.e_tol = e_tol
        self._lossless = lossless_fallback if lossless_fallback is not None else ShuffleZlibCodec(level=1)
        if not self._lossless.lossless:
            raise CommunicatorError(
                f"lossless_fallback must be lossless, got {self._lossless.name}"
            )
        self._raw = IdentityCodec()
        #: Degradation ladder: primary -> lossless fallback -> raw FP64.
        self._ladder: list[Codec] = [codec]
        for fallback in (self._lossless, self._raw):
            if all(fallback.name != c.name for c in self._ladder):
                self._ladder.append(fallback)
        self.pool = pool
        self.tuned = tuned
        self.transport = OscTransport(comm, topology)

    # -- helpers ------------------------------------------------------------------

    def _split(self, data: np.ndarray) -> list[np.ndarray]:
        """Fragment a message for the compression/transfer pipeline: slabs
        of its leading axis, so a fragment of a strided view is one too."""
        if self.pipeline_chunks == 1 or len(data) <= 1:
            return [data]
        return [c for c in np.array_split(data, self.pipeline_chunks) if c.size]

    def _split_sizes(self, n: int, lead: int | None = None) -> list[int]:
        """Sizes of the fragments :meth:`_split` cuts an ``n``-item message
        whose leading axis is ``lead`` long (a flat one: ``n``) into."""
        k, lead = self.pipeline_chunks, n if lead is None else lead
        if k == 1 or lead <= 1:
            return [n]
        return [rows * (n // lead) for i in range(k) if (rows := lead // k + (i < lead % k))]

    def _frame_capacity(self, n_float64: int) -> int:
        """Bytes a slot reserves for one frame of ``n_float64`` scalars:
        the worst case over everything the ladder may send, plus header
        room — so stepping down to lossless, or to raw FP64, always fits."""
        return max(c.worst_case_nbytes(n_float64) for c in self._ladder) + _FRAME_ROOM

    def slot_table(
        self, elements: np.ndarray, itemsize: int, leading: np.ndarray | None = None
    ) -> SlotTable:
        """Slots sized for the ladder's worst case, with their frame counts."""
        elements = np.asarray(elements, dtype=np.int64)
        capacity, frames = np.zeros_like(elements), np.zeros_like(elements)
        for at, n in np.ndenumerate(elements):
            lead = None if leading is None else int(leading[at])
            pieces = self._split_sizes(int(n), lead) if n else []
            frames[at] = len(pieces)
            capacity[at] = sum(self._frame_capacity(piece * itemsize // 8) for piece in pieces)
        return SlotTable(capacity, align=16, frames=frames)

    def _codec_named(self, name: str) -> Codec:
        """The decompressor a frame names: degraded retransmissions arrive
        encoded by a ladder codec, not necessarily the primary one."""
        for codec in (self.codec, self._lossless, self._raw):
            if name == codec.name:
                return codec
        raise CompressionError(f"frame names unknown codec {name!r}")

    def _injector(self):
        world = getattr(self.comm, "world", None)
        return getattr(world, "injector", None)

    def free(self) -> None:
        """Collectively release the cached staging window."""
        self.transport.free()

    # -- encode side ----------------------------------------------------------------

    def _compress_fragment(
        self, dest: int, report: ResilienceReport, encode: Callable[[Codec, bool], tuple[Any, Any]]
    ) -> tuple[Any, float | None]:
        """Compress one fragment, riding out transient codec failures.

        ``encode(codec, measure)`` does the compression proper — into a
        message or into a window slot — and returns ``(result,
        achieved)``.  Same-codec retries follow the policy's backoff;
        once exhausted the ladder steps down (the fallback is then also
        given ``max_attempts`` tries before the next step).

        Returns the accepted result plus the measured round-trip
        relative error of the fragment: a float whenever ``e_tol`` is
        set (0.0 for a lossless send — the round trip is exact),
        ``None`` when no tolerance is configured and nothing was
        measured.
        """
        injector = self._injector()
        policy = self.retry_policy
        ladder = self._ladder
        step, retries_in_step = 0, 0
        started = time.monotonic()
        budget_noted = False
        while True:
            codec = ladder[step]
            measure = self.e_tol is not None and not codec.lossless
            try:
                if injector is not None:
                    injector.codec_fault(self.comm.rank, dest)
                result, achieved = encode(codec, measure)
                if not measure:
                    # a lossless send is exact; with no tolerance nothing
                    # is measured
                    achieved = None if self.e_tol is None else 0.0
            except TransientCodecError as exc:
                report.record("transient-codec", peer=dest, codec=codec.name, detail=str(exc))
                elapsed = time.monotonic() - started
                if policy.budget_exhausted(elapsed) and not budget_noted:
                    # Stop burning same-codec retries; every further failure
                    # walks the ladder immediately.
                    budget_noted = True
                    report.record(
                        "budget-exhausted",
                        peer=dest,
                        codec=codec.name,
                        detail=f"max_elapsed={policy.max_elapsed}s spent",
                    )
                if retries_in_step < policy.max_attempts and not budget_noted:
                    delay = policy.delay(retries_in_step, elapsed=elapsed)
                    report.record("retry", peer=dest, attempt=retries_in_step, codec=codec.name)
                    if delay > 0.0:
                        time.sleep(delay)
                    retries_in_step += 1
                    continue
                step += 1
                retries_in_step = 0
                if step >= len(ladder):
                    raise RetryExhaustedError(
                        f"rank {self.comm.rank}: compression for rank {dest} failed "
                        f"through the whole ladder"
                    ) from exc
                report.record("degrade", peer=dest, codec=ladder[step].name,
                              detail=f"{codec.name} -> {ladder[step].name} (transient failures)")
                continue
            # Lazy import: repro.accuracy pulls in the FFT layer, which
            # itself imports this module at load time.
            from repro.accuracy.bounds import tolerance_exceeded

            if measure and tolerance_exceeded(achieved, self.e_tol):
                report.record("tolerance-exceeded", peer=dest, codec=codec.name,
                              detail=f"e_tol={self.e_tol:g}")
                lossless_step = next(i for i, c in enumerate(ladder) if c.lossless)
                step = max(step, lossless_step)
                report.record("degrade", peer=dest, codec=ladder[step].name,
                              detail=f"{codec.name} -> {ladder[step].name} (e_tol)")
                continue
            return result, achieved

    def _encode_block(
        self,
        arr: np.ndarray,
        dest: int,
        codec: Codec | None,
        report: ResilienceReport,
        stats: ExchangeStats | None,
        pool: BufferPool | None = None,
        slot: Reservation | None = None,
    ) -> list[np.ndarray]:
        """Encode one destination's data into wire frames.

        ``codec=None`` uses the resilient primary path (transient-fault
        retries + e_tol check); recovery rounds pass an explicit ladder
        codec instead.  The frames are staged in arrays (``pool``'s
        reusable buffers when given: the hot path releases them once the
        puts have landed) — or, with ``slot``, this rank's reserved slot
        in ``dest``'s window, produced where they land: ``arr`` may be any
        strided view, it is only read, and the slot *is* the paper's
        staging buffer.
        """
        frames: list[np.ndarray] = []
        written = 0
        for chunk_idx, frag in enumerate(self._split(arr)):
            n_values = frag.size * frag.itemsize // 8
            capacity = self._frame_capacity(n_values)
            room = None if slot is None else slot.view[written : written + capacity]

            def encode(c: Codec, measure: bool) -> tuple[Any, float | None]:
                """((codec, modelled wire bytes, what finishes the frame), achieved error)"""
                if room is None:
                    msg, achieved = c.compress_measured(frag) if measure else (c.compress(frag), None)
                    return (c, msg.nbytes, partial(encode_wire, msg, pool=pool)), achieved
                meta_len, nbytes, header, achieved = stage(room, c, frag, measure)
                return (c, nbytes + 8 * len(header), partial(seal, room, meta_len, nbytes)), achieved

            with trace_span(
                "compress",
                rank=self.comm.rank,
                peer=dest,
                bytes=int(frag.nbytes),
                codec=(codec or self.codec).name,
                chunk=chunk_idx,
            ):
                if codec is None:
                    (used, wire, finish), achieved = self._compress_fragment(dest, report, encode)
                else:
                    (used, wire, finish), achieved = encode(codec, False)[0], None
            frame = finish()
            if frame is None or (
                codec is None and self.transport.slots is not None and frame.size > capacity
            ):
                # A frame that does not fit its window slot is never
                # truncated: it steps down to raw FP64, which the slot
                # was sized for.
                report.record("degrade", peer=dest, codec=self._raw.name,
                              detail=f"{used.name} -> {self._raw.name} (the frame exceeds its slot)")
                if pool is not None and frame is not None:
                    pool.release(frame)
                (used, wire, finish), _ = encode(self._raw, False)
                frame, achieved = finish(), (None if self.e_tol is None else 0.0)
            if stats is not None:
                stats.messages += 1
                stats.logical_bytes += 8 * n_values
                stats.wire_bytes += wire
                if achieved is not None:
                    stats.achieved_error = max(stats.achieved_error, achieved)
                    stats.error_measured = True
            frames.append(frame)
            written += frame.size
        if slot is not None:
            slot.written = written
        return frames

    def _encode_all(
        self, send: Sequence[np.ndarray | None], report: ResilienceReport, stats: ExchangeStats
    ) -> tuple[list[np.ndarray | None], list[list[np.ndarray]]]:
        """Step 1: compress every destination's data into internal staging
        frames (never in place).  Returns the contiguous source arrays
        (``None`` = nothing to send; recovery retransmits from them) and
        the per-destination wire frames."""
        self._check_send(send)
        arrays: list[np.ndarray | None] = []
        frames: list[list[np.ndarray]] = []
        for dest, data in enumerate(send):
            if data is None or np.asarray(data).size == 0:
                arrays.append(None)
                frames.append([])
                continue
            arr = np.ascontiguousarray(data)
            arrays.append(arr)
            frames.append(self._encode_block(arr, dest, None, report, stats, self.pool))
        return arrays, frames

    # -- decode side -----------------------------------------------------------------

    def _decode_region(
        self, region: np.ndarray, nframes: int | None = None, into: np.ndarray | None = None
    ) -> np.ndarray | None:
        """Walk and decode the checksummed frames of one source block.

        Each header is parsed exactly once — the reader returns the
        consumed frame length alongside the message.  ``nframes``
        bounds the walk for a region larger than its content (a fixed
        window slot: what follows the last frame is an older epoch's,
        valid but stale); ``None`` walks to the region's end.  An empty
        region decodes to an empty FP64 block (``np.concatenate`` on an
        empty list raises, and a zero-frame region is legitimate when a
        peer's block compressed to nothing).

        With ``into`` — the strided box of the output block this source
        fills — every frame is checked where it lies and decoded straight
        into its slab of the box (the cut :meth:`_split` made of the
        sender's view); nothing is returned.
        """
        parts: list[np.ndarray] = []
        slabs = None if into is None else self._split(into)
        pos = 0
        while (pos < region.size) if nframes is None else (len(parts) < nframes):
            if slabs is None:
                msg, consumed = decode_wire(region[pos:])
                parts.append(self._codec_named(msg.codec_name).decompress(msg))
            else:
                msg, consumed = open_frame(region[pos:])
                slab = slabs[len(parts)]
                # (the scalar type's name: dtype.name costs 2 us a message)
                if (msg.dtype_name, msg.shape) != (slab.dtype.type.__name__, (slab.size,)):
                    raise CompressionError(
                        f"corrupt metadata: frame holds {msg.dtype_name}{msg.shape}, "
                        f"the plan expects {slab.dtype.name}({slab.size},)"
                    )
                self._codec_named(msg.codec_name).decode_into(msg.payload, msg.header, slab)
                parts.append(slab)
            pos += consumed
        if slabs is not None:
            return None
        if not parts:
            return np.zeros(0, dtype=np.float64)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _settle(
        self,
        arrays: Sequence[np.ndarray | None],
        regions: Sequence[np.ndarray],
        report: ResilienceReport,
        stats: ExchangeStats,
        nframes: Sequence[int] | None = None,
        into: Sequence[np.ndarray | None] | None = None,
    ) -> list[np.ndarray]:
        """Step 2 onwards: decompress each source's region (CRC-checked per
        frame; ``nframes[s]`` of them when given, else to the region's
        end), recover the blocks that failed integrity, publish.

        With ``into``, region ``s`` is decoded straight into ``into[s]``
        and its entry of the result is ``None`` — unless it had to be
        retransmitted: a recovered block comes back as an array for the
        caller to paste over whatever the failed decode left behind."""
        rank = self.comm.rank
        recv: list[np.ndarray | None] = [None] * len(regions)
        failed: list[int] = []
        for s, region in enumerate(regions):
            if region.size == 0:
                recv[s] = None if into is not None else np.zeros(0, dtype=np.float64)
                continue
            try:
                with trace_span("decompress", rank=rank, peer=s, bytes=int(region.size)):
                    recv[s] = self._decode_region(
                        region,
                        None if nframes is None else nframes[s],
                        None if into is None else into[s],
                    )
            except CompressionError as exc:
                report.record("integrity-failure", peer=s, detail=str(exc))
                failed.append(s)

        # Collective recovery rounds.  Only runs under an active fault
        # plan — injector presence is world-global, so every rank takes
        # the same branch and the recovery collectives stay matched.  A
        # CRC failure with *no* fault source is a real transport/codec
        # bug: raise it rather than mask it with a retransmission.
        if self._injector() is not None:
            with trace_span("retry", rank=rank, failed=len(failed)):
                self._recover(arrays, recv, failed, report, stats)
        elif failed:
            raise WireIntegrityError(
                f"rank {rank}: corrupted block(s) from rank(s) {sorted(failed)} "
                f"with no fault plan active"
            )
        self._finish(stats, report)
        return recv  # type: ignore[return-value]

    # -- recovery --------------------------------------------------------------------

    def _recover(
        self,
        arrays: Sequence[np.ndarray | None],
        recv: list[np.ndarray | None],
        failed: list[int],
        report: ResilienceReport,
        stats: ExchangeStats,
    ) -> None:
        """Collective recovery rounds: retransmit failed blocks two-sided.

        Every rank participates in each round (the failure sets are
        agreed via allgather) so senders and receivers stay matched.
        Rounds ``0 .. max_attempts-1`` retransmit with the original
        codec; the next rounds walk the ladder (lossless, then raw).
        When the ladder is exhausted a typed error is raised — never a
        silent corruption.
        """
        comm, policy = self.comm, self.retry_policy
        ladder = self._ladder
        started = time.monotonic()
        # Exhaustion of the total-deadline budget is agreed alongside the
        # failure sets: round tags and codec choice derive from `attempt`,
        # so every rank must fast-forward at the same round boundary.
        gathered = comm.allgather((sorted(failed), policy.budget_exhausted(0.0)))
        needs: list[list[int]] = [g[0] for g in gathered]
        any_exhausted = any(g[1] for g in gathered)
        attempt = 0
        prev_codec = ladder[0].name
        while any(needs):
            involved_now = bool(failed) or any(comm.rank in srcs for srcs in needs)
            if any_exhausted and attempt < policy.max_attempts:
                # Budget spent: skip the remaining same-codec rounds and
                # go straight to the degradation ladder.
                if involved_now:
                    report.record(
                        "budget-exhausted",
                        attempt=attempt,
                        detail=f"max_elapsed={policy.max_elapsed}s spent; "
                        f"fast-forwarding to the degradation ladder",
                    )
                attempt = policy.max_attempts
            extra = attempt - policy.max_attempts
            if extra < 0:
                codec = ladder[0]
            elif 1 + extra < len(ladder):
                codec = ladder[1 + extra]
            else:
                raise RetryExhaustedError(
                    f"rank {comm.rank}: blocks from rank(s) {sorted(failed)} still "
                    f"corrupt after {attempt} recovery round(s) ending at raw FP64"
                )
            involved = involved_now
            if codec.name != prev_codec and involved:
                report.record("degrade", attempt=attempt, codec=codec.name,
                              detail=f"recovery ladder {prev_codec} -> {codec.name}")
            prev_codec = codec.name
            if extra < 0:
                delay = policy.delay(attempt, elapsed=time.monotonic() - started)
                if delay > 0.0:
                    time.sleep(delay)
            tag = _RETRY_TAG - attempt
            # Retransmit my block to every rank that failed to decode it.
            for dest, sources in enumerate(needs):
                if comm.rank not in sources:
                    continue
                arr = arrays[dest]
                assert arr is not None  # zero-size blocks cannot fail decode
                frames = self._encode_block(arr, dest, codec, report, None)
                blob = frames[0] if len(frames) == 1 else np.concatenate(frames)
                report.record("retransmit", peer=dest, attempt=attempt, codec=codec.name)
                stats.retransmissions += 1
                stats.retransmitted_bytes += int(blob.size)
                comm.send(blob, dest, tag=tag)
            # Collect retransmissions for my failed blocks.
            still_failed: list[int] = []
            for source in sorted(failed):
                if extra < 0:
                    report.record("retry", peer=source, attempt=attempt, codec=codec.name)
                region = comm.recv(source, tag=tag)
                try:
                    recv[source] = self._decode_region(np.ascontiguousarray(region, dtype=np.uint8))
                except CompressionError as exc:
                    report.record("integrity-failure", peer=source, attempt=attempt,
                                  detail=str(exc))
                    still_failed.append(source)
                else:
                    report.record("recovered", peer=source, attempt=attempt, codec=codec.name)
            failed = still_failed
            elapsed = time.monotonic() - started
            gathered = comm.allgather((sorted(failed), policy.budget_exhausted(elapsed)))
            needs = [g[0] for g in gathered]
            any_exhausted = any_exhausted or any(g[1] for g in gathered)
            attempt += 1

    # -- the exchange ----------------------------------------------------------------

    def __call__(self, send: Sequence[np.ndarray | None]) -> list[np.ndarray]:
        """Exchange with compression; returns decompressed per-source arrays."""
        return self._timed(self._exchange, send)

    def move(self, send: Boxes, receive: Callable[[], Boxes], pool: Any = None) -> None:
        """On plan-supplied slots every message is encoded straight from
        its strided view into the destination's slot and decoded from the
        local slot straight into its strided box: no pack, staging frame,
        decompressed temporary or unpack, nothing from ``pool``.  An
        unbound exchange has no slot to write before its sizes are
        agreed, and stages as the base class does."""
        if self.transport.slots is None:
            return super().move(send, receive, pool)
        self._timed(self._exchange_in_place, send, receive)

    def _timed(self, body: Callable[..., Any], *args: Any) -> Any:
        """Run one collective call under its exchange span and metrics."""
        # The exchange span makes one collective call a critical-path
        # scope of its own even outside a reshape (repro.perf groups
        # outermost exchange spans into rounds).
        attrs = dict(
            rank=self.comm.rank,
            algorithm=self.algorithm,
            codec=self.codec.name,
            pipeline_chunks=self.pipeline_chunks,
        )
        if self.tuned is not None:
            attrs["tuned"] = self.tuned
        started = time.monotonic()
        with trace_span("exchange", **attrs):
            result = body(*args)
        self._observe_exchange_time(time.monotonic() - started)
        return result

    def _observe_exchange_time(self, elapsed: float) -> None:
        """Per-link bandwidth gauge + latency histogram for the metrics
        registry (the tracer records the same span; this survives runs
        with no tracer installed)."""
        self._metric(tele_histogram, "repro_exchange_seconds").observe(elapsed)
        if elapsed > 0.0 and self.last_stats.wire_bytes:
            self._metric(tele_gauge, "repro_link_bandwidth_bytes_per_s").set(
                self.last_stats.wire_bytes / elapsed
            )

    def _exchange(self, send: Sequence[np.ndarray | None]) -> list[np.ndarray]:
        stats = ExchangeStats()
        report = ResilienceReport(rank=self.comm.rank)
        arrays, frames = self._encode_all(send, report, stats)
        # Pipelined puts: each destination's fragments go out back to
        # back (they were all staged above; a real GPU stream interleaves,
        # the data movement is identical).
        regions, _ = self.transport(frames)
        # Puts have landed in every target window; the staging frames
        # can go back to the pool for the next exchange.
        if self.pool is not None:
            for dest_frames in frames:
                for frame in dest_frames:
                    self.pool.release(frame)
        # "we will decompress the entire buffer later, once communications
        # are done" — straight from the window's borrowed regions.
        slots = self.transport.slots
        nframes = None if slots is None else slots.frames[:, self.comm.rank].tolist()
        return self._settle(arrays, regions, report, stats, nframes)

    def _exchange_in_place(self, send: Boxes, receive: Callable[[], Boxes]) -> None:
        self._check_send(send)
        stats = ExchangeStats()
        report = ResilienceReport(rank=self.comm.rank)
        regions, _ = self.transport(
            [
                partial(self._encode_block, view, d, None, report, stats, None)
                if view is not None and view.size
                else ()
                for d, view in enumerate(send)
            ]
        )
        nframes = self.transport.slots.frames[:, self.comm.rank].tolist()
        # Recovery retransmits from the still-live send views; what it
        # recovered lands through a temporary, over the partial decode.
        out = receive()
        self._unpack_all(out, self._settle(send, regions, report, stats, nframes, out))
