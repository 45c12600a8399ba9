"""Compression-integrated one-sided all-to-all (Section V-B), self-healing.

Adds the two steps the paper describes on top of Algorithm 3:

1. *before the put*: compress the chunk bound for each destination into
   an internal staging buffer (the all-to-all send buffer is const, so
   compression "cannot be done in place");
2. *after the closing fence*: decompress everything received ("instead
   of a pipeline on the target side, we will decompress the entire
   buffer later, once communications are done" — the RMA API lacks the
   constructs for target-side pipelining).

There is one encoder and one decoder.  The staging buffer is the
destination's window slot — or, for a message that is routed
(two-level) or retransmitted, a byte region of its own — and every
message is encoded straight from its strided view into it
(:meth:`Codec.encode_into`, the frame sealed where it lies); every
frame is checked where it lies and decoded straight into the strided
box it fills (:meth:`Codec.decode_into`).  The self block takes the
same ladder through one :meth:`Codec.roundtrip_into` straight into its
box, unframed.  The frames, outputs and accounting are the same under
either completion rule of the :class:`~repro.collectives.slots.SlotTransport`.

On top of that the exchange is *resilient*: every frame on the wire is
checksummed (wire format v2), decode failures are detected per source
block, and a bounded recovery protocol retransmits failed blocks —
first with the original codec per the :class:`~repro.faults.RetryPolicy`,
then walking the degradation ladder **lossy -> lossless -> raw FP64**.
Transient codec failures at compress time and per-message ``e_tol``
violations degrade the same way, all recorded in a per-exchange
:class:`~repro.faults.ResilienceReport` (:attr:`last_report`) — empty,
and the exchange byte-identical to an unhardened one, when all goes well.

The GPU-stream pipeline (compress chunk *k+1* while chunk *k* flies) is
mirrored functionally by splitting each message into ``pipeline_chunks``
fragments; its *timing* benefit is modelled in
:mod:`repro.netsim.alltoall_model`.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.collectives.base import Boxes, Exchange, ExchangeStats
from repro.collectives.slots import Route, SlotTable, SlotTransport
from repro.collectives.wire import open_frame, seal, stage
from repro.compression.base import Codec, IdentityCodec, as_float64_view
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
from repro.tuning.pool import BufferPool
from repro.trace import NULL_SPAN, get_tracer
from repro.trace import span as trace_span

__all__ = ["CompressedOscAlltoallv"]

#: Tag base for recovery-round retransmissions (control plane).
_RETRY_TAG = -7000

#: Message shapes whose fragments an exchange keeps (a plan has a few dozen).
_CUTS_KEPT = 1024

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
        compressed (:meth:`Codec.encode_into` with ``measure``); if it
        exceeds ``e_tol`` the message is sent through the lossless
        fallback instead.
    lossless_fallback:
        Lossless codec used by the degradation ladder (default:
        byte-shuffle + zlib).
    pool:
        Accepted for callers that pass one, and unused: frames are
        produced in the window slot (or a region of their own) and
        decoded into the output boxes, so nothing is staged.
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
        self.tuned = tuned
        self.transport = SlotTransport(comm, self.rule, topology)
        #: Resolved once: the world's fault injector, the tolerance check,
        #: the exchange span's attributes.
        self.injector = self._injector()
        self._exceeded = None
        if e_tol is not None:
            # Imported here: repro.accuracy pulls in the FFT layer, which
            # itself imports this module at load time.
            from repro.accuracy.bounds import tolerance_exceeded

            self._exceeded = tolerance_exceeded
        self._span_attrs = dict(
            rank=comm.rank, algorithm=self.algorithm, codec=codec.name,
            pipeline_chunks=self.pipeline_chunks,
        )
        if tuned is not None:
            self._span_attrs["tuned"] = tuned
        self._decoders = {c.name: c for c in (self._raw, self._lossless, codec)}
        self._cuts: dict[tuple, tuple] = {}  # message shape -> its fragments (_parts)

    # -- helpers ------------------------------------------------------------------

    def _split_sizes(self, n: int, lead: int | None = None) -> list[int]:
        """Sizes of the fragments an ``n``-item message whose leading axis
        is ``lead`` long (a flat one: ``n``) is cut into for the
        compression/transfer pipeline: slabs of its leading axis, as
        ``np.array_split`` cuts them, so a fragment of a strided view is one too."""
        k, lead = self.pipeline_chunks, n if lead is None else lead
        if k == 1 or lead <= 1:
            return [n]
        return [rows * (n // lead) for i in range(k) if (rows := lead // k + (i < lead % k))]

    def _frame_capacity(self, n_float64: int) -> int:
        """Bytes a slot reserves for one frame of ``n_float64`` scalars:
        the worst case over everything the ladder may send, plus header
        room — so stepping down to lossless, or to raw FP64, always fits."""
        return max(c.worst_case_nbytes(n_float64) for c in self._ladder) + _FRAME_ROOM

    def _parts(self, n: int, lead: int, itemsize: int) -> tuple[tuple[int, int, int], ...]:
        """The fragments of an ``n``-item message whose leading axis is
        ``lead`` long: ``(first row, end row, frame room)`` each (none when
        empty) — worked out once per message shape and kept, for
        :meth:`_parts_of` to look up (:meth:`slot_table` works out a plan's
        while it binds)."""
        parts, row = [], 0
        for size in self._split_sizes(n, lead) if n else ():
            rows = size // (n // lead) if lead > 1 else lead
            parts.append((row, row + rows, self._frame_capacity(size * itemsize // 8)))
            row += rows
        if len(self._cuts) >= _CUTS_KEPT:
            self._cuts.clear()
        parts = self._cuts[(n, lead, itemsize, self.pipeline_chunks)] = tuple(parts)
        return parts

    def _parts_of(self, view: np.ndarray) -> tuple[tuple[int, int, int], ...]:
        """:meth:`_parts` of a view: how it is cut into frames."""
        lead = view.shape[0] if view.ndim else 1
        try:
            return self._cuts[(view.size, lead, view.itemsize, self.pipeline_chunks)]
        except KeyError:
            return self._parts(view.size, lead, view.itemsize)

    def slot_table(
        self, elements: np.ndarray, itemsize: int, leading: np.ndarray | None = None
    ) -> SlotTable:
        """Slots sized for the ladder's worst case, fragment by fragment."""
        elements = np.asarray(elements, dtype=np.int64)
        capacity = np.zeros_like(elements)
        for at, n in np.ndenumerate(elements):
            lead = int(n if leading is None else leading[at])
            capacity[at] = sum(room for _, _, room in self._parts(int(n), lead, itemsize))
        return SlotTable(capacity, align=16)

    def _kind(self, view: np.ndarray | None) -> tuple[str, tuple[int, ...]] | None:
        """Validated before any collective: a codec takes float64/complex128 only."""
        if view is not None and view.size:
            as_float64_view(view)
        return super()._kind(view)

    def _injector(self):
        """The world's fault injector (``None``: no fault plan), fixed when it starts."""
        return getattr(getattr(self.comm, "world", None), "injector", None)

    def _codec_named(self, name: str) -> Codec:
        """The decompressor a frame names: degraded retransmissions arrive
        encoded by a ladder codec, not necessarily the primary one."""
        try:
            return self._decoders[name]
        except KeyError:
            raise CompressionError(f"frame names unknown codec {name!r}") from None

    # -- encode side ----------------------------------------------------------------

    def _compress_fragment(
        self,
        dest: int,
        report: ResilienceReport,
        encode: Callable[[Codec, bool], tuple[Any, Any]],
        codec: Codec | None = None,
    ) -> tuple[Any, float | None]:
        """Compress one fragment, riding out transient codec failures —
        or, with an explicit ``codec`` (a recovery round's), compress it
        once with that, unmeasured.

        ``encode(codec, measure)`` does the compression proper, into the
        fragment's room, and returns ``(result, achieved)``.  Same-codec
        retries follow the policy's backoff; once exhausted the ladder
        steps down (the fallback is then also given ``max_attempts``
        tries before the next step).

        Returns the accepted result plus the measured round-trip
        relative error of the fragment: a float whenever ``e_tol`` is
        set (0.0 for a lossless send — the round trip is exact),
        ``None`` when no tolerance is configured and nothing was
        measured.
        """
        if codec is not None:
            return encode(codec, False)[0], None
        injector = self.injector
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
            if measure and self._exceeded(achieved, self.e_tol):
                report.record("tolerance-exceeded", peer=dest, codec=codec.name,
                              detail=f"e_tol={self.e_tol:g}")
                lossless_step = next(i for i, c in enumerate(ladder) if c.lossless)
                step = max(step, lossless_step)
                report.record("degrade", peer=dest, codec=ladder[step].name,
                              detail=f"{codec.name} -> {ladder[step].name} (e_tol)")
                continue
            return result, achieved

    def _encode_fragment(
        self,
        frag: np.ndarray,
        chunk_idx: int,
        dest: int,
        codec: Codec | None,
        report: ResilienceReport,
        stats: ExchangeStats | None,
        write: Callable[[Codec, bool], tuple[Any, float | None]],
    ) -> tuple[Any, Codec, dict]:
        """Write one fragment — into a frame, or round trip into the self
        block's box — with ``write(codec, measure) -> ((codec, nbytes,
        header, finish), achieved)`` and ``finish()`` it (``None``: it
        outgrew its room); returns that with its codec and header.

        ``codec=None`` uses the resilient primary path (transient-fault
        retries + e_tol check); recovery rounds pass an explicit ladder
        codec instead.  A fragment that outgrows its room is never
        truncated: it steps down to raw FP64, which the room was sized for.
        """
        n_values = frag.size * frag.itemsize // 8
        with (
            trace_span(
                "compress",
                rank=self.comm.rank,
                peer=dest,
                bytes=int(frag.nbytes),
                codec=(codec or self.codec).name,
                chunk=chunk_idx,
            )
            if get_tracer() is not None
            else NULL_SPAN
        ):
            (used, nbytes, header, done), achieved = self._compress_fragment(dest, report, write, codec)
        out = done()
        if out is None:
            report.record("degrade", peer=dest, codec=self._raw.name,
                          detail=f"{used.name} -> {self._raw.name} (the frame exceeds its slot)")
            (used, nbytes, header, done), _ = write(self._raw, False)
            out, achieved = done(), (None if self.e_tol is None else 0.0)
        if stats is not None:
            stats.messages += 1
            stats.logical_bytes += 8 * n_values
            stats.wire_bytes += nbytes + 8 * len(header) if header else nbytes
            if achieved is not None:
                stats.achieved_error = max(stats.achieved_error, achieved)
                stats.error_measured = True
        return out, used, header

    def _encode_block(
        self,
        view: np.ndarray,
        dest: int,
        codec: Codec | None,
        report: ResilienceReport,
        stats: ExchangeStats | None,
        region: np.ndarray,
    ) -> int:
        """Encode one destination's data, cut as :meth:`_parts_of` says, as
        wire frames at the head of ``region`` — this rank's slot in
        ``dest``'s window, or a private array — and return how many bytes
        they take.

        ``view`` may be any strided view; it is only read, and ``region``
        *is* the paper's staging buffer.
        """
        written = 0
        parts = self._parts_of(view)
        for chunk_idx, (lo, hi, size) in enumerate(parts):
            frag = view if len(parts) == 1 else view[lo:hi]
            room = region[written : written + size]

            def write(c: Codec, measure: bool):
                meta_len, nbytes, header, achieved = stage(room, c, frag, measure)
                return (c, nbytes, header, partial(seal, room, meta_len, nbytes)), achieved

            frame, _, _ = self._encode_fragment(frag, chunk_idx, dest, codec, report, stats, write)
            written += frame.size
        return written

    def _move_self(
        self,
        view: np.ndarray | None,
        report: ResilienceReport,
        stats: ExchangeStats,
        into: np.ndarray,
    ) -> None:
        """The self block, at its step of the ring: every fragment through
        the same ladder as any message (and counted as one), one
        :meth:`Codec.roundtrip_into` straight into its slab of ``into`` —
        it never crosses a wire, so it is neither staged, framed nor
        checksummed.  Its room is its codec's worst case."""
        if view is None or view.size == 0:
            return
        parts = self._parts_of(view)
        for chunk_idx, (lo, hi, _) in enumerate(parts):
            frag, slab = (view, into) if len(parts) == 1 else (view[lo:hi], into[lo:hi])

            def write(c: Codec, measure: bool):
                nbytes, header, achieved = c.roundtrip_into(frag, slab, measure)
                fits = nbytes <= c.worst_case_nbytes(frag.size * frag.itemsize // 8)
                return (c, nbytes, header, lambda: slab if fits else None), achieved

            self._encode_fragment(frag, chunk_idx, self.comm.rank, None, report, stats, write)

    def _encode_private(
        self,
        view: np.ndarray,
        dest: int,
        codec: Codec | None,
        report: ResilienceReport,
        stats: ExchangeStats | None,
    ) -> np.ndarray:
        """:meth:`_encode_block` into a region of the message's own, for a
        message that is routed or retransmitted rather than put."""
        region = np.empty(sum(size for _, _, size in self._parts_of(view)), dtype=np.uint8)
        return region[: self._encode_block(view, dest, codec, report, stats, region)]

    # -- decode side -----------------------------------------------------------------

    def _decode_region(self, region: np.ndarray, into: np.ndarray) -> None:
        """Check the frames of one source's block where they lie and decode
        each straight into its slab of ``into`` — the strided box of the
        output block this source fills, cut as the sender's view was
        (:meth:`_parts_of`).

        Each header is parsed exactly once, and the walk stops after the
        box's last slab: in a window slot what follows is an older
        epoch's, valid but stale.  A region that holds fewer frames than
        the box's cut, or a frame that does not describe its slab, is a
        :class:`CompressionError`.
        """
        parts = self._parts_of(into)
        pos = 0
        for lo, hi, _ in parts:
            slab = into if len(parts) == 1 else into[lo:hi]
            msg, consumed = open_frame(region[pos:])
            # (the scalar type's name: dtype.name costs 2 us a message)
            if (msg.dtype_name, msg.shape) != (slab.dtype.type.__name__, (slab.size,)):
                raise CompressionError(
                    f"corrupt metadata: frame holds {msg.dtype_name}{msg.shape}, "
                    f"the receiver expects {slab.dtype.name}({slab.size},)"
                )
            self._codec_named(msg.codec_name).decode_into(msg.payload, msg.header, slab)
            pos += consumed

    def _decode(self, source: int, region: np.ndarray, into: np.ndarray,
                report: ResilienceReport, failed: list[int]) -> None:
        """Decode ``source``'s region straight into its box ``into``
        (CRC-checked per frame); a block that fails integrity is reported
        and appended to ``failed``."""
        try:
            with (
                trace_span("decompress", rank=self.comm.rank, peer=source, bytes=int(region.size))
                if get_tracer() is not None
                else NULL_SPAN
            ):
                self._decode_region(region, into)
        except CompressionError as exc:
            report.record("integrity-failure", peer=source, detail=str(exc))
            failed.append(source)

    def _settle(
        self,
        send: Boxes,
        regions: Sequence[np.ndarray],
        report: ResilienceReport,
        stats: ExchangeStats,
        into: Boxes,
        failed: list[int] | None = None,
    ) -> None:
        """Decode every (routed) region into its box, then recover the blocks
        that failed integrity — these and ``failed``, the ones the ring
        decoded already — retransmitted from the still-live ``send`` views
        and decoded into the same boxes."""
        rank = self.comm.rank
        failed = [] if failed is None else failed
        for s, region in enumerate(regions):
            if region.size:
                self._decode(s, region, into[s], report, failed)
        # Collective recovery rounds.  Only runs under an active fault
        # plan — injector presence is world-global, so every rank takes
        # the same branch and the recovery collectives stay matched.  A
        # CRC failure with *no* fault source is a real transport/codec
        # bug: raise it rather than mask it with a retransmission.
        if self.injector is not None:
            with trace_span("retry", rank=rank, failed=len(failed)):
                self._recover(send, into, failed, report, stats)
        elif failed:
            raise WireIntegrityError(
                f"rank {rank}: corrupted block(s) from rank(s) {sorted(failed)} "
                f"with no fault plan active"
            )

    # -- recovery --------------------------------------------------------------------

    def _recover(
        self,
        send: Boxes,
        into: Boxes,
        failed: list[int],
        report: ResilienceReport,
        stats: ExchangeStats,
    ) -> None:
        """Collective recovery rounds: retransmit failed blocks two-sided.

        Every rank participates in each round (the failure sets are
        agreed via allgather) so senders and receivers stay matched.
        Rounds ``0 .. max_attempts-1`` retransmit with the original
        codec; the next rounds walk the ladder (lossless, then raw).
        A retransmission re-encodes the still-live send view into a
        region of its own; the receiver decodes it into the same box,
        over whatever the failed decode left there.  When the ladder is
        exhausted a typed error is raised — never a silent corruption.
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
            involved = bool(failed) or any(comm.rank in srcs for srcs in needs)
            if any_exhausted and attempt < policy.max_attempts:
                # Budget spent: skip the remaining same-codec rounds and
                # go straight to the degradation ladder.
                if involved:
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
                view = send[dest]
                assert view is not None  # zero-size blocks cannot fail decode
                blob = self._encode_private(view, dest, codec, report, None)
                report.record("retransmit", peer=dest, attempt=attempt, codec=codec.name)
                stats.retransmissions += 1
                stats.retransmitted_bytes += int(blob.size)
                comm.send(blob, dest, tag=tag)
            # Collect retransmissions for my failed blocks.
            still_failed: list[int] = []
            for source in sorted(failed):
                if extra < 0:
                    report.record("retry", peer=source, attempt=attempt, codec=codec.name)
                region = np.ascontiguousarray(comm.recv(source, tag=tag), dtype=np.uint8)
                try:
                    self._decode_region(region, into[source])
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

    def _move(self, send: Boxes, receive: Callable[[], Boxes], route: Route | None, riders: Any) -> None:
        """Every message is encoded from its strided view into the peer's slot
        and decoded from the local slot into its strided box: no pack,
        staging frame or unpack.  The self block goes first, at step 0 of
        the ring — so ``receive`` is asked before the first put.  Published,
        with its duration, as one ``exchange-round`` record."""
        # The exchange span makes one collective call a critical-path
        # scope of its own even outside a reshape (repro.perf groups
        # outermost exchange spans into rounds); the live phase is the
        # reshape's, so the span is the tracer's alone.
        started = time.monotonic()
        with trace_span("exchange", **self._span_attrs) if get_tracer() is not None else NULL_SPAN:
            stats, report = self._exchange(send, receive, route)
        self._finish(stats, report, time.monotonic() - started)

    def _exchange(
        self, send: Boxes, receive: Callable[[], Boxes], route: Route | None
    ) -> tuple[ExchangeStats, ResilienceReport]:
        """Move ``send`` into the boxes ``receive()`` by ``route``; returns
        the call's accounting."""
        rank = self.comm.rank
        stats = ExchangeStats()
        report = ResilienceReport(rank=rank)
        out = receive()
        self._move_self(send[rank], report, stats, out[rank])  # step 0 of the ring
        failed: list[int] = []
        # "we will decompress the entire buffer later, once communications
        # are done" under the fence rule; the credit rule decodes each
        # region as its header arrives.  Either way straight from the window.
        self.transport.move(
            route,
            lambda d, slot: self._encode_block(send[d], d, None, report, stats, slot),
            lambda s, region: self._decode(s, region, out[s], report, failed),
        )
        if failed or self.injector is not None:  # else there is nothing to settle
            self._settle(send, (), report, stats, out, failed)
        return stats, report
