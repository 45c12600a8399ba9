"""Reshape plans: the all-to-all data redistributions between FFT phases.

A reshape moves the grid from one :class:`~repro.fft.decomposition.CartesianDecomp`
to another.  Because both layouts are Cartesian, the data rank ``s``
owes rank ``d`` is a single box — ``inbox(s) ∩ outbox(d)`` — which is
*packed* into a contiguous buffer, exchanged (optionally compressed:
Algorithm 1 line 2), and *unpacked* on the receiver.  The compression
"plays a similar role as packing and unpacking operation in MPI"
(Section V-B): the wire always carries contiguous bytes.

Two executors share the same plan:

* :meth:`ReshapePlan.run_virtual` — functional execution on a
  :class:`~repro.runtime.virtual.VirtualWorld` (scales to 1536 ranks);
* :meth:`ReshapePlan.run_spmd` — per-rank SPMD execution on a real
  communicator, through any of the all-to-all algorithms of
  :mod:`repro.collectives`; it is one execution of a
  :class:`BoundReshape`, which a caller that repeats the reshape
  (:class:`~repro.fft.plan.Fft3d`) builds once and keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.collectives.base import Exchange, volume_rate
from repro.collectives.exchange import make_exchange
from repro.collectives.osc import OscAlltoallv
from repro.compression.base import Codec
from repro.errors import PlanError
from repro.faults import ResilienceReport
from repro.telemetry.recorder import live_update
from repro.tuning.pool import BufferPool
from repro.trace import incr as trace_incr
from repro.trace import span as trace_span
from repro.fft.box import Box3d
from repro.fft.decomposition import CartesianDecomp
from repro.runtime.base import Comm
from repro.runtime.virtual import VirtualWorld

__all__ = ["BoundReshape", "ReshapePlan", "ReshapeStats"]


@dataclass
class ReshapeStats:
    """Volume accounting of one reshape execution."""

    messages: int = 0
    logical_bytes: int = 0  # uncompressed payload volume
    wire_bytes: int = 0  # after compression
    retries: int = 0  # recovery retries across resilient exchanges
    degradations: int = 0  # codec ladder step-downs
    #: Per-exchange resilience audit trails (this rank's exchanges only —
    #: a ReshapeStats instance is per-rank state, unlike the shared plan).
    reports: list[ResilienceReport] = field(default_factory=list)

    @property
    def achieved_rate(self) -> float:
        """Compression rate ``logical / wire`` (see :func:`volume_rate`)."""
        return volume_rate(self.logical_bytes, self.wire_bytes)

    @property
    def clean(self) -> bool:
        """True when no resilient exchange recorded any event.

        Requires the counters to agree with the reports: an empty
        ``reports`` list with nonzero ``retries``/``degradations``
        (e.g. stats merged from a source that dropped its reports) is
        *not* clean.
        """
        return (
            self.retries == 0
            and self.degradations == 0
            and all(r.clean for r in self.reports)
        )

    def fold(self, exchange: Exchange) -> None:
        """Add the accounting of ``exchange``'s last call (its stats and
        its :class:`~repro.faults.ResilienceReport`)."""
        sent, report = exchange.last_stats, exchange.last_report
        self.messages += sent.sent_messages
        self.logical_bytes += sent.original_bytes
        self.wire_bytes += sent.wire_bytes
        self.retries += report.retries
        self.degradations += report.degradations
        self.reports.append(report)

    def merge(self, other: "ReshapeStats") -> "ReshapeStats":
        """Fold another execution's accounting into this one (returns self).

        Lets multi-reshape pipelines aggregate per-stage stats without
        hand-summing fields.
        """
        self.messages += other.messages
        self.logical_bytes += other.logical_bytes
        self.wire_bytes += other.wire_bytes
        self.retries += other.retries
        self.degradations += other.degradations
        self.reports.extend(other.reports)
        return self


class ReshapePlan:
    """Precomputed exchange pattern between two Cartesian layouts."""

    def __init__(self, src: CartesianDecomp, dst: CartesianDecomp) -> None:
        if src.shape != dst.shape:
            raise PlanError(f"layout shapes differ: {src.shape} vs {dst.shape}")
        if src.nranks != dst.nranks:
            raise PlanError(f"rank counts differ: {src.nranks} vs {dst.nranks}")
        self.src = src
        self.dst = dst
        self.nranks = src.nranks
        # pairs[s] = list of (d, overlap_box); built via grid search, so
        # plan construction is O(messages), not O(p^2).
        self.pairs: list[list[tuple[int, Box3d]]] = []
        self.incoming: list[list[tuple[int, Box3d]]] = [[] for _ in range(self.nranks)]
        for s in range(self.nranks):
            sbox = src.box_of(s)
            row: list[tuple[int, Box3d]] = []
            for d in dst.overlapping_ranks(sbox):
                overlap = sbox.intersect(dst.box_of(d))
                if not overlap.empty:
                    row.append((d, overlap))
                    self.incoming[d].append((s, overlap))
            self.pairs.append(row)

    # -- introspection -----------------------------------------------------------

    @property
    def n_messages(self) -> int:
        """Total (src, dst) pairs, self-messages included."""
        return sum(len(row) for row in self.pairs)

    def total_bytes(self, itemsize: int = 16) -> int:
        """Logical bytes moved (= grid size x itemsize: every cell moves once)."""
        return sum(b.size for row in self.pairs for _, b in row) * itemsize

    # -- pack / unpack -------------------------------------------------------------

    def pack(
        self,
        rank: int,
        local: np.ndarray,
        dest: int,
        box: Box3d,
        *,
        pool: BufferPool | None = None,
    ) -> np.ndarray:
        """Extract the contiguous chunk rank ``rank`` owes ``dest``.

        ``local`` is the rank's block, optionally with a leading batch
        dimension (batched transforms ship all batch entries of a cell
        in one message — heFFTe's batching).  With a ``pool`` the chunk
        is staged in a reusable scratch buffer instead of a fresh
        allocation (callers release it once the exchange consumed it).
        """
        sbox = self.src.box_of(rank)
        if local.shape[-3:] != sbox.shape:
            raise PlanError(
                f"rank {rank}: local array shape {local.shape} != inbox {sbox.shape}"
            )
        return _pack(local[(..., *box.slices_within(sbox))], pool)

    def unpack(
        self, rank: int, out: np.ndarray, source: int, box: Box3d, chunk: np.ndarray
    ) -> None:
        """Insert the chunk received from ``source`` into ``out``."""
        _unpack(out[(..., *box.slices_within(self.dst.box_of(rank)))], chunk)

    def message_elements(self, batch: tuple[int, ...] = ()) -> np.ndarray:
        """``[s, d]`` -> items rank ``s`` sends rank ``d`` (``batch`` entries per cell)."""
        elements = np.zeros((self.nranks, self.nranks), dtype=np.int64)
        for s, row in enumerate(self.pairs):
            for d, box in row:
                elements[s, d] = box.size * math.prod(batch)
        return elements

    def _alloc_out(
        self, rank: int, dtype: np.dtype, batch: tuple[int, ...] = ()
    ) -> np.ndarray:
        return np.empty(batch + self.dst.box_of(rank).shape, dtype=dtype)

    # -- virtual (functional) execution ----------------------------------------------

    def run_virtual(
        self,
        world: VirtualWorld,
        locals_: Sequence[np.ndarray],
        *,
        codec: Codec | None = None,
        stats: ReshapeStats | None = None,
    ) -> list[np.ndarray]:
        """Execute the reshape over all ranks' local arrays at once.

        Each message is packed, (optionally) compressed, logged to the
        world's traffic accounting at its *wire* size, decompressed and
        unpacked — the same byte stream the SPMD path produces.
        """
        if world.nranks != self.nranks:
            raise PlanError("world size does not match plan")
        if len(locals_) != self.nranks:
            raise PlanError("need one local array per rank")
        dtype = locals_[0].dtype
        batch = locals_[0].shape[:-3]
        out = [self._alloc_out(r, dtype, batch) for r in range(self.nranks)]
        for s in range(self.nranks):
            for d, box in self.pairs[s]:
                with trace_span("pack", rank=s, peer=d):
                    chunk = self.pack(s, locals_[s], d, box)
                if codec is None:
                    world.traffic.record(s, d, chunk.nbytes)
                    received = chunk
                    wire = chunk.nbytes
                else:
                    with trace_span("compress", rank=s, peer=d, bytes=chunk.nbytes):
                        msg = codec.compress(chunk)
                    world.traffic.record(s, d, msg.nbytes)
                    with trace_span("decompress", rank=d, peer=s, bytes=msg.nbytes):
                        received = codec.decompress(msg)
                    wire = msg.nbytes
                trace_incr("messages", 1, rank=s)
                trace_incr("logical_bytes", chunk.nbytes, rank=s)
                trace_incr("wire_bytes", wire, rank=s)
                if stats is not None:
                    stats.messages += 1
                    stats.logical_bytes += chunk.nbytes
                    stats.wire_bytes += wire
                with trace_span("unpack", rank=d, peer=s):
                    self.unpack(d, out[d], s, box, received)
        return out

    # -- SPMD execution ------------------------------------------------------------------

    def run_spmd(
        self,
        comm: Comm,
        local: np.ndarray,
        exchange: Exchange | None = None,
        *,
        stats: ReshapeStats | None = None,
        pool: BufferPool | None = None,
    ) -> np.ndarray:
        """Execute this rank's part of the reshape on a communicator.

        ``exchange`` is the all-to-all to move the chunks with —
        anything :func:`~repro.collectives.exchange.make_exchange`
        builds; ``None`` means the communicator's reference
        ``alltoallv``.  The caller keeps it (its window is cached
        across calls) and frees it.  ``stats`` and ``pool`` are those of
        :meth:`BoundReshape.__call__`.
        """
        if comm.size != self.nranks:
            raise PlanError("communicator size does not match plan")
        if exchange is None:
            exchange = make_exchange(comm, method="reference")
        bound = BoundReshape(self, comm.rank, exchange, local.shape[:-3])
        return bound(local, stats=stats, pool=pool)


def _pack(view: np.ndarray, pool: BufferPool | None) -> np.ndarray:
    """``view`` as one flat contiguous chunk (pooled scratch with a ``pool``)."""
    if pool is None:
        return np.ascontiguousarray(view).reshape(-1)
    buf = pool.acquire_array(view.shape, view.dtype)
    np.copyto(buf, view)
    return buf.reshape(-1)


def _unpack(target: np.ndarray, chunk: np.ndarray) -> None:
    """Copy the received ``chunk`` (flat values, or raw bytes) into ``target``."""
    if chunk.dtype != target.dtype:
        # raw window exchanges hand back bytes; codecs hand back values
        chunk = chunk.view(target.dtype) if chunk.dtype == np.uint8 else chunk.astype(target.dtype)
    target[...] = chunk.reshape(target.shape)


class BoundReshape:
    """One rank's side of a reshape, bound to the exchange that moves it.

    What is the same in every execution is worked out here, once: the
    slices of the rank's block each message is read from and written
    to, and the shapes.  The plan stays shared and stateless; this is
    per-rank state.
    """

    def __init__(
        self, plan: ReshapePlan, rank: int, exchange: Exchange, batch: tuple[int, ...] = ()
    ) -> None:
        sbox, dbox = plan.src.box_of(rank), plan.dst.box_of(rank)
        self.rank = rank
        self.exchange = exchange
        self.nranks = plan.nranks
        self.in_shape = batch + sbox.shape
        self.out_shape = batch + dbox.shape
        self.outgoing = [(d, (..., *box.slices_within(sbox))) for d, box in plan.pairs[rank]]
        self.incoming = [(s, (..., *box.slices_within(dbox))) for s, box in plan.incoming[rank]]

    def __call__(
        self,
        local: np.ndarray,
        *,
        stats: ReshapeStats | None = None,
        pool: BufferPool | None = None,
    ) -> np.ndarray:
        """Move ``local`` (this rank's block in the source layout) and
        return the rank's block in the destination layout.

        The exchange's accounting and
        :class:`~repro.faults.ResilienceReport` are folded into
        ``stats`` (per-rank state).  ``pool`` stages the pack scratch in
        reusable buffers and takes back the receive copies the exchange
        drew from it (zero steady-state allocations once warm).

        Through the raw one-sided exchange nothing is staged at all:
        the puts read the strided boxes of ``local`` and the unpack
        reads the local window (borrowed views that do not outlive this
        call — the returned block never aliases a window).
        """
        if local.shape != self.in_shape:
            raise PlanError(
                f"rank {self.rank}: local array shape {local.shape} != inbox {self.in_shape}"
            )
        rank, exchange = self.rank, self.exchange
        direct = isinstance(exchange, OscAlltoallv)
        send: list[np.ndarray | None] = [None] * self.nranks
        for d, where in self.outgoing:
            if direct:
                send[d] = local[where]
            else:
                with trace_span("pack", rank=rank, peer=d):
                    send[d] = _pack(local[where], pool)

        # One live-phase beacon per reshape: "exchange" is where a rank
        # spends its blocking time (pack/unpack are sub-ms local work and
        # per-phase beacons there measurably tax the GIL-shared ranks).
        live_update(rank, phase="exchange")
        with trace_span(
            "exchange", rank=rank, method=exchange.algorithm, messages=len(self.outgoing)
        ):
            recv = exchange.borrow(send) if direct else exchange(send)
        if stats is not None:
            stats.fold(exchange)

        # Every exchange has consumed (copied or encoded) the packed
        # send buffers by now; give them back before unpacking so the
        # next reshape reuses them.
        if pool is not None and not direct:
            for buf in send:
                if buf is not None:
                    pool.release(buf)

        out = np.empty(self.out_shape, dtype=local.dtype)
        for s, where in self.incoming:
            with trace_span("unpack", rank=rank, peer=s):
                _unpack(out[where], np.asarray(recv[s]))
        if pool is not None and not direct:
            for s, _ in self.incoming:
                # Pooled receive copies go back too; the lenient release
                # ignores arrays the pool never owned.
                pool.release(np.asarray(recv[s]))
        return out
