"""Reshape plans: the all-to-all data redistributions between FFT phases.

A reshape moves the grid from one :class:`~repro.fft.decomposition.CartesianDecomp`
to another.  Because both layouts are Cartesian, the data rank ``s``
owes rank ``d`` is a single box — ``inbox(s) ∩ outbox(d)`` — which is
*packed* into a contiguous buffer, exchanged (optionally compressed:
Algorithm 1 line 2), and *unpacked* on the receiver.  The compression
"plays a similar role as packing and unpacking operation in MPI"
(Section V-B): the wire always carries contiguous bytes.

Two executors share the same stage — :class:`ReshapeStage`, one rank's
slice tables and pack/unpack, the only definition of how a block is cut
and pasted:

* :meth:`ReshapePlan.run_virtual` — functional execution on a
  :class:`~repro.runtime.virtual.VirtualWorld` (scales to 1536 ranks):
  every rank's stage in one process, one message in flight;
* :meth:`ReshapePlan.run_spmd` — per-rank SPMD execution on a real
  communicator, through any of the all-to-all algorithms of
  :mod:`repro.collectives`; it is one execution of a
  :class:`BoundReshape` (a stage bound to an exchange), which a caller
  that repeats the reshape (:class:`~repro.fft.plan.Fft3d`) builds once
  and keeps.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.collectives.base import Exchange, ExchangeStats, pack, unpack
from repro.collectives.exchange import make_exchange
from repro.compression.base import Codec
from repro.errors import PlanError
from repro.telemetry import scope
from repro.tuning.pool import BufferPool
from repro.trace import incr as trace_incr
from repro.trace import span as trace_span
from repro.fft.box import Box3d
from repro.fft.decomposition import CartesianDecomp
from repro.runtime.base import Comm
from repro.runtime.virtual import VirtualWorld

__all__ = ["BoundReshape", "ReshapePlan", "ReshapeStage"]


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
        #: Each rank's side of the reshape (its slice tables), by rank.
        self.rank_stages = [ReshapeStage(self, rank) for rank in range(self.nranks)]

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
        return pack(local[(..., *box.slices_within(sbox))], pool)

    def unpack(
        self, rank: int, out: np.ndarray, source: int, box: Box3d, chunk: np.ndarray
    ) -> None:
        """Insert the chunk received from ``source`` into ``out``."""
        unpack(out[(..., *box.slices_within(self.dst.box_of(rank)))], chunk)

    def message_elements(self, batch: tuple[int, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
        """``[s, d]`` -> items rank ``s`` sends rank ``d`` (``batch`` entries
        per cell), and the length of that message's leading axis — where
        an exchange may cut it into strided fragments."""
        elements = np.zeros((self.nranks, self.nranks), dtype=np.int64)
        leading = np.zeros_like(elements)
        for s, row in enumerate(self.pairs):
            for d, box in row:
                elements[s, d] = box.size * math.prod(batch)
                leading[s, d] = (batch + box.shape)[0]
        return elements, leading

    # -- virtual (functional) execution ----------------------------------------------

    def run_virtual(
        self,
        world: VirtualWorld,
        locals_: Sequence[np.ndarray],
        *,
        codec: Codec | None = None,
        stats: ExchangeStats | None = None,
    ) -> list[np.ndarray]:
        """Execute the reshape over all ranks' local arrays at once.

        A streaming walk over every rank's :class:`ReshapeStage`, one
        message in flight: packed by the sender's stage, (optionally)
        compressed, logged to the world's traffic accounting at its
        *wire* size, decompressed and unpacked by the receiver's stage —
        the same byte stream, spans and counters the SPMD path produces.
        """
        if world.nranks != self.nranks:
            raise PlanError("world size does not match plan")
        if len(locals_) != self.nranks:
            raise PlanError("need one local array per rank")
        stages = self.rank_stages
        out = [stage.empty_out(locals_[0]) for stage in stages]
        for s, (sender, local) in enumerate(zip(stages, locals_)):
            sent = ExchangeStats()
            for d in sender.outgoing:
                chunk = received = sender.pack(local, d)
                wire = chunk.nbytes
                if codec is not None:
                    with trace_span("compress", rank=s, peer=d, bytes=chunk.nbytes):
                        msg = codec.compress(chunk)
                    with trace_span("decompress", rank=d, peer=s, bytes=msg.nbytes):
                        received = codec.decompress(msg)
                    wire = msg.nbytes
                world.traffic.record(s, d, wire)
                sent.messages += 1
                sent.logical_bytes += chunk.nbytes
                sent.wire_bytes += wire
                stages[d].unpack(out[d], s, received)
            for name in ("messages", "logical_bytes", "wire_bytes"):
                trace_incr(name, getattr(sent, name), rank=s)
            if stats is not None:
                stats.merge(sent)
        return out

    # -- SPMD execution ------------------------------------------------------------------

    def run_spmd(
        self,
        comm: Comm,
        local: np.ndarray,
        exchange: Exchange | None = None,
        *,
        stats: ExchangeStats | None = None,
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


class ReshapeStage:
    """One rank's side of a reshape: how its block is cut and pasted.

    What is the same in every execution is worked out here, once: the
    slices of the rank's block each message is read from (``outgoing``,
    by destination) and written to (``incoming``, by source), and the
    block shapes.  Leading batch dimensions pass through (``...``).
    """

    def __init__(self, plan: ReshapePlan, rank: int) -> None:
        sbox, dbox = plan.src.box_of(rank), plan.dst.box_of(rank)
        self.rank = rank
        self.in_shape, self.out_shape = sbox.shape, dbox.shape
        self.outgoing = {d: (..., *box.slices_within(sbox)) for d, box in plan.pairs[rank]}
        self.incoming = {s: (..., *box.slices_within(dbox)) for s, box in plan.incoming[rank]}

    def pack(self, local: np.ndarray, dest: int) -> np.ndarray:
        """The flat contiguous chunk this rank owes ``dest``."""
        if local.shape[-3:] != self.in_shape:
            raise PlanError(
                f"rank {self.rank}: local array shape {local.shape} != inbox {self.in_shape}"
            )
        with trace_span("pack", rank=self.rank, peer=dest):
            return pack(local[self.outgoing[dest]])

    def empty_out(self, like: np.ndarray) -> np.ndarray:
        """An unfilled destination block with ``like``'s batch and dtype."""
        return np.empty(like.shape[:-3] + self.out_shape, dtype=like.dtype)

    def unpack(self, out: np.ndarray, source: int, chunk: np.ndarray) -> None:
        """Paste the chunk received from ``source`` into ``out``."""
        with trace_span("unpack", rank=self.rank, peer=source):
            unpack(out[self.incoming[source]], chunk)


class BoundReshape:
    """A rank's :class:`ReshapeStage` bound to the exchange that moves it.

    The plan and its stages stay shared and stateless; the exchange
    (and behind it the window) is per-rank state.
    """

    def __init__(
        self, plan: ReshapePlan, rank: int, exchange: Exchange, batch: tuple[int, ...] = ()
    ) -> None:
        self.stage = plan.rank_stages[rank]
        self.exchange = exchange
        self.in_shape = batch + self.stage.in_shape

    def __call__(
        self,
        local: np.ndarray,
        *,
        stats: ExchangeStats | None = None,
        pool: BufferPool | None = None,
    ) -> np.ndarray:
        """Move ``local`` (this rank's block in the source layout) and
        return the rank's block in the destination layout.

        The exchange is handed the strided boxes of ``local`` it is to
        send and, when it asks, the strided boxes of the new block it is
        to fill (:meth:`Exchange.move`): a window exchange reads and
        writes them as they are, any other packs and unpacks around its
        call, with scratch from ``pool``.  Its accounting (its
        :class:`~repro.faults.ResilienceReport` included) is merged into
        ``stats`` (per-rank state).  The returned block never aliases a
        window.
        """
        stage, exchange = self.stage, self.exchange
        if local.shape != self.in_shape:
            raise PlanError(
                f"rank {stage.rank}: local array shape {local.shape} != inbox {self.in_shape}"
            )
        size = exchange.comm.size
        send: list[np.ndarray | None] = [None] * size
        for d, where in stage.outgoing.items():
            send[d] = local[where]
        out: list[np.ndarray] = []

        def receive() -> list[np.ndarray | None]:
            # Allocated when the exchange asks, i.e. before it writes the
            # first box (see Exchange.move).
            out.append(stage.empty_out(local))
            return [out[0][stage.incoming[s]] if s in stage.incoming else None for s in range(size)]

        # One phase scope per reshape: "exchange" is where a rank spends
        # its blocking time (pack/unpack are sub-ms local work and live
        # writes there measurably tax the GIL-shared ranks).
        with scope(
            "exchange", stage.rank, method=exchange.algorithm, messages=len(stage.outgoing)
        ):
            exchange.move(send, receive, pool)
        if stats is not None:
            stats.merge(exchange.last_stats)
        return out[0]
