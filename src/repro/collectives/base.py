"""What every all-to-all exchange is: one object shape, one epilogue.

Each algorithm of this package — reference, pairwise ring, OSC ring,
compressed OSC, two-level — is an :class:`Exchange`: ``op(send) ->
recv``, ``op.free()``, and after every call ``op.last_stats``
(:class:`ExchangeStats`) and ``op.last_report``
(:class:`~repro.faults.ResilienceReport`).  The accounting is published
by the single :meth:`Exchange._finish` as one ``exchange-round`` record,
so the tracer counters, the flight ring and the metrics registry agree
for every algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.errors import CommunicatorError
from repro.faults import ResilienceReport
from repro.machine.topology import Topology
from repro.runtime.base import Comm
from repro.telemetry import emit
from repro.trace import span as trace_span

__all__ = ["Boxes", "Exchange", "ExchangeStats", "pack", "unpack", "volume_rate"]

#: One strided view per rank (``None`` = nothing for / from that rank).
Boxes = Sequence[Optional[np.ndarray]]


def volume_rate(logical: int, wire: int) -> float:
    """Compression rate ``logical / wire``.

    0/0 (nothing exchanged) is 1.0 by convention; nonzero logical
    volume over zero wire bytes is ``inf`` — an accounting anomaly that
    must not masquerade as "no compression".
    """
    if wire:
        return logical / wire
    return 1.0 if logical == 0 else float("inf")


def pack(view: np.ndarray, pool: Any = None) -> np.ndarray:
    """``view`` as one flat contiguous chunk (pooled scratch with a ``pool``)."""
    if pool is None:
        return np.ascontiguousarray(view).reshape(-1)
    buf = pool.acquire_array(view.shape, view.dtype)
    np.copyto(buf, view)
    return buf.reshape(-1)


def unpack(target: np.ndarray, chunk: np.ndarray) -> None:
    """Copy the received ``chunk`` (flat values, or raw bytes) into ``target``."""
    if chunk.dtype != target.dtype:
        # raw window exchanges hand back bytes; codecs hand back values
        chunk = chunk.view(target.dtype) if chunk.dtype == np.uint8 else chunk.astype(target.dtype)
    target[...] = chunk.reshape(target.shape)


@dataclass
class ExchangeStats:
    """The one volume record: what one rank sent in an exchange — or, merged,
    in a reshape or a whole transform (a reshape's stats *are* its
    exchange's; :class:`~repro.fft.plan.FftStats` lists one per reshape)."""

    messages: int = 0
    logical_bytes: int = 0  # uncompressed payload volume
    wire_bytes: int = 0  # after compression
    retries: int = 0  # recovery retries
    degradations: int = 0  # codec ladder step-downs
    retransmissions: int = 0
    retransmitted_bytes: int = 0
    #: Largest measured round-trip relative error of the lossy messages
    #: (0.0 for lossless sends); only meaningful when ``error_measured``
    #: — i.e. the exchange ran with an ``e_tol``.
    achieved_error: float = 0.0
    error_measured: bool = False
    #: Resilience audit trails, one per exchange call (per-rank state).
    reports: list[ResilienceReport] = field(default_factory=list)

    @classmethod
    def raw(cls, send: Sequence[np.ndarray | None]) -> "ExchangeStats":
        """Accounting of an uncompressed exchange: every non-empty
        destination is one message whose wire bytes are its bytes."""
        sizes = [int(np.asarray(c).nbytes) for c in send if c is not None]
        total = sum(sizes)
        return cls(sum(1 for n in sizes if n), total, total)

    @property
    def achieved_rate(self) -> float:
        """Compression rate ``logical / wire`` (see :func:`volume_rate`)."""
        return volume_rate(self.logical_bytes, self.wire_bytes)

    @property
    def clean(self) -> bool:
        """True when no exchange recorded any resilience event.

        The counters must agree with the reports: an empty ``reports``
        list with nonzero ``retries``/``degradations`` (stats from a
        source that dropped its reports) is *not* clean.
        """
        return (
            self.retries == 0
            and self.degradations == 0
            and all(r.clean for r in self.reports)
        )

    def merge(self, *others: "ExchangeStats") -> "ExchangeStats":
        """Fold other records into this one (returns self): volumes and
        counters add, reports concatenate, the achieved error is the max."""
        for other in others:
            self.messages += other.messages
            self.logical_bytes += other.logical_bytes
            self.wire_bytes += other.wire_bytes
            self.retries += other.retries
            self.degradations += other.degradations
            self.retransmissions += other.retransmissions
            self.retransmitted_bytes += other.retransmitted_bytes
            self.achieved_error = max(self.achieved_error, other.achieved_error)
            self.error_measured = self.error_measured or other.error_measured
            self.reports.extend(other.reports)
        return self


class Exchange:
    """Base of every all-to-all object (all ranks construct collectively)."""

    #: Algorithm name stamped on exchange spans and flight events.
    algorithm = "abstract"
    codec: Any = None
    e_tol: float | None = None

    def __init__(self, comm: Comm, topology: Topology | None = None) -> None:
        if topology is not None and topology.nranks != comm.size:
            raise CommunicatorError("topology size does not match communicator size")
        self.comm = comm
        self.topology = topology
        self.last_stats = ExchangeStats()
        self.last_report = ResilienceReport(rank=comm.rank)
        self._round = 0

    def __call__(self, send: Sequence[np.ndarray | None]) -> list[np.ndarray]:
        raise NotImplementedError

    def free(self) -> None:
        """Collectively release what the exchange caches (nothing here)."""

    def slot_table(
        self, elements: np.ndarray, itemsize: int, leading: np.ndarray | None = None
    ) -> Any:
        """Window slots for a message matrix known before the first call.

        ``elements[s][d]`` items of ``itemsize`` bytes go from ``s`` to
        ``d`` in every call, as views whose leading axis is
        ``leading[s][d]`` long (``None``: flat).  The window exchanges
        answer with a
        :class:`~repro.collectives.osc.SlotTable` their ``transport`` can
        be bound to; ``None`` (here) means no window is driven.
        """
        return None

    def move(self, send: Boxes, receive: Callable[[], Boxes], pool: Any = None) -> None:
        """Exchange between strided views: ``send[d]`` (a box of this
        rank's block, only read) goes to rank ``d``, and what rank ``s``
        sent fills ``receive()[s]`` (a box of the caller's new block);
        ``None`` = nothing that way.  ``receive`` is called once, before
        the first box is written: once the data has arrived, or — a
        lossy window exchange, which decodes the self block at step 0 of
        its ring — before the first put.  What a reshape calls.

        Here: pack each view (scratch from ``pool`` when given), exchange
        the chunks, unpack — an exchange that can carry a strided view as
        it is overrides this and skips the staging.
        """
        rank = self.comm.rank
        packed: list[np.ndarray | None] = [None] * len(send)
        for d, view in enumerate(send):
            if view is not None:
                with trace_span("pack", rank=rank, peer=d):
                    packed[d] = pack(view, pool)
        recv = self(packed)
        # The exchange has consumed (copied or encoded) the packed chunks;
        # give them back before unpacking so the next reshape reuses them.
        # Pooled receive copies go back too; the lenient release ignores
        # arrays the pool never owned.
        if pool is not None:
            for chunk in packed:
                if chunk is not None:
                    pool.release(chunk)
        self._unpack_all(receive(), recv)
        if pool is not None:
            for chunk in recv:
                pool.release(np.asarray(chunk))

    def _unpack_all(self, out: Boxes, recv: Sequence[Any]) -> None:
        """Paste ``recv[s]`` (decoded values or raw bytes) into ``out[s]``."""
        for s, target in enumerate(out):
            if target is not None and recv[s] is not None:
                with trace_span("unpack", rank=self.comm.rank, peer=s):
                    unpack(target, np.asarray(recv[s]))

    def _check_send(self, send: Sequence[np.ndarray | None]) -> None:
        if len(send) != self.comm.size:
            raise CommunicatorError(
                f"send list has {len(send)} entries for {self.comm.size} ranks"
            )

    def _finish(
        self, stats: ExchangeStats, report: ResilienceReport, seconds: float | None = None
    ) -> None:
        """The exchange epilogue, shared by every algorithm: completes
        ``stats`` from ``report`` and publishes the round (and the call's
        duration, when the caller timed it) as one ``exchange-round``
        record — the tracer, the flight ring and live row, the registry."""
        stats.retries = report.retries
        stats.degradations = report.degradations
        stats.reports = [report]
        self.last_stats = stats
        self.last_report = report
        emit(
            "exchange-round",
            self.comm.rank,
            stats=stats,
            report=report,
            round=self._round,
            detail=self.codec.name if self.codec is not None else self.algorithm,
            e_tol=self.e_tol,
            seconds=seconds,
        )
        self._round += 1
