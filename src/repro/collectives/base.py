"""What every all-to-all exchange is: one object shape, one epilogue.

Each exchange of this package — the reference, the slot exchange (raw
or compressed, fence or credit rule), the two-level one — is an
:class:`Exchange`: ``op(send) ->
recv``, ``op.free()``, and after every call ``op.last_stats``
(:class:`ExchangeStats`) and ``op.last_report``
(:class:`~repro.faults.ResilienceReport`).  A one-shot call and a
reshape's :meth:`Exchange.move` are one path: the call announces its
messages in one allgather and moves into boxes it allocates.  The
accounting is published by the single :meth:`Exchange._finish` as one
``exchange-round`` record, so the tracer counters, the flight ring and
the metrics registry agree for every algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.collectives.slots import Route, SlotTable, SlotTransport
from repro.errors import CommunicatorError
from repro.faults import ResilienceReport
from repro.machine.topology import Topology
from repro.runtime.base import Comm
from repro.telemetry import emit

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
    """Base of every all-to-all object (all ranks construct collectively): a
    window exchange moves through :attr:`transport` by its plan's :attr:`table` or one agreed."""

    #: Algorithm name stamped on exchange spans and flight events.
    algorithm = "abstract"
    codec: Any = None
    e_tol: float | None = None
    #: Its transport's completion rule (:mod:`repro.collectives.slots`).
    rule = "fence"
    #: The transport this exchange moves through (``None``: it drives no window).
    transport: SlotTransport | None = None
    #: The plan's table the exchange is bound to (``None``: every call agrees one).
    table: SlotTable | None = None
    #: :attr:`table` resolved for this rank on the transport's window (kept across calls).
    route: Route | None = None

    def __init__(self, comm: Comm, topology: Topology | None = None) -> None:
        if topology is not None and topology.nranks != comm.size:
            raise CommunicatorError("topology size does not match communicator size")
        self.comm = comm
        self.topology = topology
        self.last_stats = ExchangeStats()
        self.last_report = ResilienceReport(rank=comm.rank)
        self._round = 0

    def __call__(self, send: Sequence[np.ndarray | None]) -> list[np.ndarray]:
        """One-shot exchange: ``recv[s]`` is what rank ``s`` sent this rank,
        in a box of the sender's dtype and shape (an empty FP64 block for
        nothing) — a :meth:`move` whose boxes the exchange allocates."""
        self._check_send(send)
        send = [None if view is None else np.asarray(view) for view in send]
        out: list[np.ndarray] = []

        def boxes(kinds: list) -> list[np.ndarray]:
            out.extend(np.zeros(0) if k is None else np.empty(k[1], dtype=k[0]) for k in kinds)
            return out

        self._agree(send, boxes)
        return out

    def move(self, send: Boxes, receive: Callable[[], Boxes], pool: Any = None) -> None:
        """Exchange between strided views: ``send[d]`` (a box of this
        rank's block, only read) goes to rank ``d``, and what rank ``s``
        sent fills ``receive()[s]`` (a box of the caller's new block);
        ``None`` = nothing that way.  ``receive`` is called once, before
        the first box is written.  What a reshape calls: bound, through
        the plan's table; unbound, through one agreed as a one-shot call
        agrees it.  ``pool`` is for exchanges that stage (the reference)."""
        self._check_send(send)
        if self.table is not None:
            self.route = self.transport.route(self.table, self.route)
            self._move(send, receive, self.route)
        else:
            self._agree(send, lambda kinds: receive())

    def free(self) -> None:
        """Collectively release the transport's window (a plan's: its binding does)."""
        if self.transport is not None and self.table is None:
            self.transport.free()

    def slot_table(
        self, elements: np.ndarray, itemsize: int, leading: np.ndarray | None = None
    ) -> SlotTable | None:
        """Window slots for ``elements[s][d]`` items of ``itemsize`` bytes
        from ``s`` to ``d``, as views whose leading axis is
        ``leading[s][d]`` long (``None``: flat) — asked by a plan per
        reshape, and by a one-shot call; ``None``: no window is driven."""
        return None

    def _agree(self, send: Boxes, boxes: Callable[[list], Boxes]) -> None:
        """An unbound move: :meth:`_announce`, then the move into
        ``boxes(kinds)`` — the kinds this rank receives — by the agreed
        table's route, which the call drops."""
        kinds, table = self._announce(send)
        route = None if table is None else self.transport.route(table)
        self._move(send, lambda: boxes(kinds), route)

    def _announce(self, send: Boxes) -> tuple[list, SlotTable]:
        """One allgather of every message's ``(dtype, shape)`` — both sides of
        an Alltoallv know counts and types.  Returns the kinds this rank
        receives and the table every rank derives alike."""
        comm, p = self.comm, self.comm.size
        gathered = comm.allgather([self._kind(view) for view in send])
        nbytes = np.zeros((p, p), dtype=np.int64)
        leading = np.ones_like(nbytes)
        for s, kinds in enumerate(gathered):
            for d, kind in enumerate(kinds):
                if kind is not None:
                    dtype, shape = kind
                    nbytes[s, d] = math.prod(shape) * np.dtype(dtype).itemsize
                    leading[s, d] = shape[0] if shape else 1
        return [row[comm.rank] for row in gathered], self.slot_table(nbytes, 1, leading)

    def _kind(self, view: np.ndarray | None) -> tuple[str, tuple[int, ...]] | None:
        """What the receiver allocates the box from (``None``: nothing)."""
        return None if view is None or view.size == 0 else (view.dtype.str, view.shape)

    def _move(self, send: Boxes, receive: Callable[[], Boxes], route: Any) -> None:
        """Move ``send`` into ``receive()``'s boxes by ``route``."""
        raise NotImplementedError

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
        events = report.events
        stats.retries = report.retries if events else 0
        stats.degradations = report.degradations if events else 0
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
