"""Classical two-sided ring ("pairwise") all-to-all (Section V).

For ``p`` ranks the exchange completes in ``p`` steps (including the
self-send).  At step ``j`` rank ``i`` sends to its ``j``-th target and
receives from the unique rank whose ``j``-th target is ``i`` — with the
plain ring that is ``(i - j) % p``; with the node-aware permutation it
is the algebraic inverse of
:func:`repro.machine.topology.node_aware_permutation`.  "At each step,
each process sends and receives one message of same size to and from
different processes ... ensuring a constant, bi-directional traffic."

Bound to a plan (:class:`PairSlots`), the ring keeps its steps but no
payload rides it: each box is put straight into a fixed slot of the
peer's arena, and only a header and a release credit are messages
(DESIGN §15.7).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.collectives.base import Boxes, Exchange, ExchangeStats, unpack
from repro.collectives.osc import OscAlltoallv, SlotTable
from repro.conformance import hooks
from repro.errors import CommunicatorError
from repro.faults import ResilienceReport
from repro.machine.topology import Topology, ring_peers
from repro.runtime.base import Comm
from repro.trace import span as trace_span
from repro.utils.arrays import no_alias_copy

__all__ = ["PairSlots", "PairwiseAlltoallv", "pairwise_alltoallv", "ring_peers"]

_TAG = -201
#: Headers and credits of a bound ring: two tags per arena, by window number.
_SLOT_TAG = -20000

_EMPTY = np.zeros(0, dtype=np.uint8)


class PairSlots:
    """The arena a bound pairwise plan puts into, and its release credits.

    Every (source, dest) pair owns one slot for the life of the binding,
    sized for that pair's largest message over the plan's reshapes, so a
    slot has exactly one writer and one reader.  A sender rewrites a
    slot only after the receiver has released what it last put there:
    ``owed[d]`` is set by a put to ``d`` and cleared by ``d``'s credit,
    which ``d`` sends right after its unpack.  Headers and credits use
    two tags derived from the window's number, the same on every rank,
    so two bindings on one communicator never take each other's.
    """

    def __init__(self, comm: Comm, tables: Sequence[SlotTable]) -> None:
        self.comm = comm
        table = SlotTable(np.maximum.reduce([t.capacity for t in tables]), align=16)
        self.win = comm.win_create(int(table.extent.max()))
        self._room = table.capacity[comm.rank].tolist()
        self._to = table.offset[comm.rank].tolist()  # my slot on each dest
        self._from = table.offset[:, comm.rank].tolist()  # each source's slot here
        self.header_tag = _SLOT_TAG - 2 * self.win.win_id
        self.credit_tag = self.header_tag - 1
        self.owed = [False] * comm.size

    def put(self, box: np.ndarray, dest: int) -> None:
        """Once ``dest`` has released this rank's slot, put ``box`` there
        and send the header (the byte count)."""
        comm = self.comm
        if box.nbytes > self._room[dest]:
            raise CommunicatorError(
                f"rank {comm.rank}: {box.nbytes} B for rank {dest} exceed "
                f"their {self._room[dest]} B pair slot"
            )
        if self.owed[dest]:
            comm.recv(dest, tag=self.credit_tag)
        self.win.put(box, dest, offset=self._to[dest])
        comm.send(np.array([box.nbytes], dtype=np.int64), dest, tag=self.header_tag)
        self.owed[dest] = True

    def take(self, source: int) -> np.ndarray:
        """Wait for ``source``'s header; the bytes it put, as a borrowed
        view of this rank's arena valid until :meth:`give_back`."""
        nbytes = int(self.comm.recv(source, tag=self.header_tag)[0])
        at = self._from[source]
        return self.win.local_view()[at : at + nbytes]

    def give_back(self, source: int) -> None:
        """Release ``source``'s slot: the credit it waits for to rewrite it."""
        self.comm.send(_EMPTY, source, tag=self.credit_tag)

    def release(self) -> None:
        """Drop this rank's handle (no barrier) — the communicator retired."""
        self.win.release()

    def free(self) -> None:
        """Collectively release the arena, first taking every credit still
        owed, so nothing of this binding stays queued for the rank."""
        for dest, owed in enumerate(self.owed):
            if owed:
                self.comm.recv(dest, tag=self.credit_tag)
        self.win.free()


class PairwiseAlltoallv(Exchange):
    """Two-sided ring all-to-all: ``send[d]`` (bytes/any dtype) to rank ``d``.

    Parameters
    ----------
    comm:
        Runtime communicator.
    topology:
        When given, the node-aware permutation orders the ring so each
        node pair saturates its NIC exclusively at every step.
    """

    algorithm = "pairwise"
    #: The plan's arena (``None``: every call sends its chunks through the ring).
    slots: PairSlots | None = None
    #: Raw messages are exactly their bytes, as on OSC (:class:`PairSlots`
    #: takes the element-wise maximum over a plan's tables).
    slot_table = OscAlltoallv.slot_table

    def move(self, send: Boxes, receive: Callable[[], Boxes], pool=None) -> None:
        """Unbound: pack, ring, unpack (:meth:`Exchange.move`).  Bound: the
        self box is one strided copy; at each step the box for ``dest``
        is put into its pair slot and the box from ``source`` unpacked
        straight from its slot when the header arrives, then released."""
        slots = self.slots
        if slots is None:
            return super().move(send, receive, pool)
        rank, p = self.comm.rank, self.comm.size
        out = receive()
        if out[rank] is not None:
            with trace_span("unpack", rank=rank, peer=rank):
                unpack(out[rank], send[rank])
        for step in range(1, p):
            dest, source = ring_peers(rank, step, p, self.topology)
            box, target = send[dest], out[source]
            if box is None and target is None:
                continue
            nbytes = 0 if box is None else int(box.nbytes)
            with trace_span("sendrecv", rank=rank, peer=dest, bytes=nbytes):
                if box is not None:
                    box = hooks.mutate("pairwise.chunk", box, rank=rank, dest=dest, step=step)
                    slots.put(box, dest)
                region = None if target is None else slots.take(source)
            if target is not None:
                with trace_span("unpack", rank=rank, peer=source):
                    unpack(target, region)
                slots.give_back(source)
        self._finish(ExchangeStats.raw(send), ResilienceReport(rank=rank))

    def __call__(self, send: Sequence[np.ndarray | None]) -> list[np.ndarray]:
        """``recv[s]`` = the chunk sent by rank ``s`` (uint8 when the
        sender passed ``None``)."""
        comm, p = self.comm, self.comm.size
        self._check_send(send)
        empty = np.zeros(0, dtype=np.uint8)
        recv: list[np.ndarray] = [empty] * p

        # Step 0 is the local (self) exchange: exactly one copy, and never
        # an alias of the caller's send buffer (ascontiguousarray alone
        # returns the input itself when it is already contiguous).
        recv[comm.rank] = no_alias_copy(send[comm.rank])

        for step in range(1, p):
            dest, src = ring_peers(comm.rank, step, p, self.topology)
            chunk = send[dest]
            out = empty if chunk is None else np.ascontiguousarray(chunk)
            out = hooks.mutate("pairwise.chunk", out, rank=comm.rank, dest=dest, step=step)
            # isend-then-recv: eager buffered send cannot deadlock, and the
            # pair (dest, src) differs per rank so messages pair up 1:1.
            with trace_span("sendrecv", rank=comm.rank, peer=dest, bytes=int(out.nbytes)):
                req = comm.isend(out, dest, tag=_TAG - step)
                recv[src] = comm.recv(src, tag=_TAG - step)
                req.wait()
        self._finish(ExchangeStats.raw(send), ResilienceReport(rank=comm.rank))
        return recv


def pairwise_alltoallv(
    comm: Comm,
    send: Sequence[np.ndarray | None],
    *,
    topology: Topology | None = None,
) -> list[np.ndarray]:
    """One-shot helper: ``PairwiseAlltoallv(comm, topology=topology)(send)``."""
    return PairwiseAlltoallv(comm, topology)(send)
