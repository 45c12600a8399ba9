"""The one data plane: slot tables and the slot transport.

Every window exchange produces rank ``s``'s message for ``d`` straight
into ``s``'s slot of ``d``'s window region, and ``d`` consumes it from
there.  Only how a put is *completed* differs (DESIGN §15.2): the
``"fence"`` rule of Algorithm 3 (every put, one fence, every read; two
window halves used in turn), or the ``"credit"`` rule of the classical
ring (fixed pair slots, an 8-byte header after the payload, a release
credit before the writer may rewrite the slot).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.conformance import hooks
from repro.errors import CommunicatorError
from repro.machine.topology import Topology, ring_peers
from repro.runtime.base import Comm
from repro.runtime.window import Window
from repro.trace import NULL_SPAN, get_tracer
from repro.trace import span as trace_span

__all__ = ["Route", "SlotTable", "SlotTransport", "strided_put"]

#: Headers and credits of the credit rule: two tags per window, by window number.
_SLOT_TAG = -20000

_EMPTY = np.zeros(0, dtype=np.uint8)

Produce = Callable[[int, np.ndarray], int]
Consume = Callable[[int, np.ndarray], None]


class SlotTable:
    """Where every (source, dest) message lands in ``dest``'s window region:
    ``capacity[s, d]`` bytes at byte ``offset[s, d]`` (sources back to
    back, each slot rounded up to ``align``); ``extent[d]`` is what rank
    ``d``'s region must hold.  The diagonal is zero: a rank's message to
    itself never crosses the window."""

    def __init__(self, capacity: np.ndarray, *, align: int = 1) -> None:
        self.capacity = np.array(capacity, dtype=np.int64)
        np.fill_diagonal(self.capacity, 0)
        padded = -(-self.capacity // align) * align
        self.offset = np.cumsum(padded, axis=0) - padded
        self.extent = padded.sum(axis=0)
        #: The largest region of any rank, and whether anything moves at all.
        self.largest = int(self.extent.max())
        self.moves = bool(self.capacity.any())


class Route:
    """A :class:`SlotTable` resolved for one rank on one window, as plain
    ints: what :meth:`SlotTransport.move` walks.  Built once by
    :meth:`SlotTransport.route` — a bound exchange keeps it for every
    call, a one-shot call builds it from its agreed table and drops it —
    and valid while its window is the transport's.

    ``puts`` (fence rule): ``(dest, offset, room, intra)`` in ring order;
    ``reads``: ``(source, offset, size)`` in rank order; ``steps`` (credit
    rule): ``(dest, source, (offset, room) or None, whether it receives)``,
    one per ring step that sends or receives."""

    __slots__ = ("table", "win", "moves", "puts", "reads", "steps")

    def __init__(self, transport: "SlotTransport", table: SlotTable) -> None:
        rank, topo = transport.comm.rank, transport.topology
        self.table, self.win, self.moves = table, transport.win, table.moves
        self.puts, self.reads, self.steps = [], [], []
        if not self.moves:  # nothing to walk (and maybe no window yet)
            return
        sends, receives = table.capacity[rank].tolist(), table.capacity[:, rank].tolist()
        if transport.rule == "fence":
            offsets, starts = table.offset[rank].tolist(), table.offset[:, rank].tolist()
            self.puts = [
                (d, offsets[d], sends[d], topo is not None and topo.same_node(rank, d))
                for d, _ in transport._ring
                if sends[d]
            ]
            self.reads = [(s, starts[s], n) for s, n in enumerate(receives) if n]
        else:
            layout = transport._layout
            offsets, room = layout.offset[rank].tolist(), layout.capacity[rank].tolist()
            self.steps = [
                (d, s, (offsets[d], room[d]) if sends[d] else None, bool(receives[s]))
                for d, s in transport._ring
                if sends[d] or receives[s]
            ]


def strided_put(box: np.ndarray, slot: np.ndarray) -> int:
    """Copy ``box`` (any dtype, any layout) to the head of ``slot``: one
    strided copy, no pack first.  Returns its size; a box larger than the
    slot is not written."""
    nbytes = box.nbytes
    if nbytes <= slot.size:
        if box.flags.c_contiguous:
            slot[:nbytes] = box.reshape(-1).view(np.uint8)
        else:
            np.copyto(slot[:nbytes].view(box.dtype).reshape(box.shape), box)
    return nbytes


class SlotTransport:
    """One window and one completion rule, shared by the exchanges it serves:
    the window and its size, the ring order (node-aware with a topology),
    the self-message skip (a table's diagonal is zero), the put through
    :meth:`Window.reserve`, the slot-overflow check, the
    ``osc.put_offset`` mutation point and the completion.  A plan sizes
    it once (:meth:`grow`); a one-shot call grows it when its table does
    not fit."""

    def __init__(self, comm: Comm, rule: str = "fence", topology: Topology | None = None) -> None:
        if rule not in ("fence", "credit"):
            raise ValueError(f"unknown completion rule {rule!r}")
        self.comm, self.rule, self.topology = comm, rule, topology
        self.win: Window | None = None  # until the first sizing, and after free()
        self.epoch = 0  # fence rule: epochs since the window was created
        self.owed = [False] * comm.size  # credit rule: puts whose credit is due
        self.header_tag = self.credit_tag = 0
        self._half = 0  # fence rule: bytes per half
        self._layout: SlotTable | None = None  # credit rule: the pair slots
        self._starts: list[int] = []  # credit rule: where each source's slot starts here
        self._ring = [ring_peers(comm.rank, j, comm.size, topology) for j in range(1, comm.size)]

    def _fits(self, table: SlotTable) -> bool:
        if self.rule == "fence":
            return self.win is not None and table.largest <= self._half
        return self.win is not None and bool(np.all(table.capacity <= self._layout.capacity))

    def grow(self, tables: Sequence[SlotTable]) -> None:
        """Collectively (re)create the window for ``tables`` and all it served
        before (every rank holds the same tables).  Fence rule: each half
        holds the largest extent; credit rule: the region is laid out by
        the tables' element-wise maximum, so a pair owns the same bytes in
        every one.  The epoch is back at 0 and no credit is owed."""
        if self.rule == "fence":
            half = max([self._half] + [t.largest for t in tables])
            self._half = -(-half // 16) * 16
            nbytes = 2 * self._half
        else:
            old = [] if self._layout is None else [self._layout.capacity]
            caps = old + [t.capacity for t in tables]
            self._layout = SlotTable(np.maximum.reduce(caps), align=16)
            self._starts = self._layout.offset[:, self.comm.rank].tolist()
            nbytes = int(self._layout.extent.max())
        if self.win is not None:
            self._take_credits()
            self.win.free()
        self.win = self.comm.win_create(nbytes)
        self.epoch = 0
        self.header_tag = _SLOT_TAG - 2 * self.win.win_id
        self.credit_tag = self.header_tag - 1

    def _take_credits(self) -> None:
        for dest, owed in enumerate(self.owed):
            if owed:
                self.comm.recv(dest, tag=self.credit_tag)
        self.owed = [False] * self.comm.size

    def release(self) -> None:
        """Drop this rank's handle (no barrier) — the communicator retired."""
        if self.win is not None:
            self.win.release()

    def free(self) -> None:
        """Collectively release the window, first taking every credit owed."""
        if self.win is not None:
            self._take_credits()
            self.win.free()
            self.win, self._half, self._layout = None, 0, None

    def route(self, table: SlotTable, known: Route | None = None) -> Route:
        """This rank's :class:`Route` of ``table`` on the current window —
        ``known`` itself while it is still that — growing the window
        first (collectively) when ``table`` does not fit it."""
        if known is not None and known.table is table and known.win is self.win:
            return known
        if table.moves and not self._fits(table):
            self.grow([table])
        return Route(self, table)

    def move(self, route: Route, produce: Produce, consume: Consume) -> None:
        """Move this rank's row of the route's table and its column.

        ``produce(dest, slot) -> nbytes`` writes the message for ``dest``
        at the head of ``slot`` (``uint8``, this rank's slot there) and
        returns its size — a message larger than the slot is not written,
        and is an error.  ``consume(source, region)`` reads what
        ``source`` put, a borrowed view of the local window.  A table
        with no capacity anywhere costs no epoch, fence or header."""
        if not route.moves:
            return
        if route.win is not self.win:  # the window changed since: re-resolve
            route = self.route(route.table)
        traced = get_tracer() is not None
        if self.rule == "fence":
            self._fence(route, produce, consume, traced)
        else:
            self._credit(route, produce, consume, traced)

    def _put(self, produce: Produce, dest: int, offset: int, room: int) -> int:
        rank = self.comm.rank
        offset = hooks.mutate("osc.put_offset", offset, rank=rank, dest=dest)
        with self.win.reserve(dest, offset, room) as slot:
            slot.written = produce(dest, slot.view)
            if slot.written > room:
                raise CommunicatorError(
                    f"rank {rank}: {slot.written} B for rank {dest} exceed "
                    f"their {room} B window slot"
                )
        return slot.written

    def _fence(self, route: Route, produce: Produce, consume: Consume, traced: bool) -> None:
        """Every put in ring order, one fence, every source's region (in
        half ``epoch mod 2``: the opening fence is implied, DESIGN §15.2)."""
        rank, win = self.comm.rank, self.win
        base = (self.epoch % 2) * self._half
        self.epoch += 1
        for dest, at, room, intra in route.puts:
            with (
                trace_span("put", rank=rank, peer=dest, chunk=0, intra=intra) if traced else NULL_SPAN
            ) as span:
                span.note(bytes=self._put(produce, dest, base + at, room))
        with trace_span("fence", rank=rank, epoch="close") if traced else NULL_SPAN:
            win.fence()  # all puts complete everywhere
        local = win.local_view()
        for source, at, n in route.reads:
            consume(source, local[base + at : base + at + n])

    def take(self, source: int) -> np.ndarray:
        """Wait for ``source``'s header; the bytes it put (borrowed until the credit)."""
        nbytes = int(self.comm.recv(source, tag=self.header_tag)[0])
        at = self._starts[source]
        return self.win.local_view()[at : at + nbytes]

    def _credit(self, route: Route, produce: Produce, consume: Consume, traced: bool) -> None:
        """At each ring step: wait for the slot's credit if it is owed, put,
        send the header; then take the source's header, consume its region
        and send its credit back (deadlock freedom: DESIGN §15.2)."""
        comm, rank = self.comm, self.comm.rank
        for dest, source, put, takes in route.steps:
            with trace_span("sendrecv", rank=rank, peer=dest) if traced else NULL_SPAN as span:
                nbytes = 0
                if put is not None:
                    if self.owed[dest]:
                        comm.recv(dest, tag=self.credit_tag)
                    nbytes = self._put(produce, dest, *put)
                    comm.send(np.array([nbytes], dtype=np.int64), dest, tag=self.header_tag)
                    self.owed[dest] = True
                span.note(bytes=nbytes)
                region = self.take(source) if takes else None
            if region is not None:
                consume(source, region)
                comm.send(_EMPTY, source, tag=self.credit_tag)
