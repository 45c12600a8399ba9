"""One-sided (OSC) ring all-to-all — Algorithm 3 of the paper.

Every rank exposes a receive staging buffer through an RMA window; the
ring then replaces each two-sided send with an ``MPI_Win_put`` into the
destination's window at the offset reserved for this source.  Two fences
delimit the exchange epoch ("the global synchronization needed to ensure
all communication in the window are now completed at both the origin and
the target").

Window creation "is a collective operation and therefore has a high
cost.  However, when the all-to-all is performed multiple times on the
same memory fragment, it is possible to cache this window" — hence the
class form: one :class:`OscAlltoallv` instance caches its window across
calls.  The cached window is reused as long as every rank's receive
volume still *fits* its existing buffer; it is only re-created
(collectively, deterministically on all ranks) when some rank outgrows
its capacity — a shrinking size matrix keeps the window, preserving the
paper's caching argument for variable loads.

With ``verify=True`` the exchange is self-checking: per-block CRC32
checksums are agreed alongside the size matrix, verified after the
closing fence, and mismatching blocks are retransmitted two-sided under
the :class:`~repro.faults.RetryPolicy`; the outcome is recorded in
:attr:`OscAlltoallv.last_report`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

import numpy as np

from repro.collectives.base import Boxes, Exchange, ExchangeStats
from repro.collectives.wire import crc32
from repro.conformance import hooks
from repro.errors import CommunicatorError, RetryExhaustedError
from repro.faults import ResilienceReport, RetryPolicy
from repro.machine.topology import Topology, ring_peers
from repro.runtime.base import Comm
from repro.runtime.window import Window
from repro.tuning.pool import BufferPool
from repro.trace import span as trace_span

__all__ = ["OscAlltoallv", "OscTransport", "PlanWindow", "SlotTable", "osc_alltoallv"]

#: Tag base for verify-mode retransmissions (control plane).
_VERIFY_TAG = -7500

_EMPTY = np.zeros(0, dtype=np.uint8)


class SlotTable:
    """Where every (source, dest) message lands in ``dest``'s window region.

    ``capacity[s, d]`` bytes are reserved at byte ``offset[s, d]``
    (sources back to back, each slot rounded up to ``align``), and
    ``extent[d]`` is what rank ``d``'s region must hold.  The diagonal is
    zero whatever ``capacity`` says: a rank's message to itself never
    crosses the window (its exchange moves it in place).
    """

    def __init__(self, capacity: np.ndarray, *, align: int = 1) -> None:
        self.capacity = np.array(capacity, dtype=np.int64)
        np.fill_diagonal(self.capacity, 0)
        padded = -(-self.capacity // align) * align
        self.offset = np.cumsum(padded, axis=0) - padded
        self.extent = padded.sum(axis=0)


class PlanWindow:
    """One persistent window of two halves for the exchanges of a plan.

    The paper's cached window, taken to its end: a caller that knows
    every message size up front (an FFT plan) creates the window once
    and alternates its halves, so an exchange costs **one** fence.  A
    peer writes half ``h`` in epochs ``e`` and ``e + 2``; it enters
    epoch ``e + 2`` only after passing the fence of ``e + 1``, which
    this rank enters only once it has finished reading what epoch ``e``
    left in ``h`` — the opening fence of Algorithm 3 is implied.  In
    MPI-RMA terms each half sees the classic fence / put / fence access
    epoch; the fences of one half are the closing fences of the other.
    """

    def __init__(self, comm: Comm, half: int) -> None:
        self.half = -(-int(half) // 16) * 16
        self.win: Window = comm.win_create(2 * self.half)
        self.epoch = 0

    def advance(self) -> int:
        """Start the next epoch; returns the byte base of its half."""
        base = (self.epoch % 2) * self.half
        self.epoch += 1
        return base

    def release(self) -> None:
        """Drop this rank's handle (no barrier) — the communicator retired."""
        self.win.release()

    def free(self) -> None:
        """Collectively release the window."""
        self.win.free()


class OscTransport:
    """Algorithm 3's window protocol, written once for every OSC exchange.

    It puts into whatever slot table it is handed — the plan's, or one
    the caller has just agreed with its peers; the ring of puts
    (node-aware with a topology), the closing fence and the per-source
    regions of the local window are the same however the table came
    about.  What the transport owns is where the window comes from:

    * **cached** (no ``window``): the window grows deterministically
      when some rank outgrows it, and an opening fence keeps the
      previous call's readers apart from this call's puts.
    * **plan-supplied** (``window``, with the plan's table as ``slots``):
      nothing collective but the one fence — see :class:`PlanWindow`.

    A message larger than its slot is an error here, never a
    truncation; the compressed exchange steps down its ladder before it
    gets that far.  The self block is not a put: the ring starts at step
    1, and ``fragments[rank]`` must be empty.  A table with no capacity
    anywhere — the same on every rank, plan-derived or agreed — moves
    nothing, so it costs no epoch and no fence (DESIGN §15.3).
    """

    def __init__(
        self,
        comm: Comm,
        topology: Topology | None = None,
        *,
        slots: SlotTable | None = None,
        window: PlanWindow | None = None,
    ) -> None:
        self.comm = comm
        self.topology = topology
        #: The plan's table (``None``: every call brings its own).
        self.slots = slots
        self.window = window
        #: The cached window (``None`` before the first call / after free).
        self.win: Window | None = None
        self._capacities: np.ndarray | None = None
        self._ring = [
            ring_peers(comm.rank, step, comm.size, topology)[0] for step in range(1, comm.size)
        ]

    def _ensure_window(self, totals: np.ndarray) -> Window:
        """(Re)create the cached window only when some rank outgrows it.

        ``totals[d]`` = bytes rank ``d`` receives.  The decision is a
        pure function of the size-matrix history (identical on every
        rank), keeping creation collective.  A size matrix that needs
        *less* capacity everywhere reuses the cached window — offsets
        are recomputed per call, the window is just a byte arena.
        """
        if self.win is None or self._capacities is None or bool(np.any(totals > self._capacities)):
            if self.win is not None:
                self.win.free()
            caps = totals if self._capacities is None else np.maximum(totals, self._capacities)
            self.win = self.comm.win_create(int(caps[self.comm.rank]))
            self._capacities = caps
        return self.win

    def free(self) -> None:
        """Collectively release the cached window (if any).

        A plan-supplied window belongs to whoever built it."""
        if self.win is not None:
            self.win.free()
            self.win = None
            self._capacities = None

    def __call__(
        self, fragments: Sequence[Sequence[np.ndarray] | Callable], table: SlotTable
    ) -> list[np.ndarray]:
        """Put ``fragments[d]`` to rank ``d``, into its slot of ``table``.

        ``fragments[d]`` is arrays of any layout, put back to back, or a
        callable: it is handed this rank's whole slot on ``d`` (``uint8``,
        under :meth:`Window.reserve`), produces the message there and
        returns how many bytes it wrote.

        Returns ``regions``: ``regions[s]`` is a *borrowed* ``uint8`` view
        of the local window — the slot rank ``s`` put into — valid until
        the next call or :meth:`free`.
        """
        comm, rank = self.comm, self.comm.rank
        my_sizes = [
            0 if callable(frags) else sum(int(f.nbytes) for f in frags) for frags in fragments
        ]
        # where my bytes live in dest's window: after earlier sources'
        offsets, room = table.offset[rank].tolist(), table.capacity[rank].tolist()
        for dest, size in enumerate(my_sizes):
            if size > room[dest]:
                raise CommunicatorError(
                    f"rank {rank}: {size} B for rank {dest} exceed "
                    f"their {room[dest]} B window slot"
                )
        if not table.capacity.any():
            return [_EMPTY] * comm.size
        if self.window is None:
            win, base = self._ensure_window(table.extent), 0
            with trace_span("fence", rank=rank, epoch="open"):
                win.fence()  # "synchronization phase to make sure all processes are ready"
        else:
            win, base = self.window.win, self.window.advance()
        for dest in self._ring:
            frags = fragments[dest]
            if not (my_sizes[dest] or callable(frags)):
                continue
            offset = hooks.mutate(
                "osc.put_offset", base + offsets[dest], rank=rank, dest=dest
            )
            intra = self.topology is not None and self.topology.same_node(rank, dest)
            if callable(frags):
                with trace_span("put", rank=rank, peer=dest, chunk=0, intra=intra) as span:
                    with win.reserve(dest, offset, room[dest]) as slot:
                        slot.written = frags(slot.view)
                    span.note(bytes=slot.written)
                continue
            for chunk_idx, frag in enumerate(frags):
                with trace_span(
                    "put", rank=rank, peer=dest, bytes=int(frag.nbytes), chunk=chunk_idx, intra=intra
                ):
                    win.put(frag, dest, offset=offset)
                offset += frag.nbytes
        with trace_span("fence", rank=rank, epoch="close"):
            win.fence()  # close epoch — all puts complete everywhere

        local = win.local_view()
        starts, sizes = table.offset[:, rank].tolist(), table.capacity[:, rank].tolist()
        return [local[base + at : base + at + n] for at, n in zip(starts, sizes)]


class OscAlltoallv(Exchange):
    """Reusable one-sided ring all-to-all with a cached window.

    Parameters
    ----------
    comm:
        Runtime communicator (all ranks construct collectively).
    topology:
        Optional machine topology enabling the node-aware ring
        permutation (Section V).
    verify:
        Checksum every block (CRC32 agreed with the size matrix) and
        retransmit corrupted ones two-sided.
    retry_policy:
        Bounded retry/backoff schedule for verify-mode recovery.
    pool:
        Optional :class:`~repro.tuning.pool.BufferPool` staging the
        per-source receive copies; callers release them when consumed.
    """

    algorithm = "raw-osc"

    def __init__(
        self,
        comm: Comm,
        *,
        topology: Topology | None = None,
        verify: bool = False,
        retry_policy: RetryPolicy | None = None,
        pool: BufferPool | None = None,
    ) -> None:
        super().__init__(comm, topology)
        self.verify = bool(verify)
        self.pool = pool
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.transport = OscTransport(comm, topology)

    def free(self) -> None:
        """Collectively release the cached window (if any)."""
        self.transport.free()

    def slot_table(
        self, elements: np.ndarray, itemsize: int, leading: np.ndarray | None = None
    ) -> SlotTable:
        """Raw messages are exactly their bytes: no slack, no frames."""
        return SlotTable(np.asarray(elements, dtype=np.int64) * itemsize, align=16)

    # -- verify-mode recovery ------------------------------------------------------

    def _recover(
        self,
        chunks: list[np.ndarray],
        recv: list[np.ndarray],
        crcs: list[int],
        failed: list[int],
        report: ResilienceReport,
    ) -> None:
        """Retransmit corrupted blocks two-sided until clean or exhausted."""
        comm, policy = self.comm, self.retry_policy
        needs: list[list[int]] = comm.allgather(sorted(failed))
        attempt = 0
        started = time.monotonic()
        while any(needs):
            elapsed = time.monotonic() - started
            if attempt > policy.max_attempts:
                raise RetryExhaustedError(
                    f"rank {comm.rank}: raw blocks from rank(s) {sorted(failed)} "
                    f"still corrupt after {attempt} retransmission(s)"
                )
            if policy.budget_exhausted(elapsed):
                raise RetryExhaustedError(
                    f"rank {comm.rank}: retry budget of {policy.max_elapsed}s "
                    f"spent after {attempt} retransmission(s); blocks from "
                    f"rank(s) {sorted(failed)} still corrupt"
                )
            delay = policy.delay(attempt, elapsed=elapsed) if attempt > 0 else 0.0
            if delay > 0.0:
                time.sleep(delay)
            tag = _VERIFY_TAG - attempt
            for dest, sources in enumerate(needs):
                if comm.rank in sources:
                    report.record("retransmit", peer=dest, attempt=attempt)
                    comm.send(chunks[dest], dest, tag=tag)
            still_failed: list[int] = []
            for source in sorted(failed):
                report.record("retry", peer=source, attempt=attempt)
                block = np.ascontiguousarray(comm.recv(source, tag=tag), dtype=np.uint8)
                if block.size != recv[source].size or crc32(block) != crcs[source]:
                    report.record("integrity-failure", peer=source, attempt=attempt,
                                  detail="retransmitted block checksum mismatch")
                    still_failed.append(source)
                else:
                    recv[source] = block
                    report.record("recovered", peer=source, attempt=attempt)
            failed = still_failed
            needs = comm.allgather(sorted(failed))
            attempt += 1

    # -- the exchange -------------------------------------------------------------

    def borrow(self, send: Sequence[np.ndarray | None]) -> list[np.ndarray]:
        """Exchange ``send[d]`` → rank ``d``; returns *borrowed* per-source bytes.

        ``send[d]`` may be any array — a strided N-d view goes to the
        wire as it is, without a pack copy (see :meth:`Window.put`).
        The returned ``uint8`` arrays are views of the local window,
        valid until the next call or :meth:`free`: for callers that
        consume them on the spot (a reshape's unpack) and let none
        escape.  The self block is not among them — it never travels,
        so it is neither put nor checksummed: ``send[rank]`` is the
        caller's to copy, and the returned ``[rank]`` is empty.
        """
        comm, rank = self.comm, self.comm.rank
        self._check_send(send)
        report = ResilienceReport(rank=rank)
        chunks = [_EMPTY if c is None else np.asarray(c) for c in send]
        crcs = None
        if self.verify:
            chunks = [
                c if d == rank else np.ascontiguousarray(c).view(np.uint8).reshape(-1)
                for d, c in enumerate(chunks)
            ]
            crcs = [0 if d == rank else crc32(c) for d, c in enumerate(chunks)]
        table = self.transport.slots
        if table is None:
            # Counts exchange: both sides of an Alltoallv know the counts
            # (and, in verify mode, the CRCs ride along).
            gathered = comm.allgather(([int(c.nbytes) for c in chunks], crcs))
            table, riders = SlotTable([g[0] for g in gathered]), [g[1] for g in gathered]
        else:
            riders = comm.allgather(crcs) if self.verify else None
        recv = self.transport([() if d == rank else (c,) for d, c in enumerate(chunks)], table)

        if self.verify:
            crcs = [int(row[rank]) for row in riders]  # crcs[s] = what s sent me
            failed = [s for s, blk in enumerate(recv) if blk.size and crc32(blk) != crcs[s]]
            for s in failed:
                report.record("integrity-failure", peer=s, detail="block checksum mismatch")
            with trace_span("retry", rank=rank, failed=len(failed)):
                self._recover(chunks, recv, crcs, failed, report)
        self._finish(ExchangeStats.raw(chunks), report)
        return recv

    def move(self, send: Boxes, receive: Callable[[], Boxes], pool: Any = None) -> None:
        """Nothing is staged: the puts read the strided views and the
        unpack reads the local window (borrowed views that do not outlive
        this call) — and the self box is one strided copy from the send
        view, in its turn of the unpack."""
        recv = self.borrow(send)
        recv[self.comm.rank] = send[self.comm.rank]
        self._unpack_all(receive(), recv)

    def __call__(self, send: Sequence[np.ndarray | None]) -> list[np.ndarray]:
        """Exchange ``send[d]`` → rank ``d``; returns per-source uint8 chunks.

        The window transports raw bytes, so receives are returned as
        ``uint8`` arrays owned by the caller (copied out of the window,
        through the pool when one is set); callers re-view them (the FFT
        layer exchanges packed byte streams anyway).
        """
        regions = self.borrow(send)
        mine = send[self.comm.rank]  # copied out like a window region: never aliased
        if mine is not None:
            regions[self.comm.rank] = np.ascontiguousarray(mine).reshape(-1).view(np.uint8)
        recv: list[np.ndarray] = []
        for region in regions:
            if self.pool is None:
                recv.append(region.copy())
            else:
                block = self.pool.acquire(region.size)
                np.copyto(block, region)
                recv.append(block)
        return recv


def osc_alltoallv(
    comm: Comm,
    send: Sequence[np.ndarray | None],
    *,
    topology: Topology | None = None,
    verify: bool = False,
    retry_policy: RetryPolicy | None = None,
    pool: BufferPool | None = None,
) -> list[np.ndarray]:
    """One-shot helper (no window caching): build, exchange, free."""
    op = OscAlltoallv(
        comm, topology=topology, verify=verify, retry_policy=retry_policy, pool=pool
    )
    try:
        return op(send)
    finally:
        op.free()
