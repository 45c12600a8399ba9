"""One-sided (OSC) ring all-to-all — Algorithm 3 of the paper.

The ring replaces each two-sided send with an ``MPI_Win_put`` of the
strided box into the destination's window slot, and a fence closes the
epoch ("the global synchronization needed to ensure all communication
in the window are now completed at both the origin and the target").
Window creation "is a collective operation and therefore has a high
cost", so "it is possible to cache this window": the exchange's
:class:`~repro.collectives.slots.SlotTransport` keeps it while every
later table fits.  Under the credit rule the same exchange is the
classical ring (:class:`~repro.collectives.pairwise.PairwiseAlltoallv`).

With ``verify=True`` per-block CRC32 checksums ride along with the
announcement (a bound call gathers them alone), are verified as each
block is read, and corrupted blocks are retransmitted two-sided under
the :class:`~repro.faults.RetryPolicy` (see :attr:`last_report`).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

import numpy as np

from repro.collectives.base import Boxes, Exchange, ExchangeStats, unpack
from repro.collectives.slots import Route, SlotTable, SlotTransport, strided_put
from repro.collectives.wire import crc32
from repro.errors import RetryExhaustedError
from repro.faults import ResilienceReport, RetryPolicy
from repro.machine.topology import Topology
from repro.runtime.base import Comm
from repro.tuning.pool import BufferPool
from repro.trace import NULL_SPAN, get_tracer
from repro.trace import span as trace_span

__all__ = ["OscAlltoallv", "osc_alltoallv"]

#: Tag base for verify-mode retransmissions (control plane).
_VERIFY_TAG = -7500


def _as_bytes(box: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(box).view(np.uint8).reshape(-1)


class OscAlltoallv(Exchange):
    """Reusable one-sided ring all-to-all of raw boxes.

    Parameters
    ----------
    comm:
        Runtime communicator (all ranks construct collectively).
    topology:
        Optional machine topology enabling the node-aware ring
        permutation (Section V).
    verify:
        Checksum every block (CRC32, announced with the messages) and
        retransmit corrupted ones two-sided.
    retry_policy:
        Bounded retry/backoff schedule for verify-mode recovery.
    pool:
        Accepted for callers that pass one, and unused: boxes are put
        straight from their views and read straight into the received
        boxes, so nothing is staged.
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
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.transport = SlotTransport(comm, self.rule, topology)

    def slot_table(
        self, elements: np.ndarray, itemsize: int, leading: np.ndarray | None = None
    ) -> SlotTable:
        """Raw messages are exactly their bytes: no slack, no frames."""
        return SlotTable(np.asarray(elements, dtype=np.int64) * itemsize, align=16)

    def _rider(self, send: Boxes) -> list[int] | None:
        """Verify mode: the CRC32 of every block sent (the self block never travels)."""
        if not self.verify:
            return None
        rank = self.comm.rank
        return [0 if d == rank or v is None else crc32(_as_bytes(v)) for d, v in enumerate(send)]

    def _box(self, box: np.ndarray, dest: int) -> np.ndarray:
        """The box as it goes into ``dest``'s slot."""
        return box

    # -- verify-mode recovery ------------------------------------------------------

    def _recover(self, send: Boxes, out: Boxes, crcs: list[int], failed: list[int],
                 report: ResilienceReport) -> None:
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
                    comm.send(send[dest], dest, tag=tag)
            still_failed: list[int] = []
            for source in sorted(failed):
                report.record("retry", peer=source, attempt=attempt)
                block = np.ascontiguousarray(comm.recv(source, tag=tag), dtype=np.uint8)
                if block.size != out[source].nbytes or crc32(block) != crcs[source]:
                    report.record("integrity-failure", peer=source, attempt=attempt,
                                  detail="retransmitted block checksum mismatch")
                    still_failed.append(source)
                else:
                    unpack(out[source], block)
                    report.record("recovered", peer=source, attempt=attempt)
            failed = still_failed
            needs = comm.allgather(sorted(failed))
            attempt += 1

    # -- the exchange -------------------------------------------------------------

    def _move(self, send: Boxes, receive: Callable[[], Boxes], route: Route, riders: Any) -> None:
        """Each box is put straight from its strided view into its slot and
        unpacked straight from the local slot into its strided box (asked
        for when the first arrives); the self box is one strided copy."""
        rank = self.comm.rank
        report = ResilienceReport(rank=rank)
        if self.verify:
            if riders is None:  # bound: no announcement for the CRCs to ride
                riders = self.comm.allgather(self._rider(send))
            crcs = [row[rank] for row in riders]  # crcs[s] = what s sent me
            send = [v if d == rank or v is None else _as_bytes(v) for d, v in enumerate(send)]
        out: list[np.ndarray | None] = []
        failed: list[int] = []
        traced = get_tracer() is not None

        def box(s: int) -> np.ndarray | None:
            if not out:
                out.extend(receive())
            return out[s]

        def consume(source: int, region: np.ndarray) -> None:
            if self.verify and crc32(region) != crcs[source]:
                report.record("integrity-failure", peer=source, detail="block checksum mismatch")
                failed.append(source)
            with trace_span("unpack", rank=rank, peer=source) if traced else NULL_SPAN:
                unpack(box(source), region)

        self.transport.move(
            route, lambda dest, slot: strided_put(self._box(send[dest], dest), slot), consume
        )
        mine = box(rank)
        if send[rank] is not None and send[rank].size:
            with trace_span("unpack", rank=rank, peer=rank) if traced else NULL_SPAN:
                unpack(mine, send[rank])
        if self.verify:
            with trace_span("retry", rank=rank, failed=len(failed)):
                self._recover(send, out, crcs, failed, report)
        self._finish(ExchangeStats.raw(send), report)


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
    op = OscAlltoallv(comm, topology=topology, verify=verify, retry_policy=retry_policy)
    try:
        return op(send)
    finally:
        op.free()
