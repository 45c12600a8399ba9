"""Staged replay of ``Fft3d.forward_spmd`` with benchmark-owned spans.

The per-layer numbers come from re-running the transform's pipeline
from *this* file, one public call per stage, with a span around each
call — nothing under ``src/`` is instrumented or modified.  The stage
order mirrors ``ReshapePlan.run_spmd``: pack every pair, exchange,
release the packed buffers, unpack, release the receive copies, then
the batched 1-D FFT of the phase.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

#: Leaf span names: the stages whose durations partition a round trip.
STAGES = (
    "fft.reshape.pack",
    "collectives.exchange",
    "fft.reshape.unpack",
    "fft.local_fft",
)


class Spans:
    """In-memory span log of one rank.

    A row is ``[id, name, start_s, end_s, parent_id, roundtrip_id, rank]``;
    ids are indices into ``rows``, so a parent is always recorded before
    its children and the log needs no lookups while the clock runs.
    """

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.rows: list[list] = []

    @contextmanager
    def span(self, name: str, parent: int | None, rt: int):
        sid = len(self.rows)
        row = [sid, name, time.perf_counter(), 0.0, parent, rt, self.rank]
        self.rows.append(row)
        try:
            yield sid
        finally:
            row[3] = time.perf_counter()


def make_exchange(comm, plan, method: str, pool):
    """The exchange ``forward_spmd`` uses for this plan, as one callable."""
    from repro.collectives.compressed import CompressedOscAlltoallv
    from repro.collectives.osc import osc_alltoallv
    from repro.collectives.pairwise import pairwise_alltoallv

    if plan.codec is not None:

        def exchange(send):
            # forward_spmd builds and frees one of these per reshape; the
            # stage includes both so it is comparable with the one-shot
            # osc_alltoallv (which also builds and frees its window).
            op = CompressedOscAlltoallv(comm, plan.codec, e_tol=plan.e_tol, pool=pool)
            try:
                return op(send)
            finally:
                op.free()

        return exchange
    if method == "osc":
        return lambda send: osc_alltoallv(comm, send, pool=pool)
    return lambda send: pairwise_alltoallv(comm, send)


def staged_roundtrip(comm, plan, method, block, pool, spans: Spans, rt: int):
    """One forward + inverse transform of ``block``, stage by stage."""
    from repro.fft.local_fft import batched_fft, batched_ifft

    rank = comm.rank
    exchange = make_exchange(comm, plan, method, pool)
    with spans.span("fft.plan.roundtrip", None, rt) as root:
        for direction, transform in (("forward", batched_fft), ("inverse", batched_ifft)):
            with spans.span(f"fft.plan.{direction}", root, rt) as parent:
                for step, reshape in enumerate(plan.reshapes):
                    send = [None] * comm.size
                    for dest, box in reshape.pairs[rank]:
                        with spans.span("fft.reshape.pack", parent, rt):
                            send[dest] = reshape.pack(rank, block, dest, box, pool=pool)
                    with spans.span("collectives.exchange", parent, rt):
                        recv = exchange(send)
                    for buf in send:
                        if buf is not None:
                            pool.release(buf)
                    out = np.empty(reshape.dst.box_of(rank).shape, dtype=block.dtype)
                    for source, box in reshape.incoming[rank]:
                        chunk = np.asarray(recv[source])
                        if chunk.dtype != block.dtype:  # raw exchanges return bytes
                            chunk = chunk.view(np.uint8).view(block.dtype)
                        with spans.span("fft.reshape.unpack", parent, rt):
                            reshape.unpack(rank, out, source, box, chunk)
                    for source, _ in reshape.incoming[rank]:
                        pool.release(np.asarray(recv[source]))
                    block = out
                    if step < 3:
                        with spans.span("fft.local_fft", parent, rt):
                            block = transform(block, step - 3, plan.precision)
    return block


def stage_ms(rows: list[list]) -> dict[int, dict[str, float]]:
    """``roundtrip id -> stage name -> milliseconds`` for one rank's log."""
    out: dict[int, dict[str, float]] = {}
    for _sid, name, start, end, _parent, rt, _rank in rows:
        per_rt = out.setdefault(rt, dict.fromkeys(STAGES, 0.0))
        if name in STAGES:
            per_rt[name] += (end - start) * 1e3
    return out
