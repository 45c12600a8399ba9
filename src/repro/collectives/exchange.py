"""The one place an exchange configuration becomes an exchange object."""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.collectives.base import Boxes, Exchange, ExchangeStats, pack, unpack
from repro.collectives.slot_exchange import SlotExchange
from repro.collectives.twolevel import TwoLevelCompressedAlltoallv
from repro.compression.base import Codec
from repro.errors import PlanError
from repro.faults import ResilienceReport, RetryPolicy
from repro.machine.topology import Topology
from repro.runtime.base import Comm
from repro.trace import span as trace_span
from repro.tuning.pool import BufferPool
from repro.tuning.profile import VARIANTS

__all__ = ["METHODS", "ReferenceAlltoallv", "make_exchange"]

#: Uncompressed exchange algorithms selectable by ``method=``.
METHODS = ("reference", "pairwise", "osc")


class ReferenceAlltoallv(Exchange):
    """The communicator's own linear ``alltoallv`` as an exchange object:
    two-sided, no window — the independent oracle of the slot exchanges."""

    algorithm = "reference"

    def __call__(self, send: Sequence[np.ndarray | None]) -> list[np.ndarray]:
        recv = self.comm.alltoallv(send)
        self._finish(ExchangeStats.raw(send), ResilienceReport(rank=self.comm.rank))
        return recv

    def move(self, send: Boxes, receive: Callable[[], Boxes], pool: Any = None) -> None:
        """Pack each view (scratch from ``pool``), exchange via :meth:`__call__`, unpack."""
        rank = self.comm.rank
        packed: list[np.ndarray | None] = [None] * len(send)
        for d, view in enumerate(send):
            if view is not None:
                with trace_span("pack", rank=rank, peer=d):
                    packed[d] = pack(view, pool)
        recv = self(packed)
        if pool is not None:  # copied: the next reshape reuses them
            for chunk in packed:
                if chunk is not None:
                    pool.release(chunk)
        for s, target in enumerate(receive()):
            if target is not None and recv[s] is not None:
                with trace_span("unpack", rank=rank, peer=s):
                    unpack(target, np.asarray(recv[s]))


def make_exchange(
    comm: Comm,
    *,
    codec: Codec | None = None,
    method: str = "osc",
    variant: str = "flat",
    topology: Topology | None = None,
    e_tol: float | None = None,
    retry_policy: RetryPolicy | None = None,
    pipeline_chunks: int = 1,
    pool: BufferPool | None = None,
    tuned: str | None = None,
) -> Exchange:
    """Build the exchange for ``(codec, method, variant)`` (collective).

    ``method="reference"`` without a codec is the communicator's two-sided
    ``alltoallv``; everything else is a :class:`SlotExchange` (raw
    without a codec), and this is the one place a method becomes its
    rule: ``"pairwise"`` the credit rule, any other the fence rule.
    ``variant="two-level"`` routes a compressed exchange by node
    (:class:`TwoLevelCompressedAlltoallv`), and ``topology`` configures
    every window exchange; ``e_tol``/``retry_policy``/``pipeline_chunks``/
    ``tuned`` configure a codec's and are dropped without one.  Unknown
    names raise :class:`~repro.errors.PlanError` whether or not they
    would have been used.  ``pool`` is accepted and unused.
    """
    if method not in METHODS:
        raise PlanError(f"unknown reshape method {method!r} (use one of {METHODS})")
    if variant not in VARIANTS:
        raise PlanError(f"unknown exchange variant {variant!r} (use one of {VARIANTS})")
    rule = "credit" if method == "pairwise" else "fence"
    if codec is None:
        if method == "reference":
            return ReferenceAlltoallv(comm)
        return SlotExchange(comm, rule=rule, topology=topology)
    cls = TwoLevelCompressedAlltoallv if variant == "two-level" else SlotExchange
    return cls(
        comm,
        codec,
        rule=rule,
        topology=topology,
        pipeline_chunks=pipeline_chunks,
        retry_policy=retry_policy,
        e_tol=e_tol,
        pool=pool,
        tuned=tuned,
    )
