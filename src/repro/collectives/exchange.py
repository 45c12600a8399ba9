"""The one place an exchange configuration becomes an exchange object."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.collectives.base import Exchange, ExchangeStats
from repro.collectives.compressed import CompressedOscAlltoallv
from repro.collectives.osc import OscAlltoallv
from repro.collectives.pairwise import PairwiseAlltoallv
from repro.collectives.twolevel import TwoLevelCompressedAlltoallv
from repro.compression.base import Codec
from repro.errors import PlanError
from repro.faults import ResilienceReport, RetryPolicy
from repro.machine.topology import Topology
from repro.runtime.base import Comm
from repro.tuning.pool import BufferPool
from repro.tuning.profile import VARIANTS

__all__ = ["METHODS", "ReferenceAlltoallv", "make_exchange"]

#: Uncompressed exchange algorithms selectable by ``method=``.
METHODS = ("reference", "pairwise", "osc")


class ReferenceAlltoallv(Exchange):
    """The communicator's own linear ``alltoallv`` as an exchange object."""

    algorithm = "reference"

    def __call__(self, send: Sequence[np.ndarray | None]) -> list[np.ndarray]:
        recv = self.comm.alltoallv(send)
        self._finish(ExchangeStats.raw(send), ResilienceReport(rank=self.comm.rank))
        return recv


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

    With a ``codec`` the result is the compressed window exchange —
    ``variant`` picks the flat ring or the node-aware ``"two-level"``
    aggregation, and ``e_tol``/``retry_policy``/``pipeline_chunks``/
    ``tuned`` configure it; otherwise ``method`` picks the uncompressed
    algorithm.  Unknown names raise :class:`~repro.errors.PlanError`
    whether or not they would have been used.  ``pool`` stages the raw
    OSC exchange's one-shot receive copies; a compressed exchange stages
    nothing and ignores it.  (The pack scratch of a two-sided exchange
    comes from the pool its ``move`` is handed — a pairwise ring bound
    to a plan's pair slots packs nothing.)
    """
    if method not in METHODS:
        raise PlanError(f"unknown reshape method {method!r} (use one of {METHODS})")
    if variant not in VARIANTS:
        raise PlanError(f"unknown exchange variant {variant!r} (use one of {VARIANTS})")
    if codec is not None:
        cls = TwoLevelCompressedAlltoallv if variant == "two-level" else CompressedOscAlltoallv
        return cls(
            comm,
            codec,
            topology=topology,
            pipeline_chunks=pipeline_chunks,
            retry_policy=retry_policy,
            e_tol=e_tol,
            pool=pool,
            tuned=tuned,
        )
    if method == "reference":
        return ReferenceAlltoallv(comm)
    if method == "pairwise":
        return PairwiseAlltoallv(comm, topology)
    return OscAlltoallv(comm, topology=topology, pool=pool)
