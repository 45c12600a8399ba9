"""Classical ring ("pairwise") all-to-all (Section V).

For ``p`` ranks the exchange completes in ``p`` steps (including the
self-send).  At step ``j`` rank ``i`` sends to its ``j``-th target and
receives from the unique rank whose ``j``-th target is ``i`` — with the
plain ring that is ``(i - j) % p``; with the node-aware permutation it
is the algebraic inverse of
:func:`repro.machine.topology.node_aware_permutation`.  "At each step,
each process sends and receives one message of same size to and from
different processes ... ensuring a constant, bi-directional traffic."

The ring keeps its steps and its pairing, but no payload rides it:
each box is put straight into a fixed pair slot of the peer's window,
and only an 8-byte header and a release credit are messages — the
slot transport's credit rule, where OSC has a fence (DESIGN §15.2).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.collectives.compressed import CompressedOscAlltoallv
from repro.collectives.osc import OscAlltoallv
from repro.conformance import hooks
from repro.machine.topology import Topology, ring_peers
from repro.runtime.base import Comm

__all__ = ["CompressedPairwiseAlltoallv", "PairwiseAlltoallv", "pairwise_alltoallv", "ring_peers"]


class PairwiseAlltoallv(OscAlltoallv):
    """Ring all-to-all: ``send[d]`` (any dtype) to rank ``d``, completed by
    a header and a release credit per message instead of a fence.

    Parameters
    ----------
    comm:
        Runtime communicator.
    topology:
        When given, the node-aware permutation orders the ring so each
        node pair saturates its NIC exclusively at every step.
    """

    algorithm = "pairwise"
    rule = "credit"

    def __init__(self, comm: Comm, topology: Topology | None = None) -> None:
        super().__init__(comm, topology=topology)

    def _box(self, box: np.ndarray, dest: int) -> np.ndarray:
        return hooks.mutate("pairwise.chunk", box, rank=self.comm.rank, dest=dest)


class CompressedPairwiseAlltoallv(CompressedOscAlltoallv):
    """The compressed exchange completed by the credit rule (``method=
    "pairwise"`` with a codec): the same frames, outputs and accounting,
    each region decoded as its header arrives."""

    algorithm = "compressed-pairwise"
    rule = "credit"


def pairwise_alltoallv(
    comm: Comm,
    send: Sequence[np.ndarray | None],
    *,
    topology: Topology | None = None,
) -> list[np.ndarray]:
    """One-shot helper: build, exchange, free."""
    op = PairwiseAlltoallv(comm, topology)
    try:
        return op(send)
    finally:
        op.free()
