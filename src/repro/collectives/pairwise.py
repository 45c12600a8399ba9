"""Classical two-sided ring ("pairwise") all-to-all (Section V).

For ``p`` ranks the exchange completes in ``p`` steps (including the
self-send).  At step ``j`` rank ``i`` sends to its ``j``-th target and
receives from the unique rank whose ``j``-th target is ``i`` — with the
plain ring that is ``(i - j) % p``; with the node-aware permutation it
is the algebraic inverse of
:func:`repro.machine.topology.node_aware_permutation`.  "At each step,
each process sends and receives one message of same size to and from
different processes ... ensuring a constant, bi-directional traffic."
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.collectives.base import Exchange, ExchangeStats
from repro.conformance import hooks
from repro.faults import ResilienceReport
from repro.machine.topology import Topology
from repro.runtime.base import Comm
from repro.trace import span as trace_span
from repro.utils.arrays import no_alias_copy

__all__ = ["PairwiseAlltoallv", "pairwise_alltoallv", "ring_peers"]

_TAG = -201


def ring_peers(rank: int, step: int, nranks: int, topo: Topology | None) -> tuple[int, int]:
    """(destination, source) of ``rank`` at ``step`` of the ring.

    With a topology, uses the node-aware permutation: the destination is
    ``((node + step // g) % n) * g + (local + step) % g`` and the source
    is its inverse; without one — or with a non-uniform (shrunk) one,
    where the closed form no longer maps ranks to nodes — the plain
    ``(rank ± step) % p`` ring.
    """
    if topo is None or not getattr(topo, "uniform", True):
        return (rank + step) % nranks, (rank - step) % nranks
    g, n = topo.ranks_per_node, topo.nnodes
    node, local = rank // g, rank % g
    dest = ((node + step // g) % n) * g + (local + step) % g
    src = ((node - step // g) % n) * g + (local - step) % g
    return dest, src


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
