"""Rank topology and node-aware communication schedules (Section V).

The ring (pairwise) all-to-all sends, at step ``j``, from every rank
``i`` to rank ``(i + j) % p``.  On hierarchical machines the paper
extends this with a *permutation* of ranks "such that no two nodes will
send or expect to receive data from the same remote node" — at every
step, each node talks to exactly one other node, keeping every NIC busy
without contention.  :func:`node_aware_permutation` builds that
permutation and :func:`ring_schedule` expands it into per-step
(src, dst) pair lists consumed by both the collectives and the network
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.machine.spec import MachineSpec

__all__ = ["ShrunkTopology", "Topology", "node_aware_permutation", "ring_peers", "ring_schedule"]


@dataclass(frozen=True)
class Topology:
    """Placement of ``nranks`` ranks on a machine (block mapping).

    Rank ``r`` lives on node ``r // gpus_per_node`` and drives local GPU
    ``r % gpus_per_node`` — the paper's "we evenly map one MPI process
    per GPU, which means six MPI processes per node".
    """

    machine: MachineSpec
    nranks: int

    #: Every node hosts exactly ``ranks_per_node`` ranks in block order.
    #: Closed-form schedules (the node-aware ring permutation) require
    #: this; non-uniform placements (:class:`ShrunkTopology`) set it
    #: False and consumers fall back to membership-list walks.
    uniform = True

    def __post_init__(self) -> None:
        self.machine.nodes_for(self.nranks)  # validates

    @property
    def nnodes(self) -> int:
        return self.nranks // self.machine.gpus_per_node

    @property
    def ranks_per_node(self) -> int:
        return self.machine.gpus_per_node

    def node_of(self, rank: int) -> int:
        if not 0 <= rank < self.nranks:
            raise ModelError(f"rank {rank} out of range [0, {self.nranks})")
        return rank // self.ranks_per_node

    def local_index(self, rank: int) -> int:
        """Index of ``rank`` within its node (= local GPU id)."""
        return rank % self.ranks_per_node

    def ranks_on_node(self, node: int) -> range:
        if not 0 <= node < self.nnodes:
            raise ModelError(f"node {node} out of range [0, {self.nnodes})")
        g = self.ranks_per_node
        return range(node * g, (node + 1) * g)

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)


class ShrunkTopology:
    """Survivor placement after rank failures: the parent map with holes.

    Built when a ULFM shrink removes ranks but the machine stays the
    same: survivor ``i`` of the dense shrunk communicator is parent rank
    ``survivors[i]`` and keeps that rank's node.  Node indices are the
    *parent's* — a node may be left with fewer live ranks than
    ``ranks_per_node``, or none at all (``ranks_on_node`` returns an
    empty tuple).  ``uniform`` is False: schedules that rely on the
    closed-form block mapping (the node-aware ring permutation) must
    fall back, while node-membership walks (the two-level exchange's
    leader election) keep working over the live membership lists.
    """

    uniform = False

    def __init__(self, parent, survivors) -> None:
        self.parent = parent
        self.survivors = tuple(int(r) for r in survivors)
        if len(set(self.survivors)) != len(self.survivors):
            raise ModelError(f"duplicate survivor ranks: {self.survivors}")
        for g in self.survivors:
            if not 0 <= g < parent.nranks:
                raise ModelError(
                    f"survivor rank {g} outside parent topology [0, {parent.nranks})"
                )
        self.nranks = len(self.survivors)
        self.machine = parent.machine
        self._on_node: dict[int, tuple[int, ...]] = {}
        for r, g in enumerate(self.survivors):
            self._on_node.setdefault(parent.node_of(g), ())
            node = parent.node_of(g)
            self._on_node[node] = self._on_node[node] + (r,)

    @property
    def nnodes(self) -> int:
        return self.parent.nnodes

    @property
    def ranks_per_node(self) -> int:
        """The *full* complement per node (the parent's); individual
        nodes may hold fewer live ranks — walk :meth:`ranks_on_node`."""
        return self.parent.ranks_per_node

    def node_of(self, rank: int) -> int:
        if not 0 <= rank < self.nranks:
            raise ModelError(f"rank {rank} out of range [0, {self.nranks})")
        return self.parent.node_of(self.survivors[rank])

    def local_index(self, rank: int) -> int:
        return self.parent.local_index(self.survivors[rank])

    def ranks_on_node(self, node: int) -> tuple[int, ...]:
        if not 0 <= node < self.nnodes:
            raise ModelError(f"node {node} out of range [0, {self.nnodes})")
        return self._on_node.get(node, ())

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)


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


def node_aware_permutation(topo: Topology) -> np.ndarray:
    """Destination order for every rank: ``perm[i, j]`` = j-th target of rank i.

    Step ``j`` pairs node ``k`` with node ``(k + j // g) % n`` (``g`` ranks
    per node): a node-level ring where all ``g`` ranks of a node finish
    one remote node before moving to the next, and the local peer index
    is rotated by the sender's local index so the ``g`` concurrent
    senders of a node hit *distinct* receivers of the target node.

    Properties (tested):
    * each row is a permutation of ``0..p-1`` (every pair communicates);
    * each column is a permutation (at any step, every rank receives
      exactly one message — no endpoint contention);
    * at any step every node exchanges with exactly one remote node
      (no NIC contention, the Section V requirement).
    """
    p, g, n = topo.nranks, topo.ranks_per_node, topo.nnodes
    i = np.arange(p).reshape(p, 1)  # sender
    j = np.arange(p).reshape(1, p)  # step
    my_node = i // g
    my_local = i % g
    target_node = (my_node + j // g) % n
    target_local = (my_local + j) % g
    perm = target_node * g + target_local
    return perm.astype(np.int64)


def naive_ring_permutation(nranks: int) -> np.ndarray:
    """The classical ring without node awareness: target ``(i + j) % p``."""
    i = np.arange(nranks).reshape(nranks, 1)
    j = np.arange(nranks).reshape(1, nranks)
    return ((i + j) % nranks).astype(np.int64)


def ring_schedule(topo: Topology, *, node_aware: bool = True) -> list[list[tuple[int, int]]]:
    """Expand a ring permutation into per-step ``(src, dst)`` pair lists.

    ``len(result) == nranks`` steps; each step lists one send per rank.
    """
    perm = node_aware_permutation(topo) if node_aware else naive_ring_permutation(topo.nranks)
    p = topo.nranks
    return [[(src, int(perm[src, step])) for src in range(p)] for step in range(p)]
