"""Node-aware two-level compressed all-to-all (gather → exchange → scatter).

The flat compressed ring puts one message per *rank* pair on the wire:
``p * (p - 1)`` inter-rank messages, of which all but the intra-node
ones cross a NIC.  On a hierarchical machine the NIC — not the GPU — is
the scarce resource, and gZCCL-style collectives restructure the
exchange around it:

1. **intra-node gather** — every rank ships its (already compressed)
   blocks bound for remote node ``m`` to a designated *send leader* on
   its own node (NVLink-class links, cheap);
2. **inter-node exchange** — the send leader concatenates its node's
   blocks and sends **one** aggregate message to a *recv leader* on node
   ``m`` (exactly one NIC message per ordered node pair per round);
3. **intra-node scatter** — the recv leader slices the aggregate along
   the size matrix agreed up front and forwards each block to its final
   rank on the node.

Blocks bound for the sender's own node go directly (stage 0); the
block a rank owes itself never leaves it.  Leader duty is spread across
the node's ranks (the leader for peer node ``m`` is local rank
``m % g``), so no single rank serialises the node's NIC traffic.

The frames are *identical* to the flat exchange's, so the class reuses
its encode/decode/recovery machinery — each destination's view is
encoded into a region of its own, the regions are routed, and each is
decoded straight into its box — and the conformance oracles hold it
byte-for-byte to the flat one.  Every rank knows the ``p × p`` size
matrix from the counts allgather, so gather parts and scatter slices
are located by walking it in local-rank-major order: no routing headers.
The same allgather carries every message's ``(dtype, shape)``, so a
routed call, one-shot or not, agrees nothing else.  Without a topology, or on one node, it is the flat ring.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.collectives.base import Boxes, ExchangeStats
from repro.collectives.slot_exchange import SlotExchange
from repro.collectives.slots import Route
from repro.compression.base import Codec
from repro.errors import CommunicatorError
from repro.faults import ResilienceReport
from repro.runtime.base import Comm
from repro.telemetry import emit
from repro.trace import incr as trace_incr
from repro.trace import span as trace_span

__all__ = ["TwoLevelCompressedAlltoallv"]

#: Tag bases for the three two-sided stages (control plane).  Offsets
#: subtract a node or rank index, so the bases are spaced far enough
#: apart that no realistic rank count can collide them.
_TL_LOCAL = -7800
_TL_GATHER = -8000
_TL_INTER = -9000
_TL_SCATTER = -10000

_EMPTY = np.zeros(0, dtype=np.uint8)


class TwoLevelCompressedAlltoallv(SlotExchange):
    """Compressed all-to-all with node-level message aggregation.

    Accepts the same parameters as
    :class:`~repro.collectives.slot_exchange.SlotExchange` (a codec is
    required); the ``topology`` argument is what activates the two-level
    schedule (a single-node or topology-less setup falls back to the
    flat ring, under its ``rule``).
    """

    algorithm = "compressed-twolevel"

    def __init__(self, comm: Comm, codec: Codec, **options: Any) -> None:
        if codec is None:
            raise CommunicatorError("the two-level exchange routes frames: it needs a codec")
        super().__init__(comm, codec, **options)

    def _leader(self, node: int, peer_node: int) -> int:
        """Rank on ``node`` that carries its traffic with ``peer_node``: it
        aggregates what is bound there and receives what comes from there.

        Elected ``(peer_node % live)`` over the node's *live* membership:
        on a full node this is the classic ``m % g`` rotation, and after
        a shrink the survivors deterministically re-elect among
        themselves — a dead leader's duties move without any agreement
        traffic beyond the shrink itself.
        """
        live = tuple(self.topology.ranks_on_node(node))
        return live[peer_node % len(live)]

    def _agree(self, send: Boxes, boxes: Callable[[list], Boxes]) -> None:
        """Unbound and routed: the counts allgather, which carries the
        kinds, is the only agreement (``route=None`` marks it)."""
        topo = self.topology
        if topo is not None and topo.nnodes > 1 and topo.uniform:
            self._move(send, boxes, None)
        else:
            super()._agree(send, boxes)

    def _exchange(
        self, send: Boxes, receive: Callable, route: Route | None
    ) -> tuple[ExchangeStats, ResilienceReport]:
        topo = self.topology
        if topo is None or topo.nnodes <= 1:
            # Nothing to aggregate across — the flat one-sided ring is
            # the same exchange with less plumbing.
            return super()._exchange(send, receive, route)
        if not topo.uniform:
            # Survivor topology: a node with no live rank cannot host a
            # leader, and with one populated node there is nothing to
            # aggregate — degrade to the flat path (same bytes, more NIC
            # messages).
            live_counts = [
                len(tuple(topo.ranks_on_node(m))) for m in range(topo.nnodes)
            ]
            if min(live_counts) == 0 or sum(1 for c in live_counts if c) <= 1:
                empty = live_counts.count(0)
                emit("exchange-degrade", self.comm.rank,
                     value=empty, detail=f"{empty} empty node(s)")
                return super()._exchange(send, receive, route)
            demoted = [
                m for m in range(topo.nnodes) if live_counts[m] < topo.ranks_per_node
            ]
            if demoted:
                # Leader duties on these nodes just moved: survivors
                # re-elect (m % live) over the shrunk node membership.
                emit("leader-failover", self.comm.rank,
                     value=len(demoted), detail=f"nodes {demoted}")
        comm, p = self.comm, self.comm.size
        me = comm.rank
        my_node = topo.node_of(me)
        stats = ExchangeStats()
        report = ResilienceReport(rank=me)

        # Encode per destination exactly as the flat exchange does, into a
        # region of the destination's own: the unit the gather/scatter
        # stages route around.
        blobs = [_EMPTY] * p
        for d, view in enumerate(send):
            if d != me and view is not None and view.size:
                blobs[d] = self._encode_private(view, d, None, report, stats)

        # Counts exchange: the p x p size matrix locates every gather
        # part and scatter slice — no routing headers on the wire.  The
        # kinds ride along: an unbound call allocates its boxes from them.
        gathered = comm.allgather(([int(b.size) for b in blobs], [self._kind(v) for v in send]))
        all_sizes = np.array([row[0] for row in gathered], dtype=np.int64)
        out = receive([row[1][me] for row in gathered]) if route is None else receive()
        self._move_self(send[me], report, stats, out[me])

        # Stage 0: same-node destinations go direct (sends are eager).
        for dest in topo.ranks_on_node(my_node):
            if blobs[dest].size:
                with trace_span(
                    "sendrecv", rank=me, peer=dest, bytes=int(blobs[dest].size),
                    intra=True, stage="local",
                ):
                    comm.send(blobs[dest], dest, tag=_TL_LOCAL)

        # Stage 1: gather — ship my remote-bound blocks to this node's
        # send leader for each peer node (leader keeps its own part).
        gathered_parts: dict[int, np.ndarray] = {}  # peer node -> my own stashed part
        for m in range(topo.nnodes):
            if m == my_node:
                continue
            dests = topo.ranks_on_node(m)
            part = np.concatenate([blobs[d] for d in dests])
            total = int(part.size)
            leader = self._leader(my_node, m)
            if leader == me:
                gathered_parts[m] = part
            elif total:
                with trace_span(
                    "sendrecv", rank=me, peer=leader, bytes=total,
                    intra=True, stage="gather",
                ):
                    comm.send(part, leader, tag=_TL_GATHER - m)

        # Stage 2: inter-node — where I lead, collect my node's parts in
        # local-rank order and send ONE aggregate per peer node.
        for m in range(topo.nnodes):
            if m == my_node or self._leader(my_node, m) != me:
                continue
            dests = topo.ranks_on_node(m)
            parts: list[np.ndarray] = []
            for r in topo.ranks_on_node(my_node):
                expected = int(all_sizes[r, dests].sum())
                if r == me:
                    parts.append(gathered_parts.pop(m))
                elif expected:
                    parts.append(np.ascontiguousarray(comm.recv(r, tag=_TL_GATHER - m), dtype=np.uint8))
            total = int(all_sizes[np.ix_(list(topo.ranks_on_node(my_node)), list(dests))].sum())
            if total:
                aggregate = np.concatenate(parts)
                peer = self._leader(m, my_node)
                with trace_span(
                    "sendrecv", rank=me, peer=peer, bytes=total,
                    intra=False, stage="internode",
                ):
                    comm.send(aggregate, peer, tag=_TL_INTER - my_node)
                trace_incr("internode_messages", 1, rank=me)

        # Stage 3: scatter — where I receive a node's aggregate, slice it
        # along the size matrix and forward each block to its rank.
        stashed: dict[int, np.ndarray] = {}  # source rank -> my slice
        my_dests = list(topo.ranks_on_node(my_node))
        for k in range(topo.nnodes):
            if k == my_node or self._leader(my_node, k) != me:
                continue
            srcs = list(topo.ranks_on_node(k))
            total = int(all_sizes[np.ix_(srcs, my_dests)].sum())
            if total == 0:
                continue
            sender = self._leader(k, my_node)
            aggregate = np.ascontiguousarray(comm.recv(sender, tag=_TL_INTER - k), dtype=np.uint8)
            off = 0
            for r in srcs:
                for d in my_dests:
                    size = int(all_sizes[r, d])
                    block = aggregate[off : off + size]
                    off += size
                    if d == me:
                        stashed[r] = block
                    elif size:
                        with trace_span(
                            "sendrecv", rank=me, peer=d, bytes=size,
                            intra=True, stage="scatter",
                        ):
                            comm.send(block, d, tag=_TL_SCATTER - r)

        # Stage 4: collect my per-source regions; the flat exchange's
        # CRC-checked decode into the boxes and its topology-agnostic
        # recovery (two-sided retransmissions under allgather-agreed
        # failure sets) take over.
        regions: list[np.ndarray] = []
        for s in range(p):
            if int(all_sizes[s, me]) == 0:
                region = _EMPTY
            elif topo.same_node(s, me):
                region = np.ascontiguousarray(comm.recv(s, tag=_TL_LOCAL), dtype=np.uint8)
            elif self._leader(my_node, topo.node_of(s)) == me:
                region = stashed[s]
            else:
                leader = self._leader(my_node, topo.node_of(s))
                region = np.ascontiguousarray(comm.recv(leader, tag=_TL_SCATTER - s), dtype=np.uint8)
            regions.append(region)
        self._settle(send, regions, report, stats, out)
        return stats, report
