"""Node-aware two-level compressed all-to-all: equivalence + aggregation."""

import numpy as np

from repro.collectives import CompressedOscAlltoallv, TwoLevelCompressedAlltoallv
from repro.compression.base import IdentityCodec
from repro.compression.truncation import CastCodec
from repro.machine.spec import GpuSpec, MachineSpec, NetworkSpec
from repro.machine.topology import Topology
from repro.runtime.thread_rt import ThreadWorld
from repro.trace import tracing
from repro.tuning import BufferPool


def _topology(p: int, g: int) -> Topology:
    spec = MachineSpec(name="test", gpus_per_node=g, gpu=GpuSpec(), network=NetworkSpec())
    return Topology(spec, p)


def _send_matrix(p: int, seed: int = 0, max_len: int = 40):
    rng = np.random.default_rng(seed)
    send = [
        [rng.standard_normal(int(rng.integers(0, max_len))) for _ in range(p)]
        for _ in range(p)
    ]
    send[0][min(1, p - 1)] = None  # a None block
    send[p - 1][0] = np.zeros(0)  # an explicitly empty block
    return send


def _run(p, topo, send, cls, codec=None, pool=False, chunks=1, world=None):
    def kernel(comm):
        op = cls(
            comm,
            codec if codec is not None else IdentityCodec(),
            topology=topo,
            pipeline_chunks=chunks,
            pool=BufferPool() if pool else None,
        )
        try:
            return op(send[comm.rank]), op.last_stats
        finally:
            op.free()

    return (world or ThreadWorld(p)).run(kernel)


class TestTwoLevelEquivalence:
    def test_matches_oracle_and_flat(self):
        for p, g in [(4, 2), (6, 2), (6, 3), (8, 4)]:
            topo = _topology(p, g)
            send = _send_matrix(p, seed=p * 10 + g)
            flat = _run(p, topo, send, CompressedOscAlltoallv)
            two = _run(p, topo, send, TwoLevelCompressedAlltoallv)
            for d in range(p):
                for s in range(p):
                    want = send[s][d]
                    want = np.zeros(0) if want is None else want
                    assert np.array_equal(two[d][0][s], want), (p, g, d, s)
                    assert np.array_equal(two[d][0][s], flat[d][0][s]), (p, g, d, s)
                # same payloads -> identical volume accounting
                assert two[d][1].logical_bytes == flat[d][1].logical_bytes
                assert two[d][1].wire_bytes == flat[d][1].wire_bytes

    def test_lossy_codec_matches_flat_bitwise(self):
        p, g = 6, 3
        topo = _topology(p, g)
        send = _send_matrix(p, seed=7)
        flat = _run(p, topo, send, CompressedOscAlltoallv, codec=CastCodec("fp32"))
        two = _run(p, topo, send, TwoLevelCompressedAlltoallv, codec=CastCodec("fp32"))
        for d in range(p):
            for s in range(p):
                assert np.array_equal(two[d][0][s], flat[d][0][s])

    def test_pipeline_chunks_and_pool(self):
        p, g = 6, 2
        topo = _topology(p, g)
        send = _send_matrix(p, seed=3)
        base = _run(p, topo, send, TwoLevelCompressedAlltoallv)
        tuned = _run(
            p, topo, send, TwoLevelCompressedAlltoallv, pool=True, chunks=3
        )
        for d in range(p):
            for s in range(p):
                assert np.array_equal(base[d][0][s], tuned[d][0][s])

    def test_one_rank_per_node(self):
        # g=1: gather/scatter degenerate, inter-node stage carries everything
        p = 4
        topo = _topology(p, 1)
        send = _send_matrix(p, seed=5)
        two = _run(p, topo, send, TwoLevelCompressedAlltoallv)
        for d in range(p):
            for s in range(p):
                want = send[s][d]
                want = np.zeros(0) if want is None else want
                assert np.array_equal(two[d][0][s], want)


class TestTwoLevelAggregation:
    def test_at_most_one_internode_message_per_node_pair(self):
        p, g = 6, 2
        topo = _topology(p, g)
        nnodes = topo.nnodes
        rng = np.random.default_rng(11)
        send = [[rng.standard_normal(24) for _ in range(p)] for _ in range(p)]

        def kernel(comm):
            op = TwoLevelCompressedAlltoallv(comm, IdentityCodec(), topology=topo)
            try:
                return op(send[comm.rank])
            finally:
                op.free()

        with tracing() as tracer:
            ThreadWorld(p).run(kernel)
        inter = [
            e for e in tracer.span_events() if e.attrs.get("stage") == "internode"
        ]
        # exactly one aggregate per ordered node pair, all NIC-crossing
        assert len(inter) == nnodes * (nnodes - 1)
        assert all(e.attrs["intra"] is False for e in inter)
        pairs = {(topo.node_of(e.rank), topo.node_of(e.attrs["peer"])) for e in inter}
        assert len(pairs) == len(inter), "a node pair sent more than one aggregate"
        assert tracer.counter_total("internode_messages") == nnodes * (nnodes - 1)

    def test_algorithm_stamped_on_exchange_span(self):
        p = 4
        topo = _topology(p, 2)
        send = _send_matrix(p, seed=1)
        with tracing() as tracer:
            _run(p, topo, send, TwoLevelCompressedAlltoallv)
        algos = {
            e.attrs.get("algorithm")
            for e in tracer.span_events()
            if e.kind == "exchange"
        }
        assert algos == {"compressed-twolevel"}


class TestTwoLevelFallback:
    def test_no_topology_falls_back_to_flat_ring(self):
        p = 4
        send = _send_matrix(p, seed=9)
        two = _run(p, None, send, TwoLevelCompressedAlltoallv)
        flat = _run(p, None, send, CompressedOscAlltoallv)
        for d in range(p):
            for s in range(p):
                assert np.array_equal(two[d][0][s], flat[d][0][s])

    def test_single_node_falls_back(self):
        p = 4
        topo = _topology(p, 4)  # everything on one node
        send = _send_matrix(p, seed=13)
        with tracing() as tracer:
            two = _run(p, topo, send, TwoLevelCompressedAlltoallv)
        for d in range(p):
            for s in range(p):
                want = send[s][d]
                want = np.zeros(0) if want is None else want
                assert np.array_equal(two[d][0][s], want)
        assert tracer.counter_total("internode_messages") == 0


class TestLeaderFailover:
    """Leader re-election over a shrunk (non-uniform) survivor topology."""

    def _shrunk(self, p, g, survivors):
        from repro.machine.topology import ShrunkTopology

        return ShrunkTopology(_topology(p, g), survivors)

    def test_reelects_leaders_over_live_membership(self):
        # Parent 6 ranks / 3 nodes, rank 1 (a node-0 resident) died.
        topo = self._shrunk(6, 2, (0, 2, 3, 4, 5))
        p = topo.nranks
        send = _send_matrix(p, seed=21)
        world = ThreadWorld(p)
        two = _run(
            p, topo, send, TwoLevelCompressedAlltoallv, codec=CastCodec("fp32"), world=world
        )
        flat = _run(p, topo, send, CompressedOscAlltoallv, codec=CastCodec("fp32"))
        for d in range(p):
            for s in range(p):
                assert np.array_equal(two[d][0][s], flat[d][0][s]), (d, s)
        kinds = {e.kind for events in world.flight.events_by_rank().values() for e in events}
        assert "leader-failover" in kinds
        assert "exchange-degrade" not in kinds

    def test_empty_node_degrades_to_flat_path(self):
        # Node 0 lost both residents: no leader can be elected there.
        topo = self._shrunk(6, 2, (2, 3, 4, 5))
        p = topo.nranks
        send = _send_matrix(p, seed=22)
        world = ThreadWorld(p)
        two = _run(
            p, topo, send, TwoLevelCompressedAlltoallv, codec=CastCodec("fp32"), world=world
        )
        flat = _run(p, topo, send, CompressedOscAlltoallv, codec=CastCodec("fp32"))
        for d in range(p):
            for s in range(p):
                assert np.array_equal(two[d][0][s], flat[d][0][s]), (d, s)
        kinds = {e.kind for events in world.flight.events_by_rank().values() for e in events}
        assert "exchange-degrade" in kinds

    def test_uniform_topology_unchanged_leaders(self):
        # On a uniform topology the live-membership election reduces to
        # the closed form (m % g): identical traffic pattern as before.
        p, g = 6, 2
        topo = _topology(p, g)
        send = _send_matrix(p, seed=23)
        with tracing() as tracer:
            _run(p, topo, send, TwoLevelCompressedAlltoallv)
        inter = [e for e in tracer.span_events() if e.attrs.get("stage") == "internode"]
        # One aggregate per ordered node pair, and only ever leader→leader
        # with the closed-form leaders (rank m%g of each node).
        pairs = sorted(
            (topo.node_of(e.rank), topo.node_of(e.attrs["peer"])) for e in inter
        )
        nnodes = topo.nnodes
        assert pairs == sorted(
            (a, b) for a in range(nnodes) for b in range(nnodes) if a != b
        )
        for e in inter:
            # Sender leader for target node m is local rank m % g; the
            # receiving leader is local rank my_node % g of node m.
            assert topo.local_index(e.rank) == (
                topo.node_of(e.attrs["peer"]) % topo.ranks_per_node
            )
            assert topo.local_index(e.attrs["peer"]) == (
                topo.node_of(e.rank) % topo.ranks_per_node
            )
