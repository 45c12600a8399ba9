"""Tests for machine specs and rank topology (Section V permutations)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.machine import (
    SUMMIT,
    Topology,
    laptop_spec,
    node_aware_permutation,
    ring_schedule,
    summit_spec,
)
from repro.machine.topology import naive_ring_permutation


class TestMachineSpec:
    def test_summit_preset(self):
        assert SUMMIT.gpus_per_node == 6
        assert SUMMIT.network.internode_gbs == 12.5  # per direction (25 total)
        assert SUMMIT.network.intranode_gbs == 50.0
        assert SUMMIT.gpu.fp64_tflops == 7.8  # Table I V100

    def test_nodes_for(self):
        assert SUMMIT.nodes_for(1536) == 256
        assert SUMMIT.nodes_for(6) == 1

    def test_nodes_for_rejects_partial_nodes(self):
        with pytest.raises(ModelError):
            SUMMIT.nodes_for(7)

    def test_nodes_for_rejects_oversubscription(self):
        tiny = laptop_spec()
        with pytest.raises(ModelError):
            tiny.nodes_for(tiny.gpus_per_node * (tiny.max_nodes + 1))

    def test_with_network_override(self):
        m = SUMMIT.with_network(internode_gbs=100.0)
        assert m.network.internode_gbs == 100.0
        assert SUMMIT.network.internode_gbs == 12.5  # original untouched

    def test_fft_tflops(self):
        assert SUMMIT.gpu.fft_tflops("fp64") == pytest.approx(0.78)
        assert SUMMIT.gpu.fft_tflops("fp32") == pytest.approx(1.57)
        with pytest.raises(ModelError):
            SUMMIT.gpu.fft_tflops("fp8")


class TestTopology:
    def test_basic_mapping(self):
        topo = Topology(SUMMIT, 24)
        assert topo.nnodes == 4 and topo.ranks_per_node == 6
        assert topo.node_of(0) == 0 and topo.node_of(23) == 3
        assert topo.local_index(8) == 2
        assert list(topo.ranks_on_node(1)) == [6, 7, 8, 9, 10, 11]
        assert topo.same_node(6, 11) and not topo.same_node(5, 6)

    def test_bounds_checked(self):
        topo = Topology(SUMMIT, 12)
        with pytest.raises(ModelError):
            topo.node_of(12)
        with pytest.raises(ModelError):
            topo.ranks_on_node(2)

    def test_rejects_partial_node(self):
        with pytest.raises(ModelError):
            Topology(SUMMIT, 10)


class TestNodeAwarePermutation:
    @pytest.mark.parametrize("nranks", [6, 12, 24, 48])
    def test_rows_are_permutations(self, nranks):
        perm = node_aware_permutation(Topology(SUMMIT, nranks))
        for i in range(nranks):
            assert sorted(perm[i]) == list(range(nranks))

    @pytest.mark.parametrize("nranks", [6, 12, 24, 48])
    def test_columns_are_permutations(self, nranks):
        """At every step each rank receives exactly one message."""
        perm = node_aware_permutation(Topology(SUMMIT, nranks))
        for j in range(nranks):
            assert sorted(perm[:, j]) == list(range(nranks))

    @pytest.mark.parametrize("nranks", [12, 24, 48])
    def test_one_remote_node_per_step(self, nranks):
        """Section V: 'no two nodes will send or expect to receive data
        from the same remote node' — per step, each node has exactly one
        partner node."""
        topo = Topology(SUMMIT, nranks)
        perm = node_aware_permutation(topo)
        g = topo.ranks_per_node
        for j in range(nranks):
            for node in range(topo.nnodes):
                targets = {int(perm[i, j]) // g for i in topo.ranks_on_node(node)}
                assert len(targets) == 1

    def test_step_zero_is_self(self):
        perm = node_aware_permutation(Topology(SUMMIT, 24))
        assert np.array_equal(perm[:, 0], np.arange(24))

    def test_naive_ring(self):
        perm = naive_ring_permutation(8)
        assert perm[3, 2] == 5 and perm[7, 1] == 0
        for i in range(8):
            assert sorted(perm[i]) == list(range(8))


class TestRingSchedule:
    def test_schedule_covers_all_pairs(self):
        topo = Topology(laptop_spec(), 6)
        sched = ring_schedule(topo)
        seen = set()
        for step in sched:
            assert len(step) == 6
            for src, dst in step:
                seen.add((src, dst))
        assert len(seen) == 36  # every ordered pair exactly once

    def test_non_aware_schedule(self):
        topo = Topology(laptop_spec(), 4)
        sched = ring_schedule(topo, node_aware=False)
        assert sched[1] == [(0, 1), (1, 2), (2, 3), (3, 0)]

    @given(st.sampled_from([6, 12, 18, 24]))
    @settings(max_examples=10, deadline=None)
    def test_ring_peers_inverse_property(self, nranks):
        """ring_peers' (dest, src) must be mutually consistent: if rank a
        sends to b at step j, then b's source at step j is a."""
        from repro.collectives.pairwise import ring_peers

        topo = Topology(summit_spec(), nranks)
        for j in range(nranks):
            for a in range(nranks):
                dest, _ = ring_peers(a, j, nranks, topo)
                _, src = ring_peers(dest, j, nranks, topo)
                assert src == a
