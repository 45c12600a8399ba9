"""Tests for the functional VirtualWorld and its traffic accounting.

The world moves nothing itself: ``ReshapePlan.run_virtual`` moves every
message and logs it through ``world.traffic.record``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.conformance.oracles import scatter_global
from repro.errors import CommunicatorError
from repro.fft.decomposition import brick_decomposition, pencil_decomposition
from repro.fft.reshape import ReshapePlan
from repro.machine import SUMMIT, Topology
from repro.runtime import VirtualWorld


class TestTrafficAccounting:
    def test_intra_inter_split(self):
        topo = Topology(SUMMIT, 12)
        w = VirtualWorld(12, topology=topo)
        w.traffic.record(0, 5, 80)  # same node (node 0: ranks 0-5)
        w.traffic.record(0, 6, 80)  # cross node
        w.traffic.record(3, 3, 80)  # self
        t = w.traffic
        assert t.intra_bytes == 80
        assert t.inter_bytes == 80
        assert t.local_bytes == 80
        assert t.network_bytes == 160
        assert t.total_bytes == 240
        assert t.messages == 3
        assert t.per_message_sizes == [80, 80, 80]

    def test_no_topology_counts_everything_inter(self):
        w = VirtualWorld(4)
        w.traffic.record(0, 1, 32)
        assert w.traffic.inter_bytes == 32 and w.traffic.intra_bytes == 0

    def test_run_virtual_logs_every_message_by_link_class(self):
        shape, p = (12, 12, 12), 12
        topo = Topology(SUMMIT, p)
        plan = ReshapePlan(brick_decomposition(shape, p), pencil_decomposition(shape, p, 0))
        x = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        w = VirtualWorld(p, topology=topo)
        plan.run_virtual(w, scatter_global(plan.src, x))
        t = w.traffic
        assert t.messages == plan.n_messages
        assert t.total_bytes == x.nbytes  # every cell once, at its raw size
        expected = {"local": 0, "intra": 0, "inter": 0}
        for s, row in enumerate(plan.pairs):
            for d, box in row:
                kind = "local" if s == d else "intra" if topo.same_node(s, d) else "inter"
                expected[kind] += box.size * 8
        assert (t.local_bytes, t.intra_bytes, t.inter_bytes) == (
            expected["local"],
            expected["intra"],
            expected["inter"],
        )
        assert t.intra_bytes > 0 and t.inter_bytes > 0

    def test_topology_size_mismatch_rejected(self):
        with pytest.raises(CommunicatorError):
            VirtualWorld(6, topology=Topology(SUMMIT, 12))
