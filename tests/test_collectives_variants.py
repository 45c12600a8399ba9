"""Tests for the linear message storm (the communicator's own ``alltoallv``)
and the Bruck all-to-all."""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import bruck_alltoall
from repro.conformance.oracles import assert_blocks_equal, expected_recv
from repro.errors import CommunicatorError
from repro.runtime import run_spmd


class TestLinear:
    @pytest.mark.parametrize("p", [1, 2, 5, 8])
    def test_matches_reference(self, p):
        send = [
            [np.arange(d + 1, dtype=np.float64) + s * 100 for d in range(p)] for s in range(p)
        ]
        want = expected_recv(send)
        for d, got in enumerate(run_spmd(p, lambda comm: comm.alltoallv(send[comm.rank]))):
            for s in range(p):
                assert_blocks_equal(got[s], want[d][s], where=f"rank {d} <- {s}")

    def test_none_entries(self):
        def kernel(comm):
            send = [None] * comm.size
            send[0] = np.ones(2)
            return [len(block) for block in comm.alltoallv(send)]

        assert run_spmd(3, kernel) == [[2, 2, 2], [0, 0, 0], [0, 0, 0]]

    def test_wrong_length_rejected(self):
        def kernel(comm):
            comm.alltoallv([np.zeros(1)])

        with pytest.raises(CommunicatorError):
            run_spmd(2, kernel, timeout=5.0)


class TestBruck:
    @pytest.mark.parametrize("p", [2, 3, 4, 7, 8, 12])
    def test_matches_reference_equal_blocks(self, p):
        def kernel(comm):
            send = [
                np.full(3, comm.rank * comm.size + d, dtype=np.float64)
                for d in range(comm.size)
            ]
            ref = comm.alltoallv(send)
            brk = bruck_alltoall(comm, send)
            return all(np.array_equal(a, b) for a, b in zip(ref, brk))

        assert all(run_spmd(p, kernel))

    def test_multidim_blocks(self):
        def kernel(comm):
            send = [np.full((2, 2), comm.rank * 10 + d, dtype=np.float64) for d in range(comm.size)]
            out = bruck_alltoall(comm, send)
            return all(np.array_equal(out[s], np.full((2, 2), s * 10 + comm.rank)) for s in range(comm.size))

        assert all(run_spmd(4, kernel))

    def test_unequal_blocks_rejected(self):
        def kernel(comm):
            send = [np.zeros(d + 1) for d in range(comm.size)]
            bruck_alltoall(comm, send)

        with pytest.raises(CommunicatorError, match="equal-sized"):
            run_spmd(3, kernel, timeout=5.0)

    def test_single_rank(self):
        def kernel(comm):
            out = bruck_alltoall(comm, [np.arange(4.0)])
            return np.array_equal(out[0], np.arange(4.0))

        assert run_spmd(1, kernel) == [True]


class TestBruckModel:
    def test_bruck_wins_tiny_messages(self):
        """log-p start-ups beat p start-ups when messages are tiny."""
        from repro.machine import SUMMIT
        from repro.netsim.alltoall_model import bruck_alltoall_cost, osc_alltoall_cost

        bruck = bruck_alltoall_cost(SUMMIT, 1536, 8)
        ring = osc_alltoall_cost(SUMMIT, 1536, 8)
        assert bruck.total_s < ring.total_s

    def test_ring_wins_large_messages(self):
        """Bruck's log2(p)/2 volume blow-up loses on bandwidth-bound sizes."""
        from repro.machine import SUMMIT
        from repro.netsim.alltoall_model import bruck_alltoall_cost, osc_alltoall_cost

        bruck = bruck_alltoall_cost(SUMMIT, 1536, 80_000)
        ring = osc_alltoall_cost(SUMMIT, 1536, 80_000)
        assert ring.total_s < bruck.total_s

    def test_crossover_exists(self):
        from repro.machine import SUMMIT
        from repro.netsim.alltoall_model import bruck_alltoall_cost, osc_alltoall_cost

        sizes = [8, 64, 512, 4096, 32768, 262144]
        winner = [
            bruck_alltoall_cost(SUMMIT, 384, m).total_s < osc_alltoall_cost(SUMMIT, 384, m).total_s
            for m in sizes
        ]
        assert winner[0] and not winner[-1]  # flips somewhere in between
