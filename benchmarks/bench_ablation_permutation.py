"""Ablation: node-aware ring permutation on/off (Section V).

Model level: the congestion penalty the permutation avoids.  Runtime
level: real pairwise exchanges with and without the permutation on the
thread runtime (data-path identical, so times should match — the
permutation is about *networks*, which the model covers).  Each
``pairwise_alltoallv`` call is the credit-rule ring on a window it
creates and frees, not a two-sided ring.
"""

from __future__ import annotations

import numpy as np

from repro.collectives import pairwise_alltoallv
from repro.machine import SUMMIT, Topology
from repro.netsim.alltoall_model import (
    classical_alltoall_cost,
    congestion_factor,
    osc_alltoall_cost,
)
from repro.runtime import ThreadWorld


def test_model_congestion_ablation(benchmark):
    def sweep():
        return [
            (
                p,
                classical_alltoall_cost(SUMMIT, p, 80_000).node_bandwidth_gbs,
                osc_alltoall_cost(SUMMIT, p, 80_000).node_bandwidth_gbs,
            )
            for p in (24, 96, 384, 1536)
        ]

    rows = benchmark(sweep)
    print("\n=== permutation ablation (model): unordered vs node-aware ===")
    for p, unordered, aware in rows:
        n = p // 6
        print(
            f"  {p:>5d} GPUs: unordered {unordered:5.2f} GB/s (congestion x"
            f"{congestion_factor(n, 80_000):4.2f})  node-aware {aware:5.2f} GB/s"
        )
    # the gap must widen with scale
    gaps = [aware / unordered for _, unordered, aware in rows]
    assert gaps[-1] > gaps[0]


def _pairwise(nranks: int, node_aware: bool) -> None:
    topo = Topology(SUMMIT, nranks) if node_aware else None

    def kernel(comm):
        send = [np.ones(1024) for _ in range(comm.size)]
        return pairwise_alltoallv(comm, send, topology=topo)

    ThreadWorld(nranks).run(kernel)


def test_real_pairwise_naive(benchmark):
    benchmark.pedantic(lambda: _pairwise(6, False), rounds=3, iterations=1)


def test_real_pairwise_node_aware(benchmark):
    benchmark.pedantic(lambda: _pairwise(6, True), rounds=3, iterations=1)
