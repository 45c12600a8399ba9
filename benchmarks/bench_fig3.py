"""Benchmark + regeneration of Fig. 3 (all-to-all node bandwidth).

Two parts: the modelled Summit-scale sweep (the figure itself), and a
*real* exchange on the thread runtime at small scale, benchmarking the
three algorithms against each other — the data-path cross-validation of
the model's subject.  The real "classical" two-sided curve is
``reference`` (the communicator's ``alltoallv``, every payload sent
two-sided); ``pairwise`` times the notification rule of the one slot
transport — the ring's puts completed by a header and a credit per
message instead of OSC's fence.
"""

from __future__ import annotations

import numpy as np

from repro.collectives import make_exchange
from repro.experiments import format_fig3, run_fig3
from repro.experiments.paper_data import FIG3_LANDMARKS
from repro.runtime import ThreadWorld


def test_fig3_model_sweep(benchmark):
    rows = benchmark(run_fig3)
    print("\n=== Fig. 3 (regenerated): node bandwidth, 80 KB/pair ===")
    print(format_fig3(rows))
    by_gpus = {r.gpus: r for r in rows}
    target, tol = FIG3_LANDMARKS["classical@1536"]
    assert abs(by_gpus[1536].classical_gbs - target) <= tol * target
    target, tol = FIG3_LANDMARKS["osc@1536"]
    assert abs(by_gpus[1536].osc_gbs - target) <= tol * target


def _exchange(algorithm: str, nranks: int, nbytes: int) -> None:
    chunk_items = nbytes // 8

    def kernel(comm):
        send = [np.ones(chunk_items) for _ in range(comm.size)]
        op = make_exchange(comm, method=algorithm)
        try:
            return op(send)
        finally:
            op.free()

    ThreadWorld(nranks).run(kernel)


def test_real_alltoall_reference(benchmark):
    benchmark.pedantic(lambda: _exchange("reference", 8, 80_000), rounds=3, iterations=1)


def test_real_alltoall_pairwise(benchmark):
    benchmark.pedantic(lambda: _exchange("pairwise", 8, 80_000), rounds=3, iterations=1)


def test_real_alltoall_osc(benchmark):
    benchmark.pedantic(lambda: _exchange("osc", 8, 80_000), rounds=3, iterations=1)
