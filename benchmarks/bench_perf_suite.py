"""Benchmark the perf-analysis layer itself + the gated suite cases.

The regression gate (``python -m repro perf compare``) only stays
honest if its own machinery is cheap relative to what it measures.
This bench times (1) each pinned suite case exactly as the gate runs
it and (2) the analysis pass — critical path + overlap + bandwidth —
over a real traced run, so a drift in analysis cost shows up in the
benchmark trajectory alongside the workloads.
"""

from __future__ import annotations

import pytest

from repro.perf.baseline import SUITE_CASES
from repro.perf.critical_path import critical_path, exchange_paths
from repro.perf.overlap import bandwidth_report, overlap_report
from repro.trace.cli import traced_case


@pytest.mark.parametrize("case", sorted(SUITE_CASES))
def test_suite_case(benchmark, case):
    """One untraced repeat of each gated suite case (what `record` times)."""
    benchmark.pedantic(SUITE_CASES[case], args=(0,), rounds=3, iterations=1)


def test_analysis_pass(benchmark):
    """Critical path + overlap + bandwidth over one traced pipelined exchange."""
    tracer, topo, _ = traced_case("alltoall", nranks=4, seed=0)
    events = tracer.span_events()

    def analyse():
        path = critical_path(events)
        rounds = exchange_paths(events)
        overlap = overlap_report(events)
        bw = bandwidth_report(events, topo)
        assert path is not None and rounds and overlap.per_rank and bw
        return path

    benchmark.pedantic(analyse, rounds=5, iterations=1)

