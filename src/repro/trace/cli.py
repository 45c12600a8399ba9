"""Traced cases behind ``python -m repro trace <case>``.

Runs a small-but-real workload on ``Topology(laptop_spec(), nranks)``
(2 ranks per node, so intra- and inter-node links both appear) under an
installed :class:`~repro.trace.Tracer` and emits the artefacts of the
observability layer:

* ``trace_<case>.json`` — Chrome ``trace_event`` stream, one lane per rank;
* ``BENCH_<name>.json`` — machine-readable aggregates for the perf trajectory;
* ``METRICS_<name>.json`` / ``.prom`` — the metrics registry of the same run;
* a text report (stdout): the summary, then the critical path (run-level
  and per exchange round), the overlap table and the achieved-vs-model
  bandwidth per link class (:mod:`repro.perf`).

Cases:

* ``fft`` — heFFTe-style 3-D FFT, compressed reshapes (Algorithm 1
  end to end: compress/put/fence/decompress/local_fft);
* ``alltoall`` — one pipelined compressed exchange (``pipeline_chunks=4``,
  Algorithm 3).
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.errors import ModelError
from repro.machine.spec import laptop_spec
from repro.machine.topology import Topology
from repro.perf.critical_path import critical_path, exchange_paths, format_critical_path
from repro.perf.overlap import (
    bandwidth_report,
    format_bandwidth_report,
    format_overlap_report,
    overlap_report,
)
from repro.trace.bench import bench_payload, write_bench_json
from repro.trace.core import tracing
from repro.trace.export import summarize, write_chrome_trace

__all__ = ["run_trace_case", "traced_case", "TRACE_CASES"]

TRACE_CASES = ("fft", "alltoall")


def _topology(nranks: int) -> Topology:
    try:
        return Topology(laptop_spec(), nranks)
    except ModelError as exc:
        raise SystemExit(
            f"--ranks {nranks} does not fit the laptop topology (2 ranks per node, "
            f"at most 8 nodes: an even count of at most 16): {exc}"
        ) from None


def _fft(topo: Topology, n: int, e_tol: float, seed: int, runtime: str) -> list:
    """Forward 3-D FFT; returns every rank's
    :class:`~repro.collectives.base.ExchangeStats` (its reshapes merged)."""
    from repro.fft.plan import Fft3d, FftStats
    from repro.runtime import make_world

    plan = Fft3d((n, n, n), topo.nranks, e_tol=e_tol, topology=topo)
    rng = np.random.default_rng(2022 + seed)
    x = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    locals_ = plan.scatter(x)

    def kernel(comm):
        stats = FftStats()
        plan.forward_spmd(comm, locals_[comm.rank], stats=stats)
        return stats.totals()

    return make_world(runtime, topo.nranks).run(kernel)


def _alltoall(topo: Topology, n: int, e_tol: float, seed: int, runtime: str) -> list:
    """One pipelined compressed exchange; returns every rank's ``ExchangeStats``."""
    from repro.collectives import SlotExchange
    from repro.compression.selection import codec_for_tolerance
    from repro.runtime import make_world

    codec = codec_for_tolerance(e_tol, 1, n=1)  # one bare exchange
    items = max(n, 2) ** 3 // topo.nranks + 1

    def kernel(comm):
        rng = np.random.default_rng(100 + 1000 * seed + comm.rank)
        send = [rng.standard_normal(items) for _ in range(comm.size)]
        op = SlotExchange(comm, codec, topology=topo, pipeline_chunks=4)
        try:
            op(send)
        finally:
            op.free()
        return op.last_stats

    return make_world(runtime, topo.nranks).run(kernel)


def traced_case(
    case: str = "fft",
    *,
    nranks: int = 8,
    n: int = 16,
    e_tol: float = 1e-6,
    seed: int = 0,
    runtime: str = "thread",
):
    """Run one case under a fresh tracer; returns ``(tracer, topology,
    per-rank ExchangeStats)``."""
    if case not in TRACE_CASES:
        raise SystemExit(f"unknown trace case {case!r}; pick one of {TRACE_CASES}")
    topo = _topology(nranks)
    runner = _fft if case == "fft" else _alltoall
    with tracing() as tracer:
        per_rank = runner(topo, n, e_tol, seed, runtime)
    return tracer, topo, per_rank


def run_trace_case(
    case: str = "fft",
    *,
    nranks: int = 8,
    n: int = 16,
    e_tol: float = 1e-6,
    out_dir: str = ".",
    bench_name: str | None = None,
    seed: int = 0,
    runtime: str = "thread",
) -> str:
    """Run one traced case and emit trace + bench artefacts.

    Returns the report text (also meant for stdout): the summary, the
    perf analysis, the artefact paths and the wire-byte consistency
    check between the tracer's counters and the collectives' own stats
    objects.
    """
    tracer, topo, per_rank = traced_case(
        case, nranks=nranks, n=n, e_tol=e_tol, seed=seed, runtime=runtime
    )
    os.makedirs(out_dir, exist_ok=True)

    stats_wire = sum(s.wire_bytes for s in per_rank)
    stats_logical = sum(s.logical_bytes for s in per_rank)
    traced_wire = int(tracer.counter_total("wire_bytes"))
    traced_logical = int(tracer.counter_total("logical_bytes"))
    consistent = traced_wire == stats_wire and traced_logical == stats_logical

    trace_path = write_chrome_trace(tracer, os.path.join(out_dir, f"trace_{case}.json"))
    name = bench_name or case
    bench_path = write_bench_json(
        os.path.join(out_dir, f"BENCH_{name}.json"),
        bench_payload(
            tracer,
            name,
            meta={
                "case": case,
                "nranks": nranks,
                "n": n,
                "e_tol": e_tol,
                "seed": seed,
                "runtime": runtime,
                "stats_wire_bytes": stats_wire,
                "stats_logical_bytes": stats_logical,
                "counters_match_stats": consistent,
            },
        ),
    )

    # The always-on metrics registry observed the same run; export both
    # machine (JSON snapshot) and scrape (Prometheus text) forms.
    from repro.telemetry.metrics import get_registry

    registry = get_registry()
    metrics_path = os.path.join(out_dir, f"METRICS_{name}.json")
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(registry.snapshot(), fh, indent=2, sort_keys=True)
    prom_path = os.path.join(out_dir, f"METRICS_{name}.prom")
    with open(prom_path, "w", encoding="utf-8") as fh:
        fh.write(registry.prometheus())

    sections = [
        summarize(tracer),
        format_critical_path(critical_path(tracer)),
        *(format_critical_path(path) for path in exchange_paths(tracer)),
        format_overlap_report(overlap_report(tracer)),
        format_bandwidth_report(bandwidth_report(tracer, topo)),
    ]
    lines = [
        f"=== traced {case}: {nranks} ranks, n={n}, e_tol={e_tol:g}, "
        f"runtime={runtime} ===",
        "\n\n".join(sections),
        "",
        f"chrome trace: {trace_path}",
        f"bench json:   {bench_path}",
        f"metrics:      {metrics_path} / {prom_path}",
        f"wire bytes    tracer={traced_wire}  stats={stats_wire}  "
        f"{'OK' if consistent else 'MISMATCH'}",
    ]
    if not consistent:
        raise SystemExit(
            f"tracer/stats accounting mismatch: wire {traced_wire} vs {stats_wire}, "
            f"logical {traced_logical} vs {stats_logical}"
        )
    return "\n".join(lines)
