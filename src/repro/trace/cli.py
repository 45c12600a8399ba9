"""Traced demo cases behind ``python -m repro trace <case>``.

Runs a small-but-real workload on the thread runtime under an installed
:class:`~repro.trace.Tracer` and emits the three artefacts of the
observability layer:

* ``trace_<case>.json`` — Chrome ``trace_event`` stream, one lane per rank;
* ``BENCH_<name>.json`` — machine-readable aggregates for the perf trajectory;
* a text summary (stdout) with per-span percentiles and counter totals.

Cases:

* ``fft`` — heFFTe-style 3-D FFT, compressed OSC reshapes (Algorithm 1
  end to end: pack/compress/put/fence/decompress/unpack/local_fft);
* ``alltoall`` — one compressed OSC exchange (Algorithm 3 only).
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.trace.bench import bench_payload, write_bench_json
from repro.trace.core import Tracer, install, uninstall
from repro.trace.export import summarize, write_chrome_trace

__all__ = ["run_trace_case", "TRACE_CASES"]

TRACE_CASES = ("fft", "alltoall")


def _traced_fft(nranks: int, n: int, e_tol: float, seed: int, runtime: str = "thread") -> list:
    """Forward 3-D FFT on the chosen runtime; returns every rank's
    :class:`~repro.collectives.base.ExchangeStats` (its reshapes merged)."""
    from repro.fft.plan import Fft3d, FftStats
    from repro.runtime import make_world

    plan = Fft3d((n, n, n), nranks, e_tol=e_tol)
    rng = np.random.default_rng(2022 + seed)
    x = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    locals_ = plan.scatter(x)

    def kernel(comm):
        stats = FftStats()
        plan.forward_spmd(comm, locals_[comm.rank], stats=stats)
        return stats.totals()

    return make_world(runtime, nranks).run(kernel)


def _traced_alltoall(nranks: int, n: int, e_tol: float, seed: int, runtime: str = "thread") -> list:
    """One compressed OSC exchange; returns every rank's ``ExchangeStats``."""
    from repro.collectives import SlotExchange
    from repro.compression.selection import codec_for_tolerance
    from repro.runtime import make_world

    codec = codec_for_tolerance(e_tol, 1, n=1)  # one bare exchange
    items = max(n, 2) ** 3 // nranks + 1

    def kernel(comm):
        rng = np.random.default_rng(100 + 1000 * seed + comm.rank)
        send = [rng.standard_normal(items) for _ in range(comm.size)]
        op = SlotExchange(comm, codec)
        try:
            op(send)
        finally:
            op.free()
        return op.last_stats

    return make_world(runtime, nranks).run(kernel)


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

    Returns the report text (also meant for stdout): artefact paths,
    the summary table, and the wire-byte consistency check between the
    tracer's counters and the collectives' own stats objects.
    """
    if case not in TRACE_CASES:
        raise SystemExit(f"unknown trace case {case!r}; pick one of {TRACE_CASES}")
    os.makedirs(out_dir, exist_ok=True)
    tracer = Tracer()
    install(tracer)
    try:
        runner = _traced_fft if case == "fft" else _traced_alltoall
        per_rank = runner(nranks, n, e_tol, seed, runtime)
    finally:
        uninstall()

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

    lines = [
        f"=== traced {case}: {nranks} ranks, n={n}, e_tol={e_tol:g}, "
        f"runtime={runtime} ===",
        summarize(tracer),
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
