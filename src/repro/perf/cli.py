"""``python -m repro perf record|compare|report`` — the perf workflow.

* ``record`` — run the pinned microbench suite (median-of-k) and write
  ``BENCH_<name>.json`` into ``--out``; commit that file to anchor the
  performance trajectory.
* ``compare`` — re-run the suite and gate it against ``--baseline``
  with calibrated medians and the MAD guard; exit 1 on regression.
  The fresh recording is also written next to ``--out`` so CI can
  archive it as the next trajectory point.
* ``report`` — run one traced workload (pipelined compressed all-to-all
  or a compressed FFT) and print the analysis artefacts: critical path
  (run-level and per exchange round), overlap attribution and
  achieved-vs-model bandwidth per link class.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.perf.baseline import (
    DEFAULT_MAD_MULT,
    DEFAULT_REL_TOL,
    DEFAULT_REPEATS,
    compare_payloads,
    format_comparison,
    record_payload,
)
from repro.perf.critical_path import critical_path, exchange_paths, format_critical_path
from repro.perf.overlap import (
    bandwidth_report,
    format_bandwidth_report,
    format_overlap_report,
    overlap_report,
)
from repro.trace.bench import write_bench_json
from repro.trace.core import Tracer, install, uninstall

__all__ = ["run_perf_cli", "REPORT_CASES", "traced_report_case"]

REPORT_CASES = ("alltoall", "fft")


def _report_topology(nranks: int):
    from repro.machine.spec import laptop_spec
    from repro.machine.topology import Topology

    return Topology(laptop_spec(), nranks)


def traced_report_case(case: str, *, nranks: int = 4, seed: int = 0, runtime: str = "thread"):
    """Run one report workload under a fresh tracer; returns (tracer, topo).

    ``alltoall`` is a pipelined :class:`CompressedOscAlltoallv` with a
    node-aware topology (2 ranks per node, so intra- and inter-node
    links both appear); ``fft`` is a compressed 4-reshape ``Fft3d``.
    ``runtime`` selects the execution substrate; the proc runtime's
    per-rank spans arrive through trace spool merging.
    """
    if case not in REPORT_CASES:
        raise SystemExit(f"unknown perf report case {case!r}; pick one of {REPORT_CASES}")
    topo = _report_topology(nranks)
    tracer = Tracer()
    install(tracer)
    try:
        if case == "alltoall":
            from repro.collectives.compressed import CompressedOscAlltoallv
            from repro.compression.selection import codec_for_tolerance
            from repro.runtime import make_world

            codec = codec_for_tolerance(1e-6, 1, n=1)  # one bare exchange

            def kernel(comm):
                rng = np.random.default_rng(seed * 997 + comm.rank)
                send = [rng.standard_normal(8192) for _ in range(comm.size)]
                op = CompressedOscAlltoallv(
                    comm, codec, topology=topo, pipeline_chunks=4
                )
                try:
                    op(send)
                finally:
                    op.free()

            make_world(runtime, nranks).run(kernel)
        else:
            from repro.fft.plan import Fft3d
            from repro.runtime import make_world

            n = 12
            plan = Fft3d((n, n, n), nranks, e_tol=1e-6, topology=topo)
            rng = np.random.default_rng(seed * 991 + 3)
            x = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
            locals_ = plan.scatter(x)
            make_world(runtime, nranks).run(
                lambda comm: plan.forward_spmd(comm, locals_[comm.rank])
            )
    finally:
        uninstall()
    return tracer, topo


def _report_text(case: str, *, nranks: int, seed: int, runtime: str = "thread") -> str:
    tracer, topo = traced_report_case(case, nranks=nranks, seed=seed, runtime=runtime)
    sections = [
        f"=== perf report: {case}, {nranks} ranks, seed {seed}, runtime {runtime} ===",
        "",
        format_critical_path(critical_path(tracer)),
    ]
    rounds = exchange_paths(tracer)
    if rounds:
        sections.append("")
        sections.extend(format_critical_path(p) for p in rounds)
    sections.append("")
    sections.append(format_overlap_report(overlap_report(tracer)))
    sections.append("")
    sections.append(format_bandwidth_report(bandwidth_report(tracer, topo)))
    return "\n".join(sections)


def run_perf_cli(
    command: str,
    *,
    out: str = ".",
    name: str = "perf",
    baseline: str | None = None,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 0,
    rel_tol: float = DEFAULT_REL_TOL,
    mad_mult: float = DEFAULT_MAD_MULT,
    slowdown: float = 1.0,
    case: str = "alltoall",
    nranks: int = 4,
    runtime: str = "thread",
    echo=print,
) -> int:
    """Drive one perf subcommand from parsed CLI options; returns exit status."""
    if command == "report":
        echo(_report_text(case, nranks=nranks, seed=seed, runtime=runtime))
        return 0

    if command == "record":
        os.makedirs(out, exist_ok=True)
        payload = record_payload(
            name, repeats=repeats, seed=seed, slowdown=slowdown, runtime=runtime
        )
        path = write_bench_json(os.path.join(out, f"BENCH_{name}.json"), payload)
        echo(f"=== perf record: {name}, {repeats} repeats, seed {seed}, runtime {runtime} ===")
        echo(f"calibration: {payload['calibration_s'] * 1e3:.3f} ms")
        for cname, doc in payload["cases"].items():
            overlap = doc.get("overlap_fraction")
            overlap_txt = f", overlap {overlap * 100:.0f}%" if overlap is not None else ""
            echo(
                f"  {cname:<30} median {doc['median_s'] * 1e3:>8.3f} ms "
                f"(MAD {doc['mad_s'] * 1e3:.3f} ms{overlap_txt})"
            )
        echo(f"baseline written to {path}")
        return 0

    if command == "compare":
        if baseline is None:
            raise SystemExit("perf compare requires --baseline BENCH_<name>.json")
        with open(baseline, "r", encoding="utf-8") as fh:
            base_payload = json.load(fh)
        os.makedirs(out, exist_ok=True)
        cur_payload = record_payload(
            name, repeats=repeats, seed=seed, slowdown=slowdown, runtime=runtime
        )
        write_bench_json(os.path.join(out, f"BENCH_{name}.json"), cur_payload)
        result = compare_payloads(
            cur_payload, base_payload, rel_tol=rel_tol, mad_mult=mad_mult
        )
        echo(format_comparison(result))
        return 0 if result.ok else 1

    raise SystemExit(f"unknown perf command {command!r}; pick record, compare or report")
