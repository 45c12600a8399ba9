"""``python -m repro perf record|compare`` — the perf regression gate.

* ``record`` — run the pinned microbench suite (median-of-k) and write
  ``BENCH_<name>.json`` into ``--out``; commit that file to anchor the
  performance trajectory.
* ``compare`` — re-run the suite and gate it against ``--baseline``
  with calibrated medians and the MAD guard; exit 1 on regression.
  The fresh recording is also written next to ``--out`` so CI can
  archive it as the next trajectory point.

The analysis of one traced run (critical path, overlap, link-class
bandwidth) is printed by ``python -m repro trace`` (:mod:`repro.trace.cli`).
"""

from __future__ import annotations

import json
import os

from repro.perf.baseline import (
    DEFAULT_MAD_MULT,
    DEFAULT_REL_TOL,
    DEFAULT_REPEATS,
    compare_payloads,
    format_comparison,
    record_payload,
)
from repro.trace.bench import write_bench_json

__all__ = ["run_perf_cli"]


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
    runtime: str = "thread",
    echo=print,
) -> int:
    """Drive one perf subcommand from parsed CLI options; returns exit status."""
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

    raise SystemExit(f"unknown perf command {command!r}; pick record or compare")
