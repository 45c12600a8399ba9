"""repro.trace — per-rank tracing, metrics and exporters.

The always-available observability layer: nestable spans with the
paper's time-decomposition taxonomy (pack / compress / put / fence /
decompress / unpack / local_fft / retry), typed counters (logical and
wire bytes, messages, retries, degradations), Chrome ``trace_event``
export with one lane per rank, aggregated text summaries and the
``BENCH_*.json`` emitter.  See DESIGN.md §7.
"""

from repro.trace.bench import BENCH_SCHEMA, bench_payload, write_bench_json
from repro.trace.core import (
    COUNTER_KINDS,
    NULL_SPAN,
    SPAN_KINDS,
    Record,
    Tracer,
    bind_rank,
    get_tracer,
    incr,
    install,
    record_report,
    span,
    tracing,
    uninstall,
)
from repro.trace.export import (
    chrome_trace,
    span_aggregates,
    summarize,
    write_chrome_trace,
)

__all__ = [
    "SPAN_KINDS",
    "COUNTER_KINDS",
    "Record",
    "Tracer",
    "NULL_SPAN",
    "get_tracer",
    "install",
    "uninstall",
    "tracing",
    "span",
    "incr",
    "bind_rank",
    "record_report",
    "chrome_trace",
    "write_chrome_trace",
    "summarize",
    "span_aggregates",
    "BENCH_SCHEMA",
    "bench_payload",
    "write_bench_json",
]
