"""Trace exporters: Chrome ``trace_event`` JSON and text summaries.

The Chrome format (one lane per rank, load in ``chrome://tracing`` or
https://ui.perfetto.dev) is the visual artefact; :func:`summarize` is
the terminal artefact — per-span-kind percentiles, per-rank totals and
the typed counters, including the achieved compression rate derived
from the logical/wire byte counters.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.trace.core import Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "summarize",
    "span_aggregates",
]


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars so ``json.dump`` never chokes on attrs."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _args(attrs: dict[str, Any]) -> dict[str, Any]:
    return {k: _jsonable(v) for k, v in attrs.items()}


def chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """Render the tracer's records as a Chrome ``trace_event`` object.

    One process (pid 0), one thread lane per rank (tid = rank); each
    record keeps its phase: spans are complete events (``ph="X"``),
    folded resilience events thread-scoped instants (``ph="i"``), and
    typed counter increments (wire / logical bytes, retries, …) counter
    events (``ph="C"``) — one lane per counter name, one series per
    rank, each sample carrying the running total at that instant.
    Timestamps are microseconds, as the format requires.
    """
    events: list[dict[str, Any]] = []
    for rank in tracer.ranks():
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": rank,
                "name": "thread_name",
                "args": {"name": f"rank {rank}"},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": rank,
                "name": "thread_sort_index",
                "args": {"sort_index": rank},
            }
        )
    running: dict[tuple[int, str], float] = {}
    for r in tracer.records():
        event = {
            "name": r.kind,
            "cat": "repro",
            "ph": r.ph,
            "pid": 0,
            "tid": r.rank,
            "ts": r.t0_ns / 1000.0,
        }
        if r.ph == "C":
            key = (r.rank, r.kind)
            running[key] = running.get(key, 0) + r.attrs
            event["args"] = {f"rank {r.rank}": _jsonable(running[key])}
        else:
            event["args"] = _args(r.attrs)
            if r.ph == "X":
                event["dur"] = r.duration_ns / 1000.0
            else:
                event["s"] = "t"
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(tracer), fh)
    return path


def span_aggregates(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per-span-kind aggregate timings (seconds): count/total/p50/p95/max.

    An empty tracer yields an empty dict, never an exception.
    """
    by_kind: dict[str, list[int]] = {}
    for s in tracer.span_events():
        by_kind.setdefault(s.kind, []).append(s.duration_ns)
    out: dict[str, dict[str, float]] = {}
    for kind, durs in sorted(by_kind.items()):
        arr = np.asarray(durs, dtype=np.float64) * 1e-9
        out[kind] = {
            "count": len(durs),
            "total_s": float(arr.sum()),
            "p50_s": float(np.percentile(arr, 50)),
            "p95_s": float(np.percentile(arr, 95)),
            "max_s": float(arr.max()),
        }
    return out


def summarize(tracer: Tracer) -> str:
    """Aggregated text summary: span percentiles, rank totals, counters.

    Safe on an *empty* tracer (nothing recorded): prints an explicit
    "(no spans recorded)" report instead of raising.
    """
    lines: list[str] = []
    aggs = span_aggregates(tracer)
    if aggs:
        lines.append("span kind         count   total(ms)    p50(ms)    p95(ms)    max(ms)")
        for kind, a in aggs.items():
            lines.append(
                f"{kind:<16} {a['count']:>6.0f}  {a['total_s'] * 1e3:>10.3f} "
                f"{a['p50_s'] * 1e3:>10.3f} {a['p95_s'] * 1e3:>10.3f} {a['max_s'] * 1e3:>10.3f}"
            )
    else:
        lines.append("(no spans recorded)")

    # Per-rank wall time: sum of top-level (depth 0) spans only, so
    # nested children are not double-counted.
    per_rank: dict[int, int] = {}
    for s in tracer.span_events():
        if s.depth == 0:
            per_rank[s.rank] = per_rank.get(s.rank, 0) + s.duration_ns
    if per_rank:
        lines.append("")
        lines.append("rank    top-level span total(ms)")
        for rank in sorted(per_rank):
            lines.append(f"{rank:>4}    {per_rank[rank] * 1e-6:>10.3f}")

    counters = tracer.counters()
    names = sorted({name for _, name in counters})
    if names:
        lines.append("")
        lines.append("counter            total          per-rank")
        for name in names:
            ranked = {r: v for (r, n), v in counters.items() if n == name}
            total = sum(ranked.values())
            detail = ", ".join(f"{r}:{v:g}" for r, v in sorted(ranked.items()))
            lines.append(f"{name:<16} {total:>10g}    {detail}")
        logical = tracer.counter_total("logical_bytes")
        wire = tracer.counter_total("wire_bytes")
        if wire:
            lines.append(f"achieved compression rate: {logical / wire:.2f}x")
    return "\n".join(lines)
