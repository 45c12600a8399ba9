"""The one seam between instrumented code and every observability sink.

A site makes one call per event — :func:`emit` for a point, :func:`scope`
for an interval — and the kind table :data:`KINDS` routes the record to
the tracer (only when one is installed), to the flight ring bound to
the calling thread (ring events plus the rank's live row, in one write)
and to the registry series a live row cannot carry; the per-rank
accumulators are read off the live row
(:data:`~repro.telemetry.metrics.LIVE_SERIES`).  The
per-message spans and the virtual executor's events are tracer-only and
call :mod:`repro.trace` directly: they must cost a branch without a
tracer, and a virtual rank has no live row.
"""

from __future__ import annotations

import time
from typing import Any, Callable, NamedTuple

from repro.telemetry import metrics as _metrics
from repro.telemetry import recorder as _recorder
from repro.trace import core as _trace

__all__ = ["KINDS", "Route", "emit", "scope"]


class Route(NamedTuple):
    """Where one kind goes.  ``trace(tracer, rank, attrs)`` runs with a
    tracer installed (a scope's span is implicit); ``flight(kind, attrs)``
    returns the ``(ring events, live sets, live adds)`` of the event or of
    a scope's entry, ``exit`` those of a scope's exit (``attrs`` then
    carry ``seconds`` and ``ok``); ``metrics(registry, kind, rank,
    attrs)`` writes the registry series (at a scope's exit)."""

    trace: Callable[..., None] | None = None
    flight: Callable[..., tuple] | None = None
    exit: Callable[..., tuple] | None = None
    metrics: Callable[..., None] | None = None


def _ring(kind: str, value: float = 0.0, detail: str = "", round_: int = -1, peer: int = -1):
    return (kind, peer, round_, value, 0.0, detail[:40])


def _phase(kind: str, attrs: dict[str, Any]) -> tuple:
    return (), {"phase": kind}, None


def _fft(kind: str, attrs: dict[str, Any]) -> tuple:
    detail = f"{'i' if attrs.get('inverse') else ''}fft {attrs['shape'][0]}^3"
    return [_ring(kind, float(attrs["nranks"]), detail)], {"alive": 1.0, "phase": kind}, None


def _idle(kind: str, attrs: dict[str, Any]) -> tuple:
    """A transform that returns leaves its rank idle; one that raised, in
    the phase it died in."""
    return (), {"phase": "idle"} if attrs["ok"] else None, None


def _lasted(kind: str, attrs: dict[str, Any]) -> tuple:
    return [_ring(kind, attrs["seconds"])], None, None


def _recovered(registry, kind: str, rank: int, attrs: dict[str, Any]) -> None:
    registry.counter("repro_recoveries_total", phase=kind, runtime=attrs["runtime"]).inc()


def _trace_round(tracer, rank: int, attrs: dict[str, Any]) -> None:
    for name in ("messages", "logical_bytes", "wire_bytes"):
        tracer.incr(name, getattr(attrs["stats"], name), rank=rank)
    tracer.record_report(attrs["report"])


def _round(kind: str, attrs: dict[str, Any]) -> tuple:
    """One exchange: its round, its error against ``e_tol`` when measured,
    and every event of its resilience report (value = attempt)."""
    stats, report, round_, detail = attrs["stats"], attrs["report"], attrs["round"], attrs["detail"]
    wire = float(stats.wire_bytes)
    ratio = stats.achieved_rate
    events = [(kind, -1, round_, wire, ratio if ratio != float("inf") else 0.0, detail)]
    adds = {"rounds": 1.0, "wire_bytes": wire, "logical_bytes": float(stats.logical_bytes)}
    sets = None
    e_tol = attrs.get("e_tol")
    if e_tol is not None and stats.error_measured:
        headroom = e_tol - stats.achieved_error
        events.append(("error", -1, round_, stats.achieved_error, headroom, detail))
        sets = {"achieved_error": stats.achieved_error, "error_headroom": headroom, "e_tol": e_tol}
    if report.events:
        events += [
            _ring(ev.kind, float(ev.attempt), ev.codec or ev.detail or "", round_, ev.peer)
            for ev in report.events
        ]
        for name in ("retries", "degradations"):
            if getattr(report, name):
                adds[name] = float(getattr(report, name))
    return events, sets, adds


def _timed(registry, kind: str, rank: int, attrs: dict[str, Any]) -> None:
    seconds = attrs.get("seconds")
    if seconds is not None:
        registry.histogram("repro_exchange_seconds", rank=rank).observe(seconds)
        if seconds > 0.0 and attrs["stats"].wire_bytes:
            bandwidth = attrs["stats"].wire_bytes / seconds
            registry.gauge("repro_link_bandwidth_bytes_per_s", rank=rank).set(bandwidth)


def _trace_detect(tracer, rank: int, attrs: dict[str, Any]) -> None:
    tracer.record_span(
        "detect", rank, duration_ns=int(attrs["seconds"] * 1e9),
        failure_kind=attrs["failure_kind"], classification=attrs["classification"],
    )


def _detect(kind: str, attrs: dict[str, Any]) -> tuple:
    """A rank declared failed, in its own ring: the verdict, and the
    detection window (last sign of life -> verdict)."""
    seconds, why = attrs["seconds"], f"{attrs['failure_kind']}/{attrs['classification']}"
    return [_ring("rank-failed", seconds, why), _ring(kind, seconds)], None, None


def _point(sets: dict[str, Any] | None = None, ring: bool = True) -> Callable[..., tuple]:
    """One ring event (``value``, ``detail`` attrs) unless not ``ring``,
    and the live fields ``sets``."""

    def flight(kind: str, attrs: dict[str, Any]) -> tuple:
        event = _ring(kind, float(attrs.get("value", 0.0)), attrs.get("detail", ""))
        return [event] if ring else (), sets, None

    return flight


def _count(name: str, **labels: str) -> Callable[..., None]:
    return lambda registry, kind, rank, attrs: registry.counter(name, **labels).inc()


def _trace_pool(tracer, rank: int | None, attrs: dict[str, Any]) -> None:
    tracer.incr("pool_hits" if attrs["hit"] else "pool_misses", rank=rank)


def _pool(registry, kind: str, rank: int | None, attrs: dict[str, Any]) -> None:
    name, hits, misses = attrs["pool"], attrs["hits"], attrs["misses"]
    registry.counter(f"repro_pool_{'hits' if attrs['hit'] else 'misses'}_total", pool=name).inc()
    registry.gauge("repro_pool_hit_rate", pool=name).set(hits / (hits + misses))


_RECOVERY = Route(flight=_phase, exit=_lasted, metrics=_recovered)

#: The kind table: every event an instrumented site publishes.
KINDS: dict[str, Route] = {
    # scopes: the tracer gets a span; the entry sets the rank's live phase
    "fft": Route(flight=_fft, exit=_idle),
    "exchange": Route(flight=_phase),
    "local_fft": Route(flight=_phase),
    "agree": _RECOVERY,
    "shrink": _RECOVERY,
    "restart": _RECOVERY,
    # point events
    "exchange-round": Route(trace=_trace_round, flight=_round, metrics=_timed),
    "detect": Route(trace=_trace_detect, flight=_detect),
    "exchange-degrade": Route(
        flight=_point(), metrics=_count("repro_exchange_degraded_total", reason="empty_node")
    ),
    "leader-failover": Route(flight=_point(), metrics=_count("repro_leader_failovers_total")),
    "pool-acquire": Route(trace=_trace_pool, metrics=_pool),
    # a rank's lifecycle
    "start": Route(flight=_point({"alive": 1.0, "phase": "start"}, ring=False)),
    "done": Route(flight=_point({"done": 1.0, "phase": "done"}, ring=False)),
    "failed": Route(flight=_point({"alive": 0.0, "phase": "failed"}, ring=False)),
    "abort": Route(flight=_point({"alive": 0.0, "phase": "failed"})),
    "fault-kill": Route(flight=_point({"alive": 0.0, "phase": "killed"})),
    "fault-hang": Route(flight=_point({"phase": "hung"})),
}


def _publish(flight, metrics, kind: str, rank: int | None, attrs: dict[str, Any]) -> None:
    """The always-on share of a record: one write to the bound ring (none
    bound: none), then the registry."""
    if not _recorder.is_enabled():
        return
    try:
        if flight is not None:
            ring = _recorder.bound()
            if ring is not None:
                events, sets, adds = flight(kind, attrs)
                ring.write(rank, events, sets, adds)
        if metrics is not None:
            metrics(_metrics.get_registry(), kind, rank, attrs)
    except Exception:  # noqa: BLE001 - telemetry must never kill a rank
        pass


def emit(kind: str, rank: int | None = None, **attrs: Any) -> None:
    """Publish one point event of ``kind`` (see :data:`KINDS`) on ``rank``."""
    route = KINDS[kind]
    tracer = _trace.get_tracer()
    if route.trace is not None and tracer is not None:
        route.trace(tracer, rank, attrs)
    _publish(route.flight, route.metrics, kind, rank, attrs)


def scope(kind: str, rank: int, **attrs: Any):
    """Context manager publishing one interval of ``kind`` on ``rank``.

    Use it directly in a ``with``: its entry is published when the scope
    is made, and a kind with nothing to publish at exit *is* the tracer's
    span (a per-reshape phase costs one ring write and a span)."""
    route = KINDS[kind]
    _publish(route.flight, None, kind, rank, attrs)
    if route.exit is None and route.metrics is None:
        return _trace.span(kind, rank=rank, **attrs)
    return _TimedScope(kind, rank, route, attrs)


class _TimedScope:
    """A scope that also publishes its exit (``seconds``, ``ok``)."""

    __slots__ = ("_kind", "_rank", "_route", "_attrs", "_span", "_t0")

    def __init__(self, kind: str, rank: int, route: Route, attrs: dict[str, Any]) -> None:
        self._kind, self._rank, self._route, self._attrs = kind, rank, route, attrs
        self._span = _trace.span(kind, rank=rank, **attrs)
        self._t0 = time.perf_counter_ns()

    def __enter__(self) -> None:
        self._span.__enter__()

    def __exit__(self, exc_type: Any, *exc: Any) -> bool:
        self._span.__exit__(exc_type, *exc)
        # The attrs are this scope's own dict (the span took a copy).
        self._attrs.update(seconds=(time.perf_counter_ns() - self._t0) / 1e9, ok=exc_type is None)
        _publish(self._route.exit, self._route.metrics, self._kind, self._rank, self._attrs)
        return False
