"""Always-on observability: flight recorder, metrics, black-box dumps.

The tracer (:mod:`repro.trace`) answers "why was this run slow" when
you *planned* to ask; :mod:`repro.telemetry` answers "what just
happened" when you didn't.  Instrumented code reaches both through one
seam (:mod:`~repro.telemetry.events`: :func:`emit` a point event,
:func:`scope` an interval; DESIGN.md §7, §13), which fans each record
out to three always-available pieces:

* **flight recorder** — one ring per world
  (:class:`~repro.telemetry.shmseg.ShmTelemetry`, segment ``t`` of the
  world's namespace, on both launchers): bounded per-rank event rings
  and live rows, always armed, written through the ring bound to the
  recording thread (:mod:`~repro.telemetry.recorder`), dumped by the
  world as a black-box crash report on failure
  (:mod:`~repro.telemetry.blackbox`);
* **metrics registry** (:mod:`~repro.telemetry.metrics`) — counters,
  gauges and histograms with Prometheus text export and JSON
  snapshots;
* **live monitor** (:mod:`~repro.telemetry.monitor_cli`) — ``python -m
  repro monitor`` tails a running proc-world by attaching its ring.
"""

from repro.telemetry.blackbox import (
    BLACKBOX_SCHEMA,
    arm_signal_dump,
    build_blackbox,
    disarm_signal_dump,
    emit_blackbox,
    format_blackbox,
    last_blackbox,
    read_blackbox,
    set_last_blackbox,
    write_blackbox,
)
from repro.telemetry.events import KINDS, emit, scope
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    LIVE_SERIES,
    fold_live,
    get_registry,
    reset,
    write_snapshot,
)
from repro.telemetry.recorder import (
    FLIGHT_CAPACITY,
    LIVE_FIELDS,
    FlightEvent,
    bind,
    configure,
    is_enabled,
)

__all__ = [
    # the seam
    "KINDS",
    "emit",
    "scope",
    # recorder
    "LIVE_FIELDS",
    "FLIGHT_CAPACITY",
    "FlightEvent",
    "bind",
    "reset",
    "configure",
    "is_enabled",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LIVE_SERIES",
    "fold_live",
    "get_registry",
    "write_snapshot",
    # blackbox
    "BLACKBOX_SCHEMA",
    "build_blackbox",
    "write_blackbox",
    "read_blackbox",
    "format_blackbox",
    "emit_blackbox",
    "last_blackbox",
    "set_last_blackbox",
    "arm_signal_dump",
    "disarm_signal_dump",
]
