"""Always-on flight recording: the event shape, the switch, the binding.

The tracer (:mod:`repro.trace`) is opt-in and unbounded; the flight
recorder is the opposite — *always armed*, O(capacity) memory per rank,
and interesting precisely when a run dies.  Every instrumented site
(exchange rounds, codec decisions, achieved error vs ``e_tol``,
retries/degradations, heartbeat verdicts, recovery phases) publishes
through the one seam of :mod:`repro.telemetry.events`, which hands the
ring *bound to the calling thread* one write per record: the small
fixed-shape :class:`FlightEvent` s for the rank's ring and the rank's
live-row writes.

There is one sink, :class:`~repro.telemetry.shmseg.ShmTelemetry`: a
ring per world, in segment ``t`` of the world's namespace.  Each
launcher binds its world's ring (:func:`bind`) on every rank thread —
a forked rank: its main thread — and on the calling thread for the
duration of ``run()``; a thread with no ring bound records nothing.
When a run fails, a collective aborts, a retry budget is exhausted or
the user sends ``SIGUSR1``, the world freezes its ring into a
black-box crash report (:mod:`repro.telemetry.blackbox`).

This module deliberately imports nothing from the rest of the package
(the seam, the ring and the registry import *it*), and the disabled
path is one call + branch so the recorder can stay on in production.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Any

__all__ = [
    "LIVE_FIELDS",
    "FLIGHT_CAPACITY",
    "FlightEvent",
    "bind",
    "bound",
    "configure",
    "is_enabled",
]

#: Live per-rank fields of a ring's row, besides ``phase`` (names are
#: the contract between the kind table, the ring layout, the monitor
#: table and the registry's per-rank series).
LIVE_FIELDS = (
    "alive",
    "done",
    "heartbeat_ns",
    "rounds",
    "wire_bytes",
    "logical_bytes",
    "achieved_error",
    "error_headroom",
    "e_tol",
    "retries",
    "degradations",
    "events",
)

#: Ring capacity: events retained per rank.
FLIGHT_CAPACITY = 256


@dataclass(slots=True)
class FlightEvent:
    """One recorded moment, as a ring returns it (the ring truncates
    ``kind`` to 24 and ``detail`` to 40 UTF-8 bytes)."""

    kind: str
    rank: int
    t_ns: int = 0
    seq: int = 0
    peer: int = -1
    round: int = -1
    value: float = 0.0
    value2: float = 0.0
    detail: str = ""

    def to_json(self) -> dict[str, Any]:
        return asdict(self)


class _Bound(threading.local):
    ring: Any = None


_bound = _Bound()
_enabled: bool = True


def bind(ring: Any) -> Any:
    """Make ``ring`` the one this thread's records go to (``None``: none);
    returns the ring bound before, for the caller to restore."""
    prev, _bound.ring = _bound.ring, ring
    return prev


def bound() -> Any:
    """The ring bound to this thread, or ``None``."""
    return _bound.ring


def is_enabled() -> bool:
    return _enabled


def configure(*, enabled: bool) -> None:
    """Arm (the default) or disarm the telemetry layer (the overhead
    benchmark's baseline, or users who truly want no instrumentation)."""
    global _enabled
    _enabled = bool(enabled)
