"""Always-on flight recorder: bounded per-rank rings of recent events.

The tracer (:mod:`repro.trace`) is opt-in and unbounded; the flight
recorder is the opposite — *always armed*, O(capacity) memory per rank,
and interesting precisely when a run dies.  Every instrumented site
(exchange rounds, codec decisions, achieved error vs ``e_tol``,
retries/degradations, heartbeat verdicts, recovery phases) publishes
through the one seam of :mod:`repro.telemetry.events`, which hands the
installed *sink* one :meth:`~FlightRecorder.write` per record: the
small fixed-shape :class:`FlightEvent` s for the rank's ring and the
rank's live-table writes.  When a rank fails, a collective aborts, a
retry budget is exhausted or the user sends ``SIGUSR1``, the last-N
events per rank are dumped as a black-box crash report
(:mod:`repro.telemetry.blackbox`).

Two sinks exist:

* :class:`FlightRecorder` (here) — in-process deques, the default, used
  by the thread and virtual runtimes;
* :class:`~repro.telemetry.shmseg.ShmSink` — a shared-memory segment,
  installed inside each :class:`~repro.runtime.proc.ProcessWorld` rank
  so the parent can recover a dead child's ring post-mortem.

This module deliberately imports nothing from the rest of the package
(the seam and the registry import *it*), and the disabled path is one
attribute load + branch so the recorder can stay on in production.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Iterable

__all__ = [
    "LIVE_FIELDS",
    "DEFAULT_CAPACITY",
    "FlightEvent",
    "FlightRecorder",
    "publish",
    "get_recorder",
    "install_sink",
    "reset",
    "configure",
    "is_enabled",
]

#: Live per-rank fields mirrored by every sink, besides ``phase`` (names
#: are the contract between the kind table, the shm segment layout, the
#: monitor table and the registry's per-rank series).
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

#: Ring capacity (events per rank) of the default in-process recorder.
DEFAULT_CAPACITY = 256


@dataclass(slots=True)
class FlightEvent:
    """One recorded moment: a fixed, serialisable shape shared by the
    in-process and shared-memory rings (strings are truncated by the
    shm backend; keep ``kind`` ≤ 16 and ``detail`` ≤ 40 bytes)."""

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


class FlightRecorder:
    """In-process sink: one bounded deque of events per rank.

    Thread-safe (rank threads of a :class:`ThreadWorld` record
    concurrently); memory is strictly ``capacity`` events per observed
    rank plus one live row per rank.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._rings: dict[int, deque[FlightEvent]] = {}
        self._live: dict[int, dict[str, Any]] = {}
        self._seq = 0

    # -- sink protocol (shared with ShmTelemetry) ------------------------------------

    def write(
        self,
        rank: int,
        events: Iterable[tuple] = (),
        sets: dict[str, Any] | None = None,
        adds: dict[str, float] | None = None,
    ) -> None:
        """One record's share of ``rank``, under one lock: ring ``events``
        (``(kind, peer, round, value, value2, detail)`` tuples), live
        fields set (``sets``, ``phase`` included) and accumulated (``adds``)."""
        # Hot path: no type coercions on the ring side (callers are
        # internal and pass the documented types), the clock read outside
        # the lock.  CLOCK_MONOTONIC: comparable across forked ranks.
        now = time.perf_counter_ns()
        rank = int(rank)
        with self._lock:
            row = self._live.get(rank)
            if row is None:
                row = self._live[rank] = {"phase": ""}
            if events:
                ring = self._rings.get(rank)
                if ring is None:
                    ring = self._rings[rank] = deque(maxlen=self.capacity)
                for kind, peer, round_, value, value2, detail in events:
                    self._seq += 1
                    ring.append(
                        FlightEvent(kind, rank, now, self._seq, peer, round_, value, value2, detail)
                    )
                    row["events"] = row.get("events", 0.0) + 1.0
            if sets:
                for key, val in sets.items():
                    row[key] = str(val) if key == "phase" else float(val)
            if adds:
                for key, delta in adds.items():
                    row[key] = row.get(key, 0.0) + float(delta)
            row["heartbeat_ns"] = float(now)

    # -- introspection ---------------------------------------------------------------

    def events(self, rank: int | None = None) -> list[FlightEvent]:
        """Snapshot of one rank's ring (or every ring, seq-ordered)."""
        with self._lock:
            if rank is not None:
                return list(self._rings.get(int(rank), ()))
            merged = [e for ring in self._rings.values() for e in ring]
        return sorted(merged, key=lambda e: e.seq)

    def events_by_rank(self) -> dict[int, list[FlightEvent]]:
        with self._lock:
            return {r: list(ring) for r, ring in self._rings.items()}

    def live_snapshot(self) -> dict[int, dict[str, Any]]:
        """Per-rank live state: ``{rank: {"phase": ..., <field>: ...}}``."""
        with self._lock:
            return {rank: dict(row) for rank, row in self._live.items()}


# -- module-global always-on sink ----------------------------------------------------
#
# `publish()` is called once per exchange round, so the disabled/enabled
# checks are a single global load each.  There is always a sink
# installed (the recorder is "always armed"); `configure(enabled=False)`
# exists for the overhead benchmark's baseline and for users who truly
# want zero instrumentation.

_enabled: bool = True
_sink: Any = FlightRecorder()
_default_recorder: FlightRecorder = _sink


def is_enabled() -> bool:
    return _enabled


def configure(*, enabled: bool) -> None:
    """Arm (the default) or disarm the telemetry layer."""
    global _enabled
    _enabled = bool(enabled)


def get_recorder() -> Any:
    """The installed sink (a :class:`FlightRecorder` unless a runtime
    swapped in a shared-memory sink)."""
    return _sink


def install_sink(sink: Any) -> Any:
    """Swap the global sink (returns the previous one).

    The process runtime installs a :class:`~repro.telemetry.shmseg.ShmSink`
    inside each forked rank so events land in shared memory.
    """
    global _sink
    prev = _sink
    _sink = sink if sink is not None else _default_recorder
    return prev


def reset(capacity: int = DEFAULT_CAPACITY) -> FlightRecorder:
    """Fresh default recorder, armed (tests isolate through this)."""
    global _enabled, _sink, _default_recorder
    _default_recorder = FlightRecorder(capacity)
    _sink = _default_recorder
    _enabled = True
    return _default_recorder


def publish(
    rank: int,
    events: Iterable[tuple] = (),
    sets: dict[str, Any] | None = None,
    adds: dict[str, float] | None = None,
) -> None:
    """Hand one record's ring events and live writes to the armed sink in
    one :meth:`~FlightRecorder.write` (no-op when disarmed; never raises)."""
    if not _enabled:
        return
    try:
        _sink.write(rank, events, sets, adds)
    except Exception:  # noqa: BLE001 - telemetry must never kill a rank
        pass

