"""The flight ring: every world's telemetry, in segment ``t`` of its namespace.

One class serves both launchers.  :class:`ShmTelemetry` lays its bytes
over the world's segment ``t`` (``world.segments.create("t", ...)``):
an anonymous mapping on a :class:`~repro.runtime.thread_rt.ThreadWorld`,
``/dev/shm/{uid}t`` on a :class:`~repro.runtime.proc.ProcessWorld`,
where forked ranks inherit the mapping and the crash sweep covers the
name.  After the header, it holds for each rank

* a **live row** — :data:`~repro.telemetry.recorder.LIVE_FIELDS`
  as f64 slots plus a 16-byte phase string, the row the live monitor
  renders and the registry reads;
* a **flight ring** — a monotonic write counter and ``capacity``
  fixed 112-byte event records.

A rank's write counter and accumulators are read-modify-writes under a
per-rank lock of the writing process (the rank itself, or a peer
recording its death); a set is one store.  So writes take no
fork-shared primitive, and the parent — or a ``python -m repro
monitor`` process attaching by name — reads concurrently.
Readers tolerate a torn in-flight record: the write counter is
published after the record bodies, and a dead child's counter simply
stops moving, leaving its last completed events intact for the
post-mortem harvest.

Record layout (little-endian, 112 bytes)::

    seq u64 | t_ns i64 | rank i32 | peer i32 | round i64
    | value f64 | value2 f64 | kind 24s | detail 40s

Live slots are native-endian f64 (the writer's machine is the reader's).
"""

from __future__ import annotations

import glob
import json
import os
import struct
import tempfile
import threading
import time
from typing import Any, Sequence

from repro.errors import TelemetryError
from repro.telemetry.recorder import FLIGHT_CAPACITY, LIVE_FIELDS, FlightEvent

__all__ = [
    "ShmTelemetry",
    "monitor_dir",
    "write_runfile",
    "remove_runfile",
    "list_runfiles",
]

_MAGIC = b"RPROTEL2"
_HEADER = struct.Struct("<8sII")  # magic, nranks, capacity
_HEADER_BYTES = 64

#: f64 slots reserved per rank (>= len(LIVE_FIELDS), room to grow
#: without a layout version bump).
_LIVE_SLOTS = 16
_PHASE_BYTES = 16
_LIVE_BYTES = _LIVE_SLOTS * 8 + _PHASE_BYTES  # 144, 8-aligned

_RING_HEADER = 16  # u64 write counter + pad
_EV = struct.Struct("<Qqiiqdd24s40s")  # see module docstring
_EV_BYTES = _EV.size  # 112

#: slot index per live field name (phase is stored separately).
_FIELD_SLOT = {name: i for i, name in enumerate(LIVE_FIELDS)}
_EVENTS, _HEARTBEAT = _FIELD_SLOT["events"], _FIELD_SLOT["heartbeat_ns"]

_ZERO_ROW = memoryview(bytes(8 * _LIVE_SLOTS)).cast("d")

#: phase name -> its padded bytes (phases are a handful of kind names).
_PHASES: dict[str, bytes] = {}


def _new_phase(phase: str) -> bytes:
    raw = _PHASES[phase] = phase.encode()[:_PHASE_BYTES].ljust(_PHASE_BYTES, b"\0")
    return raw


class ShmTelemetry:
    """One world's flight ring over a namespace segment.

    ``ShmTelemetry(mapping, nranks)`` formats a fresh segment;
    ``ShmTelemetry(mapping)`` reads the layout of one a world made
    (raises :class:`TelemetryError` when it is not a ring).
    """

    def __init__(
        self, mapping: Any, nranks: int | None = None, capacity: int = FLIGHT_CAPACITY
    ) -> None:
        if nranks is None:
            magic, nranks, capacity = _HEADER.unpack_from(bytes(mapping.buf[: _HEADER.size]))
            if magic != _MAGIC:
                mapping.close()
                raise TelemetryError("segment is not a flight ring (bad magic)")
        else:
            _HEADER.pack_into(mapping.buf, 0, _MAGIC, nranks, capacity)
        self.nranks, self.capacity = int(nranks), int(capacity)
        self.mapping = mapping
        self._buf = buf = memoryview(mapping.buf)
        block = self._block_bytes(self.capacity)
        #: Per rank: its live slots as f64, its phase bytes, its write
        #: counter as u64, the offset of its first record, and its lock.
        self._ranks = []
        for rank in range(self.nranks):
            off = _HEADER_BYTES + rank * block
            ring = off + _LIVE_BYTES
            self._ranks.append((
                buf[off : off + 8 * _LIVE_SLOTS].cast("d"),
                buf[off + 8 * _LIVE_SLOTS : ring],
                buf[ring : ring + 8].cast("Q"),
                ring + _RING_HEADER,
                threading.Lock(),
            ))

    @staticmethod
    def _block_bytes(capacity: int = FLIGHT_CAPACITY) -> int:
        return _LIVE_BYTES + _RING_HEADER + capacity * _EV_BYTES

    @classmethod
    def create(cls, segments: Any, nranks: int, capacity: int = FLIGHT_CAPACITY) -> "ShmTelemetry":
        """A fresh ring in segment ``t`` of the namespace ``segments``."""
        nbytes = _HEADER_BYTES + nranks * cls._block_bytes(capacity)
        return cls(segments.create("t", nbytes), nranks, capacity)

    def _check_rank(self, rank: int) -> int:
        rank = int(rank)
        if not 0 <= rank < self.nranks:
            raise TelemetryError(f"rank {rank} out of range [0, {self.nranks})")
        return rank

    # -- write side -------------------------------------------------------------------

    def write(
        self,
        rank: int,
        events: Sequence[tuple] = (),
        sets: dict[str, Any] | None = None,
        adds: dict[str, float] | None = None,
    ) -> None:
        """One record's share of ``rank``: ring ``events`` (``(kind, peer,
        round, value, value2, detail)`` tuples), live fields set (``sets``,
        ``phase`` included) and accumulated (``adds``).  The ring and the
        accumulators are read-modify-writes, under the rank's lock; a set
        is one store.  Callers are internal and pass the documented types."""
        # CLOCK_MONOTONIC: comparable across forked ranks.
        now = time.perf_counter_ns()
        row, phase, counter, base, lock = self._ranks[rank]
        if events or adds:
            with lock:
                if events:
                    buf, cap, head = self._buf, self.capacity, counter[0]
                    for kind, peer, round_, value, value2, detail in events:
                        _EV.pack_into(
                            buf, base + head % cap * _EV_BYTES, head + 1, now, rank, peer,
                            round_, value, value2, kind.encode(), detail.encode(),
                        )
                        head += 1
                    # Published after the bodies: a reader never counts a
                    # half-written record.
                    counter[0] = head
                    row[_EVENTS] += len(events)
                if adds:
                    for key, delta in adds.items():
                        row[_FIELD_SLOT[key]] += delta
        if sets:
            for key, val in sets.items():
                if key == "phase":
                    phase[:] = _PHASES.get(val) or _new_phase(val)
                else:
                    row[_FIELD_SLOT[key]] = val
        row[_HEARTBEAT] = now

    def zero_live(self) -> None:
        """Every live row back to zero (a run's new epoch); rings keep
        their events."""
        for row, phase, *_ in self._ranks:
            row[:] = _ZERO_ROW
            phase[:] = bytes(_PHASE_BYTES)

    # -- read side --------------------------------------------------------------------

    def events(self, rank: int) -> list[FlightEvent]:
        """Decode one rank's ring, oldest first (post-mortem safe)."""
        _, _, counter, base, _ = self._ranks[self._check_rank(rank)]
        head = counter[0]
        n = min(head, self.capacity)
        out: list[FlightEvent] = []
        for i in range(head - n, head):
            seq, t_ns, r, peer, rnd, value, value2, kind, detail = _EV.unpack_from(
                self._buf, base + i % self.capacity * _EV_BYTES
            )
            kind = kind.rstrip(b"\0").decode("utf-8", "replace")
            if kind:  # else an unwritten slot (torn tail)
                detail = detail.rstrip(b"\0").decode("utf-8", "replace")
                out.append(FlightEvent(kind, r, t_ns, seq, peer, rnd, value, value2, detail))
        return out

    def events_by_rank(self) -> dict[int, list[FlightEvent]]:
        return {r: self.events(r) for r in range(self.nranks)}

    def live(self, rank: int) -> dict[str, Any]:
        slots, phase, *_ = self._ranks[self._check_rank(rank)]
        row: dict[str, Any] = {name: slots[i] for name, i in _FIELD_SLOT.items()}
        row["phase"] = phase.tobytes().rstrip(b"\0").decode("utf-8", "replace")
        return row

    def live_snapshot(self) -> dict[int, dict[str, Any]]:
        return {r: self.live(r) for r in range(self.nranks)}


# -- runfile discovery (how `python -m repro monitor` finds live worlds) ---------------


def monitor_dir() -> str:
    """Directory of runfiles advertising live proc-worlds."""
    return os.path.join(tempfile.gettempdir(), "repro-monitor")


def write_runfile(uid: str, info: dict[str, Any]) -> str:
    """Advertise a live world: ``{uid}.json`` with segment name + pid."""
    path = os.path.join(monitor_dir(), f"{uid}.json")
    os.makedirs(monitor_dir(), exist_ok=True)
    payload = {"uid": uid, "pid": os.getpid(), "created": time.time(), **info}
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)
    return path


def remove_runfile(uid: str) -> None:
    try:
        os.unlink(os.path.join(monitor_dir(), f"{uid}.json"))
    except OSError:
        pass


def list_runfiles() -> list[dict[str, Any]]:
    """All advertised worlds, newest first (stale files are skipped)."""
    out: list[dict[str, Any]] = []
    for path in glob.glob(os.path.join(monitor_dir(), "*.json")):
        try:
            with open(path, encoding="utf-8") as fh:
                out.append(json.load(fh))
        except (OSError, ValueError):
            continue
    return sorted(out, key=lambda r: r.get("created", 0.0), reverse=True)
