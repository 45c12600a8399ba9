"""Shared-memory telemetry segment: flight rings + live gauges per rank.

The process runtime cannot dump a dead child's in-process ring — the
events die with the rank.  :class:`ShmTelemetry` therefore puts the
rings *in shared memory*: one fixed-size segment per world (named
``{uid}t`` inside the world's existing segment namespace, so the
crash-sweep and the leak fixture cover it for free), holding for each
rank

* a **live block** — :data:`~repro.telemetry.recorder.LIVE_FIELDS`
  as f64 slots plus a 16-byte phase string, the row the live monitor
  renders;
* a **flight ring** — a monotonic write counter and ``capacity``
  fixed 104-byte event records.

Each rank is the *single writer* of its own block (forked children
inherit the parent's mapping, so no name exchange or reattach is
needed), which keeps writes lock-free across processes; the parent —
or a ``python -m repro monitor`` process attaching by name — reads
concurrently.  Readers tolerate a torn in-flight record: the write
counter is published after the record body, and a dead child's counter
simply stops moving, leaving its last completed events intact for the
post-mortem harvest.

Record layout (little-endian, 104 bytes)::

    seq u64 | t_ns i64 | rank i32 | peer i32 | round i64
    | value f64 | value2 f64 | kind 16s | detail 40s
"""

from __future__ import annotations

import glob
import json
import os
import struct
import tempfile
import threading
import time
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Sequence

from repro.errors import TelemetryError
from repro.runtime.shm import quiet_close
from repro.telemetry.recorder import LIVE_FIELDS, FlightEvent

__all__ = [
    "ShmTelemetry",
    "ShmSink",
    "monitor_dir",
    "write_runfile",
    "remove_runfile",
    "list_runfiles",
]

_MAGIC = b"RPROTEL1"
_HEADER = struct.Struct("<8sII")  # magic, nranks, capacity
_HEADER_BYTES = 64

#: f64 slots reserved per rank (>= len(LIVE_FIELDS), room to grow
#: without a layout version bump).
_LIVE_SLOTS = 16
_PHASE_BYTES = 16
_LIVE_BYTES = _LIVE_SLOTS * 8 + _PHASE_BYTES  # 144, 8-aligned

_RING_HEADER = 16  # u64 write counter + pad
_EV = struct.Struct("<Qqiiqdd16s40s")  # see module docstring
_EV_BYTES = _EV.size  # 104

_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")

#: slot index per live field name (phase is stored separately).
_FIELD_SLOT = {name: i for i, name in enumerate(LIVE_FIELDS)}

#: Default events retained per rank.
DEFAULT_SHM_CAPACITY = 256


def _trunc(text: str, limit: int) -> bytes:
    return text.encode("utf-8", "replace")[:limit]


class ShmTelemetry:
    """One world's telemetry segment (create in the parent, inherit or
    attach everywhere else)."""

    def __init__(
        self,
        name: str,
        nranks: int = 0,
        *,
        capacity: int = DEFAULT_SHM_CAPACITY,
        create: bool = True,
    ) -> None:
        self.name = name
        if create:
            if nranks < 1:
                raise TelemetryError(f"nranks must be >= 1, got {nranks}")
            if capacity < 1:
                raise TelemetryError(f"capacity must be >= 1, got {capacity}")
            self.nranks = int(nranks)
            self.capacity = int(capacity)
            total = _HEADER_BYTES + self.nranks * self._rank_block_bytes()
            self.shm = SharedMemory(name=name, create=True, size=total)
            self.shm.buf[:total] = b"\0" * total
            _HEADER.pack_into(self.shm.buf, 0, _MAGIC, self.nranks, self.capacity)
        else:
            try:
                self.shm = SharedMemory(name=name, create=False)
            except FileNotFoundError as exc:
                raise TelemetryError(f"no telemetry segment named {name!r}") from exc
            magic, nr, cap = _HEADER.unpack_from(self.shm.buf, 0)
            if magic != _MAGIC:
                quiet_close(self.shm)
                raise TelemetryError(
                    f"segment {name!r} is not a telemetry segment (bad magic)"
                )
            self.nranks = int(nr)
            self.capacity = int(cap)
        self._write_locks = [threading.Lock() for _ in range(self.nranks)]
        self._closed = False

    @classmethod
    def attach(cls, name: str) -> "ShmTelemetry":
        """Attach read/write to an existing segment by name."""
        return cls(name, create=False)

    # -- layout ------------------------------------------------------------------

    def _rank_block_bytes(self) -> int:
        return _LIVE_BYTES + _RING_HEADER + self.capacity * _EV_BYTES

    def _live_off(self, rank: int) -> int:
        return _HEADER_BYTES + rank * self._rank_block_bytes()

    def _ring_off(self, rank: int) -> int:
        return self._live_off(rank) + _LIVE_BYTES

    def _check_rank(self, rank: int) -> int:
        rank = int(rank)
        if not 0 <= rank < self.nranks:
            raise TelemetryError(f"rank {rank} out of range [0, {self.nranks})")
        return rank

    # -- write side (single writer per rank) ----------------------------------------

    def write(
        self,
        rank: int,
        events: Sequence[tuple] = (),
        sets: dict[str, Any] | None = None,
        adds: dict[str, float] | None = None,
    ) -> None:
        """The sink protocol of :meth:`FlightRecorder.write
        <repro.telemetry.recorder.FlightRecorder.write>`, under one lock.
        Unknown field names are ignored, so the in-process recorder can
        carry richer state than the segment."""
        rank = self._check_rank(rank)
        now = time.perf_counter_ns()
        buf, ring, live = self.shm.buf, self._ring_off(rank), self._live_off(rank)
        with self._write_locks[rank]:
            for kind, peer, round_, value, value2, detail in events:
                head = _U64.unpack_from(buf, ring)[0]
                slot = ring + _RING_HEADER + (head % self.capacity) * _EV_BYTES
                _EV.pack_into(
                    buf, slot, head + 1, now, rank, int(peer), int(round_), float(value),
                    float(value2), _trunc(kind, 16), _trunc(detail, 40),
                )
                # Publish after the body: a reader never sees a half-written
                # record as committed.
                _U64.pack_into(buf, ring, head + 1)
            counts = dict(adds or {}, events=len(events)) if events else adds or {}
            for key, delta in counts.items():
                if key in _FIELD_SLOT:
                    off = live + 8 * _FIELD_SLOT[key]
                    _F64.pack_into(buf, off, _F64.unpack_from(buf, off)[0] + float(delta))
            for key, val in dict(sets or {}, heartbeat_ns=now).items():
                if key == "phase":
                    raw = _trunc(str(val), _PHASE_BYTES).ljust(_PHASE_BYTES, b"\0")
                    buf[live + 8 * _LIVE_SLOTS : live + _LIVE_BYTES] = raw
                elif key in _FIELD_SLOT:
                    _F64.pack_into(buf, live + 8 * _FIELD_SLOT[key], float(val))

    def events(self, rank: int) -> list[FlightEvent]:
        """Decode one rank's ring, oldest first (post-mortem safe)."""
        rank = self._check_rank(rank)
        ring = self._ring_off(rank)
        head = _U64.unpack_from(self.shm.buf, ring)[0]
        n = min(head, self.capacity)
        out: list[FlightEvent] = []
        for i in range(n):
            slot = ring + _RING_HEADER + ((head - n + i) % self.capacity) * _EV_BYTES
            seq, t_ns, r, peer, rnd, value, value2, kind, detail = _EV.unpack_from(
                self.shm.buf, slot
            )
            kind = kind.rstrip(b"\0").decode("utf-8", "replace")
            if kind:  # else an unwritten slot (torn tail)
                detail = detail.rstrip(b"\0").decode("utf-8", "replace")
                out.append(FlightEvent(kind, r, t_ns, seq, peer, rnd, value, value2, detail))
        return out

    def events_by_rank(self) -> dict[int, list[FlightEvent]]:
        return {r: self.events(r) for r in range(self.nranks)}

    def live(self, rank: int) -> dict[str, Any]:
        base = self._live_off(self._check_rank(rank))
        buf = self.shm.buf
        row: dict[str, Any] = {
            name: _F64.unpack_from(buf, base + 8 * slot)[0] for name, slot in _FIELD_SLOT.items()
        }
        phase = bytes(buf[base + 8 * _LIVE_SLOTS : base + _LIVE_BYTES])
        row["phase"] = phase.rstrip(b"\0").decode("utf-8", "replace")
        return row

    def live_snapshot(self) -> dict[int, dict[str, Any]]:
        return {r: self.live(r) for r in range(self.nranks)}

    # -- lifecycle -------------------------------------------------------------------

    def detach(self) -> None:
        if not self._closed:
            self._closed = True
            quiet_close(self.shm)

    def destroy(self) -> None:
        self.detach()
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


class ShmSink:
    """Flight-recorder sink writing into a :class:`ShmTelemetry` segment.

    Installed in each forked rank (``install_sink(ShmSink(seg))``); the
    rank passed with each write addresses the block, so one sink
    object serves any rank of the world.
    """

    def __init__(self, segment: ShmTelemetry) -> None:
        self.segment = segment
        self.write = segment.write
        self.live_snapshot = segment.live_snapshot


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
