"""Shared-memory transport primitives for the process runtime.

Two building blocks, layered on ``multiprocessing.shared_memory``
segments plus fork-inherited ``multiprocessing`` locks/conditions:

* :class:`ShmRing` — one bounded MPSC byte ring per rank.  Any rank
  posts fixed-header records (source, tag, dtype, shape, payload); only
  the owning rank drains.  Payloads travel as raw bytes with NumPy
  views in and out — no pickling on the point-to-point path.  Records
  larger than a quarter of the ring *spill* into a dedicated one-shot
  segment named inside the record, so a single huge message can never
  wedge the ring.
* :func:`sweep_segments` — the crash backstop: unlink every leftover
  ``/dev/shm`` segment carrying a world's uid prefix (attach + unlink,
  which keeps the shared resource-tracker ledger balanced).

Waiting follows the thread runtime's discipline (see
:mod:`repro.runtime.mailbox`): blocked posts and matches wake every
``QUANTUM`` seconds and run a caller-supplied ``poll`` callback
*outside* the lock — the process runtime uses it to drain the caller's
own ring (progress under back-pressure) and to surface aborts within
one quantum.  (Abort and the barrier live in the world's
:class:`~repro.resilience.monitor.ControlState`.)

Resource-tracker notes (CPython 3.11): ``SharedMemory.__init__``
registers the segment with the tracker on *attach* as well as create,
and ``unlink()`` unregisters.  The tracker's ledger is a set shared by
every forked process, so the invariant "each segment is unlinked by
exactly one process" leaves the ledger empty — no manual unregister
calls, no leak warnings at interpreter exit.
"""

from __future__ import annotations

import os
import struct
import time
from dataclasses import dataclass
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Callable

import numpy as np

from repro.errors import CommunicatorError, StallError
from repro.resilience.monitor import QUANTUM

__all__ = [
    "DEFAULT_RING_CAPACITY",
    "SEG_PREFIX",
    "make_uid",
    "ShmRecord",
    "ShmRing",
    "pid_alive",
    "sweep_segments",
]

#: ``/dev/shm`` name prefix shared by every segment this module creates
#: (rings, the control state, window arenas, spill segments).  The leak
#: fixture and :func:`sweep_segments` key off it.
SEG_PREFIX = "repro-"

#: Per-rank ring capacity (bytes).  Small enough that the leak fixture
#: notices an un-unlinked world, large enough that the all-to-all tests
#: rarely spill.
DEFAULT_RING_CAPACITY = 1 << 20

#: Ring data starts here; bytes 0..16 hold the u64 head/tail counters.
_RING_HEADER = 64

#: One posted record: source, tag, payload nbytes, kind, ndim,
#: dtype str (NumPy ``dtype.str``, ≤ 8 ASCII bytes), 2 pad, 8 dims.
#: ``<`` packing: no implicit alignment, 96 bytes total.
_REC = struct.Struct("<iqQBB8s2x8q")

#: Record kinds: payload bytes follow inline, or the payload lives in a
#: spill segment whose name (64 bytes, NUL-padded) follows instead.
_KIND_INLINE = 0
_KIND_SPILL = 1
_SPILL_NAME_BYTES = 64

_uid_counter = 0


def make_uid() -> str:
    """A short, process-unique world id usable inside segment names."""
    global _uid_counter
    _uid_counter += 1
    return f"{SEG_PREFIX}{os.getpid():x}-{_uid_counter:x}"


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _attach(name: str) -> SharedMemory:
    return SharedMemory(name=name, create=False)


def quiet_close(shm: SharedMemory) -> None:
    """Close a segment mapping, tolerating live NumPy exports.

    A mapping with exported views cannot be unmapped; retrying from
    ``SharedMemory.__del__`` at GC time just prints "Exception ignored"
    noise.  Disarm the object instead — drop the fd, neutralise the
    buffer handles — and let the mapping die with the process.  The
    *unlink* (what leak-cleanliness is about) is unaffected: it goes by
    name, not by mapping.
    """
    try:
        shm.close()
        return
    except BufferError:
        pass
    try:
        if shm._fd >= 0:  # noqa: SLF001 - deliberate surgical disarm
            os.close(shm._fd)
            shm._fd = -1
    except OSError:
        pass
    shm._buf = None  # noqa: SLF001
    shm._mmap = None  # noqa: SLF001


@dataclass
class ShmRecord:
    """One drained message: the ring-side analogue of ``Envelope``."""

    source: int
    tag: int
    payload: np.ndarray


class ShmRing:
    """Bounded multi-producer byte ring owned by one receiving rank.

    The segment layout is ``[head u64][tail u64][pad..64][data]``; head
    and tail are monotonic byte counters (they never wrap, positions
    do), so ``head - tail`` is always the live byte count.  All counter
    and data access happens under ``lock``; blocked producers and the
    draining owner both wait on ``cond`` in ``QUANTUM`` slices.
    """

    def __init__(self, name: str, capacity: int, ctx) -> None:
        self.name = name
        self.capacity = int(capacity)
        self.spill_threshold = max(_REC.size + _SPILL_NAME_BYTES, self.capacity // 4)
        self.shm = SharedMemory(name=name, create=True, size=_RING_HEADER + self.capacity)
        self.lock = ctx.Lock()
        self.cond = ctx.Condition(self.lock)
        self._spill_seq = 0
        self._map_views()

    def _map_views(self) -> None:
        self._ctr = np.frombuffer(self.shm.buf, dtype=np.uint64, count=2)
        self._data = np.frombuffer(
            self.shm.buf, dtype=np.uint8, count=self.capacity, offset=_RING_HEADER
        )

    # -- byte-level helpers (caller holds the lock) ------------------------------------

    def _write(self, pos: int, raw: np.ndarray) -> None:
        """Copy ``raw`` bytes in at monotonic position ``pos`` (wrap-aware)."""
        n = raw.size
        if n == 0:
            return
        at = pos % self.capacity
        first = min(n, self.capacity - at)
        self._data[at : at + first] = raw[:first]
        if first < n:
            self._data[: n - first] = raw[first:]

    def _read(self, pos: int, n: int) -> np.ndarray:
        """Copy ``n`` bytes out at monotonic position ``pos`` (wrap-aware)."""
        out = np.empty(n, dtype=np.uint8)
        if n == 0:
            return out
        at = pos % self.capacity
        first = min(n, self.capacity - at)
        out[:first] = self._data[at : at + first]
        if first < n:
            out[first:] = self._data[: n - first]
        return out

    # -- posting -----------------------------------------------------------------------

    def post(
        self,
        source: int,
        tag: int,
        data: np.ndarray,
        *,
        timeout: float | None,
        poll: Callable[[], None] | None = None,
        quantum: float = QUANTUM,
    ) -> None:
        """Append one message; blocks (in quanta) while the ring is full.

        ``poll`` runs outside the lock each quantum — the process
        runtime drains the *poster's own* ring there, so two ranks
        flooding each other always make progress, and aborts surface
        within one quantum.  A full ring past the deadline raises
        :class:`StallError` (the receiver is dead, wedged or just never
        receiving).
        """
        arr = np.ascontiguousarray(data)
        dtype_str = arr.dtype.str.encode("ascii")
        if len(dtype_str) > 8 or arr.dtype.hasobject:
            raise CommunicatorError(
                f"unsupported dtype {arr.dtype} for shared-memory transport"
            )
        if arr.ndim > 8:
            raise CommunicatorError(f"ndim {arr.ndim} > 8 unsupported by ring records")
        flat = arr.reshape(-1)
        payload = flat.view(np.uint8) if flat.size else np.empty(0, dtype=np.uint8)
        shape = list(arr.shape) + [0] * (8 - arr.ndim)

        spill: SharedMemory | None = None
        body: np.ndarray
        if _REC.size + _align8(payload.size) > self.spill_threshold:
            # Oversized: park the payload in a one-shot segment; the
            # record carries its name and the receiver unlinks it.
            self._spill_seq += 1
            spill_name = f"{self.name}x{os.getpid():x}-{self._spill_seq:x}"
            spill = SharedMemory(name=spill_name, create=True, size=max(1, payload.size))
            np.frombuffer(spill.buf, dtype=np.uint8, count=payload.size)[:] = payload
            body = np.zeros(_SPILL_NAME_BYTES, dtype=np.uint8)
            encoded = spill_name.encode("ascii")
            body[: len(encoded)] = np.frombuffer(encoded, dtype=np.uint8)
            kind = _KIND_SPILL
        else:
            body = payload
            kind = _KIND_INLINE

        header = np.frombuffer(
            _REC.pack(source, tag, payload.size, kind, arr.ndim, dtype_str, *shape),
            dtype=np.uint8,
        )
        need = _REC.size + _align8(body.size)
        if need > self.capacity:
            raise CommunicatorError(
                f"record of {need} B exceeds ring capacity {self.capacity} B"
            )
        start = time.monotonic()
        deadline = None if timeout is None else start + timeout
        try:
            while True:
                with self.cond:
                    head, tail = int(self._ctr[0]), int(self._ctr[1])
                    if self.capacity - (head - tail) >= need:
                        self._write(head, header)
                        self._write(head + _REC.size, body)
                        self._ctr[0] = head + need
                        self.cond.notify_all()
                        spill = None  # ownership transferred to the receiver
                        return
                    now = time.monotonic()
                    if deadline is not None and now >= deadline:
                        raise StallError(
                            f"send to rank-ring {self.name} stalled: ring full for "
                            f"{now - start:.3f}s (limit {timeout}s) — receiver dead, "
                            "wedged, or not receiving"
                        )
                    wait_t = quantum if deadline is None else min(quantum, deadline - now)
                    self.cond.wait(timeout=wait_t)
                if poll is not None:
                    poll()
        finally:
            if spill is not None:  # never enqueued: reclaim the segment
                spill.close()
                spill.unlink()

    # -- draining (owner only) ----------------------------------------------------------

    def drain(self) -> list[ShmRecord]:
        """Pop every queued record (posting order preserved), never blocks."""
        raws: list[tuple[int, int, np.ndarray | str, bytes, int, tuple[int, ...], int]] = []
        with self.cond:
            head, tail = int(self._ctr[0]), int(self._ctr[1])
            while tail < head:
                hdr = self._read(tail, _REC.size)
                source, tag, nbytes, kind, ndim, dtype_b, *dims = _REC.unpack(hdr.tobytes())
                if kind == _KIND_SPILL:
                    name_raw = self._read(tail + _REC.size, _SPILL_NAME_BYTES)
                    payload: np.ndarray | str = name_raw.tobytes().rstrip(b"\x00").decode()
                    body_size = _SPILL_NAME_BYTES
                else:
                    payload = self._read(tail + _REC.size, nbytes)
                    body_size = nbytes
                raws.append((source, tag, payload, dtype_b, ndim, tuple(dims[:ndim]), nbytes))
                tail += _REC.size + _align8(body_size)
            if raws:
                self._ctr[1] = tail
                self.cond.notify_all()  # wake producers blocked on a full ring
        out: list[ShmRecord] = []
        for source, tag, payload, dtype_b, ndim, shape, nbytes in raws:
            if isinstance(payload, str):  # resolve a spill outside the ring lock
                seg = _attach(payload)
                try:
                    flat = np.frombuffer(seg.buf, dtype=np.uint8, count=nbytes).copy()
                finally:
                    seg.close()
                    seg.unlink()
            else:
                flat = payload
            dtype = np.dtype(dtype_b.rstrip(b"\x00").decode("ascii"))
            arr = flat.view(dtype).reshape(shape) if nbytes else np.empty(shape, dtype=dtype)
            out.append(ShmRecord(source, tag, arr))
        return out

    def wait(
        self,
        timeout: float,
        *,
        poll: Callable[[], None] | None = None,
        quantum: float = QUANTUM,
    ) -> None:
        """Park until new bytes arrive, one quantum at most; then poll."""
        with self.cond:
            if int(self._ctr[0]) > int(self._ctr[1]):
                return
            self.cond.wait(timeout=min(quantum, max(0.0, timeout)))
        if poll is not None:
            poll()

    # -- lifecycle -----------------------------------------------------------------------

    def detach(self) -> None:
        """Drop the NumPy views and close this process's mapping."""
        self._ctr = None  # type: ignore[assignment]
        self._data = None  # type: ignore[assignment]
        quiet_close(self.shm)

    def destroy(self) -> None:
        """Owner-side teardown: detach and unlink the segment."""
        self.detach()
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


def pid_alive(pid: int) -> bool:
    """True while ``pid`` names a live (non-zombie) process.

    ``os.kill(pid, 0)`` alone is not enough: a SIGKILLed child is a
    *zombie* until its parent reaps it, and signalling a zombie
    succeeds.  The ``/proc/<pid>/stat`` state field disambiguates
    (``Z``/``X`` = dead for every purpose that matters here).
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - alive, not ours
        return True
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            data = fh.read()
        # comm may contain spaces/parens; the state letter follows the
        # *last* ") " in the line.
        return data.rsplit(b") ", 1)[1][:1] not in (b"Z", b"X")
    except (OSError, IndexError):  # pragma: no cover - non-Linux procfs
        return True


def sweep_segments(uid: str) -> list[str]:
    """Unlink every leftover ``/dev/shm`` segment of world ``uid``.

    The crash backstop behind the leak-clean guarantee: spill segments
    whose receiver died, window arenas whose ranks never freed them.
    Attach + unlink (rather than a bare ``os.unlink``) keeps the shared
    resource tracker's ledger balanced.  Returns the names removed.
    """
    shm_dir = "/dev/shm"
    removed: list[str] = []
    if not os.path.isdir(shm_dir):  # non-Linux: nothing scannable
        return removed
    for entry in os.listdir(shm_dir):
        if not entry.startswith(uid):
            continue
        try:
            seg = _attach(entry)
            seg.close()
            seg.unlink()
            removed.append(entry)
        except (FileNotFoundError, OSError):
            continue
    return removed


def fork_available() -> bool:
    """True when the platform supports the ``fork`` start method."""
    import multiprocessing as mp

    return "fork" in mp.get_all_start_methods()


def any_to_describe(source: int, tag: int) -> str:
    src = "ANY_SOURCE" if source == -1 else f"rank {source}"
    tg = "ANY_TAG" if tag == -1 else str(tag)
    return f"source={src}, tag={tg}"
