"""The byte layouts every world shares, and the namespace they live in.

* :class:`Segments` / :class:`ShmSegments` — a world's *segment
  namespace*: ``create(name, nbytes)``, ``attach(name)`` (raises
  :class:`FileNotFoundError` when the name is absent) and
  ``unlink(name)``, each segment a :class:`Mapping` whose ``buf`` is a
  ``uint8`` array.  The launcher picks the backing and the ``ctx`` that
  supplies ``Lock`` / ``Condition``: rank threads get private anonymous
  mappings under ``threading`` primitives (no ``/dev/shm`` entry; pages
  never written cost no RSS), forked ranks named ``SharedMemory``
  segments under fork-shared ones.
* :class:`ShmRing` — one bounded MPSC byte ring per rank over a segment.
  Any rank posts fixed-header records (source, tag, dtype, shape,
  payload); only the owning rank drains.  Payloads travel as raw bytes
  with NumPy views in and out — no pickling on the point-to-point path.
  A message longer than a quarter of the ring is cut into parts posted
  in order; the owner assembles them, and only complete messages come
  out of :meth:`ShmRing.drain`.
* :func:`sweep_segments` — the crash backstop: unlink every leftover
  ``/dev/shm`` segment carrying a world's uid prefix (attach + unlink,
  which keeps the shared resource-tracker ledger balanced).

Waiting is quantised: blocked posts and waits wake every ``QUANTUM``
seconds (or on a notify — :meth:`ShmRing.kick` is how an abort wakes
them at once) and run a caller-supplied ``poll`` callback *outside* the
lock — the communicator uses it to drain the caller's own ring
(progress under back-pressure) and to surface aborts, revocations and
deaths.  (Abort and the barrier live in the world's
:class:`~repro.resilience.monitor.ControlState`.)

Resource-tracker notes (CPython 3.11): ``SharedMemory.__init__``
registers the segment with the tracker on *attach* as well as create,
and ``unlink()`` unregisters.  The tracker's ledger is a set shared by
every forked process, so the invariant "each segment is unlinked by
exactly one process" leaves the ledger empty — no manual unregister
calls, no leak warnings at interpreter exit.
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
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
    "Mapping",
    "Segments",
    "ShmSegments",
    "ShmRecord",
    "ShmRing",
    "make_uid",
    "pid_alive",
    "sweep_segments",
]

#: ``/dev/shm`` name prefix shared by every segment a process world
#: creates (rings, the control state, window arenas, checkpoints, the
#: telemetry block).  The leak fixture and :func:`sweep_segments` key
#: off it.
SEG_PREFIX = "repro-"

#: Per-rank ring capacity (bytes).  Small enough that the leak fixture
#: notices an un-unlinked world, large enough that a message is rarely
#: cut into parts.
DEFAULT_RING_CAPACITY = 1 << 20

#: Ring data starts here; bytes 0..16 hold the u64 head/tail counters.
_RING_HEADER = 64

#: One posted record: source, tag, payload nbytes, kind, ndim,
#: dtype str (NumPy ``dtype.str``, ≤ 8 ASCII bytes), 2 pad, 8 dims.
#: ``<`` packing: no implicit alignment, 96 bytes total.
_REC = struct.Struct("<iqQBB8s2x8q")

#: Record kinds: a whole message; the head of a message cut into parts
#: (``nbytes`` is the whole message's, the body its first ``part``
#: bytes); a later part (``nbytes`` is this part's).
_KIND_WHOLE, _KIND_HEAD, _KIND_PART = 0, 1, 2
_NO_DIMS = (0,) * 8

_uid_counter = 0


def make_uid() -> str:
    """A short, process-unique world id usable inside segment names."""
    global _uid_counter
    _uid_counter += 1
    return f"{SEG_PREFIX}{os.getpid():x}-{_uid_counter:x}"


def _align8(n: int) -> int:
    return (n + 7) & ~7


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


def _unlink(name: str) -> bool:
    """Unlink the ``/dev/shm`` segment ``name`` if it exists."""
    try:
        seg = SharedMemory(name=name, create=False)
    except (FileNotFoundError, OSError):
        return False
    seg.close()
    try:
        seg.unlink()
    except FileNotFoundError:
        return False
    return True


class Mapping:
    """One process's mapping of a segment: ``buf``, its bytes as a
    ``uint8`` array, and :meth:`close`, which drops the mapping (the
    name stays until the namespace unlinks it)."""

    __slots__ = ("buf", "_shm")

    def __init__(self, buf: np.ndarray, shm: SharedMemory | None = None) -> None:
        self.buf = buf
        self._shm = shm

    def close(self) -> None:
        self.buf = None  # type: ignore[assignment]
        if self._shm is not None:
            quiet_close(self._shm)


class Segments:
    """The segment namespace of a thread world: private arrays by name,
    under a lock, with ``threading`` as ``ctx``.  Each array is an
    anonymous mapping, zero pages until written, so ring pages that are
    never written cost no RSS (``np.zeros`` may instead ``memset`` heap
    memory once the allocator has raised its mmap threshold)."""

    ctx: Any = threading

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def create(self, name: str, nbytes: int) -> Mapping:
        with self._lock:
            if name in self._arrays:
                raise FileExistsError(name)
            array = np.frombuffer(mmap.mmap(-1, max(1, nbytes)), dtype=np.uint8, count=nbytes)
            self._arrays[name] = array
        return Mapping(array)

    def attach(self, name: str) -> Mapping:
        with self._lock:
            array = self._arrays.get(name)
        if array is None:
            raise FileNotFoundError(name)
        return Mapping(array)

    def unlink(self, name: str) -> None:
        """Remove ``name`` if present; holders of a mapping keep theirs."""
        with self._lock:
            self._arrays.pop(name, None)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._arrays)


class ShmSegments:
    """The segment namespace of a process world: ``SharedMemory``
    segments named ``{uid}{name}``, with the fork context as ``ctx`` —
    what a rank maps survives its death, and the parent's close-time
    :func:`sweep_segments` reclaims every name."""

    def __init__(self, uid: str, ctx: Any) -> None:
        self.uid = uid
        self.ctx = ctx

    def create(self, name: str, nbytes: int) -> Mapping:
        shm = SharedMemory(name=self.uid + name, create=True, size=max(1, nbytes))
        return Mapping(np.frombuffer(shm.buf, dtype=np.uint8, count=nbytes), shm)

    def attach(self, name: str) -> Mapping:
        shm = SharedMemory(name=self.uid + name, create=False)
        return Mapping(np.frombuffer(shm.buf, dtype=np.uint8), shm)

    def unlink(self, name: str) -> None:
        _unlink(self.uid + name)

    def names(self) -> list[str]:
        prefix = len(self.uid)
        return sorted(e[prefix:] for e in _listdir() if e.startswith(self.uid))


@dataclass(slots=True)
class ShmRecord:
    """One drained message."""

    source: int
    tag: int
    payload: np.ndarray


class ShmRing:
    """Bounded multi-producer byte ring owned by one receiving rank.

    ``buf`` (a segment's ``uint8`` array) is laid out as
    ``[head u64][tail u64][pad..64][data]``; head and tail are monotonic
    byte counters (they never wrap, positions do), so ``head - tail`` is
    always the live byte count.  All counter and data access happens
    under a lock from ``ctx``; blocked producers and the draining owner
    both wait on its condition in ``QUANTUM`` slices.
    """

    def __init__(self, buf: np.ndarray, ctx: Any) -> None:
        self.capacity = (buf.size - _RING_HEADER) & ~7
        #: Records up to this size go whole; a longer message is cut
        #: into records of exactly this size (the last one shorter).
        self.threshold = max(_REC.size + 8, self.capacity // 4)
        self.part = (self.threshold - _REC.size) & ~7
        self.lock = ctx.Lock()
        self.cond = ctx.Condition(self.lock)
        # Counters and headers through memoryviews: plain ints and bytes,
        # not NumPy scalars; payloads through the NumPy view.
        self._ctr = memoryview(buf[:16]).cast("Q")
        self._data = buf[_RING_HEADER : _RING_HEADER + self.capacity]
        self._bytes = memoryview(self._data)
        #: Owner side: source -> [source, tag, bytes, filled, dtype, shape]
        #: of a message whose parts are still arriving.
        self._partial: dict[int, list] = {}
        #: Owner side: record dtype field -> dtype, filled as records arrive.
        self._dtypes: dict[bytes, np.dtype] = {}
        #: Poster side: dtype -> record dtype field.
        self._dtype_strs: dict[np.dtype, bytes] = {}

    # -- byte-level helpers (caller holds the lock) ------------------------------------

    def _write(self, pos: int, raw: np.ndarray) -> None:
        """Copy ``raw`` bytes in at monotonic position ``pos`` (wrap-aware)."""
        n = raw.size
        at = pos % self.capacity
        if at + n <= self.capacity:
            self._data[at : at + n] = raw
            return
        first = self.capacity - at
        self._data[at:] = raw[:first]
        self._data[: n - first] = raw[first:]

    def _read(self, pos: int, out: np.ndarray) -> np.ndarray:
        """Copy ``out.size`` bytes out at monotonic position ``pos`` (wrap-aware)."""
        n = out.size
        at = pos % self.capacity
        if at + n <= self.capacity:
            out[:] = self._data[at : at + n]
            return out
        first = self.capacity - at
        out[:first] = self._data[at:]
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
    ) -> None:
        """Append one message: one record, or — longer than a quarter of
        the ring — a head record and its parts, all posted before this
        rank's next message, so order per (source, tag) holds."""
        arr = np.ascontiguousarray(data)
        dtype_str = self._dtype_strs.get(arr.dtype)
        if dtype_str is None:
            dtype_str = arr.dtype.str.encode("ascii")
            if len(dtype_str) > 8 or arr.dtype.hasobject:
                raise CommunicatorError(
                    f"unsupported dtype {arr.dtype} for shared-memory transport"
                )
            self._dtype_strs[arr.dtype] = dtype_str
        ndim = arr.ndim
        if ndim > 8:
            raise CommunicatorError(f"ndim {ndim} > 8 unsupported by ring records")
        payload = arr.reshape(-1).view(np.uint8)
        shape = arr.shape + _NO_DIMS[ndim:]
        if _REC.size + _align8(payload.size) <= self.threshold:
            header = _REC.pack(source, tag, payload.size, _KIND_WHOLE, ndim, dtype_str, *shape)
            self._put(header, payload, timeout, poll)
            return
        part = self.part
        header = _REC.pack(source, tag, payload.size, _KIND_HEAD, ndim, dtype_str, *shape)
        self._put(header, payload[:part], timeout, poll)
        for at in range(part, payload.size, part):
            body = payload[at : at + part]
            header = _REC.pack(source, tag, body.size, _KIND_PART, 0, b"", *_NO_DIMS)
            self._put(header, body, timeout, poll)

    def _put(
        self,
        header: bytes,
        body: np.ndarray,
        timeout: float | None,
        poll: Callable[[], None] | None,
        quantum: float = QUANTUM,
    ) -> None:
        """Append one record; blocks (in quanta) while the ring is full.

        ``poll`` runs outside the lock each quantum — the communicator
        drains the *poster's own* ring there, so two ranks flooding each
        other always make progress, and aborts surface within one
        quantum.  A full ring past the deadline raises
        :class:`StallError` (the receiver is dead, wedged or just never
        receiving).
        """
        need = _REC.size + _align8(body.size)
        cap = self.capacity
        start = time.monotonic()
        deadline = None if timeout is None else start + timeout
        while True:
            with self.cond:
                head, tail = self._ctr
                if cap - (head - tail) >= need:
                    at = head % cap
                    if at + need <= cap:  # the whole record in one piece
                        self._bytes[at : at + _REC.size] = header
                        self._data[at + _REC.size : at + _REC.size + body.size] = body
                    else:
                        self._write(head, np.frombuffer(header, dtype=np.uint8))
                        self._write(head + _REC.size, body)
                    self._ctr[0] = head + need
                    self.cond.notify_all()
                    return
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    raise StallError(
                        f"send to a rank's ring stalled: ring full for "
                        f"{now - start:.3f}s (limit {timeout}s) — receiver dead, "
                        "wedged, or not receiving"
                    )
                wait_t = quantum if deadline is None else min(quantum, deadline - now)
                self.cond.wait(timeout=wait_t)
            if poll is not None:
                poll()

    # -- draining (owner only) ----------------------------------------------------------

    def drain(self) -> list[ShmRecord]:
        """Pop every queued record, never blocks; returns the messages
        they complete, in posting order.  A part is copied straight into
        its message, allocated once by the head; a message abandoned
        before its last part (its sender unwound) is dropped by the
        sender's next head or whole record."""
        if self._ctr[0] == self._ctr[1]:  # a stale read only defers to the next drain
            return []
        done: list = []
        cap, partial = self.capacity, self._partial
        with self.cond:
            head, tail = self._ctr
            while tail < head:
                at = tail % cap
                if at + _REC.size <= cap:
                    fields = _REC.unpack_from(self._bytes, at)
                else:
                    fields = _REC.unpack(self._read(tail, np.empty(_REC.size, np.uint8)))
                source, tag, nbytes, kind, ndim, dtype_b = fields[:6]
                tail += _REC.size
                if kind == _KIND_PART:
                    msg = partial.get(source)
                    if msg is not None:
                        flat, filled = msg[2], msg[3]
                        self._read(tail, flat[filled : filled + nbytes])
                        msg[3] += nbytes
                        if msg[3] == flat.size:
                            done.append(partial.pop(source))
                    tail += _align8(nbytes)
                    continue
                body = nbytes if kind == _KIND_WHOLE else self.part
                flat = np.empty(nbytes, dtype=np.uint8)
                self._read(tail, flat[:body])
                tail += _align8(body)
                msg = (source, tag, flat, body, dtype_b, fields[6 : 6 + ndim])
                if kind == _KIND_HEAD:
                    partial[source] = list(msg)
                else:
                    if partial:
                        partial.pop(source, None)
                    done.append(msg)
            self._ctr[1] = tail
            self.cond.notify_all()  # wake producers blocked on a full ring
        out: list[ShmRecord] = []
        for source, tag, flat, _, dtype_b, shape in done:
            dtype = self._dtypes.get(dtype_b)
            if dtype is None:
                dtype = self._dtypes[dtype_b] = np.dtype(dtype_b.rstrip(b"\x00").decode("ascii"))
            arr = flat.view(dtype).reshape(shape) if flat.size else np.empty(shape, dtype=dtype)
            out.append(ShmRecord(source, tag, arr))
        return out

    def wait(self, timeout: float, *, quantum: float = QUANTUM) -> None:
        """Park until new bytes arrive or a :meth:`kick`, one quantum at most."""
        with self.cond:
            if self._ctr[0] > self._ctr[1]:
                return
            self.cond.wait(timeout=min(quantum, max(0.0, timeout)))

    def kick(self) -> None:
        """Wake everyone parked on this ring (an abort).  Never blocks on
        a lock a dead rank took with it: a ring that stays locked for a
        quantum is left to its waiters' own quantum."""
        if self.cond.acquire(True, QUANTUM):
            try:
                self.cond.notify_all()
            finally:
                self.cond.release()

    def detach(self) -> None:
        """Drop the views of the segment (before its mapping closes)."""
        self._ctr.release()
        self._bytes.release()
        self._data = None  # type: ignore[assignment]


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


def _listdir() -> list[str]:
    return os.listdir("/dev/shm") if os.path.isdir("/dev/shm") else []


def sweep_segments(uid: str) -> list[str]:
    """Unlink every leftover ``/dev/shm`` segment of world ``uid``.

    The crash backstop behind the leak-clean guarantee: window arenas
    whose ranks never freed them, checkpoints, anything a dead rank
    left.  Attach + unlink (rather than a bare ``os.unlink``) keeps the
    shared resource tracker's ledger balanced.  Returns the names
    removed.
    """
    return [entry for entry in _listdir() if entry.startswith(uid) and _unlink(entry)]


def fork_available() -> bool:
    """True when the platform supports the ``fork`` start method."""
    import multiprocessing as mp

    return "fork" in mp.get_all_start_methods()


def any_to_describe(source: int, tag: int) -> str:
    src = "ANY_SOURCE" if source == -1 else f"rank {source}"
    tg = "ANY_TAG" if tag == -1 else str(tag)
    return f"source={src}, tag={tg}"
