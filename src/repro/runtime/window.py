"""One-sided (RMA) windows for the thread runtime (Section V-A).

Mirrors the MPI-3 RMA model the paper's ``OSC_Alltoall`` relies on:

* a window is created *collectively*, exposing a local byte buffer of
  each rank to every other rank;
* ``put`` writes into a remote rank's exposed buffer; it is, like
  ``MPI_Win_put``, usable inside an epoch delimited by ``fence`` calls
  (active target) or ``lock``/``unlock`` (passive target);
* ``fence`` completes all outstanding operations *and* synchronises —
  "the global synchronization needed to ensure all communication in the
  window are now completed at both the origin and the target" (Alg. 3
  line 11);
* window creation "is a collective operation and therefore has a high
  cost", so windows are cacheable: see
  :meth:`~repro.collectives.osc.OscAlltoallv` which reuses them across
  repeated exchanges.

Implementation notes: in a threaded address space a put is a locked
``memcpy`` into the target's buffer.  Per-target mutexes prevent torn
writes when two origins touch the same target concurrently (MPI leaves
overlapping puts undefined; we keep them merely atomic per call).
"""

from __future__ import annotations

import threading
import time
from functools import partial

import numpy as np

from repro.errors import WindowError

__all__ = ["Reservation", "Window"]


class Reservation:
    """What :meth:`Window.reserve` lends, as a context manager: ``view``,
    a writable region of a target's buffer, held under the target's lock
    for the scope, and ``written``, how many leading bytes of it the
    borrower says it wrote (all of them unless told otherwise)."""

    __slots__ = ("view", "written", "_lock", "_flip")

    def __init__(self, view: np.ndarray, lock, flip) -> None:
        self.view = view
        self.written = view.size
        self._lock = lock  # None: the caller already holds a passive-target epoch
        self._flip = flip  # None: no fault injector

    def __enter__(self) -> "Reservation":
        if self._lock is not None:
            self._lock.acquire()
        return self

    def __exit__(self, exc_type, *_exc: object) -> bool:
        try:
            if self._flip is not None and exc_type is None:
                written = self.view[: self.written]
                corrupted = self._flip(written)
                if corrupted is not None:
                    written[...] = corrupted
        finally:
            if self._lock is not None:
                self._lock.release()
        return False


class Window:
    """Per-rank handle on a collectively-created RMA window."""

    def __init__(
        self,
        world: "ThreadWorld",  # noqa: F821
        comm,
        buffers: list[np.ndarray],
        locks: list[threading.Lock],
        win_id: int | None = None,
    ) -> None:
        self._world = world
        self._comm = comm
        self._buffers = buffers
        self._locks = locks
        self._win_id = win_id
        self._freed = False
        self._epoch_open = False
        self._held: set[int] = set()

    @property
    def win_id(self) -> int:
        """The world's number for this window: the same on every rank
        (creation is collective) and never reused by the world."""
        return self._win_id or 0

    # -- local access -----------------------------------------------------------

    def local_view(self) -> np.ndarray:
        """The calling rank's exposed buffer (uint8 view, zero copy)."""
        self._check_alive()
        return self._buffers[self._comm.rank]

    # -- epochs ------------------------------------------------------------------

    def fence(self) -> None:
        """Active-target synchronisation: completes all ops, barriers."""
        self._check_alive()
        self._epoch_open = not self._epoch_open
        self._comm.barrier()

    def lock(self, rank: int) -> None:
        """Open a passive-target epoch on ``rank`` (exclusive)."""
        self._check_alive()
        self._comm._check_rank(rank)
        if rank in self._held:
            raise WindowError(f"lock({rank}) while already held")
        self._locks[rank].acquire()
        self._held.add(rank)

    def unlock(self, rank: int) -> None:
        """Close the passive-target epoch on ``rank``."""
        self._check_alive()
        if rank not in self._held:
            raise WindowError(f"unlock({rank}) without a matching lock")
        self._held.discard(rank)
        self._locks[rank].release()

    def flush(self, rank: int | None = None) -> None:
        """Complete outstanding puts to ``rank`` (all ranks when None).

        Puts in this runtime complete synchronously inside :meth:`put`,
        so flush is a semantic no-op kept for API fidelity — algorithms
        written against it stay correct on a real asynchronous MPI.
        """
        self._check_alive()

    # -- data movement -------------------------------------------------------------

    def reserve(self, target_rank: int, offset: int, nbytes: int) -> Reservation:
        """Borrow ``nbytes`` of ``target_rank``'s buffer at byte ``offset``
        to write in place — a put whose source is produced where it lands.

        ``with win.reserve(...) as slot``: for the scope ``slot.view`` is
        that region (``uint8``, ``offset`` needs no alignment) and the
        target's lock is held.  Like a put it beacons and takes the
        injected process faults and straggle delay on entry; on a clean
        exit an injected ``bitflip`` lands in the ``slot.written`` leading
        bytes, so a receiver's checksum sees it.
        """
        self._check_alive()
        self._comm._check_rank(target_rank)
        pre = getattr(self._comm, "_pre", None)
        if pre is not None:  # beacon + process-fault injection (kill/hang)
            pre("put", target_rank)
        injector = getattr(self._world, "injector", None)
        flip = None
        if injector is not None:
            delay = injector.straggle_delay(self._comm.rank)
            if delay > 0.0:
                time.sleep(delay)
            flip = partial(injector.corrupt_put, self._comm.rank, target_rank)
        target = self._buffers[target_rank]
        if offset < 0 or nbytes < 0 or offset + nbytes > target.size:
            raise WindowError(
                f"{nbytes} B at offset {offset} exceed window "
                f"size {target.size} on rank {target_rank}"
            )
        lock = None if target_rank in self._held else self._locks[target_rank]
        return Reservation(target[offset : offset + nbytes], lock, flip)

    def put(self, data: np.ndarray, target_rank: int, offset: int = 0) -> None:
        """Write ``data`` into ``target_rank``'s buffer at byte ``offset``.

        ``data`` may have any dtype and layout.  A non-contiguous N-d
        source (a box sliced out of a larger block) is copied straight
        into the target region viewed with the source's dtype and shape
        — one strided copy, no packing into a staging buffer first.
        ``offset`` needs no alignment.
        """
        data = np.asarray(data)
        with self.reserve(target_rank, offset, data.nbytes) as slot:
            if data.flags.c_contiguous:
                slot.view[...] = data.reshape(-1).view(np.uint8)
            else:
                np.copyto(slot.view.view(data.dtype).reshape(data.shape), data)

    def accumulate(
        self,
        data: np.ndarray,
        target_rank: int,
        offset: int = 0,
        *,
        op: str = "sum",
        dtype: np.dtype | None = None,
    ) -> None:
        """Atomic read-modify-write into the target buffer (``MPI_Accumulate``).

        ``data`` is combined element-wise with the target region using
        ``op`` (``"sum"``, ``"max"``, ``"min"``, ``"replace"``).  The
        element type defaults to ``data.dtype``; the byte ``offset``
        must be aligned to it.  Unlike :meth:`put`, concurrent
        accumulates to the same location are well-defined (MPI
        guarantees per-element atomicity; we lock the whole call).
        """
        self._check_alive()
        self._comm._check_rank(target_rank)
        src = np.ascontiguousarray(data)
        dt = np.dtype(dtype) if dtype is not None else src.dtype
        if offset % dt.itemsize:
            raise WindowError(f"offset {offset} not aligned to {dt}")
        nbytes = src.nbytes
        target = self._buffers[target_rank]
        if offset < 0 or offset + nbytes > target.size:
            raise WindowError(
                f"accumulate of {nbytes} B at offset {offset} exceeds window "
                f"size {target.size} on rank {target_rank}"
            )
        ops = {
            "sum": np.add,
            "max": np.maximum,
            "min": np.minimum,
        }
        if op not in ops and op != "replace":
            raise WindowError(f"unknown accumulate op {op!r}")
        held = target_rank in self._held
        lock = self._locks[target_rank]
        if not held:
            lock.acquire()
        try:
            region = target[offset : offset + nbytes].view(dt)
            flat = src.view(dt).reshape(-1)
            if op == "replace":
                region[...] = flat
            else:
                region[...] = ops[op](region, flat)
        finally:
            if not held:
                lock.release()

    def lock_all(self) -> None:
        """Open a passive-target epoch on every rank (``MPI_Win_lock_all``)."""
        self._check_alive()
        for rank in range(self._comm.size):
            if rank not in self._held:
                self.lock(rank)

    def unlock_all(self) -> None:
        """Close the epoch opened by :meth:`lock_all`."""
        self._check_alive()
        for rank in sorted(self._held):
            self.unlock(rank)

    def get(self, nbytes: int, target_rank: int, offset: int = 0) -> np.ndarray:
        """Read ``nbytes`` from ``target_rank``'s buffer at ``offset``."""
        self._check_alive()
        self._comm._check_rank(target_rank)
        source = self._buffers[target_rank]
        if offset < 0 or offset + nbytes > source.size:
            raise WindowError(
                f"get of {nbytes} B at offset {offset} exceeds window "
                f"size {source.size} on rank {target_rank}"
            )
        held = target_rank in self._held
        lock = self._locks[target_rank]
        if not held:
            lock.acquire()
        try:
            return source[offset : offset + nbytes].copy()
        finally:
            if not held:
                lock.release()

    # -- lifecycle -------------------------------------------------------------------

    def free(self) -> None:
        """Collectively release the window and deregister its buffers.

        After the closing barrier no rank can still be inside a put/get
        on this window, so the world's registry entries (the exposed
        buffers *and* the per-target locks) are dropped — previously
        they leaked for the lifetime of the world.
        """
        self._check_alive()
        if self._held:
            raise WindowError(f"free() with passive-target locks still held: {sorted(self._held)}")
        if not getattr(self._world, "halted", False):
            # On an aborted/revoked world the closing barrier can never
            # complete (peers are unwinding); skipping it lets `finally`
            # cleanup run without masking the original failure.
            self._comm.barrier()
        self.release()

    def release(self) -> None:
        """The local half of :meth:`free`: drop this rank's handle, no barrier.

        For a window that dies with its communicator (a run ends, a
        shrink retires it): peers may still hold their own handles and
        finish a put through them — they keep the buffers alive — but
        this rank is done with it.  Idempotent.
        """
        if self._freed:
            return
        self._freed = True
        # Views first, backing store second: on the process runtime the
        # buffers are NumPy views of a SharedMemory arena, and the arena
        # cannot close while exports are live.
        self._buffers = []
        self._locks = []
        if self._win_id is not None:
            release = getattr(self._world, "release_window", None)
            if release is not None:
                release(self._win_id)

    def _check_alive(self) -> None:
        if self._freed:
            raise WindowError("window already freed")
