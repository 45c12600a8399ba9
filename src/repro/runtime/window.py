"""One-sided (RMA) windows of both SPMD runtimes (Section V-A).

Mirrors the active-target subset of the MPI-3 RMA model the paper's
``OSC_Alltoall`` relies on (Algorithm 3 is fence, put, fence):

* a window is created *collectively*, exposing a local byte buffer of
  each rank to every other rank;
* ``put`` (or ``reserve``, a put whose source is written in place)
  writes into a remote rank's exposed buffer inside an epoch delimited
  by ``fence`` calls, like ``MPI_Win_put``;
* ``fence`` completes all outstanding operations *and* synchronises —
  "the global synchronization needed to ensure all communication in the
  window are now completed at both the origin and the target" (Alg. 3
  line 11);
* window creation "is a collective operation and therefore has a high
  cost", so windows are cacheable: see
  :class:`~repro.collectives.slots.SlotTransport`, which reuses one
  across repeated exchanges.

Implementation notes: a window's buffers are slices of one arena, a
segment of the world's namespace (:meth:`~repro.runtime.base.World.create_window`)
— a private array on rank threads, shared memory on forked ranks.  A put
is a locked ``memcpy`` into the target's slice; the world's per-target
mutexes prevent torn writes when two origins touch the same target
concurrently (MPI leaves overlapping puts undefined; we keep them merely
atomic per call).
"""

from __future__ import annotations

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
        self._lock = lock
        self._flip = flip  # None: no fault injector

    def __enter__(self) -> "Reservation":
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
            self._lock.release()
        return False


class Window:
    """Per-rank handle on a collectively-created RMA window."""

    def __init__(
        self,
        world: "World",  # noqa: F821
        comm,
        buffers: list[np.ndarray],
        locks: list,
        win_id: int,
        arena: tuple,
    ) -> None:
        self._world = world
        self._comm = comm
        self._buffers = buffers
        self._locks = locks
        self._win_id = win_id
        #: (name, this rank's mapping, whether this rank created it)
        self._arena = arena
        self._freed = False
        self._epoch_open = False

    @property
    def win_id(self) -> int:
        """The world's number for this window: the same on every rank
        (creation is collective) and never reused by its communicator."""
        return self._win_id

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
        return Reservation(target[offset : offset + nbytes], self._locks[target_rank], flip)

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

    # -- lifecycle -------------------------------------------------------------------

    def free(self) -> None:
        """Collectively release the window: after the closing barrier no
        rank can still be inside a put on it, and its arena goes."""
        self._check_alive()
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
        this rank is done with it.  This rank's mapping of the arena
        closes; the creating rank unlinks its name.  Idempotent.
        """
        if self._freed:
            return
        self._freed = True
        # Views first, mapping second: a shared-memory mapping cannot
        # close while NumPy exports of it are live.
        self._buffers = []
        self._locks = []
        name, mapping, creator = self._arena
        mapping.close()
        if creator:
            self._world.segments.unlink(name)

    def _check_alive(self) -> None:
        if self._freed:
            raise WindowError("window already freed")
