"""Abstract communicator API shared by the thread and virtual runtimes."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import CommunicatorError
from repro.utils.arrays import no_alias_copy

__all__ = ["ANY_SOURCE", "ANY_TAG", "Request", "Comm"]

#: Wildcard source rank for ``recv``/``irecv`` (mirrors ``MPI_ANY_SOURCE``).
ANY_SOURCE = -1
#: Wildcard tag (mirrors ``MPI_ANY_TAG``).
ANY_TAG = -1


class Request:
    """Handle for a non-blocking operation (mirrors ``MPI_Request``).

    ``probe`` is the runtime's non-blocking completion check: it must
    return ``True`` once ``wait()`` would succeed without blocking, and
    must never consume the matched message (so a ``test()``/``wait()``
    sequence still yields the data).  Without a probe, ``test()`` only
    reflects whether ``wait()`` already ran.
    """

    def __init__(
        self,
        complete: Callable[[float | None], Any],
        *,
        probe: Callable[[], bool] | None = None,
    ) -> None:
        self._complete = complete
        self._probe = probe
        self._done = False
        self._value: Any = None

    def wait(self, timeout: float | None = None) -> Any:
        """Block until the operation finishes; returns the received data
        for receive requests and ``None`` for send requests."""
        if not self._done:
            self._value = self._complete(timeout)
            self._done = True
        return self._value

    def test(self) -> bool:
        """Non-blocking completion probe (does not consume the message)."""
        if self._done:
            return True
        return bool(self._probe()) if self._probe is not None else False

    @classmethod
    def completed(cls, value: Any = None) -> "Request":
        """An already-finished request (e.g. an eagerly-buffered isend)."""
        req = cls(lambda timeout: value)
        req._done = True
        req._value = value
        return req

    @staticmethod
    def waitall(requests: Sequence["Request"], timeout: float | None = None) -> list[Any]:
        """Complete every request, in order (mirrors ``MPI_Waitall``)."""
        return [r.wait(timeout) for r in requests]


class Comm(ABC):
    """Per-rank communicator handle for SPMD code."""

    rank: int
    size: int

    @property
    def parent_ranks(self) -> tuple[int, ...]:
        """Original-world rank of each member of this communicator.

        The identity ``(0, .., size-1)`` for a world communicator;
        shrunk communicators override (via ``_parent_ranks``) with the
        survivor map, so layers that hold machine placement by original
        rank (topologies, window locks) can follow a shrink.
        """
        mapped = getattr(self, "_parent_ranks", None)
        return tuple(mapped) if mapped is not None else tuple(range(self.size))

    # -- cached per-rank state ---------------------------------------------------

    @property
    def attrs(self) -> dict[Any, Any]:
        """State cached on this communicator (``MPI_Comm_set_attr`` style).

        A layer that builds something once per communicator — an FFT
        plan's exchange binding — keeps it here, so it is per-rank state
        with the communicator's lifetime.  Values have a ``release()``
        that gives their resources back locally, with no collective.
        """
        return self.__dict__.setdefault("_attrs", {})

    def release(self) -> None:
        """Locally release everything cached on this communicator.

        The runtimes call it when a communicator retires: its run ends,
        or a ``shrink`` / ``revoke`` replaces it.
        """
        for value in self.__dict__.pop("_attrs", {}).values():
            value.release()

    def _hand_over(self, successor: "Comm") -> None:
        """``shrink`` replaced this communicator by ``successor``.

        What was cached here goes now (no barrier — the dead cannot
        join one); what the successor caches goes when this, the run's
        own communicator, is released at the end of the run.
        """
        self.release()
        self.attrs["shrunk"] = successor

    # -- point to point --------------------------------------------------------

    @abstractmethod
    def send(self, data: np.ndarray, dest: int, tag: int = 0) -> None:
        """Buffered-blocking send: ``data`` is copied; safe to reuse after."""

    @abstractmethod
    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> np.ndarray:
        """Blocking receive, returns a fresh array.

        ``timeout`` bounds the wait in seconds; ``None`` defers to the
        runtime default.  ``0`` is honoured as an immediate deadline.
        """

    @abstractmethod
    def isend(self, data: np.ndarray, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (buffered, completes immediately on post)."""

    @abstractmethod
    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; ``request.wait()`` returns the data."""

    # -- collectives -----------------------------------------------------------

    @abstractmethod
    def barrier(self) -> None:
        """Synchronise all ranks."""

    def bcast(self, data: Any, root: int = 0) -> Any:
        """Broadcast a Python object from ``root`` (linear reference impl)."""
        self._check_rank(root)
        if self.rank == root:
            for r in range(self.size):
                if r != root:
                    self.send(np.frombuffer(_pickle_dumps(data), dtype=np.uint8), r, tag=-101)
            return data
        raw = self.recv(root, tag=-101)
        return _pickle_loads(raw.tobytes())

    def gather(self, data: Any, root: int = 0) -> list[Any] | None:
        """Gather Python objects to ``root`` (linear reference impl)."""
        self._check_rank(root)
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = data
            for r in range(self.size):
                if r != root:
                    raw = self.recv(r, tag=-102)
                    out[r] = _pickle_loads(raw.tobytes())
            return out
        self.send(np.frombuffer(_pickle_dumps(data), dtype=np.uint8), root, tag=-102)
        return None

    def allgather(self, data: Any) -> list[Any]:
        """Gather to everyone (gather + bcast reference impl)."""
        out = self.gather(data, root=0)
        return self.bcast(out, root=0)

    def alltoallv(self, send: Sequence[np.ndarray | None]) -> list[np.ndarray]:
        """Reference generalized all-to-all: ``send[d]`` goes to rank ``d``.

        ``None`` entries mean "no data for that destination" and produce
        empty receives.  This linear implementation (post all irecvs,
        send round-robin starting after own rank) is the baseline the
        ring algorithms are verified against.
        """
        if len(send) != self.size:
            raise CommunicatorError(
                f"alltoallv needs one (possibly None) buffer per rank: "
                f"got {len(send)} for size {self.size}"
            )
        empty = np.zeros(0, dtype=np.uint8)
        recv_reqs = [self.irecv(src, tag=-103) for src in range(self.size) if src != self.rank]
        for shift in range(1, self.size):
            dest = (self.rank + shift) % self.size
            chunk = send[dest]
            self.send(empty if chunk is None else np.ascontiguousarray(chunk), dest, tag=-103)
        out: list[np.ndarray] = [empty] * self.size
        out[self.rank] = no_alias_copy(send[self.rank])
        idx = 0
        for src in range(self.size):
            if src == self.rank:
                continue
            out[src] = recv_reqs[idx].wait()
            idx += 1
        return out

    # -- one-sided -------------------------------------------------------------

    @abstractmethod
    def win_create(self, nbytes: int) -> "Window":  # noqa: F821 - runtime import
        """Collectively create an RMA window exposing ``nbytes`` locally."""

    # -- misc -------------------------------------------------------------------

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise CommunicatorError(f"rank {rank} out of range [0, {self.size})")


def _pickle_dumps(obj: Any) -> bytes:
    import pickle

    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _pickle_loads(raw: bytes) -> Any:
    # Control-plane payloads (bcast/gather objects) cross a transport
    # that other processes can write to, so they go through the same
    # restricted unpickler as wire frame v2 — a crafted frame naming an
    # unlisted global raises WireIntegrityError instead of executing.
    # Imported lazily: collectives imports runtime types at module load.
    from repro.collectives.wire import control_loads

    return control_loads(raw)
