"""Size-class keyed staging-buffer pool for the exchange hot path.

Every compressed exchange used to allocate its staging frames, pack
scratch and receive copies from scratch; on a GPU those would be
``cudaMalloc``/``cudaFree`` pairs on the critical path — exactly what
gZCCL-style collectives avoid with a reusable staging arena.  A
:class:`BufferPool` keeps freed buffers binned by power-of-two size
class, so a steady-state exchange whose message sizes repeat (the FFT
reshape pattern is fixed per plan) performs **zero** allocations after
the first warm-up call.

Contract
--------
* :meth:`BufferPool.acquire` returns a ``uint8`` view of exactly the
  requested length over a pooled power-of-two arena;
* :meth:`BufferPool.release` hands a buffer (or any view derived from
  it — the arena is found by walking ``.base``) back for reuse.
  Releasing an array the pool does not own is a silent no-op, so
  integration code can release everything it *might* have pooled
  without tracking provenance; double releases are likewise ignored
  (the arena is only reclaimed once).
* Hit/miss tallies are kept on the pool **and** published as one
  ``pool-acquire`` event per acquire: the :mod:`repro.trace` counters
  ``pool_hits`` / ``pool_misses`` (per-rank when the calling thread is
  rank-bound), so the perf layer can see allocation behaviour next to
  the spans it affects, and the registry's ``repro_pool_*`` series.

The pool is thread-safe (one lock around the free lists); the intended
deployment is still one pool per rank — sharing one across SPMD rank
threads is correct but serialises acquires.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import TuningError
from repro.telemetry import emit
from repro.utils.primes import next_pow2

__all__ = ["BufferPool"]

#: Shared zero-length buffer: zero-size acquires allocate nothing and
#: are not counted (there is nothing to reuse).
_EMPTY = np.zeros(0, dtype=np.uint8)


class BufferPool:
    """Reusable staging buffers, binned by power-of-two size class.

    Parameters
    ----------
    max_per_class:
        Free buffers retained per size class; releases beyond this are
        dropped (bounds retained memory to ``max_per_class`` times the
        working-set footprint).
    name:
        Label used in diagnostics.
    """

    def __init__(self, *, max_per_class: int = 8, name: str = "pool") -> None:
        if max_per_class < 1:
            raise TuningError(f"max_per_class must be >= 1, got {max_per_class}")
        self.name = name
        self.max_per_class = int(max_per_class)
        self._lock = threading.Lock()
        self._free: dict[int, list[np.ndarray]] = {}
        self._out: dict[int, np.ndarray] = {}  # id(arena) -> arena, while loaned out
        self.hits = 0
        self.misses = 0
        self.releases = 0
        self.dropped = 0

    # -- acquire / release --------------------------------------------------------

    def acquire(self, nbytes: int) -> np.ndarray:
        """A ``uint8`` buffer of exactly ``nbytes`` (pooled arena view)."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise TuningError(f"cannot acquire {nbytes} bytes")
        if nbytes == 0:
            return _EMPTY
        size_class = next_pow2(nbytes)
        with self._lock:
            stack = self._free.get(size_class)
            if stack:
                arena = stack.pop()
                self.hits += 1
                hit = True
            else:
                arena = np.empty(size_class, dtype=np.uint8)
                self.misses += 1
                hit = False
            self._out[id(arena)] = arena
        emit("pool-acquire", hit=hit, pool=self.name, hits=self.hits, misses=self.misses)
        return arena[:nbytes]

    def acquire_array(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A typed scratch array of ``shape``/``dtype`` over a pooled arena."""
        dt = np.dtype(dtype)
        shape = tuple(int(n) for n in shape)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        return self.acquire(nbytes).view(dt).reshape(shape)

    def release(self, arr) -> bool:
        """Return ``arr`` (or any view of it) to the pool.

        Walks ``arr.base`` to its owning arena; arrays the pool never
        handed out — including zero-size buffers, foreign allocations
        and second releases of the same arena — are ignored and
        ``False`` is returned.
        """
        root = arr
        while isinstance(root, np.ndarray) and root.base is not None:
            root = root.base
        if not isinstance(root, np.ndarray):
            return False
        with self._lock:
            arena = self._out.pop(id(root), None)
            if arena is None or arena is not root:
                if arena is not None:  # id collision with a foreign object
                    self._out[id(arena)] = arena
                return False
            self.releases += 1
            stack = self._free.setdefault(arena.size, [])
            if len(stack) < self.max_per_class:
                stack.append(arena)
            else:
                self.dropped += 1
        return True

    # -- introspection ------------------------------------------------------------

    @property
    def active(self) -> int:
        """Buffers currently loaned out."""
        with self._lock:
            return len(self._out)

    @property
    def retained_bytes(self) -> int:
        """Bytes sitting in the free lists, ready for reuse."""
        with self._lock:
            return sum(size * len(stack) for size, stack in self._free.items())

    def counters(self) -> dict[str, int]:
        """Snapshot of the pool's tallies (for tests and reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "releases": self.releases,
            "dropped": self.dropped,
            "active": self.active,
            "retained_bytes": self.retained_bytes,
        }

    def clear(self) -> None:
        """Drop all retained free buffers (loaned-out buffers unaffected)."""
        with self._lock:
            self._free.clear()
