"""In-process MPI-like runtimes (the Open MPI / UCX substitute).

Three interchangeable execution substrates implement the communication
semantics the paper's algorithms rely on:

* :class:`~repro.runtime.thread_rt.ThreadWorld` — every rank is a real
  thread.  Two-sided ``send/recv/isend/irecv`` with tag matching,
  barriers, and one-sided RMA windows (``Put``/``Get``/``Fence``/
  ``Lock``) with the same completion rules as MPI.  This is where the
  pairwise and OSC all-to-all algorithms run and are tested, and the
  only runtime with message-level fault injection.
* :class:`~repro.runtime.proc.ProcessWorld` — every rank is a real OS
  process (forked).  Point-to-point moves through pickle-free
  shared-memory rings and RMA windows map onto one collectively-created
  ``SharedMemory`` arena, so ranks escape the GIL and local FFT /
  compress phases genuinely overlap — the substrate for multi-core
  benchmarking (``--runtime proc``).
* :class:`~repro.runtime.virtual.VirtualWorld` — all rank buffers live
  in one process and collectives execute functionally (a data shuffle).
  No concurrency, so it scales to the paper's 1536 ranks for the
  *accuracy* experiments (Table II) where real networks are irrelevant.

SPMD code is written against the abstract :class:`~repro.runtime.base.Comm`
handle — which also carries the ULFM recovery arc (``revoke`` /
``agree`` / ``shrink``), written once for the first two worlds —
mirroring the mpi4py API shape (``comm.rank``, ``comm.size``,
upper-case-style buffer semantics are implicit since everything is a
NumPy array).  :func:`make_world` maps a CLI-level runtime name to a
fresh world instance.
"""

from repro.runtime.base import ANY_SOURCE, ANY_TAG, Comm, Request
from repro.runtime.proc import ProcComm, ProcessWorld
from repro.runtime.thread_rt import ThreadWorld, run_spmd
from repro.runtime.virtual import VirtualWorld
from repro.runtime.window import Window

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Comm",
    "Request",
    "Window",
    "ThreadWorld",
    "run_spmd",
    "ProcessWorld",
    "ProcComm",
    "VirtualWorld",
    "RUNTIMES",
    "make_world",
]

#: Runtime names accepted by ``--runtime`` flags (worlds with a ``Comm``).
RUNTIMES = ("thread", "proc")


def make_world(runtime: str, nranks: int, **kwargs):
    """Build a fresh world for ``runtime`` (``"thread"`` or ``"proc"``).

    Keyword arguments (``timeout``, ``faults``, …) pass through to the
    world constructor.  Remember that a :class:`ProcessWorld` is
    one-shot: call :func:`make_world` again for every ``run``.
    """
    if runtime == "thread":
        return ThreadWorld(nranks, **kwargs)
    if runtime == "proc":
        return ProcessWorld(nranks, **kwargs)
    raise ValueError(f"unknown runtime {runtime!r}; choose from {RUNTIMES}")
