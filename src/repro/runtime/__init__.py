"""In-process MPI-like runtimes (the Open MPI / UCX substitute).

One substrate, two launchers, and a functional executor:

* :class:`~repro.runtime.base.Comm` / :class:`~repro.runtime.base.World`
  — the one communicator and the substrate under it, written once:
  two-sided ``send/recv/isend/irecv`` with tag matching over one
  bounded ring per rank, one-sided RMA windows (``put`` / ``reserve`` /
  ``fence``, MPI's active-target completion rule) over one arena per
  window, barriers, and the ULFM recovery arc (``revoke`` / ``agree`` /
  ``shrink``) with survivor worlds that are views one generation up.
  Rings, arenas and checkpoints live in the world's segment namespace
  (:mod:`repro.runtime.shm`).
* :class:`~repro.runtime.thread_rt.ThreadWorld` — every rank is a real
  thread; the namespace holds private arrays.  This is where the
  pairwise and OSC all-to-all algorithms run and are tested, and the
  only launcher with message-level fault injection.
* :class:`~repro.runtime.proc.ProcessWorld` — every rank is a real OS
  process (forked); the namespace holds ``SharedMemory`` segments, so
  ranks escape the GIL and local FFT / compress phases genuinely
  overlap — the substrate for multi-core benchmarking
  (``--runtime proc``).
* :class:`~repro.runtime.virtual.VirtualWorld` — all rank buffers live
  in one process and collectives execute functionally (a data shuffle).
  No concurrency, so it scales to the paper's 1536 ranks for the
  *accuracy* experiments (Table II) where real networks are irrelevant.

SPMD code is written against :class:`~repro.runtime.base.Comm`,
mirroring the mpi4py API shape (``comm.rank``, ``comm.size``,
upper-case-style buffer semantics are implicit since everything is a
NumPy array).  :func:`make_world` maps a CLI-level runtime name to a
fresh world instance.
"""

from repro.runtime.base import ANY_SOURCE, ANY_TAG, Comm, Request
from repro.runtime.proc import ProcessWorld
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
