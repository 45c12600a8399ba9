"""Rank-failure tolerance (``repro.resilience``).

The fault layer (``repro.faults``) recovers *messages* — a dropped
fragment, a flipped bit, a codec hiccup.  This package recovers from a
whole rank dying or wedging mid-FFT, the ULFM-style story:

* :mod:`~repro.resilience.monitor` — the control plane both runtimes
  share: :class:`~repro.resilience.monitor.ControlState` (beacons,
  blocked-op rows, failure registry, abort and revoke words, agreement
  slots, barrier rows, timeline) over a private buffer or a
  shared-memory segment, the one
  :class:`~repro.resilience.monitor.Watchdog` (straggler / dead /
  deadlock classification) and the structured
  :class:`~repro.resilience.monitor.FailureReport`;
* :mod:`~repro.resilience.agreement` — the liveness bitmaps survivors
  agree on (the ``MPIX_Comm_agree`` analogue) so they shrink to the
  *same* communicator;
* :mod:`~repro.resilience.abft` — algorithm-based per-reshape checksums
  validated against the codec error budget;
* :mod:`~repro.resilience.checkpoint` — CRC-framed pencil checkpoints in
  a world-shared store ("burst buffer") plus the shrink-and-restart
  driver for :class:`~repro.fft.plan.Fft3d`.

Import discipline: the runtimes import :mod:`monitor` and
:mod:`agreement`; :mod:`checkpoint` imports the runtime and the FFT
layer back, so it is exposed lazily to keep the package cycle-free.
"""

from repro.resilience.abft import AbftChecksums, reshape_checksums, verify_checksums
from repro.resilience.agreement import bitmap_ranks, ranks_bitmap
from repro.resilience.monitor import (
    STALL_CLASSIFICATIONS,
    ControlState,
    FailureReport,
    PhaseSpan,
    RankFailure,
    Watchdog,
)

__all__ = [
    "STALL_CLASSIFICATIONS",
    "AbftChecksums",
    "CheckpointStore",
    "ControlState",
    "FailureReport",
    "PhaseSpan",
    "RankFailure",
    "ResilientFft3d",
    "SpmdResult",
    "Watchdog",
    "bitmap_ranks",
    "ranks_bitmap",
    "reshape_checksums",
    "verify_checksums",
]

_LAZY = {
    "CheckpointStore": "repro.resilience.checkpoint",
    "ResilientFft3d": "repro.resilience.checkpoint",
    "SpmdResult": "repro.resilience.checkpoint",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
