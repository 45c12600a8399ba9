"""Liveness bitmaps, the currency of fault-aware agreement.

After a failure is detected, survivors must reach a *consistent* view
of who is alive before they can shrink: if rank 0 thinks {0, 2, 3}
survived while rank 2 thinks {0, 1, 2, 3} did, the shrunk communicators
disagree on size and the ring permutation, and recovery itself
deadlocks.  The agreement (the ULFM ``MPIX_Comm_agree`` analogue) runs
over bitmaps — bit ``r`` set = rank ``r`` believed alive by the
contributor — in the slots of
:meth:`repro.resilience.monitor.ControlState.agree_wait`, driven by
:meth:`repro.runtime.base.Comm.agree`.
"""

from __future__ import annotations

__all__ = ["bitmap_ranks", "ranks_bitmap"]


def bitmap_ranks(bitmap: int, nranks: int) -> tuple[int, ...]:
    """Decode a liveness bitmap into a sorted tuple of rank ids."""
    return tuple(r for r in range(nranks) if bitmap >> r & 1)


def ranks_bitmap(ranks) -> int:
    """Encode an iterable of rank ids as a liveness bitmap."""
    out = 0
    for r in ranks:
        out |= 1 << int(r)
    return out
