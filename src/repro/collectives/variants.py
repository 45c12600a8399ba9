"""Bruck's log-p all-to-all.

The paper's Section V-A remarks that posting everything up front "will
insert, almost in same time, a storm of messages in the network" — that
*linear* baseline is the communicator's own ``alltoallv`` (what Open
MPI's basic coll module does).  The *Bruck* algorithm is the
classic log-p alternative for small messages: ceil(log2 p) rounds, each
shipping half the buffer, trading volume (each byte moves ~log2(p)/2
times) for latency (log p instead of p message start-ups).  It is
verified against the reference exchange, and both are modelled in
:mod:`repro.netsim.alltoall_model` so the latency/bandwidth crossover
can be studied (the FP16 curve of Fig. 4 lives exactly at that
crossover).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.conformance import hooks
from repro.errors import CommunicatorError
from repro.runtime.base import Comm

__all__ = ["bruck_alltoall"]

_TAG_BRUCK = -302


def bruck_alltoall(comm: Comm, send: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Bruck's log-p all-to-all for equal-sized messages.

    Phase 1: local rotation so block ``i`` holds data for rank
    ``(rank + i) % p``.  Phase 2: for each bit ``k`` of the rank
    distance, ship every block whose index has bit ``k`` set to rank
    ``rank + 2**k`` (blocks coalesce into one message per round —
    ``ceil(log2 p)`` start-ups total).  Phase 3: inverse rotation.

    All messages must have identical shape/dtype (the classical Bruck
    restriction); use the ring/linear variants for the general vector
    case.
    """
    p = comm.size
    if len(send) != p:
        raise CommunicatorError(f"send list has {len(send)} entries for {p} ranks")
    blocks = [np.ascontiguousarray(c) for c in send]
    shape0, dtype0 = blocks[0].shape, blocks[0].dtype
    if any(b.shape != shape0 or b.dtype != dtype0 for b in blocks):
        raise CommunicatorError("bruck_alltoall requires equal-sized blocks")

    # Phase 1: upward rotation by rank.
    work = [blocks[(comm.rank + i) % p].copy() for i in range(p)]

    # Phase 2: log rounds.
    k = 0
    while (1 << k) < p:
        step = 1 << k
        dst = (comm.rank + step) % p
        src = (comm.rank - step) % p
        idx = hooks.mutate(
            "bruck.block_index", [i for i in range(p) if i & step], rank=comm.rank, step=step
        )
        packed = np.stack([work[i] for i in idx]) if idx else np.zeros((0,) + shape0, dtype0)
        req = comm.isend(packed, dst, tag=_TAG_BRUCK - k)
        incoming = comm.recv(src, tag=_TAG_BRUCK - k)
        req.wait()
        incoming = incoming.reshape((len(idx),) + shape0)
        for j, i in enumerate(idx):
            work[i] = incoming[j]
        k += 1

    # Phase 3: final rotation + reversal puts block from rank s at [s].
    out: list[np.ndarray] = [None] * p  # type: ignore[list-item]
    for i in range(p):
        out[(comm.rank - i) % p] = work[i]
    return out
