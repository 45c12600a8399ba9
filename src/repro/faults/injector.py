"""Deterministic fault injector consulted by the runtimes.

The injector sits between the transport layer and a
:class:`~repro.faults.plan.FaultPlan`: :class:`~repro.runtime.window.Window`
asks it whether to corrupt a put payload, :meth:`~repro.runtime.base.Comm.send`
whether to drop/duplicate/delay a send, and the compressed collective
whether the next codec call should fail transiently.  All decisions are
pure functions of ``(plan.seed, rule, kind, rank, peer, op counter)``
where the op counter is per ``(kind, rank)`` — each rank issues its
transport operations in a deterministic order, so the same plan injects
the same faults on every run, independent of thread interleaving.

Every injected fault is appended to :attr:`FaultInjector.log`, letting
chaos tests assert that a fault actually happened (a recovery test that
never saw its fault proves nothing).
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro.errors import TransientCodecError
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultRule

__all__ = ["FaultInjector"]

#: Sentinel peer value used to salt the RNG when an op has no peer.
_NO_PEER = 0xFFFF
#: Rule-index salt for the bit-position draw (seed entries must be >= 0,
#: and this must not collide with a real rule index).
_FLIP_SALT = 0x10000


class FaultInjector:
    """Runtime oracle answering "does a fault hit this operation?"."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._ops: dict[tuple[str, int], int] = {}
        self._fired: dict[int, int] = {}
        #: Injected-fault audit trail: dicts with kind/rank/peer/tag/op.
        self.log: list[dict[str, Any]] = []

    # -- matching core ---------------------------------------------------------

    def _rng(self, rule_idx: int, kind: str, rank: int, peer: int | None, op: int) -> np.random.Generator:
        peer_salt = _NO_PEER if peer is None else peer + 1
        return np.random.default_rng(
            [self.plan.seed, rule_idx, FAULT_KINDS.index(kind), rank + 1, peer_salt, op]
        )

    def _match(
        self, kind: str, rank: int, peer: int | None = None, tag: int | None = None
    ) -> tuple[FaultRule, int] | None:
        """Consume one op of ``kind`` on ``rank``; return the firing rule."""
        with self._lock:
            op = self._ops.get((kind, rank), 0)
            self._ops[(kind, rank)] = op + 1
            for idx, rule in enumerate(self.plan.rules):
                if not rule.matches(kind, rank, peer, tag):
                    continue
                if op < rule.after:
                    continue
                if rule.max_triggers is not None and self._fired.get(idx, 0) >= rule.max_triggers:
                    continue
                if rule.probability < 1.0:
                    if self._rng(idx, kind, rank, peer, op).random() >= rule.probability:
                        continue
                self._fired[idx] = self._fired.get(idx, 0) + 1
                self.log.append(
                    {"kind": kind, "rank": rank, "peer": peer, "tag": tag, "op": op}
                )
                return rule, op
            return None

    # -- transport hooks --------------------------------------------------------

    def corrupt_put(self, origin: int, target: int, raw: np.ndarray) -> np.ndarray | None:
        """Return a bit-flipped copy of ``raw``, or ``None`` to pass through."""
        if raw.size == 0:
            return None
        hit = self._match("bitflip", origin, target)
        if hit is None:
            return None
        rule, op = hit
        rng = self._rng(_FLIP_SALT, "bitflip", origin, target, op)
        out = raw.copy()
        for pos in rng.integers(0, out.size * 8, size=rule.bits):
            out[int(pos) // 8] ^= np.uint8(1 << (int(pos) % 8))
        return out

    def p2p_action(self, source: int, dest: int, tag: int | None = None) -> str:
        """``"deliver"``, ``"drop"`` or ``"duplicate"`` for this send."""
        if self._match("drop", source, dest, tag) is not None:
            return "drop"
        if self._match("duplicate", source, dest, tag) is not None:
            return "duplicate"
        return "deliver"

    def straggle_delay(self, rank: int) -> float:
        """Seconds this rank should stall before its next transport op."""
        hit = self._match("straggle", rank)
        return hit[0].delay if hit is not None else 0.0

    def fail_action(self, rank: int, op: str | None = None) -> str | None:
        """``"kill"``, ``"hang"`` or ``None`` for this rank's next transport op.

        Consulted by the thread runtime at every transport operation
        (send/recv/put/barrier).  Both kinds keep their own per-rank op
        counters, so ``FaultRule(kind="kill", rank=2, after=40)`` means
        "rank 2 dies at its 41st transport operation" — deterministic
        regardless of thread interleaving.  ``op`` is recorded in the
        audit log for post-mortems.
        """
        for kind in ("kill", "hang"):
            hit = self._match(kind, rank)
            if hit is not None:
                if op is not None:
                    self.log[-1]["at"] = op
                return kind
        return None

    def codec_fault(self, rank: int, peer: int | None = None) -> None:
        """Raise a :class:`TransientCodecError` when a codec rule fires."""
        if self._match("codec", rank, peer) is not None:
            raise TransientCodecError(
                f"injected transient codec failure on rank {rank}"
                + (f" (message for rank {peer})" if peer is not None else "")
            )

    # -- introspection -----------------------------------------------------------

    def injected(self, kind: str | None = None) -> int:
        """Number of injected faults (optionally of one kind)."""
        if kind is None:
            return len(self.log)
        return sum(1 for e in self.log if e["kind"] == kind)
