"""Functional "virtual" runtime: all ranks in one process, no threads.

The accuracy experiments of the paper run at up to 1536 ranks (Table II)
— far beyond what per-rank threads can do in one Python process.  But
accuracy only needs the *data movement* to be faithful, not concurrent.
:class:`VirtualWorld` is therefore only a rank count, a topology and a
:class:`TrafficLog`: :meth:`~repro.fft.reshape.ReshapePlan.run_virtual`
moves every rank's blocks as array shuffles and records each message
here, so the performance model is driven by the *same* exchanges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CommunicatorError, UnsupportedFaultError
from repro.machine.topology import Topology

__all__ = ["TrafficLog", "VirtualWorld"]


@dataclass
class TrafficLog:
    """Byte accounting of one or more collective exchanges.

    ``record`` classifies each message as intra- or inter-node when a
    :class:`~repro.machine.topology.Topology` is attached; without one,
    everything counts as inter-node (worst case).
    """

    topology: Topology | None = None
    messages: int = 0
    intra_bytes: int = 0
    inter_bytes: int = 0
    local_bytes: int = 0  # rank sending to itself
    per_message_sizes: list[int] = field(default_factory=list)

    def record(self, src: int, dst: int, nbytes: int) -> None:
        self.messages += 1
        self.per_message_sizes.append(int(nbytes))
        if src == dst:
            self.local_bytes += nbytes
        elif self.topology is not None and self.topology.same_node(src, dst):
            self.intra_bytes += nbytes
        else:
            self.inter_bytes += nbytes

    @property
    def total_bytes(self) -> int:
        return self.intra_bytes + self.inter_bytes + self.local_bytes

    @property
    def network_bytes(self) -> int:
        """Bytes that actually traverse a link (excludes self-sends)."""
        return self.intra_bytes + self.inter_bytes


class VirtualWorld:
    """All-ranks-in-one-process functional communicator."""

    def __init__(
        self,
        nranks: int,
        *,
        topology: Topology | None = None,
        faults: object | None = None,
    ) -> None:
        if nranks < 1:
            raise CommunicatorError(f"nranks must be >= 1, got {nranks}")
        if topology is not None and topology.nranks != nranks:
            raise CommunicatorError(
                f"topology is for {topology.nranks} ranks, world has {nranks}"
            )
        self._check_faults(faults)
        self.nranks = nranks
        self.topology = topology
        self.traffic = TrafficLog(topology)

    @staticmethod
    def _check_faults(faults: object | None) -> None:
        """Refuse fault plans instead of silently not injecting them.

        The virtual world executes collectives as in-process array
        shuffles — there is no transport to drop messages from, no
        per-rank thread to kill or wedge, and no watchdog to notice.
        Accepting a plan here would make a chaos experiment silently
        fault-free, so any non-empty plan (or live injector) is an
        explicit :class:`~repro.errors.UnsupportedFaultError` directing
        the caller to :class:`~repro.runtime.thread_rt.ThreadWorld`.
        """
        if faults is None:
            return
        plan = getattr(faults, "plan", faults)  # FaultInjector carries its plan
        rules = getattr(plan, "rules", None)
        if not rules:
            return
        kinds = sorted({r.kind for r in rules})
        process = sorted(k for k in kinds if k in ("kill", "hang"))
        what = (
            f"process faults {process} need per-rank threads and a watchdog"
            if process
            else f"fault kinds {kinds} need a real message transport"
        )
        raise UnsupportedFaultError(
            f"VirtualWorld cannot inject faults ({what}); it runs collectives "
            "as functional array shuffles with no transport, threads, or "
            "heartbeats. Use ThreadWorld(faults=...) for chaos experiments."
        )
