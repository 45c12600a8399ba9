"""Per-exchange resilience accounting.

Every resilient collective produces one :class:`ResilienceReport` per
call (per rank): an ordered event log of what the detection and
recovery machinery did — integrity failures, retries, degradations,
retransmissions, recoveries.  Callers surface it (``last_report`` on
the collectives, :attr:`ReshapePlan.last_report` on the FFT layer) so
applications can audit that a "successful" exchange was in fact clean,
or see exactly how it healed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "EVENT_KINDS",
    "ResilienceEvent",
    "ResilienceReport",
]

#: Event kinds recorded by the resilient collectives.
EVENT_KINDS = (
    "integrity-failure",  # CRC / magic / version check failed on a block
    "transient-codec",  # a codec call failed transiently
    "tolerance-exceeded",  # achieved error above e_tol at compress time
    "retry",  # a retry with the same codec was scheduled
    "degrade",  # the ladder stepped down (lossy -> lossless -> raw)
    "retransmit",  # a block was re-sent to a peer
    "recovered",  # a previously-failed block decoded cleanly
    "budget-exhausted",  # RetryPolicy.max_elapsed spent; same-codec retries skipped
)


@dataclass
class ResilienceEvent:
    """One detection/recovery event on one rank."""

    kind: str
    rank: int
    peer: int = -1
    attempt: int = 0
    codec: str | None = None
    detail: str = ""


@dataclass
class ResilienceReport:
    """Ordered log of resilience events for one exchange on one rank."""

    rank: int = -1
    events: list[ResilienceEvent] = field(default_factory=list)

    def record(
        self,
        kind: str,
        *,
        peer: int = -1,
        attempt: int = 0,
        codec: str | None = None,
        detail: str = "",
    ) -> ResilienceEvent:
        event = ResilienceEvent(kind, self.rank, peer, attempt, codec, detail)
        self.events.append(event)
        return event

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def of_kind(self, kind: str) -> list[ResilienceEvent]:
        return [e for e in self.events if e.kind == kind]

    # -- convenience views ------------------------------------------------------

    @property
    def clean(self) -> bool:
        """True when the exchange needed no detection or recovery at all."""
        return not self.events

    @property
    def integrity_failures(self) -> int:
        return self.count("integrity-failure")

    @property
    def retries(self) -> int:
        return self.count("retry")

    @property
    def degradations(self) -> int:
        return self.count("degrade")

    @property
    def retransmissions(self) -> int:
        return self.count("retransmit")

    @property
    def recovered(self) -> int:
        return self.count("recovered")

    def merge(self, other: "ResilienceReport") -> None:
        """Append another report's events (e.g. across reshape phases)."""
        self.events.extend(other.events)

    def summary(self) -> str:
        """One-line human summary."""
        if self.clean:
            return f"rank {self.rank}: clean exchange"
        return (
            f"rank {self.rank}: {self.integrity_failures} integrity failure(s), "
            f"{self.retries} retry(ies), {self.degradations} degradation(s), "
            f"{self.retransmissions} retransmission(s), {self.recovered} recovered"
        )
