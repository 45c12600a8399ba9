"""Declarative, seeded fault plans.

A :class:`FaultPlan` is a list of :class:`FaultRule` entries plus a
seed.  Rules are matched by the :class:`~repro.faults.injector.FaultInjector`
against transport operations as they happen; every probabilistic choice
derives from ``(seed, rule index, kind, rank, peer, op index)``, so a
plan replays identically across runs regardless of thread scheduling —
each rank's operation sequence is deterministic and counters are kept
per ``(kind, rank)``.

Supported fault kinds:

``bitflip``
    Flip ``bits`` random bits of a one-sided put payload in flight.
``drop``
    Silently discard a point-to-point message (the receiver times out
    unless a recovery protocol retransmits).
``duplicate``
    Deliver a point-to-point message twice (tests non-overtaking
    matching and idempotence of receivers).
``straggle``
    Delay a rank by ``delay`` seconds before a transport operation.
``codec``
    Raise a :class:`~repro.errors.TransientCodecError` from the next
    matching compression call (models a GPU codec hiccup).
``kill``
    Terminate the rank at its next matching transport operation (the
    thread unwinds with :class:`~repro.errors.RankKilledError`; the
    world records the death instead of aborting — survivors can detect,
    agree, shrink and restart).
``hang``
    Wedge the rank at its next matching transport operation: the thread
    stops heartbeating and making progress until the watchdog declares
    it dead and revokes the world (models a livelocked/stuck process
    rather than a crashed one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FaultConfigError

__all__ = ["FAULT_KINDS", "PROCESS_FAULT_KINDS", "FaultRule", "FaultPlan"]

#: Recognised fault kinds, in a fixed order (the index salts the RNG).
#: New kinds append at the end so existing plans replay identically.
FAULT_KINDS = ("bitflip", "drop", "duplicate", "straggle", "codec", "kill", "hang")

#: Kinds that terminate (or wedge) a whole rank rather than one message.
PROCESS_FAULT_KINDS = ("kill", "hang")


@dataclass(frozen=True)
class FaultRule:
    """One matchable fault.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    rank:
        Origin rank the rule applies to (``None`` = any rank).
    peer:
        Target/destination rank filter (``None`` = any peer).
    tag:
        Point-to-point tag filter (``None`` = any tag).  Lets a plan
        target payload messages without perturbing control-plane
        traffic (collectives use reserved negative tags).
    probability:
        Chance the rule fires on an eligible operation, in ``[0, 1]``.
    after:
        Skip the first ``after`` eligible operations of this kind on
        this rank (a "round" selector).
    max_triggers:
        Total number of times the rule may fire (``None`` = unlimited).
    bits:
        Number of bits to flip (``bitflip`` only).
    delay:
        Straggler delay in seconds (``straggle`` only).
    """

    kind: str
    rank: int | None = None
    peer: int | None = None
    tag: int | None = None
    probability: float = 1.0
    after: int = 0
    max_triggers: int | None = 1
    bits: int = 1
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultConfigError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultConfigError(f"probability must be in [0, 1], got {self.probability}")
        if self.after < 0:
            raise FaultConfigError(f"after must be >= 0, got {self.after}")
        if self.max_triggers is not None and self.max_triggers < 1:
            raise FaultConfigError(f"max_triggers must be >= 1 or None, got {self.max_triggers}")
        if self.bits < 1:
            raise FaultConfigError(f"bits must be >= 1, got {self.bits}")
        if self.delay < 0.0:
            raise FaultConfigError(f"delay must be >= 0, got {self.delay}")

    def matches(self, kind: str, rank: int, peer: int | None, tag: int | None) -> bool:
        """Static (non-stochastic) eligibility of an operation."""
        if self.kind != kind:
            return False
        if self.rank is not None and self.rank != rank:
            return False
        if self.peer is not None and peer is not None and self.peer != peer:
            return False
        if self.tag is not None and tag is not None and self.tag != tag:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules (immutable, shareable across ranks)."""

    rules: tuple[FaultRule, ...] = field(default_factory=tuple)
    seed: int = 0

    def __init__(self, rules: object = (), seed: int = 0) -> None:
        rules = tuple(rules)  # type: ignore[arg-type]
        for r in rules:
            if not isinstance(r, FaultRule):
                raise FaultConfigError(f"plan entries must be FaultRule, got {type(r).__name__}")
        if seed < 0:
            raise FaultConfigError(f"seed must be >= 0, got {seed}")
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "seed", int(seed))

    def __bool__(self) -> bool:
        return bool(self.rules)

    @property
    def kinds(self) -> frozenset[str]:
        """The set of fault kinds this plan can inject."""
        return frozenset(r.kind for r in self.rules)
