"""Critical-path extraction over per-rank span timelines.

The paper's performance arguments are *where-does-the-time-go*
decompositions: Fig. 3/4 attribute an exchange's (or a whole FFT's)
wall time to pack / compress / put / fence / decompress / unpack /
local_fft.  This module answers the same question for a *traced* run:

* :func:`phase_attribution` — per rank, the **self time** of every span
  kind (duration minus enclosed child spans, so nested spans are never
  double-counted) plus an explicit ``idle`` bucket, which makes the
  buckets sum *exactly* to the rank's end-to-end window;
* :func:`critical_path` — the bounding rank (the one whose end-to-end
  window is longest: in a fenced SPMD exchange the slowest rank *is*
  the collective's wall time) and its phase breakdown;
* :func:`exchange_paths` — one critical path per exchange round (the
  k-th ``exchange`` span of every rank belongs to round k), for
  per-reshape attribution inside a multi-stage FFT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.trace.core import Record, Tracer

__all__ = [
    "RankTimeline",
    "CriticalPath",
    "phase_attribution",
    "critical_path",
    "exchange_paths",
    "format_critical_path",
]

#: Structural kinds that only *contain* work; their self time is waiting
#: or orchestration, which the attribution reports as part of the kind
#: itself (e.g. ``exchange`` self time ≈ synchronisation not inside a
#: put/fence child).
STRUCTURAL_KINDS = ("exchange", "fft")


@dataclass
class RankTimeline:
    """One rank's attributed time decomposition."""

    rank: int
    t0_ns: int
    t1_ns: int
    #: self time (seconds) per span kind + the ``idle`` bucket
    phases: dict[str, float] = field(default_factory=dict)
    span_count: int = 0

    @property
    def end_to_end_s(self) -> float:
        return (self.t1_ns - self.t0_ns) * 1e-9

    @property
    def busy_s(self) -> float:
        return sum(v for k, v in self.phases.items() if k != "idle")


@dataclass
class CriticalPath:
    """The bounding rank's decomposition for one scope (run or exchange)."""

    rank: int
    end_to_end_s: float
    phases: dict[str, float]
    ranks: int
    index: int | None = None  # exchange round, when scoped per exchange


def span_records(source: Tracer | Iterable[Record]) -> list[Record]:
    """The span records of a tracer or of a record list, by start time."""
    if isinstance(source, Tracer):
        return source.span_events()
    return sorted((r for r in source if r.ph == "X"), key=lambda s: s.t0_ns)


def _self_times(spans: Sequence[Record]) -> dict[str, float]:
    """Per-kind self time (s) of one rank's properly nested span list.

    A span's children are the *shallowest* spans strictly inside it; a
    stack walk over the start-ordered list subtracts each child's full
    duration from its direct parent exactly once.
    """
    out: dict[str, float] = {}
    stack: list[Record] = []
    child_ns: dict[int, int] = {}  # id(span) -> ns consumed by children
    ordered = sorted(spans, key=lambda s: (s.t0_ns, -s.t1_ns))
    for s in ordered:
        while stack and s.t0_ns >= stack[-1].t1_ns:
            stack.pop()
        if stack and s.t1_ns <= stack[-1].t1_ns:
            child_ns[id(stack[-1])] = child_ns.get(id(stack[-1]), 0) + s.duration_ns
        stack.append(s)
    for s in ordered:
        self_ns = s.duration_ns - child_ns.get(id(s), 0)
        out[s.kind] = out.get(s.kind, 0.0) + max(0, self_ns) * 1e-9
    return out


def phase_attribution(
    source: Tracer | Iterable[Record],
) -> dict[int, RankTimeline]:
    """Attribute every rank's window to phase self-times + idle.

    The window is the rank's [first span start, last span end].  The
    ``idle`` bucket (window minus busy time) absorbs gaps between
    top-level spans, so ``sum(phases.values()) == end_to_end_s`` holds
    exactly per rank.
    """
    by_rank: dict[int, list[Record]] = {}
    for s in span_records(source):
        by_rank.setdefault(s.rank, []).append(s)
    out: dict[int, RankTimeline] = {}
    for rank, spans in sorted(by_rank.items()):
        t0 = min(s.t0_ns for s in spans)
        t1 = max(s.t1_ns for s in spans)
        phases = _self_times(spans)
        tl = RankTimeline(rank=rank, t0_ns=t0, t1_ns=t1, phases=phases, span_count=len(spans))
        tl.phases["idle"] = max(0.0, tl.end_to_end_s - tl.busy_s)
        out[rank] = tl
    return out


def critical_path(source: Tracer | Iterable[Record]) -> CriticalPath | None:
    """The run-level critical path: the rank with the longest window.

    Returns ``None`` on an empty stream (no spans recorded) — callers
    render that as an explicitly empty report rather than crashing.
    """
    timelines = phase_attribution(source)
    if not timelines:
        return None
    bounding = max(timelines.values(), key=lambda tl: tl.end_to_end_s)
    return CriticalPath(
        rank=bounding.rank,
        end_to_end_s=bounding.end_to_end_s,
        phases=dict(bounding.phases),
        ranks=len(timelines),
    )


def exchange_paths(source: Tracer | Iterable[Record]) -> list[CriticalPath]:
    """One critical path per exchange round.

    Every rank opens one ``exchange`` span per reshape, in the same
    order, so the k-th exchange span of each rank forms round k.  For
    each round the bounding rank is the one with the longest exchange
    span; its breakdown covers the spans nested inside that exchange.
    """
    events = span_records(source)
    # Only *outermost* exchange spans define rounds: a compressed
    # collective opens its own exchange span inside the reshape's.
    exchanges_by_rank: dict[int, list[Record]] = {}
    for s in events:
        if s.kind == "exchange":
            exchanges_by_rank.setdefault(s.rank, []).append(s)
    rounds: dict[int, list[Record]] = {}
    for rank, spans in exchanges_by_rank.items():
        outer = [
            s
            for s in spans
            if not any(
                o is not s and o.t0_ns <= s.t0_ns and s.t1_ns <= o.t1_ns and o.depth < s.depth
                for o in spans
            )
        ]
        for k, s in enumerate(sorted(outer, key=lambda s: s.t0_ns)):
            rounds.setdefault(k, []).append(s)

    by_rank: dict[int, list[Record]] = {}
    for s in events:
        by_rank.setdefault(s.rank, []).append(s)

    paths: list[CriticalPath] = []
    for k in sorted(rounds):
        members = rounds[k]
        bounding = max(members, key=lambda s: s.duration_ns)
        inner = [
            s
            for s in by_rank[bounding.rank]
            if s.t0_ns >= bounding.t0_ns
            and s.t1_ns <= bounding.t1_ns
            and s.depth > bounding.depth
        ]
        phases = _self_times(inner)
        busy = sum(phases.values())
        end_to_end = bounding.duration_ns * 1e-9
        phases["idle"] = max(0.0, end_to_end - busy)
        paths.append(
            CriticalPath(
                rank=bounding.rank,
                end_to_end_s=end_to_end,
                phases=phases,
                ranks=len(members),
                index=k,
            )
        )
    return paths


def format_critical_path(path: CriticalPath | None) -> str:
    """Readable phase table for one critical path (empty-safe)."""
    if path is None:
        return "(no spans recorded — nothing to attribute)"
    scope = f"exchange round {path.index}" if path.index is not None else "run"
    lines = [
        f"critical path [{scope}]: rank {path.rank} of {path.ranks}, "
        f"end-to-end {path.end_to_end_s * 1e3:.3f} ms"
    ]
    total = path.end_to_end_s or 1.0
    for kind, secs in sorted(path.phases.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {kind:<12} {secs * 1e3:>10.3f} ms  {100.0 * secs / total:>5.1f}%")
    return "\n".join(lines)
