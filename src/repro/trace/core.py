"""Per-rank tracing and metrics: spans, instants and typed counters.

The measurement substrate every perf claim reports through.  Three
design constraints drive the shape of this module:

* **per-rank attribution** — every event carries the rank it happened
  on.  SPMD threads bind their rank once (``ThreadWorld.run`` does it
  automatically) and all spans/counters opened on that thread inherit
  it; the virtual executor, which runs every rank in one thread, passes
  ``rank=`` explicitly per event.
* **thread safety** — each thread appends to its own buffer (created
  lazily, registered under a lock); buffers are merged only at export
  time, so the hot path takes no locks.
* **zero overhead when disabled** — the module-level helpers
  (:func:`span`, :func:`incr`, …) short-circuit to shared no-op objects
  when no tracer is installed; instrumented code never needs an ``if``.

Usage, SPMD::

    with trace.tracing() as tracer:
        ThreadWorld(8).run(kernel)          # ranks auto-bound
    print(summarize(tracer))

Usage, explicit::

    tracer = Tracer()
    install(tracer)
    with trace.span("compress", rank=3, peer=5, bytes=4096):
        ...
    uninstall()
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

__all__ = [
    "SPAN_KINDS",
    "COUNTER_KINDS",
    "SpanEvent",
    "InstantEvent",
    "Tracer",
    "get_tracer",
    "install",
    "uninstall",
    "tracing",
    "span",
    "incr",
    "bind_rank",
    "record_report",
]

#: Span taxonomy.  The first eight are the paper's time-decomposition
#: stages (Alg. 1 / Alg. 3); the rest structure the stream.
SPAN_KINDS = (
    "pack",  # extract the contiguous chunk owed to one destination
    "compress",  # codec encode (incl. wire framing) for one destination
    "put",  # one-sided write into a remote window
    "fence",  # RMA epoch open/close synchronisation
    "decompress",  # frame walk + codec decode of one source block
    "unpack",  # insert a received chunk into the output block
    "local_fft",  # batched 1-D FFT phase on the local block
    "retry",  # recovery rounds (retransmission protocol)
    "sendrecv",  # one two-sided ring step (pairwise algorithm)
    "exchange",  # whole all-to-all of one reshape (parent span)
    "fft",  # one full Fft3d transform (outermost parent span)
    "checkpoint",  # CRC-framed pencil checkpoint save/load (resilience)
    "detect",  # failure detection window (last beacon -> declaration)
    "agree",  # fault-aware agreement on the survivor set (ULFM agree)
    "shrink",  # communicator rebuild over the survivors (ULFM shrink)
    "restart",  # checkpointed FFT resume on the shrunk communicator
)

#: Typed counters accumulated per (rank, name).
COUNTER_KINDS = (
    "messages",  # wire messages sent by this rank
    "logical_bytes",  # uncompressed payload volume sent
    "wire_bytes",  # bytes actually on the wire after compression
    "retries",  # recovery retries (from resilience reports)
    "degradations",  # codec ladder step-downs
    "retransmissions",  # blocks re-sent during recovery
    "pool_hits",  # staging-buffer acquisitions served from the pool
    "pool_misses",  # staging-buffer acquisitions that had to allocate
    "internode_messages",  # aggregated NIC-crossing messages (two-level exchange)
)


@dataclass
class SpanEvent:
    """One closed span: a named interval on one rank."""

    kind: str
    rank: int
    t0_ns: int
    t1_ns: int
    depth: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.t1_ns - self.t0_ns


@dataclass
class InstantEvent:
    """A point event (e.g. a folded resilience event)."""

    kind: str
    rank: int
    ts_ns: int
    attrs: dict[str, Any] = field(default_factory=dict)


class _NullSpan:
    """Shared no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def note(self, **attrs: Any) -> None:
        """No-op (see :meth:`_Span.note`)."""


NULL_SPAN = _NullSpan()


class _ThreadBuffer:
    """Per-thread event storage; merged by the tracer at export time."""

    __slots__ = ("rank", "depth", "spans", "instants", "counters", "samples")

    def __init__(self) -> None:
        self.rank = -1  # unbound until bind_rank()
        self.depth = 0
        self.spans: list[SpanEvent] = []
        self.instants: list[InstantEvent] = []
        self.counters: dict[tuple[int, str], float] = {}
        # counter time series: (ts_ns, rank, name, delta) per incr()
        self.samples: list[tuple[int, int, str, float]] = []


class _Span:
    """Live span handle (context manager)."""

    __slots__ = ("_tracer", "_buf", "_kind", "_rank", "_attrs", "_t0", "_depth")

    def __init__(
        self, tracer: "Tracer", buf: _ThreadBuffer, kind: str, rank: int | None, attrs: dict
    ) -> None:
        self._tracer = tracer
        self._buf = buf
        self._kind = kind
        self._rank = rank
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        buf = self._buf
        self._depth = buf.depth
        buf.depth += 1
        self._t0 = self._tracer._clock()
        return self

    def note(self, **attrs: Any) -> None:
        """Add attributes only known inside the scope (bytes written, say)."""
        self._attrs.update(attrs)

    def __exit__(self, *exc: object) -> bool:
        t1 = self._tracer._clock()
        buf = self._buf
        buf.depth = self._depth
        rank = self._rank if self._rank is not None else buf.rank
        buf.spans.append(SpanEvent(self._kind, rank, self._t0, t1, self._depth, self._attrs))
        return False


class Tracer:
    """Per-process trace collector; one instance per measured run.

    Parameters
    ----------
    enabled:
        ``False`` makes every recording method a no-op (the object can
        stay installed; useful for toggling without re-plumbing).
    clock:
        Nanosecond monotonic clock (overridable for deterministic tests).
    """

    def __init__(self, *, enabled: bool = True, clock=time.perf_counter_ns) -> None:
        self.enabled = bool(enabled)
        self._clock = clock
        self._lock = threading.Lock()
        self._buffers: list[_ThreadBuffer] = []
        self._local = threading.local()

    # -- hot path -----------------------------------------------------------------

    def _buf(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def bind_rank(self, rank: int) -> None:
        """Attribute this thread's subsequent events to ``rank``."""
        self._buf().rank = int(rank)

    def span(self, kind: str, *, rank: int | None = None, **attrs: Any):
        """Open a nestable span; use as a context manager."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, self._buf(), kind, rank, attrs)

    def instant(self, kind: str, *, rank: int | None = None, **attrs: Any) -> None:
        """Record a point event."""
        if not self.enabled:
            return
        buf = self._buf()
        r = rank if rank is not None else buf.rank
        buf.instants.append(InstantEvent(kind, r, self._clock(), attrs))

    def record_span(
        self,
        kind: str,
        rank: int | None = None,
        *,
        duration_ns: int,
        **attrs: Any,
    ) -> None:
        """Append an already-closed span ending now, ``duration_ns`` long.

        For intervals whose start is only known in hindsight — e.g. the
        failure *detection window* (a victim's last beacon to the
        watchdog verdict), which no context manager could have wrapped.
        The end timestamp comes from this tracer's clock, so the span
        lines up with context-manager spans in the Chrome export.
        """
        if not self.enabled:
            return
        buf = self._buf()
        r = rank if rank is not None else buf.rank
        t1 = self._clock()
        buf.spans.append(SpanEvent(kind, r, t1 - max(0, int(duration_ns)), t1, buf.depth, attrs))

    def incr(self, name: str, value: float = 1, *, rank: int | None = None) -> None:
        """Add ``value`` to counter ``name`` on ``rank``.

        Every increment is also timestamped, so exporters can render
        counters as time series (Chrome ``ph: "C"`` lanes).
        """
        if not self.enabled:
            return
        buf = self._buf()
        r = rank if rank is not None else buf.rank
        key = (r, name)
        buf.counters[key] = buf.counters.get(key, 0) + value
        buf.samples.append((self._clock(), r, name, value))

    def record_report(self, report: Any, *, rank: int | None = None) -> None:
        """Fold a :class:`~repro.faults.ResilienceReport` into the stream.

        Each resilience event becomes an instant of the same kind
        (``integrity-failure``, ``retry``, ``degrade``, …); the retry /
        degradation / retransmission tallies feed the typed counters.
        """
        if not self.enabled or report is None:
            return
        r = rank if rank is not None else (report.rank if report.rank >= 0 else None)
        for event in report.events:
            self.instant(
                event.kind,
                rank=r,
                peer=event.peer,
                attempt=event.attempt,
                codec=event.codec or "",
                detail=event.detail,
            )
        for name, value in (
            ("retries", report.retries),
            ("degradations", report.degradations),
            ("retransmissions", report.retransmissions),
        ):
            if value:
                self.incr(name, value, rank=r)

    # -- export-side accessors ------------------------------------------------------

    def _all_buffers(self) -> list[_ThreadBuffer]:
        with self._lock:
            return list(self._buffers)

    def span_events(self) -> list[SpanEvent]:
        """All closed spans, merged across threads, ordered by start time."""
        events = [s for buf in self._all_buffers() for s in buf.spans]
        events.sort(key=lambda s: s.t0_ns)
        return events

    def instant_events(self) -> list[InstantEvent]:
        """All point events, merged across threads, ordered by timestamp."""
        events = [i for buf in self._all_buffers() for i in buf.instants]
        events.sort(key=lambda i: i.ts_ns)
        return events

    def counters(self) -> dict[tuple[int, str], float]:
        """Merged ``(rank, name) -> value`` counter map."""
        out: dict[tuple[int, str], float] = {}
        for buf in self._all_buffers():
            for key, value in buf.counters.items():
                out[key] = out.get(key, 0) + value
        return out

    def counter_total(self, name: str) -> float:
        """Sum of counter ``name`` across all ranks."""
        return sum(v for (_, n), v in self.counters().items() if n == name)

    def counter_samples(self) -> list[tuple[int, int, str, float]]:
        """Timestamped counter increments ``(ts_ns, rank, name, delta)``.

        Merged across threads, ordered by timestamp.
        """
        samples = [s for buf in self._all_buffers() for s in buf.samples]
        samples.sort(key=lambda s: s[0])
        return samples

    def ranks(self) -> list[int]:
        """Sorted ranks that recorded at least one event or counter."""
        seen: set[int] = set()
        for buf in self._all_buffers():
            seen.update(s.rank for s in buf.spans)
            seen.update(i.rank for i in buf.instants)
            seen.update(r for r, _ in buf.counters)
        return sorted(seen)

    def absorb(
        self,
        *,
        spans: Sequence[SpanEvent] = (),
        instants: Sequence[InstantEvent] = (),
        counters: dict[tuple[int, str], float] | None = None,
        samples: Sequence[tuple[int, int, str, float]] = (),
    ) -> None:
        """Merge events recorded elsewhere into this tracer.

        The process runtime uses this to fold each rank's spooled trace
        back into the parent's tracer: spans/instants/samples append,
        counters add.  Timestamps are assumed
        comparable with this tracer's clock (true for
        ``perf_counter_ns`` across processes on one Linux machine).
        """
        buf = self._buf()
        buf.spans.extend(spans)
        buf.instants.extend(instants)
        if counters:
            for key, value in counters.items():
                buf.counters[key] = buf.counters.get(key, 0) + value
        buf.samples.extend(samples)

# -- module-level active tracer -------------------------------------------------------

_active: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The installed tracer, or ``None`` when tracing is off."""
    return _active


def install(tracer: Tracer | None) -> None:
    """Install ``tracer`` as the process-global active tracer."""
    global _active
    _active = tracer


def uninstall() -> None:
    """Turn tracing off (equivalent to ``install(None)``)."""
    install(None)


@contextmanager
def tracing(**kwargs: Any) -> Iterator[Tracer]:
    """Run a block under a fresh installed tracer; restores the previous one."""
    tracer = Tracer(**kwargs)
    previous = _active
    install(tracer)
    try:
        yield tracer
    finally:
        install(previous)


def span(kind: str, *, rank: int | None = None, **attrs: Any):
    """Open a span on the active tracer (no-op context when disabled)."""
    t = _active
    return NULL_SPAN if t is None else t.span(kind, rank=rank, **attrs)


def incr(name: str, value: float = 1, *, rank: int | None = None) -> None:
    """Bump a typed counter on the active tracer (no-op when disabled)."""
    t = _active
    if t is not None:
        t.incr(name, value, rank=rank)


def bind_rank(rank: int) -> None:
    """Bind the calling thread to ``rank`` on the active tracer."""
    t = _active
    if t is not None:
        t.bind_rank(rank)


def record_report(report: Any, *, rank: int | None = None) -> None:
    """Fold a resilience report into the active tracer's stream."""
    t = _active
    if t is not None:
        t.record_report(report, rank=rank)
