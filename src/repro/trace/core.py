"""Per-rank tracing: spans, instants and typed counters, one record each.

The measurement substrate every perf claim reports through.  Every
event is one :class:`Record` ``(ph, kind, rank, t0_ns, t1_ns, depth,
attrs)``; every view (spans, counter totals, the exporters, the perf
analyses) reads the one list.  Three design constraints drive the shape
of this module:

* **per-rank attribution** — every event carries the rank it happened
  on.  SPMD threads bind their rank once (``ThreadWorld.run`` does it
  automatically) and all spans/counters opened on that thread inherit
  it; the virtual executor, which runs every rank in one thread, passes
  ``rank=`` explicitly per event.
* **thread safety** — each thread appends to its own record list
  (created lazily, registered under a lock); the lists are merged only
  at export time, so the hot path takes no locks.
* **no cost when nothing listens** — the module-level helpers
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
from typing import Any, Iterator, NamedTuple, Sequence

__all__ = [
    "SPAN_KINDS",
    "COUNTER_KINDS",
    "Record",
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


class Record(NamedTuple):
    """One traced event on one rank.

    ``ph`` is Chrome's phase name: ``"X"`` is a span, ``"i"`` an instant
    (``t1_ns == t0_ns``) and ``"C"`` a counter increment of counter
    ``kind``, whose ``attrs`` is the delta.  ``depth`` is the span
    nesting depth of the recording thread at the event.
    """

    ph: str
    kind: str
    rank: int
    t0_ns: int
    t1_ns: int
    depth: int
    attrs: Any

    @property
    def duration_ns(self) -> int:
        return self.t1_ns - self.t0_ns


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
    """One thread's records; merged by the tracer at export time."""

    __slots__ = ("rank", "depth", "records")

    def __init__(self) -> None:
        self.rank = -1  # unbound until bind_rank()
        self.depth = 0
        self.records: list[Record] = []


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
        buf.records.append(Record("X", self._kind, rank, self._t0, t1, self._depth, self._attrs))
        return False


class Tracer:
    """Per-process trace collector; one instance per measured run.

    Every event is one :class:`Record` appended to the recording
    thread's list; ``clock`` is the nanosecond monotonic clock
    (overridable for deterministic tests).
    """

    def __init__(self, *, clock=time.perf_counter_ns) -> None:
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

    def _record(self, ph: str, kind: str, rank: int | None, t0: int, t1: int, attrs: Any) -> None:
        buf = self._buf()
        r = rank if rank is not None else buf.rank
        buf.records.append(Record(ph, kind, r, t0, t1, buf.depth, attrs))

    def bind_rank(self, rank: int) -> None:
        """Attribute this thread's subsequent events to ``rank``."""
        self._buf().rank = int(rank)

    def span(self, kind: str, *, rank: int | None = None, **attrs: Any) -> _Span:
        """Open a nestable span; use as a context manager."""
        return _Span(self, self._buf(), kind, rank, attrs)

    def instant(self, kind: str, *, rank: int | None = None, **attrs: Any) -> None:
        """Record a point event."""
        now = self._clock()
        self._record("i", kind, rank, now, now, attrs)

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
        t1 = self._clock()
        self._record("X", kind, rank, t1 - max(0, int(duration_ns)), t1, attrs)

    def incr(self, name: str, value: float = 1, *, rank: int | None = None) -> None:
        """Add ``value`` to counter ``name`` on ``rank`` (one timestamped
        ``"C"`` record, so exporters can render counters as time series)."""
        now = self._clock()
        self._record("C", name, rank, now, now, value)

    def record_report(self, report: Any, *, rank: int | None = None) -> None:
        """Fold a :class:`~repro.faults.ResilienceReport` into the stream.

        Each resilience event becomes an instant of the same kind
        (``integrity-failure``, ``retry``, ``degrade``, …); the retry /
        degradation / retransmission tallies feed the typed counters.
        """
        if report is None:
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

    def records(self, ph: str | None = None) -> list[Record]:
        """Every record (of phase ``ph``, if given), merged across
        threads, ordered by start time."""
        with self._lock:
            buffers = list(self._buffers)
        out = [r for buf in buffers for r in buf.records if ph is None or r.ph == ph]
        out.sort(key=lambda r: r.t0_ns)
        return out

    def span_events(self) -> list[Record]:
        """All closed spans, ordered by start time."""
        return self.records("X")

    def counters(self) -> dict[tuple[int, str], float]:
        """``(rank, name) -> value``: the ``"C"`` records folded."""
        out: dict[tuple[int, str], float] = {}
        for r in self.records("C"):
            key = (r.rank, r.kind)
            out[key] = out.get(key, 0) + r.attrs
        return out

    def counter_total(self, name: str) -> float:
        """Sum of counter ``name`` across all ranks."""
        return sum(v for (_, n), v in self.counters().items() if n == name)

    def ranks(self) -> list[int]:
        """Sorted ranks that recorded at least one event."""
        return sorted({r.rank for r in self.records()})

    def absorb(self, records: Sequence[Record]) -> None:
        """Merge records made elsewhere into this tracer.

        The process launcher folds each forked rank's records in with
        this.  Timestamps are assumed comparable with this tracer's
        clock (true for ``perf_counter_ns`` across processes on one
        Linux machine).
        """
        self._buf().records.extend(records)


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
    """Open a span on the active tracer (a no-op context without one)."""
    t = _active
    return NULL_SPAN if t is None else t.span(kind, rank=rank, **attrs)


def incr(name: str, value: float = 1, *, rank: int | None = None) -> None:
    """Bump a typed counter on the active tracer (a no-op without one)."""
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
