"""Overlap attribution and achieved-vs-model bandwidth per link class.

The paper's core pipelining claim (Alg. 3, Fig. 3) is that codec time
is *hidden* behind communication: compress chunk ``k+1`` while chunk
``k`` is in flight, so the exchange pays for the wire, not the codec.
This module measures that on a traced run:

* :func:`overlap_report` — for every rank, the fraction of its
  compress/decompress wall time that ran **concurrently with
  communication being in flight anywhere in the exchange** (puts,
  fences, sendrecvs).  On the thread runtime ranks genuinely overlap,
  so a pipelined compressed ``SlotExchange`` shows hidden codec time;
  on the single-threaded virtual executor the fraction is honestly 0.
* :func:`bandwidth_report` — achieved GB/s of the traced ``put``/
  ``sendrecv`` spans, grouped by link class (``intra-node`` /
  ``inter-node``) against the :class:`~repro.machine.spec.MachineSpec`
  model bandwidth for that class — inter-node puts are additionally
  scored against the NIC-shared rate (``internode_gbs / gpus_per_node``,
  the ring's steady-state share per Section V-A).

Interval arithmetic (union / pairwise intersection) lives here as plain
functions so the tests can pin hand-computed fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.machine.topology import Topology
from repro.trace.core import SpanEvent, Tracer

__all__ = [
    "COMM_KINDS",
    "CODEC_KINDS",
    "interval_union",
    "intersect_total",
    "RankOverlap",
    "OverlapReport",
    "overlap_report",
    "LinkClassBandwidth",
    "bandwidth_report",
    "format_overlap_report",
    "format_bandwidth_report",
]

#: Span kinds during which bytes are on the wire.
COMM_KINDS = ("put", "fence", "sendrecv")
#: Span kinds that are codec work the pipeline tries to hide.
CODEC_KINDS = ("compress", "decompress")


# -- interval arithmetic ----------------------------------------------------------------


def interval_union(intervals: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge possibly-overlapping [t0, t1) intervals into a disjoint union."""
    merged: list[tuple[int, int]] = []
    for t0, t1 in sorted(i for i in intervals if i[1] > i[0]):
        if merged and t0 <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], t1))
        else:
            merged.append((t0, t1))
    return merged


def intersect_total(a: Sequence[tuple[int, int]], b: Sequence[tuple[int, int]]) -> int:
    """Total measure of the intersection of two *disjoint-sorted* unions."""
    total = 0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


# -- overlap ----------------------------------------------------------------------------


@dataclass
class RankOverlap:
    """One rank's codec-hiding accounting (all times in seconds)."""

    rank: int
    codec_s: float
    hidden_s: float
    comm_s: float  # this rank's own wire time

    @property
    def fraction(self) -> float:
        """Hidden share of codec time; 1.0 when there is nothing to hide."""
        return self.hidden_s / self.codec_s if self.codec_s > 0 else 1.0


@dataclass
class OverlapReport:
    """Exchange-wide pipelining metric (the paper's Fig. 3 argument)."""

    per_rank: dict[int, RankOverlap] = field(default_factory=dict)

    @property
    def codec_s(self) -> float:
        return sum(r.codec_s for r in self.per_rank.values())

    @property
    def hidden_s(self) -> float:
        return sum(r.hidden_s for r in self.per_rank.values())

    @property
    def fraction(self) -> float:
        """Overall fraction of codec time hidden behind communication."""
        total = self.codec_s
        return self.hidden_s / total if total > 0 else 1.0


def _span_events(source: Tracer | Iterable[SpanEvent]) -> list[SpanEvent]:
    if isinstance(source, Tracer):
        return source.span_events()
    return list(source)


def overlap_report(source: Tracer | Iterable[SpanEvent]) -> OverlapReport:
    """Compute per-rank and total hidden-codec-time fractions.

    A rank's codec span is "hidden" where it intersects the union of
    *communication* spans of the whole run (any rank): during that time
    the wire was busy, so the codec work did not extend the exchange.
    A rank's own comm spans never overlap its own codec spans (one
    thread does one thing at a time), so the signal is genuinely the
    cross-rank pipelining the fenced ring creates.
    """
    events = _span_events(source)
    comm_union = interval_union(
        (s.t0_ns, s.t1_ns) for s in events if s.kind in COMM_KINDS
    )
    report = OverlapReport()
    ranks = sorted({s.rank for s in events})
    for rank in ranks:
        codec = interval_union(
            (s.t0_ns, s.t1_ns) for s in events if s.rank == rank and s.kind in CODEC_KINDS
        )
        own_comm = interval_union(
            (s.t0_ns, s.t1_ns) for s in events if s.rank == rank and s.kind in COMM_KINDS
        )
        codec_ns = sum(t1 - t0 for t0, t1 in codec)
        if codec_ns == 0 and not own_comm:
            continue  # rank did neither codec nor wire work: nothing to report
        hidden_ns = intersect_total(codec, comm_union)
        report.per_rank[rank] = RankOverlap(
            rank=rank,
            codec_s=codec_ns * 1e-9,
            hidden_s=hidden_ns * 1e-9,
            comm_s=sum(t1 - t0 for t0, t1 in own_comm) * 1e-9,
        )
    return report


# -- bandwidth per link class -----------------------------------------------------------


@dataclass
class LinkClassBandwidth:
    """Achieved vs. modelled bandwidth of one link class."""

    link: str  # "intra-node" | "inter-node"
    bytes: int
    busy_s: float
    model_gbs: float
    #: inter-node only: the per-rank share of a node's NIC (Section V-A)
    nic_shared_gbs: float | None = None

    @property
    def achieved_gbs(self) -> float:
        return self.bytes / self.busy_s / 1e9 if self.busy_s > 0 else 0.0

    @property
    def model_ratio(self) -> float:
        """achieved / modelled (>1 means faster than the machine model)."""
        return self.achieved_gbs / self.model_gbs if self.model_gbs > 0 else 0.0


def bandwidth_report(
    source: Tracer | Iterable[SpanEvent], topology: Topology
) -> dict[str, LinkClassBandwidth]:
    """Group wire spans by link class and score against the machine model.

    Uses each ``put``/``sendrecv`` span's ``peer`` and ``bytes`` attrs;
    spans without both are skipped (fences move no payload).  The
    *model* rate comes from ``topology.machine.network``: intra-node
    spans against ``intranode_gbs``, inter-node against ``internode_gbs``
    with the NIC-shared per-rank rate alongside.  No exchange puts or
    sends a rank's own block, so there is no self class.
    """
    from repro.netsim.tools import model_link_bandwidth_gbs

    spec = topology.machine
    classes: dict[str, LinkClassBandwidth] = {}

    def _slot(link: str) -> LinkClassBandwidth:
        if link not in classes:
            nic = model_link_bandwidth_gbs(spec, "nic-shared") if link == "inter-node" else None
            classes[link] = LinkClassBandwidth(
                link=link,
                bytes=0,
                busy_s=0.0,
                model_gbs=model_link_bandwidth_gbs(spec, link),
                nic_shared_gbs=nic,
            )
        return classes[link]

    for s in _span_events(source):
        if s.kind not in ("put", "sendrecv"):
            continue
        peer = s.attrs.get("peer")
        nbytes = s.attrs.get("bytes")
        if peer is None or nbytes is None:
            continue
        peer = int(peer)
        if not (0 <= s.rank < topology.nranks and 0 <= peer < topology.nranks):
            continue
        link = "intra-node" if topology.same_node(s.rank, peer) else "inter-node"
        slot = _slot(link)
        slot.bytes += int(nbytes)
        slot.busy_s += s.duration_ns * 1e-9
    return classes


# -- formatting -------------------------------------------------------------------------


def format_overlap_report(report: OverlapReport) -> str:
    """Readable overlap table (empty-safe)."""
    if not report.per_rank:
        return "(no codec or wire spans recorded — nothing to attribute)"
    lines = [
        "rank   codec(ms)   hidden(ms)   hidden%    own-wire(ms)",
    ]
    for rank, r in sorted(report.per_rank.items()):
        lines.append(
            f"{rank:>4} {r.codec_s * 1e3:>11.3f} {r.hidden_s * 1e3:>12.3f} "
            f"{100.0 * r.fraction:>8.1f}% {r.comm_s * 1e3:>14.3f}"
        )
    lines.append(
        f"total codec {report.codec_s * 1e3:.3f} ms, hidden "
        f"{report.hidden_s * 1e3:.3f} ms ({100.0 * report.fraction:.1f}% "
        "of codec time overlapped with in-flight communication)"
    )
    return "\n".join(lines)


def format_bandwidth_report(classes: dict[str, LinkClassBandwidth]) -> str:
    """Readable link-class bandwidth table (empty-safe)."""
    if not classes:
        return "(no wire spans with peer/bytes attrs — no bandwidth to report)"
    lines = ["link class     bytes        busy(ms)   achieved(GB/s)  model(GB/s)  ratio"]
    for link in ("intra-node", "inter-node"):
        c = classes.get(link)
        if c is None:
            continue
        model = f"{c.model_gbs:.1f}"
        if c.nic_shared_gbs is not None:
            model += f" ({c.nic_shared_gbs:.1f}/rank NIC-shared)"
        lines.append(
            f"{c.link:<12} {c.bytes:>10d} {c.busy_s * 1e3:>13.3f} "
            f"{c.achieved_gbs:>14.3f}  {model:<22} {c.model_ratio:>6.3f}"
        )
    return "\n".join(lines)
