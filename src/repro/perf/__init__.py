"""repro.perf — critical-path, overlap and regression-gate analysis.

The *answering* layer on top of :mod:`repro.trace`'s raw span streams
(see DESIGN.md §9): which phase bounds an exchange
(:mod:`~repro.perf.critical_path`), how much codec time the pipeline
actually hid and how the wire compares to the
:class:`~repro.machine.spec.MachineSpec` model
(:mod:`~repro.perf.overlap`), and the
``python -m repro perf record|compare`` regression gate
(:mod:`~repro.perf.baseline`, :mod:`~repro.perf.cli`).
"""

from repro.perf.baseline import (
    BENCH_PERF_SCHEMA,
    CaseComparison,
    CompareResult,
    SUITE_CASES,
    compare_payloads,
    format_comparison,
    record_payload,
    run_suite,
)
from repro.perf.critical_path import (
    CriticalPath,
    RankTimeline,
    critical_path,
    exchange_paths,
    format_critical_path,
    phase_attribution,
)
from repro.perf.overlap import (
    LinkClassBandwidth,
    OverlapReport,
    RankOverlap,
    bandwidth_report,
    format_bandwidth_report,
    format_overlap_report,
    interval_union,
    intersect_total,
    overlap_report,
)

__all__ = [
    "BENCH_PERF_SCHEMA",
    "SUITE_CASES",
    "CaseComparison",
    "CompareResult",
    "compare_payloads",
    "format_comparison",
    "record_payload",
    "run_suite",
    "CriticalPath",
    "RankTimeline",
    "critical_path",
    "exchange_paths",
    "format_critical_path",
    "phase_attribution",
    "LinkClassBandwidth",
    "OverlapReport",
    "RankOverlap",
    "bandwidth_report",
    "format_bandwidth_report",
    "format_overlap_report",
    "interval_union",
    "intersect_total",
    "overlap_report",
]
