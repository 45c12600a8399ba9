"""Fixed microbench suite, baseline recording and the regression gate.

``record`` runs a pinned suite (three all-to-all variants + one
compressed 3-D FFT plan, all on the thread runtime) and writes a
schema-versioned ``BENCH_<name>.json``; ``compare`` replays the suite
and gates against a committed baseline with noise-robust statistics:

* **median-of-k** repeats (k = 5 by default) — robust to one-off
  scheduler hiccups;
* **machine calibration** — every recording also times a fixed NumPy
  workload and stores it; comparisons score *calibrated* medians
  (``median / calibration``), so a baseline recorded on one machine
  remains meaningful on a faster or slower one;
* **MAD guard** — a case only regresses when the calibrated ratio
  exceeds ``1 + rel_tol`` *and* the absolute calibrated slowdown
  clears ``mad_mult×`` the combined median-absolute-deviations, so
  MAD-level noise can never trip the gate.
"""

from __future__ import annotations

import platform
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.trace.core import Tracer, install, uninstall
from repro.trace.export import span_aggregates

__all__ = [
    "BENCH_PERF_SCHEMA",
    "SUITE_CASES",
    "calibration_s",
    "run_suite",
    "record_payload",
    "CaseComparison",
    "CompareResult",
    "compare_payloads",
    "format_comparison",
]

#: Schema identifier of perf-gate baselines; bump on layout changes.
BENCH_PERF_SCHEMA = "repro-perf-bench-v1"

#: Default repeat count (median-of-k).
DEFAULT_REPEATS = 5
#: Calibrated-ratio slack before a case can regress (50 % slowdown).
DEFAULT_REL_TOL = 0.5
#: The absolute slowdown must also clear this many combined MADs.
DEFAULT_MAD_MULT = 5.0

_SUITE_NRANKS = 4
_SUITE_ITEMS = 4096
_SUITE_FFT_N = 12
_SUITE_E_TOL = 1e-6


# -- suite cases ------------------------------------------------------------------------


def _alltoall_kernel(op_call: Callable, seed: int):
    """Build an SPMD kernel exchanging seeded random blocks."""

    def kernel(comm):
        rng = np.random.default_rng(seed * 1009 + comm.rank)
        send = [rng.standard_normal(_SUITE_ITEMS) for _ in range(comm.size)]
        op_call(comm, send)

    return kernel


def _case_alltoall_osc(seed: int, runtime: str = "thread") -> None:
    from repro.collectives.osc import osc_alltoallv
    from repro.runtime import make_world

    make_world(runtime, _SUITE_NRANKS).run(
        _alltoall_kernel(lambda comm, send: osc_alltoallv(comm, send), seed)
    )


def _case_alltoall_pairwise(seed: int, runtime: str = "thread") -> None:
    from repro.collectives.pairwise import pairwise_alltoallv
    from repro.runtime import make_world

    make_world(runtime, _SUITE_NRANKS).run(
        _alltoall_kernel(lambda comm, send: pairwise_alltoallv(comm, send), seed)
    )


def _case_alltoall_compressed(seed: int, runtime: str = "thread") -> None:
    from repro.collectives.compressed import CompressedOscAlltoallv
    from repro.compression.selection import codec_for_tolerance
    from repro.runtime import make_world

    codec = codec_for_tolerance(_SUITE_E_TOL, 1, n=1)  # one bare exchange

    def call(comm, send):
        op = CompressedOscAlltoallv(comm, codec, pipeline_chunks=4)
        try:
            op(send)
        finally:
            op.free()

    make_world(runtime, _SUITE_NRANKS).run(_alltoall_kernel(call, seed))


def _case_fft_compressed(seed: int, runtime: str = "thread") -> None:
    from repro.fft.plan import Fft3d
    from repro.runtime import make_world

    n = _SUITE_FFT_N
    plan = Fft3d((n, n, n), _SUITE_NRANKS, e_tol=_SUITE_E_TOL)
    rng = np.random.default_rng(seed * 1013 + 7)
    x = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    locals_ = plan.scatter(x)
    make_world(runtime, _SUITE_NRANKS).run(
        lambda comm: plan.forward_spmd(comm, locals_[comm.rank])
    )


#: The pinned suite: name -> runner(seed, runtime).  Order is the report order.
SUITE_CASES: dict[str, Callable[..., None]] = {
    "alltoall-osc": _case_alltoall_osc,
    "alltoall-pairwise": _case_alltoall_pairwise,
    "alltoall-compressed-pipelined": _case_alltoall_compressed,
    "fft-compressed": _case_fft_compressed,
}


# -- recording --------------------------------------------------------------------------


def calibration_s(repeats: int = 5) -> float:
    """Median time of a fixed NumPy workload (the machine-speed probe)."""
    x = np.linspace(0.0, 1.0, 1 << 16)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(8):
            np.fft.fft(x)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _mad(values: list[float]) -> float:
    med = statistics.median(values)
    return statistics.median([abs(v - med) for v in values])


def run_suite(
    *,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 0,
    slowdown: float = 1.0,
    runtime: str = "thread",
) -> dict[str, dict[str, Any]]:
    """Run every suite case ``repeats`` times; return per-case documents.

    Timing repeats run untraced (no tracer in the path); one extra
    traced repeat collects span aggregates, counters and the overlap
    fraction for the payload.  ``slowdown`` (> 1) sleeps that multiple
    of each measured repeat — a test hook to simulate a regression
    without changing the code under test.  ``runtime`` selects the
    execution substrate for every case (the committed gate baseline was
    recorded on ``thread``; compare like against like).
    """
    from repro.perf.overlap import overlap_report

    out: dict[str, dict[str, Any]] = {}
    for name, runner in SUITE_CASES.items():
        times: list[float] = []
        for rep in range(repeats):
            t0 = time.perf_counter()
            runner(seed + rep, runtime)
            elapsed = time.perf_counter() - t0
            if slowdown > 1.0:
                time.sleep(elapsed * (slowdown - 1.0))
                elapsed *= slowdown
            times.append(elapsed)
        tracer = Tracer()
        install(tracer)
        try:
            runner(seed, runtime)
        finally:
            uninstall()
        overlap = overlap_report(tracer)
        out[name] = {
            "times_s": times,
            "median_s": statistics.median(times),
            "mad_s": _mad(times),
            "spans": span_aggregates(tracer),
            "counters": {
                "wire_bytes": tracer.counter_total("wire_bytes"),
                "logical_bytes": tracer.counter_total("logical_bytes"),
                "messages": tracer.counter_total("messages"),
            },
            "overlap_fraction": overlap.fraction if overlap.codec_s > 0 else None,
        }
    return out


def record_payload(
    name: str,
    *,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 0,
    slowdown: float = 1.0,
    runtime: str = "thread",
) -> dict[str, Any]:
    """Build the full ``BENCH_<name>.json`` document for one recording."""
    calib = calibration_s()
    return {
        "schema": BENCH_PERF_SCHEMA,
        "name": name,
        "unix_time": time.time(),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "seed": seed,
        "repeats": repeats,
        "runtime": runtime,
        "calibration_s": calib,
        "cases": run_suite(repeats=repeats, seed=seed, slowdown=slowdown, runtime=runtime),
    }


# -- comparison (the gate) --------------------------------------------------------------


@dataclass
class CaseComparison:
    """One case's verdict: calibrated medians, ratio, and the gate logic."""

    case: str
    baseline_s: float
    current_s: float
    baseline_norm: float  # median / calibration of its own recording
    current_norm: float
    noise_norm: float  # combined calibrated MADs
    rel_tol: float
    mad_mult: float
    missing: bool = False

    @property
    def ratio(self) -> float:
        return self.current_norm / self.baseline_norm if self.baseline_norm > 0 else float("inf")

    @property
    def regressed(self) -> bool:
        if self.missing:
            return True
        if self.ratio <= 1.0 + self.rel_tol:
            return False
        # MAD guard: the slowdown must clear the measured noise floor.
        return (self.current_norm - self.baseline_norm) > self.mad_mult * self.noise_norm


@dataclass
class CompareResult:
    """Gate outcome over the whole suite."""

    baseline_name: str
    current_name: str
    cases: list[CaseComparison] = field(default_factory=list)
    new_cases: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[CaseComparison]:
        return [c for c in self.cases if c.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_payloads(
    current: dict[str, Any],
    baseline: dict[str, Any],
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    mad_mult: float = DEFAULT_MAD_MULT,
) -> CompareResult:
    """Score a fresh recording against a baseline recording.

    Both payloads must be :data:`BENCH_PERF_SCHEMA` documents (the gate
    refuses to compare apples to PR-2-era ``repro-bench-v1`` files).  A
    baseline case missing from the current run counts as a regression
    (the bench lost coverage); cases new in the current run are listed
    informationally.
    """
    for doc, label in ((current, "current"), (baseline, "baseline")):
        if doc.get("schema") != BENCH_PERF_SCHEMA:
            raise ValueError(
                f"{label} payload has schema {doc.get('schema')!r}, "
                f"expected {BENCH_PERF_SCHEMA!r}"
            )
    base_calib = float(baseline["calibration_s"]) or 1.0
    cur_calib = float(current["calibration_s"]) or 1.0
    result = CompareResult(
        baseline_name=str(baseline.get("name", "?")),
        current_name=str(current.get("name", "?")),
    )
    base_cases = baseline.get("cases", {})
    cur_cases = current.get("cases", {})
    for case, base in base_cases.items():
        cur = cur_cases.get(case)
        base_norm = float(base["median_s"]) / base_calib
        if cur is None:
            result.cases.append(
                CaseComparison(
                    case=case,
                    baseline_s=float(base["median_s"]),
                    current_s=float("nan"),
                    baseline_norm=base_norm,
                    current_norm=float("inf"),
                    noise_norm=0.0,
                    rel_tol=rel_tol,
                    mad_mult=mad_mult,
                    missing=True,
                )
            )
            continue
        cur_norm = float(cur["median_s"]) / cur_calib
        noise = float(base.get("mad_s", 0.0)) / base_calib + float(cur.get("mad_s", 0.0)) / cur_calib
        result.cases.append(
            CaseComparison(
                case=case,
                baseline_s=float(base["median_s"]),
                current_s=float(cur["median_s"]),
                baseline_norm=base_norm,
                current_norm=cur_norm,
                noise_norm=noise,
                rel_tol=rel_tol,
                mad_mult=mad_mult,
            )
        )
    result.new_cases = sorted(set(cur_cases) - set(base_cases))
    return result


def format_comparison(result: CompareResult) -> str:
    """Readable gate report, one line per case."""
    lines = [
        f"=== perf gate: {result.current_name} vs baseline {result.baseline_name} ===",
        "case                            base(ms)   cur(ms)   calibrated-ratio   verdict",
    ]
    for c in result.cases:
        if c.missing:
            lines.append(f"{c.case:<30} {c.baseline_s * 1e3:>9.3f}       (missing)        REGRESSION (case dropped)")
            continue
        verdict = "REGRESSION" if c.regressed else "ok"
        lines.append(
            f"{c.case:<30} {c.baseline_s * 1e3:>9.3f} {c.current_s * 1e3:>9.3f} "
            f"{c.ratio:>12.2f}x       {verdict}"
        )
    for case in result.new_cases:
        lines.append(f"{case:<30} (new case — no baseline, informational)")
    lines.append(
        f"{len(result.regressions)} regression(s) out of {len(result.cases)} gated case(s)"
        if result.cases
        else "(baseline has no cases — nothing gated)"
    )
    return "\n".join(lines)
