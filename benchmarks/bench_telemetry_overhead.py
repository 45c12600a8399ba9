"""Always-on telemetry must cost < 5% of FFT wall-clock.

The flight ring, the live rows and the metrics registry are armed
in production with no opt-in — the whole design rests on the
instrumentation being cheap enough to leave on.  This bench times the
same compressed 3-D FFT loop with telemetry enabled (the default) and
with ``recorder.configure(enabled=False)`` (one attribute load + branch
per site, the cheapest "off" we offer), and asserts the enabled run is
within ``REPRO_TELEMETRY_OVERHEAD_PCT`` (default 5.0) percent.  The
estimate compares trimmed means over interleaved, order-alternated
pairs, which cancels the box-load drift and preemption spikes that
dominate shared CI runners.

Each unit starts a world, builds and binds the plan and scatters the
input, so the gated figure dilutes what telemetry costs a reshape.  The
JSON also carries ``steady_state``: the same estimate over warm
transforms of one bound plan only.  It is reported, not gated.

Run as a script (CI does)::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py [out.json]

or through pytest (``pytest benchmarks/bench_telemetry_overhead.py``).
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

NRANKS = 4
N = 48  # 48^3 grid: compute-dominated like a real run (the paper's are
#         512^3+), so the constant per-round instrumentation cost is
#         measured against actual work rather than micro-exchange
#         latency — and each timed unit is long enough (~200 ms) that
#         scheduler noise doesn't swamp a single base/instrumented pair
ITERS = 4  # transforms per repeat
REPEATS = 25  # interleaved pairs, trimmed-mean estimate
TRIM = 5  # samples dropped from each end of each series before the mean
OVERHEAD_PCT = float(os.environ.get("REPRO_TELEMETRY_OVERHEAD_PCT", "5.0"))


def _fft_workload() -> float:
    """One timed unit: ITERS compressed forward transforms on a ThreadWorld."""
    from repro.fft import Fft3d
    from repro.runtime.thread_rt import ThreadWorld

    rng = np.random.default_rng(11)
    shape = (N, N, N)
    data = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        np.complex128
    )
    fft = Fft3d(shape, NRANKS, e_tol=1e-6)

    def kernel(comm):
        local = fft.scatter(data)[comm.rank]
        for _ in range(ITERS):
            out = fft.forward_spmd(comm, local)
        return float(np.abs(out).sum())

    t0 = time.perf_counter()
    ThreadWorld(NRANKS, timeout=120.0).run(kernel)
    return time.perf_counter() - t0


def _steady_state() -> dict:
    """The per-transform cost alone: one world, one bound and warm plan,
    ``REPEATS`` interleaved, order-alternated pairs of ``ITERS`` warm
    transforms with telemetry disarmed and armed (rank 0 flips the switch
    between barriers).  Nothing here is gated: the whole-unit figure above
    also times world start, plan construction, scatter and binding, which
    dilute the per-reshape cost; this one does not."""
    from repro.fft import Fft3d
    from repro.runtime.thread_rt import ThreadWorld
    from repro.telemetry import recorder

    rng = np.random.default_rng(11)
    shape = (N, N, N)
    data = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex128)
    fft = Fft3d(shape, NRANKS, e_tol=1e-6)
    series: dict[bool, list[float]] = {False: [], True: []}

    def kernel(comm):
        local = fft.scatter(data)[comm.rank]
        for _ in range(ITERS):  # bind and warm
            fft.forward_spmd(comm, local)
        for rep in range(REPEATS):
            for enabled in (False, True) if rep % 2 == 0 else (True, False):
                if comm.rank == 0:
                    recorder.configure(enabled=enabled)
                comm.barrier()
                t0 = time.perf_counter()
                for _ in range(ITERS):
                    fft.forward_spmd(comm, local)
                comm.barrier()
                if comm.rank == 0:
                    series[enabled].append((time.perf_counter() - t0) / ITERS)

    try:
        ThreadWorld(NRANKS, timeout=120.0).run(kernel)
    finally:
        recorder.configure(enabled=True)
    base, inst = _trimmed_mean(series[False]), _trimmed_mean(series[True])
    return {
        "baseline_s": series[False],
        "instrumented_s": series[True],
        "trimmed_baseline_s": base,
        "trimmed_instrumented_s": inst,
        "overhead_pct": (inst - base) / base * 100.0,
    }


def _trimmed_mean(series: list[float]) -> float:
    # Scheduler noise on a shared (or single-core) runner is heavy-tailed:
    # a preempted unit reads 2-3x its quiet-window time.  Interleaving
    # spreads those spikes over both series equally; the trimmed mean then
    # drops the spiked samples from each series while still averaging the
    # bulk (lower variance than a median over the same data).
    kept = sorted(series)[TRIM : len(series) - TRIM]
    return sum(kept) / len(kept)


def run_bench() -> dict:
    from repro import telemetry
    from repro.telemetry import recorder

    baseline: list[float] = []
    instrumented: list[float] = []
    try:
        # Warm up both modes (plan caches, thread pools, imports), then
        # interleave base/instrumented pairs so load drift on the box
        # hits both series equally instead of biasing one whole batch.
        # Alternating which mode runs first inside a pair cancels the
        # residual bias a monotone drift puts on the second element.
        recorder.configure(enabled=False)
        _fft_workload()
        recorder.configure(enabled=True)
        _fft_workload()
        for rep in range(REPEATS):
            if rep % 2 == 0:
                recorder.configure(enabled=False)
                baseline.append(_fft_workload())
                recorder.configure(enabled=True)
                instrumented.append(_fft_workload())
            else:
                recorder.configure(enabled=True)
                instrumented.append(_fft_workload())
                recorder.configure(enabled=False)
                baseline.append(_fft_workload())
    finally:
        telemetry.reset()
    base = _trimmed_mean(baseline)
    inst = _trimmed_mean(instrumented)
    overhead_pct = (inst - base) / base * 100.0
    pair_pct = [
        (i - b) / b * 100.0 for b, i in zip(baseline, instrumented)
    ]
    return {
        "bench": "telemetry-overhead",
        "nranks": NRANKS,
        "n": N,
        "iters": ITERS,
        "repeats": REPEATS,
        "baseline_s": baseline,
        "instrumented_s": instrumented,
        "trimmed_baseline_s": base,
        "trimmed_instrumented_s": inst,
        "pair_overhead_pct": pair_pct,
        "overhead_pct": overhead_pct,
        "bound_pct": OVERHEAD_PCT,
        "within_bound": overhead_pct < OVERHEAD_PCT,
        # ungated: warm transforms only (see _steady_state)
        "steady_state": _steady_state(),
    }


def test_telemetry_overhead_under_bound():
    payload = run_bench()
    print(
        f"\ntelemetry overhead: {payload['overhead_pct']:+.2f}% "
        f"(bound {payload['bound_pct']:.1f}%, "
        f"baseline {payload['trimmed_baseline_s']:.3f}s, "
        f"instrumented {payload['trimmed_instrumented_s']:.3f}s)"
    )
    assert payload["within_bound"], (
        f"always-on telemetry costs {payload['overhead_pct']:.2f}% "
        f"(> {payload['bound_pct']:.1f}% bound)"
    )


def main(argv: list[str]) -> int:
    payload = run_bench()
    out = argv[1] if len(argv) > 1 else "BENCH_telemetry_overhead.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwrote {out}")
    print(f"steady state (warm transforms only, ungated): "
          f"{payload['steady_state']['overhead_pct']:+.2f}%")
    if not payload["within_bound"]:
        print(
            f"FAIL: overhead {payload['overhead_pct']:.2f}% exceeds "
            f"{payload['bound_pct']:.1f}% bound"
        )
        return 1
    print(f"PASS: overhead {payload['overhead_pct']:+.2f}% < {payload['bound_pct']:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
