"""Rank-failure drills behind ``python -m repro resilience``.

Runs a forward+inverse 3-D FFT with a process fault injected
mid-reshape — a ``kill`` (fail-stop crash) or a ``hang`` (wedged,
beacon-silent rank) — and exercises the whole recovery story from
DESIGN.md §10/§14: heartbeat detection, liveness agreement, shrink to
the survivors, and checkpointed restart.  ``--runtime thread`` (the
default) injects into rank threads; ``--runtime proc`` forks one OS
process per rank and the kill drill delivers a *real* ``SIGKILL`` to
the victim's pid.  Artefacts:

* ``failure_report_<kind>.json`` — the structured
  :class:`~repro.resilience.monitor.FailureReport` (who died, how it was
  classified, and the detect → agree → shrink → restart timeline);
* ``trace_resilience_<kind>.json`` — Chrome ``trace_event`` stream with
  the recovery-phase spans alongside the FFT's compute/exchange spans;
* ``blackbox_<kind>.json`` — the drill world's black-box dump: its
  flight ring's detect → agree → shrink → restart story, no tracer
  needed;
* a text summary (stdout) per drill.

The drill fails (non-zero exit) unless the shrunk run completes, the
roundtrip error stays within the codec tolerance, and the report's
recovery-phase sequence is complete.
"""

from __future__ import annotations

import json
import os
from typing import Any

import numpy as np

from repro.resilience.monitor import FailureReport

__all__ = ["run_resilience_cli", "run_drill", "DRILL_KINDS"]

DRILL_KINDS = ("kill", "hang")


def _drill(
    kind: str,
    *,
    nranks: int = 4,
    n: int = 16,
    e_tol: float = 1e-6,
    victim: int = 1,
    after: int = 12,
    seed: int = 0,
    timeout: float = 15.0,
    suspect_after: float = 0.5,
    runtime: str = "thread",
) -> tuple[bool, float, FailureReport | None, str, Any]:
    """One fault drill; returns ``(ok, rel_error, report, summary_text,
    world)``.

    ``after`` counts the victim's transport operations before the fault
    fires, placing the death mid-reshape rather than at the first send.
    ``runtime`` picks the execution substrate: with ``"proc"`` the
    victim is a forked OS process and a kill drill SIGKILLs its real
    pid.
    """
    from repro.faults import FaultPlan, FaultRule
    from repro.resilience.checkpoint import ResilientFft3d
    from repro.runtime import RUNTIMES, make_world

    if kind not in DRILL_KINDS:
        raise ValueError(f"unknown drill kind {kind!r}; expected one of {DRILL_KINDS}")
    if runtime not in RUNTIMES:
        raise ValueError(f"unknown runtime {runtime!r}; expected one of {RUNTIMES}")
    if not 0 <= victim < nranks:
        raise ValueError(f"victim rank {victim} out of range [0, {nranks})")

    shape = (n, n, n)
    rng = np.random.default_rng(2024 + seed)
    data = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        np.complex128
    )
    plan = FaultPlan(
        seed=seed, rules=[FaultRule(kind=kind, rank=victim, after=after)]
    )
    fft = ResilientFft3d(shape, nranks, e_tol=e_tol)

    def kernel(comm):
        local = fft.plan.scatter(data)[comm.rank]
        fwd = fft.run_spmd(comm, local)
        back = fft.run_spmd(fwd.comm, fwd.block, inverse=True)
        blocks = back.comm.allgather(back.block)
        if back.comm.rank != 0:
            return None
        report = back.report or fwd.report
        return back.plan.gather(blocks), (fwd.recovered or back.recovered), report

    world = make_world(
        runtime, nranks, timeout=timeout, faults=plan, suspect_after=suspect_after
    )
    results = [r for r in world.run(kernel) if r is not None]
    if not results:
        return False, float("inf"), None, f"{kind}: no surviving rank returned a result", world
    full, recovered, report = results[0]
    err = float(np.max(np.abs(full - data)) / np.max(np.abs(data)))
    tol = fft.plan.guaranteed_tolerance
    seq_ok = report is not None and report.phase_sequence_complete()
    ok = recovered and err <= tol and seq_ok
    lines = [
        f"--- drill: {kind} rank {victim} after {after} ops "
        f"({nranks} {runtime} ranks, {n}^3 grid, e_tol={e_tol:g}) ---",
        f"recovered:          {recovered}",
        f"roundtrip rel err:  {err:.3e} (tolerance {tol:.3e})",
        f"phase sequence ok:  {seq_ok}",
    ]
    if report is not None:
        lines.append(report.summary())
    return ok, err, report, "\n".join(lines), world


def run_drill(kind: str, **options: Any) -> tuple[bool, float, FailureReport | None, str]:
    """One fault drill; returns ``(ok, rel_error, report, summary_text)``
    (``options``: those of :func:`_drill`)."""
    return _drill(kind, **options)[:4]


def run_resilience_cli(
    *,
    kind: str = "both",
    nranks: int = 4,
    n: int = 16,
    e_tol: float = 1e-6,
    victim: int = 1,
    after: int = 12,
    seed: int = 0,
    timeout: float = 15.0,
    suspect_after: float = 0.5,
    runtime: str = "thread",
    out: str | None = ".",
) -> int:
    """Run the requested drills, write artefacts, return the exit code."""
    from repro.trace.core import Tracer, install, uninstall
    from repro.trace.export import write_chrome_trace

    from repro.telemetry.blackbox import write_blackbox

    kinds = DRILL_KINDS if kind == "both" else (kind,)
    all_ok = True
    for k in kinds:
        tracer = Tracer()
        install(tracer)
        try:
            ok, _err, report, text, world = _drill(
                k,
                nranks=nranks,
                n=n,
                e_tol=e_tol,
                victim=victim,
                after=after,
                seed=seed,
                timeout=timeout,
                suspect_after=suspect_after,
                runtime=runtime,
            )
        finally:
            uninstall()
        print(text)
        if out is not None:
            os.makedirs(out, exist_ok=True)
            trace_path = os.path.join(out, f"trace_resilience_{k}.json")
            write_chrome_trace(tracer, trace_path)
            print(f"chrome trace:       {trace_path}")
            if report is not None:
                report_path = os.path.join(out, f"failure_report_{k}.json")
                with open(report_path, "w", encoding="utf-8") as fh:
                    json.dump(report.to_json(), fh, indent=2, sort_keys=True)
                print(f"failure report:     {report_path}")
            # The drill world's flight ring: the detect/agree/shrink/restart
            # timeline with no Tracer needed.
            dump = world.blackbox(f"resilience drill: {k}", report)
            bb_path = os.path.join(out, f"blackbox_{k}.json")
            write_blackbox(dump, bb_path)
            print(f"black-box dump:     {bb_path}")
        print("result:             " + ("PASS" if ok else "FAIL"))
        print()
        all_ok = all_ok and ok
    return 0 if all_ok else 1
