"""Live monitor and crash-dump viewer: ``python -m repro monitor`` / ``blackbox``.

``monitor`` attaches to the flight ring (segment ``t``) of a running
proc-world (found via the runfile directory, or named explicitly with
``--uid``) and renders a per-rank table — phase, wire vs logical bytes,
compression ratio, error headroom and liveness — at a fixed cadence
until the world disappears.

``blackbox`` pretty-prints a ``repro-blackbox-v1`` crash dump.  With
``--drill`` it *produces* one instead: it runs a proc-world FFT,
SIGKILLs a rank mid-run, harvests the victim's flight ring from shared
memory and writes ``BLACKBOX_drill.json`` + metrics artefacts — the CI
telemetry job and the acceptance demo in one command.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any

__all__ = ["render_table", "run_monitor_cli", "run_blackbox_cli"]

_STALE_NS = 2_000_000_000  # no heartbeat for 2 s => rank shown as silent


def _fmt_bytes(v: float) -> str:
    v = float(v)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if v < 1024 or unit == "GiB":
            return f"{v:,.0f}{unit}" if unit == "B" else f"{v:,.1f}{unit}"
        v /= 1024
    return f"{v:,.1f}GiB"  # pragma: no cover


def _liveness(row: dict[str, Any], now_ns: int) -> str:
    if row.get("done"):
        return "done"
    if not row.get("alive"):
        return "-"
    beat = row.get("heartbeat_ns", 0.0)
    if beat and now_ns - beat > _STALE_NS:
        return f"SILENT {(now_ns - beat) / 1e9:.1f}s"
    return "live"


def render_table(live: dict[int, dict[str, Any]], *, uid: str = "?") -> str:
    """One frame of the live monitor: a per-rank metrics table."""
    now_ns = time.perf_counter_ns()
    header = (
        f"{'rank':>4}  {'state':<11} {'phase':<12} {'rounds':>6} "
        f"{'wire':>10} {'logical':>10} {'ratio':>6} {'headroom':>9} "
        f"{'retry':>5} {'degr':>4} {'events':>6}"
    )
    lines = [f"=== repro monitor: world {uid} ({len(live)} ranks) ===", header]
    for rank in sorted(live):
        row = live[rank]
        wire = row.get("wire_bytes", 0.0)
        logical = row.get("logical_bytes", 0.0)
        ratio = logical / wire if wire else 0.0
        headroom = row.get("error_headroom", 0.0)
        e_tol = row.get("e_tol", 0.0)
        headroom_s = f"{headroom:.2e}" if e_tol else "-"
        lines.append(
            f"{rank:>4}  {_liveness(row, now_ns):<11} {row.get('phase', '') or '-':<12} "
            f"{int(row.get('rounds', 0)):>6} {_fmt_bytes(wire):>10} "
            f"{_fmt_bytes(logical):>10} {ratio:>6.2f} {headroom_s:>9} "
            f"{int(row.get('retries', 0)):>5} {int(row.get('degradations', 0)):>4} "
            f"{int(row.get('events', 0)):>6}"
        )
    return "\n".join(lines)


def _resolve_uid(uid: str | None) -> str | None:
    """The uid of the world to watch, or None when nothing runs."""
    from repro.telemetry.shmseg import list_runfiles

    if uid is not None:
        return uid  # a world with no runfile can be watched by name
    runs = list_runfiles()
    return runs[0]["uid"] if runs else None


def run_monitor_cli(
    *,
    uid: str | None = None,
    interval: float = 1.0,
    once: bool = False,
    duration: float | None = None,
    list_only: bool = False,
    stream: Any = None,
) -> int:
    """Tail a live proc-world's flight ring; 0 on clean exit."""
    from multiprocessing import resource_tracker

    from repro.errors import TelemetryError
    from repro.runtime.shm import ShmSegments
    from repro.telemetry.shmseg import ShmTelemetry, list_runfiles

    out = stream if stream is not None else sys.stdout
    if list_only:
        runs = list_runfiles()
        if not runs:
            print("no live worlds advertised", file=out)
            return 1
        for run in runs:
            print(
                f"{run.get('uid')}  pid={run.get('pid')}  "
                f"nranks={run.get('nranks', '?')}",
                file=out,
            )
        return 0

    deadline = None if duration is None else time.monotonic() + duration
    watch_uid = _resolve_uid(uid)
    while watch_uid is None:
        if once or (deadline is not None and time.monotonic() >= deadline):
            print("no live worlds advertised (run with --uid to name one)", file=out)
            return 1
        time.sleep(min(interval, 0.2))
        watch_uid = _resolve_uid(uid)

    try:
        mapping = ShmSegments(watch_uid, None).attach("t")
        # The segment is the live world's: attaching registered it with
        # this process's resource tracker, which would unlink it as
        # "leaked" when the monitor exits.
        resource_tracker.unregister(mapping._shm._name, "shared_memory")
        seg = ShmTelemetry(mapping)
    except (OSError, TelemetryError) as exc:
        print(f"cannot attach: {exc}", file=out)
        return 1
    frames = 0
    try:
        while True:
            print(render_table(seg.live_snapshot(), uid=watch_uid), file=out)
            frames += 1
            if once or (deadline is not None and time.monotonic() >= deadline):
                return 0
            time.sleep(interval)
            print("", file=out)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
    finally:
        seg.mapping.close()


# -- blackbox --------------------------------------------------------------------------


def run_blackbox_drill(
    *,
    nranks: int = 4,
    n: int = 8,
    victim: int = 1,
    seed: int = 0,
    out: str = ".",
) -> tuple[dict[str, Any] | None, str]:
    """Proc-world FFT, SIGKILL the victim mid-run, harvest the dump.

    The victim completes one full forward FFT first so its shm flight
    ring holds real exchange rounds, then dies at the top of the second
    iteration — exactly the "recover a dead child's ring post-mortem"
    scenario the flight recorder exists for.
    """
    import signal as _signal

    import numpy as np

    from repro.errors import ReproError
    from repro.fft.plan import Fft3d, FftStats
    from repro.runtime.proc import ProcessWorld
    from repro.telemetry import blackbox as _bb
    from repro.telemetry import metrics as _metrics

    plan = Fft3d((n, n, n), nranks, e_tol=1e-6)
    rng = np.random.default_rng(2026 + seed)
    x = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    locals_ = plan.scatter(x)

    def kernel(comm):
        stats = FftStats()
        for it in range(2):
            if it == 1 and comm.rank == victim:
                os.kill(os.getpid(), _signal.SIGKILL)
            plan.forward_spmd(comm, locals_[comm.rank], stats=stats)
        return stats

    world = ProcessWorld(nranks, timeout=60.0)
    err_text = ""
    try:
        world.run(kernel)
    except ReproError as exc:
        err_text = str(exc)
    dump = world.last_blackbox
    os.makedirs(out, exist_ok=True)
    paths = []
    if dump is not None:
        path = os.path.join(out, "BLACKBOX_drill.json")
        _bb.write_blackbox(dump, path)
        paths.append(path)
    metrics_path = os.path.join(out, "METRICS_drill.json")
    _metrics.write_snapshot(metrics_path)
    with open(os.path.join(out, "METRICS_drill.prom"), "w", encoding="utf-8") as fh:
        fh.write(_metrics.get_registry().prometheus())
    paths += [metrics_path, metrics_path.replace(".json", ".prom")]
    text = "\n".join(
        [
            f"--- blackbox drill: SIGKILL rank {victim} of {nranks} "
            f"mid-FFT ({n}^3 grid, proc runtime) ---",
            f"world error:  {err_text or '(none?)'}",
            *(f"artefact:     {p}" for p in paths),
        ]
    )
    return dump, text


def run_blackbox_cli(
    *,
    path: str | None = None,
    drill: bool = False,
    out: str = ".",
    nranks: int = 4,
    n: int = 8,
    victim: int = 1,
    seed: int = 0,
    tail: int = 12,
) -> int:
    """Pretty-print a dump file, or produce one with ``--drill``."""
    from repro.telemetry import blackbox as _bb

    if drill:
        dump, text = run_blackbox_drill(
            nranks=nranks, n=n, victim=victim, seed=seed, out=out
        )
        print(text)
        if dump is None:
            print("result:       FAIL (no dump harvested)")
            return 1
        print()
        print(_bb.format_blackbox(dump, tail=tail))
        victim_events = dump.get("rings", {}).get(str(victim), [])
        ok = len(victim_events) > 0
        print()
        print(
            f"victim ring:  {len(victim_events)} event(s) recovered from shm "
            f"({'OK' if ok else 'EMPTY'})"
        )
        print("result:       " + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1

    if path is None:
        print("blackbox: provide a dump file or --drill", file=sys.stderr)
        return 2
    try:
        dump = _bb.read_blackbox(path)
    except (OSError, ValueError) as exc:
        print(f"blackbox: {exc}", file=sys.stderr)
        return 2
    print(_bb.format_blackbox(dump, tail=tail))
    return 0
