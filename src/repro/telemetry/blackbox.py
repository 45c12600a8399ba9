"""Black-box crash dumps: a world's flight ring, its last words merged.

When a run fails (a rank death nobody recovered from, an abort) or the
user sends ``SIGUSR1``, the world freezes its flight ring
(``World.blackbox``) into a *black-box dump*: the last-N events of every
rank, both per rank and merged into one time-aligned timeline (all
ranks share CLOCK_MONOTONIC, so cross-rank ordering is real), plus the
live rows, the watchdog's
:class:`~repro.resilience.monitor.FailureReport` when one exists, and
a metrics snapshot.  Schema ``repro-blackbox-v1``; pretty-printed by
``python -m repro blackbox <dump.json>``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from typing import Any, Callable

from repro.errors import TelemetryError
from repro.telemetry import metrics as _metrics
from repro.telemetry.recorder import FlightEvent

__all__ = [
    "BLACKBOX_SCHEMA",
    "build_blackbox",
    "write_blackbox",
    "read_blackbox",
    "format_blackbox",
    "emit_blackbox",
    "last_blackbox",
    "set_last_blackbox",
    "arm_signal_dump",
    "disarm_signal_dump",
]

BLACKBOX_SCHEMA = "repro-blackbox-v1"

#: Environment variable: when set, every emitted dump is also written
#: to a file in this directory.
BLACKBOX_DIR_ENV = "REPRO_BLACKBOX_DIR"

_last_lock = threading.Lock()
_last_dump: dict[str, Any] | None = None
_dump_counter = 0


def set_last_blackbox(dump: dict[str, Any] | None) -> None:
    global _last_dump
    with _last_lock:
        _last_dump = dump


def last_blackbox() -> dict[str, Any] | None:
    """The most recent dump emitted in this process (tests, tooling)."""
    with _last_lock:
        return _last_dump


def build_blackbox(
    events_by_rank: dict[int, list[FlightEvent]],
    *,
    reason: str,
    nranks: int | None = None,
    live: dict[int, dict[str, Any]] | None = None,
    failure_report: Any = None,
    metrics: dict[str, Any] | None = None,
    uid: str | None = None,
) -> dict[str, Any]:
    """Assemble a dump dict from per-rank event lists.

    The merged timeline is sorted by the shared monotonic clock and
    annotated with milliseconds relative to the earliest retained
    event, so "what was everyone doing when rank 3 died" is one read.
    """
    ranks = sorted(events_by_rank)
    all_events = [e for evs in events_by_rank.values() for e in evs]
    t0 = min((e.t_ns for e in all_events), default=0)
    merged = sorted(all_events, key=lambda e: (e.t_ns, e.rank, e.seq))
    dump: dict[str, Any] = {
        "schema": BLACKBOX_SCHEMA,
        "reason": reason,
        "created_at": time.time(),
        "host": socket.gethostname(),
        "pid": os.getpid(),
        "nranks": nranks if nranks is not None else (max(ranks) + 1 if ranks else 0),
        "rings": {
            str(r): [e.to_json() for e in events_by_rank[r]] for r in ranks
        },
        "merged": [
            {**e.to_json(), "t_rel_ms": round((e.t_ns - t0) / 1e6, 3)} for e in merged
        ],
    }
    if uid is not None:
        dump["uid"] = uid
    if live is not None:
        dump["live"] = {str(r): row for r, row in sorted(live.items())}
    if failure_report is not None:
        dump["failure_report"] = (
            failure_report.to_json()
            if hasattr(failure_report, "to_json")
            else failure_report
        )
    if metrics is not None:
        dump["metrics"] = metrics
    return dump


def emit_blackbox(
    flight: Any,
    reason: str,
    *,
    failure_report: Any = None,
    uid: str | None = None,
    out_dir: str | None = None,
) -> dict[str, Any]:
    """Freeze the ring ``flight`` into a dump; remember and maybe write it.

    The dump is always retained in-process (:func:`last_blackbox`); it
    is additionally written to ``out_dir`` or ``$REPRO_BLACKBOX_DIR``
    when either names a directory.
    """
    global _dump_counter
    dump = build_blackbox(
        flight.events_by_rank(),
        reason=reason,
        nranks=flight.nranks,
        live=flight.live_snapshot(),
        failure_report=failure_report,
        metrics=_metrics.get_registry().snapshot(),
        uid=uid,
    )
    set_last_blackbox(dump)
    target = out_dir or os.environ.get(BLACKBOX_DIR_ENV)
    if target:
        with _last_lock:
            _dump_counter += 1
            n = _dump_counter
        try:
            path = os.path.join(target, f"blackbox-{os.getpid()}-{n}.json")
            write_blackbox(dump, path)
            dump["path"] = path
        except OSError:  # noqa: PERF203 - a full disk must not mask the failure
            pass
    return dump


def write_blackbox(dump: dict[str, Any], path: str) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dump, fh, indent=2, sort_keys=True)
    return path


def read_blackbox(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        dump = json.load(fh)
    if dump.get("schema") != BLACKBOX_SCHEMA:
        raise TelemetryError(
            f"{path}: not a black-box dump (schema={dump.get('schema')!r})"
        )
    return dump


# -- pretty printing -------------------------------------------------------------------


def _fmt_event(obj: dict[str, Any]) -> str:
    peer = f" peer={obj['peer']}" if obj.get("peer", -1) >= 0 else ""
    rnd = f" round={obj['round']}" if obj.get("round", -1) >= 0 else ""
    val = f" value={obj['value']:g}" if obj.get("value") else ""
    val2 = f" value2={obj['value2']:g}" if obj.get("value2") else ""
    detail = f"  {obj['detail']}" if obj.get("detail") else ""
    return f"{obj['kind']:<18}{peer}{rnd}{val}{val2}{detail}"


def format_blackbox(dump: dict[str, Any], *, tail: int = 12) -> str:
    """Human rendering of a dump: header, per-rank tails, merged timeline."""
    lines = [
        f"=== black box: {dump.get('reason', '?')} ===",
        f"host {dump.get('host', '?')} pid {dump.get('pid', '?')}  "
        f"ranks {dump.get('nranks', '?')}  schema {dump.get('schema')}",
    ]
    report = dump.get("failure_report")
    if report:
        failed = report.get("failed_ranks", [])
        phases = report.get("phases", {})
        lines.append(
            f"failure report: failed={failed} recovered={report.get('recovered')}"
            + (
                "  phases " + " -> ".join(f"{k}:{v * 1e3:.1f}ms" for k, v in phases.items())
                if phases
                else ""
            )
        )
    live = dump.get("live") or {}
    for rank_key in sorted(dump.get("rings", {}), key=int):
        events = dump["rings"][rank_key]
        row = live.get(rank_key, {})
        phase = row.get("phase", "")
        suffix = f"  phase={phase}" if phase else ""
        lines.append("")
        lines.append(
            f"-- rank {rank_key}: {len(events)} ring event(s){suffix}"
        )
        for obj in events[-tail:]:
            lines.append(f"   {_fmt_event(obj)}")
    merged = dump.get("merged", [])
    if merged:
        lines.append("")
        lines.append(f"-- merged timeline (last {min(tail * 2, len(merged))} of {len(merged)}):")
        for obj in merged[-tail * 2 :]:
            lines.append(
                f"   t+{obj.get('t_rel_ms', 0.0):>10.3f}ms  rank {obj['rank']}  {_fmt_event(obj)}"
            )
    return "\n".join(lines)


# -- SIGUSR1 ---------------------------------------------------------------------------

_prev_handler: Any = None
_armed = False


def arm_signal_dump(
    build: Callable[[], dict[str, Any]],
    *,
    out_dir: str | None = None,
) -> bool:
    """Dump on ``SIGUSR1`` (main thread only; returns False otherwise).

    ``build`` makes the dump — a world passes its own
    ``lambda: world.blackbox("SIGUSR1")``; it is also written to
    ``out_dir`` when given.
    """
    global _prev_handler, _armed
    if threading.current_thread() is not threading.main_thread():
        return False

    def handler(signum, frame):  # noqa: ARG001
        try:
            dump = build()
            if out_dir:
                write_blackbox(dump, os.path.join(out_dir, f"blackbox-{os.getpid()}-usr1.json"))
        except Exception:  # noqa: BLE001 - a dump failure must not kill the run
            pass

    try:
        _prev_handler = signal.signal(signal.SIGUSR1, handler)
        _armed = True
        return True
    except (ValueError, OSError, AttributeError):  # non-main thread / platform
        return False


def disarm_signal_dump() -> None:
    global _prev_handler, _armed
    if not _armed:
        return
    try:
        signal.signal(signal.SIGUSR1, _prev_handler or signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover
        pass
    _prev_handler = None
    _armed = False
