"""One round of one workload, in a process of its own.

``python child.py '<json spec>'`` builds the plan, starts a world of the
workload's runtime with exactly 4 ranks, warms up, runs timed round
trips until the spec's time slice is spent, and prints one JSON record
as the last line of stdout.  A fresh process per round keeps ``setup_s``
and peak RSS honest and sidesteps ``ProcessWorld`` being one-shot.

With ``"staged": true`` every untraced round trip is followed by a
staged one (``staged.py``) in the same world, so the two are paired
against machine drift, and the kernel and transport probes run too.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import statistics
import sys
import time

import numpy as np

from probes import kernel_probes, transport_probes
from staged import Spans, stage_ms, staged_roundtrip
from workloads import (
    NRANKS,
    WORKLOADS,
    build_plan,
    make_input,
    tolerance,
    use_repo_sources,
    wire_size_fn,
)

#: A round reports a median, so it needs at least this many round trips
#: even when one of them outlasts the time slice (128^3).
MIN_ITERS = 2
#: Staged round trips whose spans are written out in full (every one is
#: kept in memory and aggregated; the JSON stays reviewable).
SPAN_ROUNDTRIPS = 2
SHM_DIR = "/dev/shm"


def _shm_segments() -> set[str]:
    return set(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else set()


def _sq_norm(a: np.ndarray) -> float:
    # Deliberately not np.vdot / np.linalg.norm: those go through BLAS,
    # whose worker threads then spin beside the 4 ranks on a 2-core box
    # and slowed every later round trip ~2.5x when this ran between them.
    return float(np.square(a.real).sum() + np.square(a.imag).sum())


def kernel(comm, plan, w, blocks, seconds, max_iters, staged, sizes):
    """Rank body: warm-up, then closed-loop timed round trips."""
    from repro.fft.plan import FftStats
    from repro.tuning.pool import BufferPool

    b = blocks[comm.rank]
    pool = BufferPool()
    spans = Spans(comm.rank)

    def untraced():
        stats = FftStats()
        y = plan.forward_spmd(comm, b, method=w.method, stats=stats, pool=pool)
        z = plan.forward_spmd(comm, y, method=w.method, inverse=True, stats=stats, pool=pool)
        return y, z, stats

    def timed(op):
        comm.barrier()
        t0 = time.perf_counter()
        result = op()
        comm.barrier()
        return time.perf_counter() - t0, result

    first_forward = None
    for i in range(w.warmup):
        y, _, _ = untraced()
        if i == 0:
            first_forward = y
    if staged:
        staged_roundtrip(comm, plan, w.method, b, pool, spans, -1)
        spans.rows.clear()
    pool_warm = pool.counters()

    out = {"times": [], "err2": [], "staged_times": [], "staged_err2": []}
    counts = set()
    comm.barrier()
    out["t_first"] = time.perf_counter()
    deadline = out["t_first"] + seconds
    rt = 0
    while True:
        dt, (_, z, stats) = timed(untraced)
        out["times"].append(dt)
        out["err2"].append(_sq_norm(z - b))
        tot = stats.totals()
        counts.add(
            (tot.messages, tot.logical_bytes, tot.wire_bytes, tot.retries, tot.degradations)
        )
        if staged:
            dt, z = timed(
                lambda: staged_roundtrip(comm, plan, w.method, b, pool, spans, rt)
            )
            out["staged_times"].append(dt)
            out["staged_err2"].append(_sq_norm(z - b))
        rt += 1
        done = rt >= max_iters or (rt >= MIN_ITERS and time.perf_counter() >= deadline)
        if comm.bcast(done, root=0):  # rank 0's clock decides for everyone
            break

    out.update(
        norm2=_sq_norm(b),
        counts=sorted(counts),
        pool_warm=pool_warm,
        pool_end=pool.counters(),
        first_forward=first_forward,
        spans=spans.rows,
    )
    if staged:
        out["probes"] = transport_probes(comm, sizes, repeats=5)
    return out


def _rel_errors(per_rank: list[dict], key: str) -> list[float]:
    norm2 = sum(r["norm2"] for r in per_rank)
    return [
        float(np.sqrt(sum(r[key][i] for r in per_rank) / norm2))
        for i in range(len(per_rank[0][key]))
    ]


def run_round(spec: dict) -> dict:
    use_repo_sources()
    from repro.runtime import make_world

    w = WORKLOADS[spec["workload"]]
    n, staged = spec["n"], spec["staged"]
    x = make_input(n, spec["seed"], spec["round"])
    t0 = time.perf_counter()
    plan = build_plan(w, n)
    build_ms = (time.perf_counter() - t0) * 1e3
    blocks = plan.scatter(x)
    wire_size = wire_size_fn(plan, x)
    sizes = None
    if staged:
        sizes = [[[0] * NRANKS for _ in range(NRANKS)] for _ in plan.reshapes]
        for k, reshape in enumerate(plan.reshapes):
            for s, row in enumerate(reshape.pairs):
                for d, box in row:
                    sizes[k][s][d] = wire_size(box.size)[0]

    shm_before = _shm_segments()
    per_rank = make_world(w.runtime, NRANKS).run(
        kernel, plan, w, blocks, spec["seconds"], spec["max_iters"] or 10**9, staged, sizes
    )
    leaked = sorted(_shm_segments() - shm_before)
    live_children = len(multiprocessing.active_children())

    reference = np.fft.fftn(x)
    forward = plan.gather([r["first_forward"] for r in per_rank])
    forward_error = float(np.linalg.norm(forward - reference) / np.linalg.norm(reference))

    # Exact counts of one round trip, summed over ranks.  Only the
    # compressed exchange reports them; for the raw exchanges they follow
    # from the plan (every cell moves once per reshape) and are labelled.
    expected = {
        "messages": 2 * sum(r.n_messages for r in plan.reshapes),
        "logical_bytes": 2 * sum(r.total_bytes(16) for r in plan.reshapes),
    }
    names = ("messages", "logical_bytes", "wire_bytes", "retries", "degradations")
    counts_stable = all(len(r["counts"]) == 1 for r in per_rank)
    counts = {k: sum(r["counts"][0][i] for r in per_rank) for i, k in enumerate(names)}
    counts["computed"] = not w.lossy
    if not w.lossy:
        counts.update(expected, wire_bytes=expected["logical_bytes"])
    counts["frame_bytes"] = 2 * sum(
        wire_size(box.size)[1] for r in plan.reshapes for row in r.pairs for _, box in row
    )
    ratio = counts["logical_bytes"] / (counts["wire_bytes"] + counts["frame_bytes"])

    hits = sum(r["pool_end"]["hits"] for r in per_rank)
    misses = sum(r["pool_end"]["misses"] for r in per_rank)
    usage = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    record = {
        "workload": spec["workload"],
        "n": n,
        "seed": spec["seed"],
        "round": spec["round"],
        "setup_s": per_rank[0]["t_first"] - spec["t_spawn"],
        "build_ms": build_ms,
        "peak_rss_mb": usage / 1024.0,  # ru_maxrss is KiB on Linux
        "roundtrip_ms": [t * 1e3 for t in per_rank[0]["times"]],
        "errors": _rel_errors(per_rank, "err2"),
        "tolerance": tolerance(w, plan),
        "forward_error": forward_error,
        "counts": counts,
        "expected": expected,
        "counts_stable": counts_stable,
        "compression_ratio": ratio,
        "pool": {
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "steady_misses": misses - sum(r["pool_warm"]["misses"] for r in per_rank),
            "retained_mb": sum(r["pool_end"]["retained_bytes"] for r in per_rank) / 2**20,
        },
        "leaked_shm": leaked,
        "live_children": live_children,
    }
    if staged:
        starts = []
        for _ in range(3):
            t0 = time.perf_counter()
            make_world(w.runtime, NRANKS).run(lambda comm: None)
            starts.append((time.perf_counter() - t0) * 1e3)
        probes = kernel_probes(plan, blocks, repeats=3)
        for key in per_rank[0]["probes"]:  # the slowest rank bounds a collective
            probes[key] = max(r["probes"][key] for r in per_rank)
        probes["runtime.world_start_ms"] = statistics.median(starts)
        record.update(
            staged_ms=[t * 1e3 for t in per_rank[0]["staged_times"]],
            staged_errors=_rel_errors(per_rank, "staged_err2"),
            stages=[list(stage_ms(r["spans"]).values()) for r in per_rank],
            spans=[row for r in per_rank for row in r["spans"] if row[5] < SPAN_ROUNDTRIPS],
            probes=probes,
        )
    return record


if __name__ == "__main__":
    print(json.dumps(run_round(json.loads(sys.argv[1]))))
