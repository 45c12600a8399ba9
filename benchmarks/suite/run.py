"""The repo's benchmark: five FFT round-trip workloads, measured end to end
and layer by layer.  See README.md in this directory.

Two ways in, one code path:

* the gate, one run of one workload (the ``BENCHMARK.json`` command)::

      python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
  per-layer ones, as one JSON object on the last line of stdout;

* the whole suite, for a trajectory point a person reads::

      python3 benchmarks/suite/run.py [--seed N] [--seconds S] [--out FILE]

  every workload untraced (rounds interleaved round-robin across the
  workloads, so a noisy period is spread over all of them), then one
  staged run per workload, every metric printed by name with its unit
  and everything written to one JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import (
    NRANKS,
    REPO_ROOT,
    SUITE_DIR,
    WORKLOADS,
    use_repo_sources,
)

with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Fresh subprocesses per gate run; each gets an equal slice of
#: ``--seconds``, and every end-to-end metric is the median over them.
#: Odd, so one round hit by a noisy neighbour cannot move the median;
#: no more than 3, because the gate's time cap has to fit 128^3 rounds
#: that spend 2 s setting up before their first timed round trip.
ROUNDS = 3
#: The suite has no cap and compare.py wants quartiles over rounds, so it
#: runs more rounds of the same length.
SUITE_ROUNDS = 5
#: The gate allows a whole run 180 s.  The longest healthy round (128^3,
#: staged) takes about 20 s; one that has not reported by now is hung.
ROUND_TIMEOUT_S = 45.0


# -- one round ------------------------------------------------------------------------


def serial_reference_ms(n: int) -> float:
    """Single-process ``ifftn(fftn(x))`` on an n^3 grid, in a fresh process (serial.py)."""
    done = subprocess.run(
        [sys.executable, os.path.join(SUITE_DIR, "serial.py"), str(n)],
        capture_output=True,
        text=True,
        check=True,
    )
    return float(done.stdout)


def run_round(
    name, seed, round_index, seconds, *, staged=False, n=None, max_iters=None, serial_before=None
):
    """Serial reference, one child process, serial reference again.

    Back-to-back rounds of one workload share the reference between
    them: pass the previous round's second one as ``serial_before``.
    """
    n = n or WORKLOADS[name].n
    serial = [serial_before or serial_reference_ms(n)]
    spec = {
        "workload": name,
        "seed": seed,
        "round": round_index,
        "seconds": seconds,
        "staged": staged,
        "n": n,
        "max_iters": max_iters,
        "t_spawn": time.perf_counter(),
    }
    child = subprocess.Popen(
        [sys.executable, os.path.join(SUITE_DIR, "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # so a hung round's forked ranks can be killed with it
    )
    try:
        out, err = child.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        out, err = child.communicate()
        err += f"\nround timed out after {ROUND_TIMEOUT_S} s"
    serial.append(serial_reference_ms(n))
    if child.returncode != 0 or not out.strip():
        record = {"workload": name, "round": round_index, "crashed": err.strip()[-2000:]}
    else:
        record = json.loads(out.strip().splitlines()[-1])
    record["serial_ms"] = serial
    return record


def check_round(r: dict) -> tuple[int, int, list[str]]:
    """``(attempted, failed, named reasons)`` of one round's round trips.

    A round trip fails on its own when its error exceeds the tolerance;
    a violated round-level invariant fails every round trip of the round.
    """
    if "crashed" in r:
        return 1, 1, [f"round crashed: {r['crashed']}"]
    tol = r["tolerance"]
    errors = r["errors"] + r.get("staged_errors", [])
    over = sum(not e <= tol for e in errors)  # NaN counts as over
    counts, expected = r["counts"], r["expected"]
    lossy = WORKLOADS[r["workload"]].lossy
    invariants = {
        "forward result disagrees with np.fft.fftn": not r["forward_error"] <= tol,
        "message/byte counts differ from the plan": not r["counts_stable"]
        or any(counts[k] != expected[k] for k in expected),
        "wire bytes exceed logical bytes on a lossy workload": lossy
        and counts["wire_bytes"] > counts["logical_bytes"],
        "buffer pool missed after warm-up": r["pool"]["steady_misses"] != 0,
        "leaked /dev/shm segment": bool(r["leaked_shm"]),
        "rank process outlived the round": r["live_children"] != 0,
    }
    reasons = [name for name, violated in invariants.items() if violated]
    failed = len(errors) if reasons else over
    if over:
        reasons.append(f"{over} round trip(s) over tolerance {tol:g}")
    return len(errors), failed, reasons


# -- metrics ---------------------------------------------------------------------------


def end_to_end(rounds: list[dict]) -> dict[str, dict]:
    """Median over rounds of each end-to-end metric (per-round values kept)."""
    good = [r for r in rounds if "crashed" not in r]
    if not good:
        sys.exit("benchmarks/suite: every round crashed:\n" + rounds[-1]["crashed"])
    # One reference for the run: the median of every serial measurement
    # taken around its rounds.  A single before/after pair repeats only
    # within ~5 % (12 % at 128^3), which was more noise than pairing each
    # round with its own two neighbours removed.
    # (A set, because back-to-back rounds share the measurement between them.)
    reference = statistics.median({ms for r in good for ms in r["serial_ms"]})
    per_round = {
        # Other tenants of the machine only ever add time, in bursts; the
        # lower quartile of a round's round trips moved 2-4 % between
        # rounds where their median moved 7-8 %.
        "slowdown_vs_serial": [
            statistics.quantiles(r["roundtrip_ms"], n=4, method="inclusive")[0] / reference
            for r in good
        ],
        "setup_s": [r["setup_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "compression_ratio": [r["compression_ratio"] for r in good],
    }
    return {
        name: {"value": statistics.median(values), "unit": UNITS[name], "rounds": values}
        for name, values in per_round.items()
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as (value, percentile).

    Below 20 samples that percentile sits under the median and says
    nothing about the tail; the maximum is reported as percentile 100.
    """
    ordered, n = sorted(samples), len(samples)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def per_layer(r: dict) -> dict[str, float]:
    """Every per-layer metric of one staged round; ``*_ms`` are per round trip."""
    w = WORKLOADS[r["workload"]]
    probes, counts = r["probes"], r["counts"]
    roundtrip = statistics.median(r["roundtrip_ms"])
    tail_ms, tail_pct = tail(r["roundtrip_ms"])
    # stages[rank][rt][stage]; the slowest rank bounds a stage, because
    # every exchange ends in a fence all ranks wait at.
    by_rt = list(zip(*r["stages"]))
    stage = {
        name: statistics.median(max(rank[name] for rank in rt) for rt in by_rt)
        for name in by_rt[0][0]
    }
    skew = statistics.median(
        max(rank["collectives.exchange"] for rank in rt)
        - min(rank["collectives.exchange"] for rank in rt)
        for rt in by_rt
    )
    # What the stages account for is each rank's own partition of its
    # wall time (mean over ranks), not the sum of per-stage maxima, which
    # counts the skew twice.
    accounted = statistics.median(
        statistics.mean(sum(rank.values()) for rank in rt) for rt in by_rt
    )
    if w.lossy or w.method == "osc":
        # 8 exchanges per round trip, each creating a window and agreeing
        # on sizes (the compressed one also votes on window growth)
        allgathers = 2 if w.lossy else 1
        transport = probes["runtime.put_fence_ms"] + 8 * (
            probes["runtime.win_create_ms"] + allgathers * probes["runtime.allgather_ms"]
        )
    else:
        transport = probes["runtime.sendrecv_ms"]
    codec_and_wire = sum(
        probes[k]
        for k in (
            "compression.encode_ms",
            "compression.decode_ms",
            "collectives.wire.encode_ms",
            "collectives.wire.decode_ms",
        )
    )
    n = r["n"]
    flops = 2 * 5 * n**3 * math.log2(n**3) / NRANKS  # computed, per rank and round trip
    fft_ms = stage["fft.local_fft"]
    out = {
        "fft.plan.roundtrip_ms": roundtrip,
        "fft.plan.roundtrip_tail_ms": tail_ms,
        "fft.plan.roundtrip_tail_pct": tail_pct,
        "fft.plan.samples": len(r["roundtrip_ms"]),
        "fft.plan.build_ms": r["build_ms"],
        "fft.plan.residual_ms": roundtrip - accounted,
        "fft.plan.error_budget_used": max(r["errors"]) / r["tolerance"],
        "fft.reshape.pack_ms": stage["fft.reshape.pack"],
        "fft.reshape.unpack_ms": stage["fft.reshape.unpack"],
        "fft.local_fft.ms": fft_ms,
        "fft.local_fft.gflops": flops / (fft_ms * 1e-3) / 1e9,
        "collectives.exchange_ms": stage["collectives.exchange"],
        "collectives.exchange_skew_ms": skew,
        "collectives.exchange_residual_ms": stage["collectives.exchange"]
        - codec_and_wire
        - transport,
        "collectives.messages": counts["messages"],
        "collectives.logical_bytes": counts["logical_bytes"],
        "collectives.wire_bytes": counts["wire_bytes"] + counts["frame_bytes"],
        "collectives.retries": counts["retries"],
        "collectives.degradations": counts["degradations"],
        "tuning.pool.hit_rate": r["pool"]["hit_rate"],
        "tuning.pool.steady_misses": r["pool"]["steady_misses"],
        "tuning.pool.retained_mb": r["pool"]["retained_mb"],
        "host.serial_fft_ms": statistics.mean(r["serial_ms"]),
        "host.nproc": os.cpu_count(),
        "trace.coverage": accounted / roundtrip,
        "trace.overhead_frac": statistics.median(r["staged_ms"]) / roundtrip - 1.0,
    }
    out.update(probes)
    return out


def summarize(rounds: list[dict]) -> dict:
    checks = [check_round(r) for r in rounds]
    attempted = sum(c[0] for c in checks)
    failed = sum(c[1] for c in checks)
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": sorted({reason for c in checks for reason in c[2]}),
    }


# -- the two entry points --------------------------------------------------------------


def gate_run(name, seed, seconds, trace, *, rounds=ROUNDS, n=None, max_iters=None) -> dict:
    """One run of one workload, as the ``BENCHMARK.json`` command makes it."""
    if trace:
        records = [run_round(name, seed, 0, seconds, staged=True, n=n, max_iters=max_iters)]
        if "crashed" in records[0]:
            sys.exit("benchmarks/suite: the staged round crashed:\n" + records[0]["crashed"])
        result = summarize(records)
        values = per_layer(records[0])
        result["metrics"] = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC["per_layer"]
        }
        result["spans"] = records[0]["spans"]
    else:
        records = []
        for i in range(rounds):
            before = records[-1]["serial_ms"][1] if records else None
            records.append(
                run_round(
                    name, seed, i, seconds / rounds, n=n, max_iters=max_iters, serial_before=before
                )
            )
        result = summarize(records)
        result["metrics"] = end_to_end(records)
    return result


def host_info() -> dict:
    def read(path):
        try:
            with open(path) as fh:
                return fh.read().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if "model name" in line),
        platform.processor(),
    )
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level, kind = read(f"{base}/{index}/level"), read(f"{base}/{index}/type")
        if level:
            caches[f"L{level} {kind}"] = read(f"{base}/{index}/size")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "switch_interval_s": sys.getswitchinterval(),
        "nranks": NRANKS,
    }


def suite_run(seed: int, seconds: float, out_path: str | None) -> int:
    rounds: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for i in range(SUITE_ROUNDS):
        for name in WORKLOADS:
            print(f"round {i + 1}/{SUITE_ROUNDS} {name}", file=sys.stderr)
            rounds[name].append(run_round(name, seed, i, seconds / ROUNDS))
    report = {"seed": seed, "seconds": seconds, "host": host_info(), "workloads": {}}
    for name in WORKLOADS:
        print(f"staged {name}", file=sys.stderr)
        layers = gate_run(name, seed, seconds, trace=1)
        entry = summarize(rounds[name])
        entry["end_to_end"] = end_to_end(rounds[name])
        entry["per_layer"] = layers.pop("metrics")
        entry["spans"] = layers.pop("spans")
        entry["staged_run"] = layers
        entry["rounds"] = rounds[name]
        report["workloads"][name] = entry
        for section in ("end_to_end", "per_layer"):
            for metric, m in entry[section].items():
                print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name} failed_frac = {entry['failed_frac']:.6g} frac {entry['failures']}")
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    failed = any(
        e["failed"] or e["staged_run"]["failed"] for e in report["workloads"].values()
    )
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="suite mode: write the full JSON report here")
    args = parser.parse_args(argv)
    use_repo_sources()
    if args.workload is None:
        return suite_run(args.seed, args.seconds, args.out)
    result = gate_run(args.workload, args.seed, args.seconds, args.trace)
    for metric, m in result["metrics"].items():
        print(f"{args.workload} {metric} = {m['value']:.6g} {m['unit']}")
    for reason in result["failures"]:
        print(f"{args.workload} FAILED: {reason}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
