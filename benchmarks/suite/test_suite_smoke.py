"""Smoke test of the benchmark harness itself (not part of tier-1).

Run explicitly::

    python -m pytest benchmarks/suite -q

It drives the same ``gate_run`` the ``BENCHMARK.json`` command drives,
shrunk to 16^3, one round and two round trips, on both runtimes.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in run.SPEC["end_to_end"] + run.SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names + list(WORKLOADS))
    assert "setup_s" in names


# thread + cast codec, proc + raw two-sided ring, proc + e_tol-selected trim codec
@pytest.mark.parametrize(
    "workload", ["fft64-p4-thread-fp32", "fft64-p4-proc-pairwise", "fft128-p4-proc-trim"]
)
def test_gate_run_reports_every_metric(workload):
    run.use_repo_sources()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = run.gate_run(
            workload, seed=3, seconds=0.05, trace=trace, rounds=1, n=16, max_iters=2
        )
        assert result["failures"] == [] and result["failed"] == 0
        assert result["attempted"] == (4 if trace else 2)  # staged doubles the round trips
        assert list(result["metrics"]) == [m["name"] for m in run.SPEC[section]]
        for name, m in result["metrics"].items():
            assert m["unit"] == run.UNITS[name]
            assert isinstance(m["value"], (int, float)) and m["value"] == m["value"], name
    metrics = result["metrics"]
    assert metrics["fft.plan.samples"]["value"] == 2
    assert metrics["collectives.messages"]["value"] == 56  # 2 directions x (4 + 8 + 8 + 8)
    assert metrics["tuning.pool.steady_misses"]["value"] == 0

    spans = result["spans"]
    by_id = {(row[6], row[0]): row for row in spans}  # ids are per rank
    assert {row[6] for row in spans} == {0, 1, 2, 3}
    for sid, name, start, end, parent, rt, rank in spans:
        assert NAME.fullmatch(name) and end >= start and rt in (0, 1)
        if name == "fft.plan.roundtrip":
            assert parent is None
        else:
            assert by_id[(rank, parent)][5] == rt  # parent exists, same round trip


def test_check_round_names_what_failed():
    good = {
        "workload": "fft64-p4-proc-pairwise",
        "tolerance": 1e-12,
        "errors": [1e-16, 1e-16],
        "forward_error": 1e-16,
        "counts": {"messages": 56, "logical_bytes": 8, "wire_bytes": 8},
        "expected": {"messages": 56, "logical_bytes": 8},
        "counts_stable": True,
        "pool": {"steady_misses": 0},
        "leaked_shm": [],
        "live_children": 0,
    }
    assert run.check_round(good) == (2, 0, [])
    one_bad = dict(good, errors=[1e-16, 1e-3])
    assert run.check_round(one_bad)[:2] == (2, 1)
    leaked = dict(good, leaked_shm=["repro-x"])
    attempted, failed, reasons = run.check_round(leaked)
    assert (attempted, failed) == (2, 2) and reasons == ["leaked /dev/shm segment"]
    assert run.check_round({"crashed": "boom"})[:2] == (1, 1)


def _report(slowdown_scale: float = 1.0) -> dict:
    rounds = {
        "slowdown_vs_serial": [x * slowdown_scale for x in (4.9, 5.0, 5.05, 5.1)],
        "setup_s": [0.49, 0.5, 0.5, 0.52],
        "peak_rss_mb": [99.8, 100.0, 100.1, 100.5],
        "compression_ratio": [2.0, 2.0, 2.0, 2.0],
    }
    end_to_end = {
        k: {"value": statistics.median(v), "unit": run.UNITS[k], "rounds": v}
        for k, v in rounds.items()
    }
    return {"workloads": {"fft64-p4-thread-fp32": {"end_to_end": end_to_end, "failed_frac": 0.0}}}


def test_compare_flags_a_regression_and_passes_identical_files(tmp_path, capsys):
    paths = {}
    for label, report in (("a", _report()), ("same", _report()), ("slow", _report(1.3))):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(report))
    assert compare.main(["compare.py", str(paths["a"]), str(paths["same"])]) == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare.main(["compare.py", str(paths["a"]), str(paths["slow"])]) == 1
    out = capsys.readouterr().out
    assert "slowdown_vs_serial" in out and "regressed" in out

    failing = _report()
    failing["workloads"]["fft64-p4-thread-fp32"]["failed_frac"] = 0.1
    paths["failing"] = tmp_path / "failing.json"
    paths["failing"].write_text(json.dumps(failing))
    assert compare.main(["compare.py", str(paths["a"]), str(paths["failing"])]) == 1

    wide = _report()
    wide["workloads"]["fft64-p4-thread-fp32"]["end_to_end"]["slowdown_vs_serial"]["rounds"] = [
        4.0, 5.0, 5.1, 6.5
    ]
    rows = compare.compare(_report(), wide, run.SPEC["end_to_end"])
    assert rows[0]["verdict"] == "unresolved"
