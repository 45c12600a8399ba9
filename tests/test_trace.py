"""Tier-1 tests for the tracing/metrics layer (``repro.trace``)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import trace
from repro.compression.base import IdentityCodec
from repro.fft.plan import Fft3d, FftStats
from repro.runtime.thread_rt import ThreadWorld
from repro.trace import (
    SPAN_KINDS,
    Tracer,
    bench_payload,
    chrome_trace,
    summarize,
    tracing,
    write_chrome_trace,
)
from repro.faults import ResilienceReport


class TestTracerCore:
    def test_span_nesting_depths_and_ordering(self):
        tracer = Tracer()
        with tracer.span("exchange", rank=0):
            with tracer.span("pack", rank=0):
                pass
            with tracer.span("compress", rank=0):
                with tracer.span("put", rank=0):
                    pass
        events = tracer.span_events()
        by_kind = {e.kind: e for e in events}
        assert by_kind["exchange"].depth == 0
        assert by_kind["pack"].depth == 1
        assert by_kind["compress"].depth == 1
        assert by_kind["put"].depth == 2
        # children close before the parent and start after it
        assert by_kind["exchange"].t0_ns <= by_kind["pack"].t0_ns
        assert by_kind["exchange"].t1_ns >= by_kind["put"].t1_ns
        # merged stream is ordered by start time
        starts = [e.t0_ns for e in events]
        assert starts == sorted(starts)

    def test_span_attrs_and_durations(self):
        tracer = Tracer()
        with tracer.span("put", rank=2, peer=5, bytes=4096):
            pass
        (event,) = tracer.span_events()
        assert event.rank == 2
        assert event.attrs == {"peer": 5, "bytes": 4096}
        assert event.duration_ns >= 0

    def test_counters_accumulate_per_rank(self):
        tracer = Tracer()
        tracer.incr("wire_bytes", 100, rank=0)
        tracer.incr("wire_bytes", 50, rank=0)
        tracer.incr("wire_bytes", 7, rank=1)
        assert tracer.counters()[(0, "wire_bytes")] == 150
        assert tracer.counters()[(1, "wire_bytes")] == 7
        assert tracer.counter_total("wire_bytes") == 157

    def test_bound_rank_is_inherited(self):
        tracer = Tracer()
        tracer.bind_rank(3)
        with tracer.span("pack"):
            pass
        tracer.incr("messages")
        assert tracer.span_events()[0].rank == 3
        assert tracer.counters()[(3, "messages")] == 1

    def test_explicit_rank_overrides_bound_rank(self):
        tracer = Tracer()
        tracer.bind_rank(1)
        with tracer.span("unpack", rank=6):
            pass
        assert tracer.span_events()[0].rank == 6

    def test_record_report_folds_events_and_counters(self):
        tracer = Tracer()
        report = ResilienceReport(rank=4)
        report.record("integrity-failure", peer=1)
        report.record("retry", peer=1, attempt=0, codec="zfp")
        report.record("degrade", peer=1, codec="shuffle-zlib")
        tracer.record_report(report)
        kinds = [i.kind for i in tracer.records("i")]
        assert kinds == ["integrity-failure", "retry", "degrade"]
        assert all(i.rank == 4 for i in tracer.records("i"))
        assert tracer.counters()[(4, "retries")] == 1
        assert tracer.counters()[(4, "degradations")] == 1


class TestDisabledTracer:
    def test_module_helpers_are_noops_without_tracer(self):
        assert trace.get_tracer() is None
        with trace.span("pack", rank=0, bytes=1):
            pass  # must not raise nor record anywhere
        trace.incr("wire_bytes", 10, rank=0)
        trace.bind_rank(5)
        trace.record_report(ResilienceReport(rank=0))
        assert trace.get_tracer() is None

    def test_tracing_context_installs_and_restores(self):
        assert trace.get_tracer() is None
        with tracing() as outer:
            assert trace.get_tracer() is outer
            with tracing() as inner:
                assert trace.get_tracer() is inner
            assert trace.get_tracer() is outer
        assert trace.get_tracer() is None

    def test_tracing_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with tracing():
                raise RuntimeError("boom")
        assert trace.get_tracer() is None


class TestThreadSafety:
    def test_spmd_ranks_bind_automatically(self):
        def kernel(comm):
            with trace.span("pack", peer=(comm.rank + 1) % comm.size):
                pass
            trace.incr("messages", 1)
            return comm.rank

        with tracing() as tracer:
            ThreadWorld(6).run(kernel)
        events = tracer.span_events()
        assert sorted(e.rank for e in events) == list(range(6))
        assert tracer.ranks() == list(range(6))
        assert tracer.counter_total("messages") == 6

    def test_concurrent_spans_do_not_interleave_buffers(self):
        def kernel(comm, reps):
            for _ in range(reps):
                with trace.span("compress"):
                    with trace.span("put"):
                        pass
            return None

        with tracing() as tracer:
            ThreadWorld(4).run(kernel, 25)
        events = tracer.span_events()
        assert len(events) == 4 * 25 * 2
        for rank in range(4):
            mine = [e for e in events if e.rank == rank]
            assert len(mine) == 50
            assert {e.depth for e in mine if e.kind == "compress"} == {0}
            assert {e.depth for e in mine if e.kind == "put"} == {1}


class TestExporters:
    def _populated_tracer(self) -> Tracer:
        tracer = Tracer()
        for rank in range(3):
            with tracer.span("pack", rank=rank, peer=0):
                pass
            tracer.incr("wire_bytes", 10 * (rank + 1), rank=rank)
        tracer.instant("retry", rank=1, attempt=0)
        return tracer

    def test_chrome_schema_round_trip(self, tmp_path):
        tracer = self._populated_tracer()
        path = write_chrome_trace(tracer, str(tmp_path / "trace.json"))
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert path.endswith("trace.json")
        events = doc["traceEvents"]
        # one thread_name metadata lane per rank
        lanes = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
        assert {e["tid"] for e in lanes} == {0, 1, 2}
        assert all(e["args"]["name"] == f"rank {e['tid']}" for e in lanes)
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 3
        for e in spans:
            assert e["name"] == "pack"
            assert set(e) >= {"name", "cat", "ph", "pid", "tid", "ts", "dur", "args"}
            assert e["dur"] >= 0
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 1 and instants[0]["name"] == "retry"
        assert instants[0]["s"] == "t" and instants[0]["tid"] == 1

    def test_chrome_export_sanitizes_numpy_attrs(self):
        tracer = Tracer()
        with tracer.span("put", rank=0, bytes=np.int64(128), scale=np.float64(0.5)):
            pass
        doc = chrome_trace(tracer)
        span = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        json.dumps(span)  # must be serialisable
        assert span["args"] == {"bytes": 128, "scale": 0.5}

    def test_summary_has_percentiles_and_counters(self):
        tracer = self._populated_tracer()
        text = summarize(tracer)
        assert "p50" in text and "p95" in text
        assert "pack" in text
        assert "wire_bytes" in text
        assert "60" in text  # 10 + 20 + 30 total

    def test_bench_payload_schema(self):
        tracer = self._populated_tracer()
        payload = bench_payload(tracer, "smoke", meta={"nranks": 3})
        assert payload["schema"] == "repro-bench-v1"
        assert payload["name"] == "smoke"
        assert payload["meta"]["nranks"] == 3
        assert payload["ranks"] == [0, 1, 2]
        assert payload["counters"]["wire_bytes"]["total"] == 60
        assert payload["counters"]["wire_bytes"]["per_rank"] == {"0": 10, "1": 20, "2": 30}
        agg = payload["spans"]["pack"]
        assert agg["count"] == 3
        assert set(agg) == {"count", "total_s", "p50_s", "p95_s", "max_s"}
        json.dumps(payload)  # machine-readable means JSON-serialisable


class TestTracedFft:
    def test_traced_spmd_fft_covers_taxonomy_and_matches_stats(self):
        nranks, n = 8, 8
        plan = Fft3d((n, n, n), nranks, e_tol=1e-6)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        locals_ = plan.scatter(x)

        def kernel(comm):
            stats = FftStats()
            plan.forward_spmd(comm, locals_[comm.rank], stats=stats)
            return stats

        with tracing() as tracer:
            per_rank = ThreadWorld(nranks).run(kernel)

        kinds = {e.kind for e in tracer.span_events()}
        # a bound lossy plan encodes into the slot and decodes into the
        # block: its compress / decompress spans *are* the pack and unpack
        for kind in ("compress", "put", "fence", "decompress", "local_fft"):
            assert kind in kinds, f"missing span kind {kind}"
        assert not kinds & {"pack", "unpack"}
        assert kinds <= set(SPAN_KINDS)

        exact = Fft3d((n, n, n), nranks)
        with tracing() as ring:  # the bound two-sided ring puts the box, unpacks the slot
            ThreadWorld(nranks).run(
                lambda comm: exact.forward_spmd(comm, locals_[comm.rank], method="pairwise")
            )
        ring_kinds = {e.kind for e in ring.span_events()}
        assert {"sendrecv", "unpack", "local_fft"} <= ring_kinds
        assert "pack" not in ring_kinds
        assert tracer.ranks() == list(range(nranks))
        # tracer counters agree with the stats objects, per criterion
        assert tracer.counter_total("wire_bytes") == sum(s.wire_bytes for s in per_rank)
        assert tracer.counter_total("logical_bytes") == sum(
            s.logical_bytes for s in per_rank
        )
        assert tracer.counter_total("messages") == sum(s.totals().messages for s in per_rank)

    def test_traced_virtual_fft_attributes_per_rank(self):
        plan = Fft3d((8, 8, 8), 4, codec=IdentityCodec())
        x = np.random.default_rng(3).standard_normal((8, 8, 8))
        with tracing() as tracer:
            plan.forward(x)
        assert tracer.ranks() == [0, 1, 2, 3]
        kinds = {e.kind for e in tracer.span_events()}
        assert {"pack", "compress", "decompress", "unpack", "local_fft"} <= kinds
        assert tracer.counter_total("wire_bytes") == plan.last_stats.wire_bytes

    def test_untraced_run_unaffected(self):
        plan = Fft3d((8, 8, 8), 4, e_tol=1e-6)
        x = np.random.default_rng(3).standard_normal((8, 8, 8))
        assert trace.get_tracer() is None
        err = plan.roundtrip_error(x)  # runs all hot paths with tracing off
        assert err < 1e-5
