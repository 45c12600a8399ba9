"""Tests for the always-on telemetry layer (repro.telemetry).

Covers the flight recorder ring, the metrics registry and its exports,
JSON-lines structured logging, the shared-memory telemetry segment, the
black-box dump builder/pretty-printer, and the satellite guarantee that
error headroom (``e_tol`` minus achieved error) is never negative on
either the flat or the two-level compressed exchange.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import signal
import threading

import numpy as np
import pytest

from repro.collectives import CompressedOscAlltoallv, TwoLevelCompressedAlltoallv, make_exchange
from repro.compression import CastCodec, ShuffleZlibCodec
from repro.errors import ReproError, TelemetryError
from repro.faults import FaultPlan, FaultRule
from repro.fft import Fft3d
from repro.fft.plan import FftStats
from repro.collectives.base import ExchangeStats
from repro.machine.spec import GpuSpec, MachineSpec, NetworkSpec
from repro.machine.topology import Topology
from repro.runtime import make_world, run_spmd
from repro.runtime.proc import ProcessWorld
from repro.runtime.shm import fork_available
from repro.runtime.thread_rt import ThreadWorld
from repro.telemetry import blackbox as bb
from repro.telemetry import metrics, recorder
from repro.telemetry.monitor_cli import render_table, run_monitor_cli
from repro.faults.report import ResilienceReport
from repro.telemetry import emit
from repro.telemetry.recorder import FlightRecorder, publish
from repro.telemetry.shmseg import ShmSink, ShmTelemetry
from repro.trace import tracing


def _event(kind, peer=-1, round_=-1, value=0.0, value2=0.0, detail=""):
    """One flight-ring event tuple, as a sink's ``write`` takes it."""
    return (kind, peer, round_, value, value2, detail)


# -- flight recorder -------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded_and_ordered(self):
        rec = FlightRecorder(capacity=8)
        for i in range(20):
            rec.write(0, (_event("exchange-round", round_=i, value=float(i)),))
        events = rec.events(0)
        assert len(events) == 8  # bounded: only the last 8 survive
        assert [e.round for e in events] == list(range(12, 20))
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)  # monotonic sequence numbers

    def test_rings_are_per_rank(self):
        rec = FlightRecorder(capacity=4)
        rec.write(0, (_event("error", value=1.0),))
        rec.write(1, (_event("error", value=2.0),))
        by_rank = rec.events_by_rank()
        assert set(by_rank) == {0, 1}
        assert by_rank[0][0].value == 1.0
        assert by_rank[1][0].value == 2.0

    def test_module_level_helpers_hit_default_recorder(self):
        publish(3, (_event("codec", detail="cast_fp32"),))
        publish(3, sets=dict(phase="pack", alive=1.0))
        for round_ in range(2):
            emit("exchange-round", 3, stats=ExchangeStats(1, 16, 8),
                 report=ResilienceReport(rank=3), round=round_, detail="cast_fp32")
        rec = recorder.get_recorder()
        assert rec.events(3)[0].kind == "codec"
        live = rec.live_snapshot()[3]
        assert live["phase"] == "pack"
        assert live["rounds"] == 2.0

    def test_disabled_recorder_is_a_noop(self):
        recorder.configure(enabled=False)
        publish(0, (_event("error", value=1.0),))
        publish(0, sets=dict(alive=1.0))
        recorder.configure(enabled=True)
        assert recorder.get_recorder().events_by_rank() == {}

    def test_kinds_are_advisory_not_enforced(self):
        # Recovery phases record arbitrary names ("checkpoint", ...);
        # the kind table groups dumps, it must not reject new sites.
        rec = FlightRecorder(capacity=4)
        rec.write(0, (_event("checkpoint", value=1.5),))
        assert rec.events(0)[0].kind == "checkpoint"

    def test_helpers_never_raise(self):
        class Broken:
            def write(self, *a, **k):
                raise RuntimeError("sink down")

        recorder.install_sink(Broken())
        try:
            publish(0, (_event("error"),))  # must not propagate: telemetry is best-effort
            publish(0, sets=dict(alive=1.0))
            emit("exchange-round", 0, stats=ExchangeStats(), report=ResilienceReport(rank=0),
                 round=0, detail="raw-osc")
        finally:
            recorder.install_sink(None)

    def test_resilience_report_folds_into_ring(self):
        report = ResilienceReport(rank=2)
        report.record("retry", peer=1, attempt=0, codec="cast_fp32")
        report.record("degrade", peer=1, codec="shuffle-zlib", detail="e_tol")
        emit("exchange-round", 2, stats=ExchangeStats(), report=report, round=7, detail="cast_fp32")
        kinds = [e.kind for e in recorder.get_recorder().events(2)]
        assert kinds == ["exchange-round", "retry", "degrade"]
        assert all(e.round == 7 for e in recorder.get_recorder().events(2))

    def test_concurrent_writers_lose_nothing(self):
        """Under more writer threads than cores, two per rank, and a 1 us
        switch interval, every event and every accumulated field is there
        once, each event with a sequence number of its own."""
        import sys

        rec = FlightRecorder(capacity=4096)
        ranks, per_thread = 4, 500
        start = threading.Barrier(2 * ranks)

        def writer(rank):
            start.wait(timeout=30)
            for i in range(per_thread):
                rec.write(rank, (_event("x", value=float(i)),), {"phase": "p"}, {"rounds": 1.0})

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(r % ranks,)) for r in range(2 * ranks)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        events = rec.events()
        assert len(events) == 2 * ranks * per_thread
        assert len({e.seq for e in events}) == len(events)
        for rank, row in rec.live_snapshot().items():
            assert row["rounds"] == row["events"] == 2 * per_thread, rank


# -- metrics registry ------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = metrics.MetricsRegistry()
        reg.counter("repro_wire_bytes_total", rank=0).inc(128)
        reg.counter("repro_wire_bytes_total", rank=0).inc(64)
        reg.gauge("repro_error_headroom", rank=0).set(1e-7)
        reg.histogram("repro_exchange_seconds", rank=0).observe(0.25)
        assert reg.counter("repro_wire_bytes_total", rank=0).value == 192
        assert reg.gauge("repro_error_headroom", rank=0).value == 1e-7
        assert reg.histogram("repro_exchange_seconds", rank=0).count == 1

    def test_counter_rejects_decrease(self):
        reg = metrics.MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.counter("repro_retries_total").inc(-1)

    def test_kind_conflict_rejected(self):
        reg = metrics.MetricsRegistry()
        reg.counter("repro_thing")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_thing")

    def test_prometheus_exposition(self):
        reg = metrics.MetricsRegistry()
        reg.counter("repro_exchange_rounds_total", rank=1).inc()
        reg.histogram("repro_exchange_seconds", buckets=(0.1, 1.0)).observe(0.5)
        text = reg.prometheus()
        assert "# TYPE repro_exchange_rounds_total counter" in text
        assert 'repro_exchange_rounds_total{rank="1"} 1' in text
        assert 'repro_exchange_seconds_bucket{le="1"} 1' in text
        assert 'repro_exchange_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_exchange_seconds_count 1" in text

    def test_snapshot_schema_and_clear(self):
        reg = metrics.MetricsRegistry()
        reg.gauge("repro_compression_ratio", rank=0).set(2.0)
        snap = reg.snapshot()
        assert snap["schema"] == "repro-metrics-v1"
        assert any(s["name"] == "repro_compression_ratio" for s in snap["series"])
        reg.clear()
        assert reg.snapshot()["series"] == []

    def test_snapshot_writer_produces_valid_json(self, tmp_path):
        path = tmp_path / "metrics.json"
        metrics.get_registry().gauge("repro_compression_ratio", rank=0).set(2.0)
        metrics.write_snapshot(str(path))
        snap = json.loads(path.read_text())
        assert snap["schema"] == "repro-metrics-v1"

    def test_live_series_refuse_writes_by_name(self):
        # A live series is a view of the live table: writing it through
        # the registry is a misuse, reported as such, not an AttributeError.
        reg = metrics.get_registry()
        with pytest.raises(TypeError, match="repro_retries_total.*emit"):
            reg.counter("repro_retries_total", rank=0).inc()
        with pytest.raises(TypeError, match="repro_error_headroom.*emit"):
            reg.gauge("repro_error_headroom", rank=0).set(5e-7)
        # the same names under any other label set are ordinary series
        reg.counter("repro_retries_total", rank=0, peer=1).inc()
        assert reg.counter("repro_retries_total", rank=0, peer=1).value == 1

    def test_disabled_telemetry_freezes_metrics(self):
        reg = metrics.MetricsRegistry()
        recorder.configure(enabled=False)
        reg.counter("repro_retries_total").inc()
        reg.gauge("repro_error_headroom").set(3.0)
        recorder.configure(enabled=True)
        assert reg.counter("repro_retries_total").value == 0
        assert reg.gauge("repro_error_headroom").value == 0.0


# -- shared-memory segment -------------------------------------------------------------


class TestShmTelemetry:
    def test_record_and_live_roundtrip_across_attach(self):
        seg = ShmTelemetry("tlmtest-rt", 2, capacity=8)
        try:
            seg.write(1, (_event("exchange-round", round_=3, value=512.0, detail="cast_fp32"),))
            seg.write(1, sets={"phase": "exchange", "rounds": 3.0})
            seg.write(1, adds={"wire_bytes": 512.0})
            other = ShmTelemetry.attach("tlmtest-rt")
            try:
                (ev,) = other.events(1)
                assert ev.kind == "exchange-round"
                assert ev.round == 3 and ev.value == 512.0
                assert ev.detail == "cast_fp32"
                live = other.live(1)
                assert live["phase"] == "exchange"
                assert live["rounds"] == 3.0
                assert live["wire_bytes"] == 512.0
            finally:
                other.detach()
        finally:
            seg.destroy()

    def test_ring_wraps_keeping_latest(self):
        seg = ShmTelemetry("tlmtest-wrap", 1, capacity=4)
        try:
            for i in range(10):
                seg.write(0, (_event("error", round_=i),))
            rounds = [e.round for e in seg.events(0)]
            assert rounds == [6, 7, 8, 9]
        finally:
            seg.destroy()

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        raw = shared_memory.SharedMemory(name="tlmtest-bad", create=True, size=256)
        try:
            with pytest.raises(TelemetryError, match="magic|not a telemetry"):
                ShmTelemetry.attach("tlmtest-bad")
        finally:
            raw.close()
            raw.unlink()

    def test_shm_sink_feeds_module_helpers(self):
        seg = ShmTelemetry("tlmtest-sink", 2, capacity=8)
        try:
            recorder.install_sink(ShmSink(seg))
            try:
                publish(0, (_event("fft", value=2.0, detail="fft 8^3"),))
                publish(0, sets=dict(alive=1.0, phase="local_fft"))
            finally:
                recorder.install_sink(None)
            (ev,) = seg.events(0)
            assert ev.kind == "fft" and ev.detail == "fft 8^3"
            assert seg.live(0)["phase"] == "local_fft"
        finally:
            seg.destroy()


# -- black-box dumps -------------------------------------------------------------------


class TestBlackbox:
    def _populate(self):
        publish(0, (_event("exchange-round", round_=0, value=1024.0, detail="cast_fp32"),))
        publish(0, (_event("error", round_=0, value=4e-8, value2=9.6e-7, detail="cast_fp32"),))
        publish(1, (_event("abort", detail="RuntimeAbort: peer died"),))

    def test_emit_merges_ranks_time_aligned(self):
        self._populate()
        dump = bb.emit_blackbox("unit test abort")
        assert dump["schema"] == bb.BLACKBOX_SCHEMA
        assert dump["reason"] == "unit test abort"
        assert set(dump["rings"]) == {"0", "1"}
        times = [e["t_ns"] for e in dump["merged"]]
        assert times == sorted(times)  # merged timeline is time-aligned
        assert dump["merged"][0]["t_rel_ms"] == 0.0
        assert bb.last_blackbox() is dump  # post-mortem retrieval hook
        assert dump["metrics"]["schema"] == "repro-metrics-v1"  # registry embedded

    def test_write_read_roundtrip_and_schema_gate(self, tmp_path):
        self._populate()
        dump = bb.emit_blackbox("roundtrip")
        path = tmp_path / "dump.json"
        bb.write_blackbox(dump, str(path))
        assert bb.read_blackbox(str(path))["reason"] == "roundtrip"
        path.write_text(json.dumps({"schema": "bogus-v9"}))
        with pytest.raises(TelemetryError, match="schema"):
            bb.read_blackbox(str(path))

    def test_format_is_human_readable(self):
        self._populate()
        dump = bb.emit_blackbox("render test")
        text = bb.format_blackbox(dump)
        assert "render test" in text
        assert "exchange-round" in text
        assert "rank 1" in text

    def test_env_var_writes_dump_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(bb.BLACKBOX_DIR_ENV, str(tmp_path))
        self._populate()
        bb.emit_blackbox("env var dump")
        dumps = list(tmp_path.glob("blackbox-*.json"))
        assert len(dumps) == 1
        assert bb.read_blackbox(str(dumps[0]))["reason"] == "env var dump"

    def test_sigusr1_arms_only_on_main_thread(self):
        worker_result = []

        def worker():
            worker_result.append(bb.arm_signal_dump())

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert worker_result == [False]  # signal API is main-thread-only

    def test_sigusr1_dump(self, tmp_path):
        import os

        self._populate()
        assert bb.arm_signal_dump(out_dir=str(tmp_path))
        try:
            os.kill(os.getpid(), signal.SIGUSR1)
        finally:
            bb.disarm_signal_dump()
        dumps = list(tmp_path.glob("blackbox-*.json"))
        assert dumps, "SIGUSR1 must produce a black-box dump file"
        assert "SIGUSR1" in bb.read_blackbox(str(dumps[0]))["reason"]


# -- error headroom on the compressed exchanges (satellite) ----------------------------


def _payloads(rank: int, size: int) -> list[np.ndarray]:
    rng = np.random.default_rng(100 + rank)
    return [rng.random(64) + 0.5 for _ in range(size)]


def _topology(p: int, g: int) -> Topology:
    spec = MachineSpec(name="test", gpus_per_node=g, gpu=GpuSpec(), network=NetworkSpec())
    return Topology(spec, p)


class TestErrorHeadroom:
    E_TOL = 1e-6

    def _run(self, p, cls, codec_factory, topo=None):
        def kernel(comm):
            op = cls(comm, codec_factory(), e_tol=self.E_TOL, topology=topo)
            try:
                op(_payloads(comm.rank, comm.size))
                return op.last_stats
            finally:
                op.free()

        return run_spmd(p, kernel)

    def _assert_headroom_never_negative(self, p):
        reg = metrics.get_registry()
        for rank in range(p):
            headroom = reg.gauge("repro_error_headroom", rank=rank).value
            achieved = reg.gauge("repro_achieved_error", rank=rank).value
            assert headroom >= 0.0, f"rank {rank} overshot e_tol by {-headroom:g}"
            assert achieved + headroom == pytest.approx(self.E_TOL)
        for rank, events in recorder.get_recorder().events_by_rank().items():
            for ev in events:
                if ev.kind == "error":
                    assert ev.value2 >= 0.0, f"rank {rank} flight headroom negative"

    def test_lossless_ladder_headroom_is_full_tolerance(self):
        p = 3
        stats = self._run(p, CompressedOscAlltoallv, ShuffleZlibCodec)
        for st in stats:
            assert st.error_measured
            assert st.achieved_error == 0.0  # lossless: round trip exact
        reg = metrics.get_registry()
        for rank in range(p):
            assert reg.gauge("repro_error_headroom", rank=rank).value == self.E_TOL
        self._assert_headroom_never_negative(p)

    def test_lossy_flat_exchange_headroom_nonnegative(self):
        p = 4
        stats = self._run(p, CompressedOscAlltoallv, lambda: CastCodec("fp32"))
        for st in stats:
            assert st.error_measured
            assert 0.0 < st.achieved_error <= self.E_TOL
        self._assert_headroom_never_negative(p)

    def test_lossy_twolevel_exchange_headroom_nonnegative(self):
        p = 6
        stats = self._run(
            p, TwoLevelCompressedAlltoallv, lambda: CastCodec("fp32"), topo=_topology(p, 3)
        )
        for st in stats:
            assert st.error_measured
            assert 0.0 < st.achieved_error <= self.E_TOL
        self._assert_headroom_never_negative(p)

    def test_exchange_emits_flight_and_wire_counters(self):
        p = 2
        self._run(p, CompressedOscAlltoallv, lambda: CastCodec("fp32"))
        reg = metrics.get_registry()
        for rank in range(p):
            assert reg.counter("repro_exchange_rounds_total", rank=rank).value == 1
            wire = reg.counter("repro_wire_bytes_total", rank=rank).value
            logical = reg.counter("repro_logical_bytes_total", rank=rank).value
            assert 0 < wire < logical  # fp32 cast halves the wire bytes
            kinds = [e.kind for e in recorder.get_recorder().events(rank)]
            assert "exchange-round" in kinds and "error" in kinds


# -- telemetry parity: raw exchanges publish what the window exchanges do --------------


RUNTIMES = [
    "thread",
    pytest.param(
        "proc",
        marks=pytest.mark.skipif(not fork_available(), reason="needs the fork start method"),
    ),
]


class TestRawExchangeParity:
    """Pairwise and reference reshapes used to reach neither the flight
    ring nor the registry; they now go through the one exchange epilogue
    (observed from inside each rank, so it holds for forked ranks too)."""

    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize("method", ["reference", "pairwise", "osc"])
    def test_reshape_reaches_flight_ring_and_registry(self, runtime, method):
        plan = Fft3d((8, 8, 8), 4)
        rplan = plan.reshapes[0]
        blocks = plan.scatter(np.random.default_rng(5).standard_normal((8, 8, 8)))

        def kernel(comm):
            stats = ExchangeStats()
            op = make_exchange(comm, method=method)
            try:
                for _ in range(2):
                    rplan.run_spmd(comm, blocks[comm.rank], op, stats=stats)
            finally:
                op.free()
            sink = recorder.get_recorder()
            ring = getattr(sink, "segment", sink)  # forked ranks write to shared memory
            rounds = [e for e in ring.events(comm.rank) if e.kind == "exchange-round"]
            reg = metrics.get_registry()
            return (
                [(e.round, e.value, e.detail) for e in rounds],
                reg.counter("repro_exchange_rounds_total", rank=comm.rank).value,
                reg.counter("repro_wire_bytes_total", rank=comm.rank).value,
                reg.counter("repro_logical_bytes_total", rank=comm.rank).value,
                stats,
            )

        for rounds, n_rounds, wire, logical, stats in make_world(runtime, 4, timeout=60.0).run(
            kernel
        ):
            per_call = stats.wire_bytes // 2
            detail = "raw-osc" if method == "osc" else method
            assert rounds == [(0, float(per_call), detail), (1, float(per_call), detail)]
            assert n_rounds == 2
            assert wire == logical == stats.wire_bytes == stats.logical_bytes > 0

    @pytest.mark.parametrize("method", ["reference", "pairwise", "osc"])
    def test_tracer_counters_match_stats_for_raw_methods(self, method):
        """The ``repro trace`` consistency check, for exchanges that used
        to report no stats to compare against."""
        from repro.trace import tracing

        plan = Fft3d((8, 8, 8), 4)
        blocks = plan.scatter(np.random.default_rng(6).standard_normal((8, 8, 8)))

        def kernel(comm):
            stats = FftStats()
            plan.forward_spmd(comm, blocks[comm.rank], method=method, stats=stats)
            return stats.totals()

        with tracing() as tracer:
            totals = run_spmd(4, kernel)
        for name in ("messages", "logical_bytes", "wire_bytes"):
            assert tracer.counter_total(name) == sum(getattr(t, name) for t in totals) > 0


# -- one record per event: what a thread run publishes is pinned -----------------------


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class TestPublishedStreamIsPinned:
    """Every sink's view of two ``ThreadWorld`` runs, as sha256 digests
    taken before the sites moved onto the one seam (emit / scope): every
    ring event in ring order, the final live table, the tracer's counters
    and instants, and every registry series.

    Exceptions, by design: ``repro_compression_ratio`` is no longer
    exported (it is ``logical / wire`` of two exported counters), and the
    live phase *between* the start and the end of a run may now follow
    scope nesting — the final table, which is pinned, is unchanged.  The
    two timed series are pinned by presence and observation count."""

    DROPPED = {"repro_compression_ratio"}
    TIMED = {"repro_exchange_seconds", "repro_link_bandwidth_bytes_per_s"}

    def _published(self, plan, faults=None) -> dict[str, str]:
        rng = np.random.default_rng(27)
        x = rng.standard_normal(plan.shape) + 1j * rng.standard_normal(plan.shape)
        blocks = plan.scatter(x)
        with tracing() as tracer:
            ThreadWorld(4, faults=faults, timeout=30.0).run(
                lambda comm: plan.forward_spmd(comm, blocks[comm.rank])
            )
        rec = recorder.get_recorder()
        ring = [
            [e.kind, e.rank, e.round, float(e.value), float(e.value2), e.detail]
            for _, events in sorted(rec.events_by_rank().items())
            for e in events
        ]
        live = {
            str(rank): {k: v if k == "phase" else float(v) for k, v in row.items()
                        if k != "heartbeat_ns"}
            for rank, row in rec.live_snapshot().items()
        }
        counters = sorted([rank, name, float(v)] for (rank, name), v in tracer.counters().items())
        instants = sorted(
            [i.kind, i.rank, json.dumps(i.attrs, sort_keys=True, default=str)]
            for i in tracer.instant_events()
        )
        series = []
        for entry in metrics.get_registry().snapshot()["series"]:
            if entry["name"] in self.DROPPED:
                continue
            row = [entry["name"], entry["labels"], entry.get("count")]
            if entry["name"] not in self.TIMED:
                row += [entry.get("value"), entry.get("sum")]
            series.append(row)
        return {
            "ring": _sha(ring),
            "live": _sha(live),
            "counters": _sha(counters),
            "instants": _sha(instants),
            "series": _sha(series),
        }

    def test_clean_fp32_forward(self):
        got = self._published(Fft3d((8, 8, 8), 4, codec=CastCodec("fp32")))
        assert got == {
            "ring": "8f32c101d7dbc1a57ac51b49ed846d434ca4b15551bbb2e5d904c083fd1b658f",
            "live": "620f0d4e6a28b6ca3e1cfd5d296118c5e762a5ababb62115782662e28e7544d5",
            "counters": "e37e2772e40f2e6b406b79f2fc767eb4e43440d1dfec4639d597c26add6e895b",
            "instants": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "series": "f73738f2dc4a294d8ea5147e67a37124cc309e78325a95524335ee7829127ce8",
        }

    def test_chaos_run_that_retries_and_degrades(self):
        faults = FaultPlan(
            [FaultRule("bitflip", rank=0, peer=1), FaultRule("codec", rank=2, max_triggers=3)],
            seed=27,
        )
        got = self._published(Fft3d((8, 8, 8), 4, e_tol=1e-6), faults)
        reg = metrics.get_registry()
        assert reg.counter("repro_retries_total", rank=2).value == 2
        assert reg.counter("repro_degradations_total", rank=2).value == 1
        assert got == {
            "ring": "0537b476a3a46da86343660badd7006074c41af1810dbe9e71f70d29bfec90b6",
            "live": "3497f4685c0c056fb73c40f57cc3e3e6b9338220f7573cb034731edfdbcd5403",
            "counters": "d5a851d51f5b01642ade3579bc0e0962567ac39e78b85c68d26732da6a0fcb4b",
            "instants": "9cd722e89f7e01767937ed6a179e7633c78765bca8e140c2e013a351d80a46f9",
            "series": "66c6d55870b553861514112ea9321dd264cb298804770e95c35933f6ba36f7e1",
        }


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
class TestForkedRanksMetricsReachTheParent:
    """A forked rank's per-rank metrics are its live row in shared memory;
    the parent folds the final rows into its own sink, which the registry
    reads — so they outlive the child, as its ring does."""

    def _series(self, snapshot) -> dict[tuple[str, str], float]:
        return {(s["name"], s["labels"].get("rank")): s.get("value") for s in snapshot["series"]}

    def test_forward_spmd_rounds_and_volumes(self):
        plan = Fft3d((8, 8, 8), 4, codec=CastCodec("fp32"))
        blocks = plan.scatter(np.random.default_rng(4).standard_normal((8, 8, 8)))

        def kernel(comm):
            stats = FftStats()
            plan.forward_spmd(comm, blocks[comm.rank], stats=stats)
            return stats.wire_bytes, stats.logical_bytes

        totals = ProcessWorld(4, timeout=60.0).run(kernel)
        series = self._series(metrics.get_registry().snapshot())
        for rank, (wire, logical) in enumerate(totals):
            assert series["repro_exchange_rounds_total", str(rank)] == 4
            assert series["repro_wire_bytes_total", str(rank)] == wire
            assert series["repro_logical_bytes_total", str(rank)] == logical
        assert 0 < sum(w for w, _ in totals) < sum(lg for _, lg in totals)

    def test_sigkill_dump_metrics_carry_the_victim_rounds(self):
        plan = Fft3d((8, 8, 8), 4, e_tol=1e-6)
        blocks = plan.scatter(np.random.default_rng(5).standard_normal((8, 8, 8)))

        def kernel(comm):
            for it in range(2):
                if it == 1 and comm.rank == 1:
                    os.kill(os.getpid(), signal.SIGKILL)
                plan.forward_spmd(comm, blocks[comm.rank])

        world = ProcessWorld(4, timeout=30.0)
        with pytest.raises(ReproError):
            world.run(kernel)
        series = self._series(world.last_blackbox["metrics"])
        assert series["repro_exchange_rounds_total", "1"] == 4  # one transform, then SIGKILL
        assert series["repro_achieved_error", "1"] > 0


# -- live monitor rendering ------------------------------------------------------------


class TestMonitorRendering:
    def test_render_table_shows_rank_state(self):
        live = {
            0: {
                "alive": 1.0,
                "done": 0.0,
                "heartbeat_ns": 0.0,
                "phase": "exchange",
                "rounds": 4.0,
                "wire_bytes": 2048.0,
                "logical_bytes": 4096.0,
                "error_headroom": 9.5e-7,
                "retries": 0.0,
                "degradations": 0.0,
                "events": 8.0,
            },
            1: {"alive": 0.0, "done": 1.0, "heartbeat_ns": 0.0, "phase": "done"},
        }
        text = render_table(live, uid="abc123")
        assert "abc123" in text
        assert "exchange" in text
        assert "2.0KiB" in text or "2048" in text or "2.0 KiB" in text

    def test_monitor_once_against_synthetic_segment(self, tmp_path, monkeypatch):
        from repro.telemetry.shmseg import remove_runfile, write_runfile

        seg = ShmTelemetry("tlmtest-mon", 2, capacity=8)
        try:
            seg.write(0, sets={"phase": "exchange", "rounds": 1.0, "alive": 1.0})
            seg.write(1, sets={"phase": "done", "done": 1.0})
            write_runfile("tlmtest-mon", {"segment": "tlmtest-mon", "nranks": 2})
            buf = io.StringIO()
            rc = run_monitor_cli(uid="tlmtest-mon", once=True, stream=buf)
            assert rc == 0
            out = buf.getvalue()
            assert "exchange" in out and "tlmtest-mon" in out
        finally:
            remove_runfile("tlmtest-mon")
            seg.destroy()

    def test_monitor_list_without_worlds(self):
        buf = io.StringIO()
        rc = run_monitor_cli(list_only=True, stream=buf)
        # No live worlds advertised in the test environment -> code 1 unless
        # another world is running concurrently (then listing succeeds).
        assert rc in (0, 1)
