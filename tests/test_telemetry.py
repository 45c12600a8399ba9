"""Tests for the always-on telemetry layer (repro.telemetry).

Covers the flight ring (one per world, segment ``t`` of its namespace),
the metrics registry and its exports, the ring over ``/dev/shm``, the
black-box dump assembly and pretty-printer, and the guarantee that
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

from repro.collectives import SlotExchange, TwoLevelCompressedAlltoallv, make_exchange
from repro.compression import CastCodec, ShuffleZlibCodec
from repro.errors import ReproError, TelemetryError
from repro.faults import EVENT_KINDS, FaultPlan, FaultRule
from repro.fft import Fft3d
from repro.fft.plan import FftStats
from repro.collectives.base import ExchangeStats
from repro.machine.spec import GpuSpec, MachineSpec, NetworkSpec
from repro.machine.topology import Topology
from repro.runtime import make_world, run_spmd
from repro.runtime.proc import ProcessWorld
from repro.runtime.shm import Segments, ShmSegments, fork_available
from repro.runtime.thread_rt import ThreadWorld
from repro.telemetry import blackbox as bb
from repro.telemetry import metrics, recorder
from repro.telemetry.monitor_cli import render_table, run_monitor_cli
from repro.faults.report import ResilienceReport
from repro.telemetry import KINDS, bind, emit
from repro.telemetry.shmseg import ShmTelemetry
from repro.trace import tracing


def _event(kind, peer=-1, round_=-1, value=0.0, value2=0.0, detail=""):
    """One flight-ring event tuple, as a ring's ``write`` takes it."""
    return (kind, peer, round_, value, value2, detail)


def _ring(nranks=4, capacity=recorder.FLIGHT_CAPACITY):
    """A flight ring over an anonymous segment, as a thread world makes it."""
    return ShmTelemetry.create(Segments(), nranks, capacity)


class _Bound:
    """Bind ``ring`` to this thread for a ``with`` block."""

    def __init__(self, ring):
        self.ring = ring

    def __enter__(self):
        self.prev = bind(self.ring)
        return self.ring

    def __exit__(self, *exc):
        bind(self.prev)


# -- flight recorder -------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded_and_ordered(self):
        ring = _ring(1, capacity=8)
        for i in range(20):
            ring.write(0, (_event("exchange-round", round_=i, value=float(i)),))
        events = ring.events(0)
        assert len(events) == 8  # bounded: only the last 8 survive
        assert [e.round for e in events] == list(range(12, 20))
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)  # monotonic sequence numbers

    def test_rings_are_per_rank(self):
        ring = _ring(2, capacity=4)
        ring.write(0, (_event("error", value=1.0),))
        ring.write(1, (_event("error", value=2.0),))
        by_rank = ring.events_by_rank()
        assert set(by_rank) == {0, 1}
        assert by_rank[0][0].value == 1.0
        assert by_rank[1][0].value == 2.0

    def test_module_level_helpers_hit_default_recorder(self):
        """The seam writes to the ring bound to the calling thread; a
        thread with none bound records nothing."""
        with _Bound(_ring()) as ring:
            ring.write(3, (_event("codec", detail="cast_fp32"),))
            ring.write(3, sets=dict(phase="pack", alive=1.0))
            for round_ in range(2):
                emit("exchange-round", 3, stats=ExchangeStats(1, 16, 8),
                     report=ResilienceReport(rank=3), round=round_, detail="cast_fp32")
        emit("exchange-round", 3, stats=ExchangeStats(1, 16, 8),
             report=ResilienceReport(rank=3), round=2, detail="cast_fp32")
        assert ring.events(3)[0].kind == "codec"
        live = ring.live(3)
        assert live["phase"] == "pack"
        assert live["rounds"] == 2.0
        assert len(ring.events(3)) == 3

    def test_disabled_recorder_is_a_noop(self):
        with _Bound(_ring()) as ring:
            recorder.configure(enabled=False)
            emit("fault-hang", 0, detail="x")
            emit("start", 0)
            recorder.configure(enabled=True)
        assert ring.events(0) == []
        assert ring.live(0)["alive"] == 0.0

    def test_kinds_are_advisory_not_enforced(self):
        # Recovery phases record arbitrary names ("checkpoint", ...);
        # the kind table groups dumps, it must not reject new sites.
        ring = _ring(1, capacity=4)
        ring.write(0, (_event("checkpoint", value=1.5),))
        assert ring.events(0)[0].kind == "checkpoint"

    def test_helpers_never_raise(self):
        class Broken:
            def write(self, *a, **k):
                raise RuntimeError("ring down")

        with _Bound(Broken()):
            # must not propagate: telemetry is best-effort
            emit("start", 0)
            emit("exchange-round", 0, stats=ExchangeStats(), report=ResilienceReport(rank=0),
                 round=0, detail="raw-osc")
        with _Bound(_ring(1)):
            emit("start", 5)  # a rank the ring does not hold

    def test_resilience_report_folds_into_ring(self):
        report = ResilienceReport(rank=2)
        report.record("retry", peer=1, attempt=0, codec="cast_fp32")
        report.record("degrade", peer=1, codec="shuffle-zlib", detail="e_tol")
        with _Bound(_ring()) as ring:
            emit("exchange-round", 2, stats=ExchangeStats(), report=report, round=7,
                 detail="cast_fp32")
        kinds = [e.kind for e in ring.events(2)]
        assert kinds == ["exchange-round", "retry", "degrade"]
        assert all(e.round == 7 for e in ring.events(2))

    def test_concurrent_writers_lose_nothing(self):
        """Under more writer threads than cores, two per rank, and a 1 us
        switch interval, every event and every accumulated field is there
        once, each event with a sequence number of its own in its rank's
        ring."""
        import sys

        ranks, per_thread = 4, 2000
        ring = _ring(ranks, capacity=2 * per_thread)
        start = threading.Barrier(2 * ranks)

        def writer(rank):
            start.wait(timeout=30)
            for i in range(per_thread):
                ring.write(rank, (_event("x", value=float(i)),), {"phase": "p"}, {"rounds": 1.0})

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
        for rank, events in ring.events_by_rank().items():
            assert len(events) == 2 * per_thread
            assert len({e.seq for e in events}) == len(events)
        for rank, row in ring.live_snapshot().items():
            assert row["rounds"] == row["events"] == 2 * per_thread, rank


class TestOneRingPerWorld:
    """Two thread worlds running at once record apart, each in its own
    ring, and their runs fold into the one registry."""

    def test_concurrent_worlds_record_apart_and_fold_together(self):
        shape, p, iters = (8, 8, 8), 4, 3
        plans = [Fft3d(shape, p, codec=CastCodec("fp32")), Fft3d(shape, p)]
        blocks = plans[0].scatter(np.random.default_rng(8).standard_normal(shape))
        worlds = [ThreadWorld(p, timeout=60.0), ThreadWorld(p, timeout=60.0)]
        totals: list = [None, None]
        start = threading.Barrier(2)

        def drive(i):
            def kernel(comm):
                stats = FftStats()
                for _ in range(iters):
                    plans[i].forward_spmd(comm, blocks[comm.rank], stats=stats)
                return stats.wire_bytes

            start.wait(timeout=30)
            totals[i] = worlds[i].run(kernel)

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert totals[0] is not None and totals[1] is not None
        details = []
        for world in worlds:
            rounds = {
                rank: [e for e in events if e.kind == "exchange-round"]
                for rank, events in world.flight.events_by_rank().items()
            }
            assert all(len(r) == 4 * iters for r in rounds.values())
            details.append({e.detail for r in rounds.values() for e in r})
        assert len(details[0]) == len(details[1]) == 1
        assert details[0] != details[1]  # no world's ring holds the other's rounds
        reg = metrics.get_registry()
        for rank in range(p):
            assert reg.counter("repro_exchange_rounds_total", rank=rank).value == 2 * 4 * iters
            assert reg.counter("repro_wire_bytes_total", rank=rank).value == (
                totals[0][rank] + totals[1][rank]
            )


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
        names = ShmSegments("tlmtest-rt", None)
        ring = ShmTelemetry.create(names, 2, capacity=8)
        try:
            ring.write(1, (_event("exchange-round", round_=3, value=512.0, detail="cast_fp32"),))
            ring.write(1, sets={"phase": "exchange", "rounds": 3.0})
            ring.write(1, adds={"wire_bytes": 512.0})
            other = ShmTelemetry(names.attach("t"))
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
                other.mapping.close()
        finally:
            ring.mapping.close()
            names.unlink("t")

    def test_ring_wraps_keeping_latest(self):
        ring = _ring(1, capacity=4)
        for i in range(10):
            ring.write(0, (_event("error", round_=i),))
        rounds = [e.round for e in ring.events(0)]
        assert rounds == [6, 7, 8, 9]

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        raw = shared_memory.SharedMemory(name="tlmtest-badt", create=True, size=256)
        try:
            with pytest.raises(TelemetryError, match="magic|not a flight ring"):
                ShmTelemetry(ShmSegments("tlmtest-bad", None).attach("t"))
        finally:
            raw.close()
            raw.unlink()

    def test_shm_sink_feeds_module_helpers(self):
        """A ring over ``/dev/shm`` bound to a thread takes the seam's records."""
        names = ShmSegments("tlmtest-sink", None)
        ring = ShmTelemetry.create(names, 2, capacity=8)
        try:
            with _Bound(ring):
                emit("leader-failover", 0, value=2.0, detail="fft 8^3")
                emit("start", 0)
            (ev,) = ring.events(0)
            assert ev.kind == "leader-failover" and ev.detail == "fft 8^3"
            assert ring.live(0)["phase"] == "start"
        finally:
            ring.mapping.close()
            names.unlink("t")

    def test_every_event_kind_round_trips_intact(self):
        """No kind a site records is cut by the ring's kind field (16
        bytes used to make ``integrity-failure`` ``integrity-failur``)."""
        kinds = sorted(set(EVENT_KINDS) | set(KINDS) | {"error", "rank-failed"})
        ring = _ring(1, capacity=len(kinds))
        for kind in kinds:
            ring.write(0, (_event(kind, detail="d" * 40),))
        assert [e.kind for e in ring.events(0)] == kinds
        assert {e.detail for e in ring.events(0)} == {"d" * 40}


# -- black-box dumps -------------------------------------------------------------------


class TestBlackbox:
    def _populate(self):
        world = ThreadWorld(2)
        ring = world.flight
        ring.write(0, (_event("exchange-round", round_=0, value=1024.0, detail="cast_fp32"),))
        ring.write(0, (_event("error", round_=0, value=4e-8, value2=9.6e-7, detail="cast_fp32"),))
        ring.write(1, (_event("abort", detail="RuntimeAbort: peer died"),))
        return world

    def test_emit_merges_ranks_time_aligned(self):
        world = self._populate()
        dump = world.blackbox("unit test abort")
        assert dump["schema"] == bb.BLACKBOX_SCHEMA
        assert dump["reason"] == "unit test abort"
        assert set(dump["rings"]) == {"0", "1"}
        times = [e["t_ns"] for e in dump["merged"]]
        assert times == sorted(times)  # merged timeline is time-aligned
        assert dump["merged"][0]["t_rel_ms"] == 0.0
        assert bb.last_blackbox() is dump  # post-mortem retrieval hook
        assert world.last_blackbox is dump
        assert dump["metrics"]["schema"] == "repro-metrics-v1"  # registry embedded

    def test_write_read_roundtrip_and_schema_gate(self, tmp_path):
        dump = self._populate().blackbox("roundtrip")
        path = tmp_path / "dump.json"
        bb.write_blackbox(dump, str(path))
        assert bb.read_blackbox(str(path))["reason"] == "roundtrip"
        path.write_text(json.dumps({"schema": "bogus-v9"}))
        with pytest.raises(TelemetryError, match="schema"):
            bb.read_blackbox(str(path))

    def test_format_is_human_readable(self):
        dump = self._populate().blackbox("render test")
        text = bb.format_blackbox(dump)
        assert "render test" in text
        assert "exchange-round" in text
        assert "rank 1" in text

    def test_env_var_writes_dump_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(bb.BLACKBOX_DIR_ENV, str(tmp_path))
        self._populate().blackbox("env var dump")
        dumps = list(tmp_path.glob("blackbox-*.json"))
        assert len(dumps) == 1
        assert bb.read_blackbox(str(dumps[0]))["reason"] == "env var dump"

    def test_sigusr1_arms_only_on_main_thread(self):
        worker_result = []

        def worker():
            worker_result.append(bb.arm_signal_dump(dict))

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert worker_result == [False]  # signal API is main-thread-only

    def test_sigusr1_dump(self, tmp_path):
        import os

        world = self._populate()
        assert bb.arm_signal_dump(lambda: world.blackbox("SIGUSR1"), out_dir=str(tmp_path))
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

        self.world = ThreadWorld(p)
        return self.world.run(kernel)

    def _assert_headroom_never_negative(self, p):
        reg = metrics.get_registry()
        for rank in range(p):
            headroom = reg.gauge("repro_error_headroom", rank=rank).value
            achieved = reg.gauge("repro_achieved_error", rank=rank).value
            assert headroom >= 0.0, f"rank {rank} overshot e_tol by {-headroom:g}"
            assert achieved + headroom == pytest.approx(self.E_TOL)
        for rank, events in self.world.flight.events_by_rank().items():
            for ev in events:
                if ev.kind == "error":
                    assert ev.value2 >= 0.0, f"rank {rank} flight headroom negative"

    def test_lossless_ladder_headroom_is_full_tolerance(self):
        p = 3
        stats = self._run(p, SlotExchange, ShuffleZlibCodec)
        for st in stats:
            assert st.error_measured
            assert st.achieved_error == 0.0  # lossless: round trip exact
        reg = metrics.get_registry()
        for rank in range(p):
            assert reg.gauge("repro_error_headroom", rank=rank).value == self.E_TOL
        self._assert_headroom_never_negative(p)

    def test_lossy_flat_exchange_headroom_nonnegative(self):
        p = 4
        stats = self._run(p, SlotExchange, lambda: CastCodec("fp32"))
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
        self._run(p, SlotExchange, lambda: CastCodec("fp32"))
        reg = metrics.get_registry()
        for rank in range(p):
            assert reg.counter("repro_exchange_rounds_total", rank=rank).value == 1
            wire = reg.counter("repro_wire_bytes_total", rank=rank).value
            logical = reg.counter("repro_logical_bytes_total", rank=rank).value
            assert 0 < wire < logical  # fp32 cast halves the wire bytes
            kinds = [e.kind for e in self.world.flight.events(rank)]
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
            rounds = [e for e in comm.world.flight.events(comm.rank) if e.kind == "exchange-round"]
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
    two timed series are pinned by presence and observation count.  The
    live table is the ring's row, which carries every ``LIVE_FIELDS``
    slot: restricted to the keys the dict table it replaced had, it
    reproduces that table's digests (``620f0d4e…``, ``3497f468…``); the
    added slots all read zero.

    The chaos run's exchanges hold each message against the plan's share
    of ``e_tol`` (``1e-6 / sqrt(8)``), not the whole of it: its ``e_tol``
    and headroom slots moved, and nothing else.  With them blanked — the
    ``value2`` of its ``error`` ring events, the live rows' ``e_tol`` and
    ``error_headroom``, the ``repro_error_headroom`` series — the ring,
    live and series digests are those of the run against the whole
    ``e_tol`` (``ca55aa10…``, ``68ad4a35…``, ``06603a8d…``)."""

    DROPPED = {"repro_compression_ratio"}
    TIMED = {"repro_exchange_seconds", "repro_link_bandwidth_bytes_per_s"}

    def _published(self, plan, faults=None) -> dict[str, str]:
        rng = np.random.default_rng(27)
        x = rng.standard_normal(plan.shape) + 1j * rng.standard_normal(plan.shape)
        blocks = plan.scatter(x)
        world = ThreadWorld(4, faults=faults, timeout=30.0)
        with tracing() as tracer:
            world.run(lambda comm: plan.forward_spmd(comm, blocks[comm.rank]))
        rec = world.flight
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
            for i in tracer.records("i")
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
            "live": "765fd5f9c05fed7405e216018e522b6a759faa8eeb369622090d3fdbf2bbf891",
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
            "ring": "f6e0d1535c6e700239c5fc767ffead5aea7d5c3e8e43ab11d03d244395a3a437",
            "live": "4276b4832ccdca7d1b2753478ddd8a21d68474de1e0312c983f0823312a1a170",
            "counters": "d5a851d51f5b01642ade3579bc0e0962567ac39e78b85c68d26732da6a0fcb4b",
            "instants": "9cd722e89f7e01767937ed6a179e7633c78765bca8e140c2e013a351d80a46f9",
            "series": "8d7ad923fdd7be8021867282fe66598ff577585a03d0a5a92d74a56d0bf6eae8",
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

        names = ShmSegments("tlmtest-mon", None)
        ring = ShmTelemetry.create(names, 2, capacity=8)
        try:
            ring.write(0, sets={"phase": "exchange", "rounds": 1.0, "alive": 1.0})
            ring.write(1, sets={"phase": "done", "done": 1.0})
            write_runfile("tlmtest-mon", {"nranks": 2})
            buf = io.StringIO()
            rc = run_monitor_cli(uid="tlmtest-mon", once=True, stream=buf)
            assert rc == 0
            out = buf.getvalue()
            assert "exchange" in out and "tlmtest-mon" in out
        finally:
            remove_runfile("tlmtest-mon")
            ring.mapping.close()
            names.unlink("t")

    @pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
    def test_monitor_leaves_the_live_worlds_segment_alone(self, tmp_path):
        """``repro monitor`` attaches the flight segment of a world it does
        not own: when it exits, the segment must still be the world's, and
        the world's own teardown must find it (the process resource
        tracker warns at shutdown about any it cannot)."""
        import subprocess
        import sys
        import textwrap

        host = textwrap.dedent(
            """
            import os, subprocess, sys, threading, time
            from repro.runtime.proc import ProcessWorld

            ready, done = sys.argv[1], sys.argv[2]
            world = ProcessWorld(2, timeout=60.0)

            def kernel(comm):
                if comm.rank == 0:
                    open(ready, "w").close()
                while not os.path.exists(done):
                    time.sleep(0.01)

            run = threading.Thread(target=world.run, args=(kernel,))
            run.start()
            while not os.path.exists(ready):
                time.sleep(0.01)
            monitor = subprocess.run(
                [sys.executable, "-m", "repro", "monitor", "--uid", world.uid, "--once"],
                capture_output=True, text=True,
            )
            left = os.path.exists("/dev/shm/" + world.uid + "t")
            open(done, "w").close()
            run.join()
            print(monitor.returncode, left)
            """
        )
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", host, str(tmp_path / "ready"), str(tmp_path / "done")],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.split() == ["0", "True"], proc.stdout + proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr

    def test_monitor_list_without_worlds(self):
        buf = io.StringIO()
        rc = run_monitor_cli(list_only=True, stream=buf)
        # No live worlds advertised in the test environment -> code 1 unless
        # another world is running concurrently (then listing succeeds).
        assert rc in (0, 1)
