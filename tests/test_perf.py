"""Tier-1 tests for the perf analysis layer (``repro.perf``)."""

from __future__ import annotations

import json

import pytest

from repro.machine.spec import laptop_spec
from repro.machine.topology import Topology
from repro.perf import (
    BENCH_PERF_SCHEMA,
    bandwidth_report,
    compare_payloads,
    critical_path,
    exchange_paths,
    format_bandwidth_report,
    format_comparison,
    format_critical_path,
    format_overlap_report,
    intersect_total,
    interval_union,
    overlap_report,
    phase_attribution,
)
from repro.trace.cli import traced_case
from repro.trace.core import Record


def S(kind, rank, t0, t1, depth=0, **attrs):
    """Shorthand synthetic span (times in ns)."""
    return Record("X", kind, rank, t0, t1, depth, attrs)


# -- interval arithmetic ----------------------------------------------------------------


class TestIntervals:
    def test_union_merges_overlaps_and_sorts(self):
        assert interval_union([(5, 9), (0, 3), (2, 4), (9, 12)]) == [(0, 4), (5, 12)]

    def test_union_drops_empty_intervals(self):
        assert interval_union([(3, 3), (5, 4)]) == []

    def test_intersection_measure(self):
        a = [(0, 10), (20, 30)]
        b = [(5, 25)]
        assert intersect_total(a, b) == 5 + 5

    def test_disjoint_intersection_is_zero(self):
        assert intersect_total([(0, 10)], [(10, 20)]) == 0


# -- critical path ----------------------------------------------------------------------


class TestCriticalPath:
    def _two_rank_timeline(self):
        return [
            # rank 0: exchange [0,100] with nested work, 5 ns self time
            S("exchange", 0, 0, 100, 0),
            S("pack", 0, 0, 10, 1),
            S("compress", 0, 10, 30, 1),
            S("put", 0, 30, 50, 1),
            S("fence", 0, 50, 80, 1),
            S("decompress", 0, 80, 95, 1),
            # rank 1 (the bounding rank): exchange [0,120], 10 ns self
            S("exchange", 1, 0, 120, 0),
            S("pack", 1, 0, 20, 1),
            S("put", 1, 20, 60, 1),
            S("fence", 1, 60, 110, 1),
        ]

    def test_self_time_attribution_hand_computed(self):
        tls = phase_attribution(self._two_rank_timeline())
        r0 = tls[0]
        assert r0.phases["pack"] == pytest.approx(10e-9)
        assert r0.phases["compress"] == pytest.approx(20e-9)
        assert r0.phases["exchange"] == pytest.approx(5e-9)  # 100 - children
        assert r0.phases["idle"] == pytest.approx(0.0)
        assert sum(r0.phases.values()) == pytest.approx(r0.end_to_end_s)

    def test_bounding_rank_and_phase_sum(self):
        path = critical_path(self._two_rank_timeline())
        assert path.rank == 1
        assert path.ranks == 2
        assert path.end_to_end_s == pytest.approx(120e-9)
        assert path.phases["fence"] == pytest.approx(50e-9)
        # phases (incl. idle) sum exactly to the end-to-end window
        assert sum(path.phases.values()) == pytest.approx(path.end_to_end_s)

    def test_idle_bucket_absorbs_gaps(self):
        tls = phase_attribution([S("pack", 0, 0, 10), S("put", 0, 50, 60)])
        assert tls[0].phases["idle"] == pytest.approx(40e-9)
        assert tls[0].end_to_end_s == pytest.approx(60e-9)

    def test_deeply_nested_spans_not_double_counted(self):
        spans = [
            S("exchange", 0, 0, 100, 0),
            S("retry", 0, 10, 90, 1),
            S("compress", 0, 20, 50, 2),
        ]
        tls = phase_attribution(spans)
        assert tls[0].phases["exchange"] == pytest.approx(20e-9)
        assert tls[0].phases["retry"] == pytest.approx(50e-9)
        assert tls[0].phases["compress"] == pytest.approx(30e-9)

    def test_empty_stream_returns_none_and_formats(self):
        assert critical_path([]) is None
        assert "no spans" in format_critical_path(None)

    def test_exchange_rounds_use_outermost_spans(self):
        spans = [
            # round 0: reshape exchange wrapping a nested collective exchange
            S("exchange", 0, 0, 100, 0),
            S("exchange", 0, 5, 95, 1),  # nested: must not create its own round
            S("put", 0, 10, 40, 2),
            S("exchange", 1, 0, 80, 0),
            # round 1
            S("exchange", 0, 200, 260, 0),
            S("exchange", 1, 200, 300, 0),
            S("fence", 1, 210, 290, 1),
        ]
        paths = exchange_paths(spans)
        assert [p.index for p in paths] == [0, 1]
        assert paths[0].rank == 0 and paths[0].end_to_end_s == pytest.approx(100e-9)
        assert paths[1].rank == 1
        assert paths[1].phases["fence"] == pytest.approx(80e-9)
        assert sum(paths[1].phases.values()) == pytest.approx(paths[1].end_to_end_s)


# -- overlap ----------------------------------------------------------------------------


class TestOverlap:
    def test_full_overlap_edge(self):
        spans = [S("compress", 0, 0, 100), S("put", 1, 0, 100, peer=0, bytes=10)]
        rep = overlap_report(spans)
        assert rep.per_rank[0].fraction == pytest.approx(1.0)
        assert rep.fraction == pytest.approx(1.0)

    def test_zero_overlap_edge(self):
        spans = [S("compress", 0, 0, 100), S("put", 1, 100, 200, peer=0, bytes=10)]
        rep = overlap_report(spans)
        assert rep.per_rank[0].hidden_s == 0.0
        assert rep.per_rank[0].fraction == 0.0

    def test_partial_overlap_hand_computed(self):
        spans = [
            S("compress", 0, 0, 100),
            S("decompress", 0, 200, 300),
            S("fence", 1, 50, 150),
            S("put", 1, 250, 260, peer=0, bytes=10),
        ]
        rep = overlap_report(spans)
        r0 = rep.per_rank[0]
        # hidden: compress∩fence = [50,100] (50) + decompress∩put = [250,260] (10)
        assert r0.codec_s == pytest.approx(200e-9)
        assert r0.hidden_s == pytest.approx(60e-9)
        assert r0.fraction == pytest.approx(0.3)

    def test_own_comm_counts_toward_union(self):
        # rank 0's own put cannot overlap its own codec time (sequential),
        # but a *different* codec span of rank 1 can hide behind it.
        spans = [S("put", 0, 0, 100, peer=1, bytes=10), S("compress", 1, 20, 60)]
        rep = overlap_report(spans)
        assert rep.per_rank[1].fraction == pytest.approx(1.0)
        assert rep.per_rank[0].comm_s == pytest.approx(100e-9)

    def test_empty_report_formats_readably(self):
        rep = overlap_report([])
        assert rep.fraction == 1.0  # nothing to hide
        assert "nothing to attribute" in format_overlap_report(rep)


class TestBandwidthReport:
    def test_link_classes_and_model_rates(self):
        topo = Topology(laptop_spec(), 4)  # 2 ranks/node -> 2 nodes
        spans = [
            S("put", 0, 1000, 2000, peer=1, bytes=1000),  # intra-node
            S("put", 0, 2000, 4000, peer=2, bytes=2000),  # inter-node
            S("sendrecv", 1, 0, 1000, peer=3, bytes=100),  # inter-node
            S("fence", 0, 0, 50),  # no payload: skipped
        ]
        classes = bandwidth_report(spans, topo)
        # no exchange puts or sends a rank's own block: no "self" class
        assert set(classes) == {"intra-node", "inter-node"}
        assert classes["inter-node"].bytes == 2100
        assert classes["inter-node"].busy_s == pytest.approx(3000e-9)
        spec = laptop_spec()
        assert classes["intra-node"].model_gbs == spec.network.intranode_gbs
        assert classes["inter-node"].model_gbs == spec.network.internode_gbs
        assert classes["inter-node"].nic_shared_gbs == pytest.approx(
            spec.network.internode_gbs / spec.gpus_per_node
        )
        assert classes["intra-node"].achieved_gbs == pytest.approx(1000 / 1000e-9 / 1e9)
        text = format_bandwidth_report(classes)
        assert "inter-node" in text and "NIC-shared" in text

    def test_empty_bandwidth_formats_readably(self):
        topo = Topology(laptop_spec(), 4)
        assert "no wire spans" in format_bandwidth_report(bandwidth_report([], topo))


# -- the regression gate ----------------------------------------------------------------


def _payload(name, medians, *, mads=None, calib=0.02):
    cases = {
        case: {
            "times_s": [m],
            "median_s": m,
            "mad_s": (mads or {}).get(case, m * 0.01),
            "spans": {},
            "counters": {},
            "overlap_fraction": None,
        }
        for case, m in medians.items()
    }
    return {
        "schema": BENCH_PERF_SCHEMA,
        "name": name,
        "unix_time": 0.0,
        "platform": {},
        "seed": 0,
        "repeats": 1,
        "calibration_s": calib,
        "cases": cases,
    }


class TestRegressionGate:
    def test_identical_runs_pass(self):
        base = _payload("base", {"a": 0.01, "b": 0.02})
        assert compare_payloads(_payload("cur", {"a": 0.01, "b": 0.02}), base).ok

    def test_2x_slowdown_trips_the_gate(self):
        base = _payload("base", {"a": 0.01, "b": 0.02})
        result = compare_payloads(_payload("cur", {"a": 0.02, "b": 0.04}), base)
        assert not result.ok
        assert {c.case for c in result.regressions} == {"a", "b"}
        assert all(c.ratio == pytest.approx(2.0) for c in result.regressions)

    def test_mad_level_noise_does_not_trip(self):
        # 60% slower, but the combined noise floor (2 ms MAD each side)
        # dwarfs the 6 ms slowdown: the MAD guard holds the gate shut.
        base = _payload("base", {"a": 0.010}, mads={"a": 0.002})
        cur = _payload("cur", {"a": 0.016}, mads={"a": 0.002})
        result = compare_payloads(cur, base)
        assert result.ok
        assert result.cases[0].ratio == pytest.approx(1.6)

    def test_calibration_normalises_machine_speed(self):
        # Twice-slower machine: calibration and medians both double ->
        # calibrated ratio 1.0, no regression.
        base = _payload("base", {"a": 0.01}, calib=0.02)
        cur = _payload("cur", {"a": 0.02}, calib=0.04)
        result = compare_payloads(cur, base)
        assert result.ok
        assert result.cases[0].ratio == pytest.approx(1.0)

    def test_dropped_case_is_a_regression(self):
        base = _payload("base", {"a": 0.01, "b": 0.02})
        result = compare_payloads(_payload("cur", {"a": 0.01}), base)
        assert not result.ok
        assert result.regressions[0].case == "b"
        assert result.regressions[0].missing
        assert "dropped" in format_comparison(result)

    def test_new_case_is_informational(self):
        base = _payload("base", {"a": 0.01})
        result = compare_payloads(_payload("cur", {"a": 0.01, "c": 0.5}), base)
        assert result.ok
        assert result.new_cases == ["c"]

    def test_schema_mismatch_rejected(self):
        base = _payload("base", {"a": 0.01})
        bad = dict(base, schema="repro-bench-v1")
        with pytest.raises(ValueError):
            compare_payloads(bad, base)
        with pytest.raises(ValueError):
            compare_payloads(base, bad)

    def test_rel_tol_and_mad_mult_are_tunable(self):
        base = _payload("base", {"a": 0.010}, mads={"a": 0.0})
        cur = _payload("cur", {"a": 0.013}, mads={"a": 0.0})
        assert compare_payloads(cur, base, rel_tol=0.5).ok
        assert not compare_payloads(cur, base, rel_tol=0.1).ok


# -- traced-run integration (the acceptance criterion) ----------------------------------


class TestTracedIntegration:
    @pytest.fixture(scope="class")
    def pipelined_tracer(self):
        tracer, topo, _ = traced_case("alltoall", nranks=4, seed=1)
        return tracer, topo

    def test_pipelined_exchange_has_positive_overlap(self, pipelined_tracer):
        tracer, _ = pipelined_tracer
        rep = overlap_report(tracer)
        assert rep.codec_s > 0
        assert rep.hidden_s > 0
        assert 0.0 < rep.fraction <= 1.0

    def test_critical_path_phases_sum_to_end_to_end(self, pipelined_tracer):
        tracer, _ = pipelined_tracer
        path = critical_path(tracer)
        assert path is not None
        assert sum(path.phases.values()) == pytest.approx(path.end_to_end_s, rel=1e-9)
        assert path.end_to_end_s > 0

    def test_exchange_round_detected_with_breakdown(self, pipelined_tracer):
        tracer, _ = pipelined_tracer
        paths = exchange_paths(tracer)
        assert len(paths) == 1  # one collective call -> one round
        assert paths[0].ranks == 4
        assert "put" in paths[0].phases and "compress" in paths[0].phases

    def test_bandwidth_report_covers_all_link_classes(self, pipelined_tracer):
        tracer, topo = pipelined_tracer
        classes = bandwidth_report(tracer, topo)
        # the self block is moved in place, never put: no "self" wire class
        assert set(classes) == {"intra-node", "inter-node"}
        assert all(c.bytes > 0 and c.busy_s > 0 for c in classes.values())

    def test_fft_run_yields_four_exchange_rounds(self):
        tracer, _, _ = traced_case("fft", nranks=4, seed=2)
        paths = exchange_paths(tracer)
        assert len(paths) == 4  # the four reshapes of Fig. 1
        run_path = critical_path(tracer)
        assert "local_fft" in run_path.phases
        assert sum(run_path.phases.values()) == pytest.approx(run_path.end_to_end_s, rel=1e-9)


# -- CLI --------------------------------------------------------------------------------

class TestPerfCli:
    def test_report_command(self, capsys, tmp_path):
        from repro.__main__ import main

        assert main(["trace", "alltoall", "--ranks", "4", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "overlapped with in-flight communication" in out
        assert "link class" in out

    def test_record_writes_baseline(self, capsys, tmp_path):
        from repro.__main__ import main

        assert main(
            ["perf", "record", "--name", "t", "--repeats", "1", "--out", str(tmp_path)]
        ) == 0
        doc = json.loads((tmp_path / "BENCH_t.json").read_text())
        assert doc["schema"] == BENCH_PERF_SCHEMA
        assert set(doc["cases"]) >= {"alltoall-osc", "fft-compressed"}
        assert doc["cases"]["alltoall-compressed-pipelined"]["overlap_fraction"] > 0

    def test_compare_exit_codes(self, monkeypatch, tmp_path, capsys):
        from repro.__main__ import main
        from repro.perf import cli as perf_cli

        base = _payload("base", {"a": 0.01})
        baseline_file = tmp_path / "BENCH_base.json"
        baseline_file.write_text(json.dumps(base))

        monkeypatch.setattr(
            perf_cli, "record_payload", lambda name, **kw: _payload(name, {"a": 0.01})
        )
        args = ["perf", "compare", "--baseline", str(baseline_file), "--out", str(tmp_path)]
        assert main(args) == 0

        monkeypatch.setattr(
            perf_cli, "record_payload", lambda name, **kw: _payload(name, {"a": 0.03})
        )
        assert main(args) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_requires_baseline(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["perf", "compare"])

    def test_unknown_report_case_rejected(self):
        with pytest.raises(SystemExit):
            traced_case("nope")
