"""Edge-case tests for the stats/accounting fixes.

Zero-byte divisions in ``CompressionReport.rate`` and
``ExchangeStats.achieved_rate``, the ``ExchangeStats.clean``
counter/report consistency and ``ExchangeStats.merge`` — the one volume
record (a reshape's stats *are* its exchange's stats, so the
"reshape stats" tests below run on it) — and the pinned
(messages, logical, wire) triples of four transform configurations,
virtual and SPMD.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.collectives import make_exchange
from repro.collectives.base import ExchangeStats
from repro.compression import CastCodec, MantissaTrimCodec
from repro.compression.base import IdentityCodec
from repro.compression.metrics import CompressionReport, evaluate_codec
from repro.faults import ResilienceReport
from repro.fft.plan import Fft3d, FftStats
from repro.runtime import VirtualWorld, run_spmd


class TestCompressionReportRate:
    def test_empty_array_round_trip_is_rate_one(self):
        # Used to raise ZeroDivisionError: empty payload -> 0 wire bytes.
        report = evaluate_codec(IdentityCodec(), np.zeros(0, dtype=np.float64))
        assert report.original_nbytes == 0
        assert report.compressed_nbytes == 0
        assert report.rate == 1.0
        assert report.rel_l2 == 0.0 and report.max_abs == 0.0

    def test_zero_wire_bytes_with_payload_is_inf(self):
        report = CompressionReport(
            codec_name="bogus",
            n_values=4,
            original_nbytes=32,
            compressed_nbytes=0,
            rel_l2=0.0,
            max_abs=0.0,
        )
        assert math.isinf(report.rate)

    def test_normal_rate_unchanged(self):
        report = evaluate_codec(IdentityCodec(), np.ones(16))
        assert report.rate == pytest.approx(1.0)
        assert report.compressed_nbytes == 128


class TestAchievedRateGuards:
    def test_reshape_stats_zero_over_zero(self):
        assert ExchangeStats().achieved_rate == 1.0

    def test_reshape_stats_logical_without_wire_is_inf(self):
        # Previously reported 1.0, hiding the accounting anomaly.
        stats = ExchangeStats(logical_bytes=1024, wire_bytes=0)
        assert math.isinf(stats.achieved_rate)

    def test_reshape_stats_normal_division(self):
        stats = ExchangeStats(logical_bytes=100, wire_bytes=50)
        assert stats.achieved_rate == 2.0

    def test_exchange_stats_guards(self):
        assert ExchangeStats().achieved_rate == 1.0
        assert math.isinf(ExchangeStats(logical_bytes=8).achieved_rate)
        assert ExchangeStats(logical_bytes=80, wire_bytes=40).achieved_rate == 2.0

    def test_fft_stats_guards(self):
        stats = FftStats()
        assert stats.achieved_rate == 1.0
        stats.reshapes.append(ExchangeStats(logical_bytes=64, wire_bytes=0))
        assert math.isinf(stats.achieved_rate)
        stats.reshapes.append(ExchangeStats(logical_bytes=0, wire_bytes=32))
        assert stats.achieved_rate == 2.0


class TestReshapeStatsClean:
    def test_empty_stats_are_clean(self):
        assert ExchangeStats().clean

    def test_counters_without_reports_are_not_clean(self):
        # all(r.clean for r in []) is vacuously True; the counters must veto.
        assert not ExchangeStats(retries=2).clean
        assert not ExchangeStats(degradations=1).clean

    def test_clean_reports_and_zero_counters_are_clean(self):
        stats = ExchangeStats(reports=[ResilienceReport(rank=0)])
        assert stats.clean

    def test_eventful_report_is_not_clean(self):
        report = ResilienceReport(rank=0)
        report.record("integrity-failure", peer=1)
        assert not ExchangeStats(reports=[report]).clean


class TestReshapeStatsMerge:
    def _stats(self, scale: int, *, with_report: bool = False) -> ExchangeStats:
        reports = []
        if with_report:
            r = ResilienceReport(rank=scale)
            r.record("retry", peer=0)
            reports.append(r)
        return ExchangeStats(
            messages=1 * scale,
            logical_bytes=100 * scale,
            wire_bytes=50 * scale,
            retries=2 * scale,
            degradations=3 * scale,
            reports=reports,
        )

    def test_merge_sums_all_fields_and_extends_reports(self):
        a = self._stats(1, with_report=True)
        b = self._stats(2, with_report=True)
        out = a.merge(b)
        assert out is a  # chainable
        assert a.messages == 3
        assert a.logical_bytes == 300
        assert a.wire_bytes == 150
        assert a.retries == 6
        assert a.degradations == 9
        assert len(a.reports) == 2
        assert a.achieved_rate == 2.0

    def test_merge_carries_retransmissions_and_the_worst_error(self):
        a = ExchangeStats(retransmissions=1, retransmitted_bytes=64, achieved_error=1e-9)
        b = ExchangeStats(
            retransmissions=2, retransmitted_bytes=32, achieved_error=3e-9, error_measured=True
        )
        a.merge(b)
        assert (a.retransmissions, a.retransmitted_bytes) == (3, 96)
        assert a.achieved_error == 3e-9 and a.error_measured

    def test_merge_chain_matches_hand_summing(self):
        total = ExchangeStats()
        parts = [self._stats(i) for i in (1, 2, 3)]
        for p in parts:
            total.merge(p)
        assert total.messages == sum(p.messages for p in parts)
        assert total.wire_bytes == sum(p.wire_bytes for p in parts)
        assert total.retries == sum(p.retries for p in parts)

    def test_fft_stats_totals_uses_merge(self):
        stats = FftStats(reshapes=[self._stats(1, with_report=True), self._stats(2)])
        totals = stats.totals()
        assert totals.messages == 3
        assert totals.wire_bytes == 150
        assert totals.retries == stats.retries == 6
        assert totals.degradations == stats.degradations == 9
        assert len(totals.reports) == 1
        # merging into a fresh accumulator must not mutate the stages
        assert stats.reshapes[0].messages == 1


class TestOneRecord:
    def test_fft_stats_sums_every_counter(self):
        stats = FftStats(reshapes=[ExchangeStats(messages=2, retries=1), ExchangeStats(messages=3)])
        assert (stats.messages, stats.retries, stats.degradations) == (5, 1, 0)

    def test_an_exchange_fills_counters_and_report_from_its_report(self):
        """``Exchange._finish`` publishes one record: volumes, the
        resilience counters and the report they were counted from."""

        def kernel(comm):
            op = make_exchange(comm, codec=IdentityCodec())
            try:
                op([np.arange(4.0) + comm.rank] * comm.size)
            finally:
                op.free()
            return op.last_stats, op.last_report

        for stats, report in run_spmd(2, kernel):
            assert stats.reports == [report] and stats.clean
            assert (stats.retries, stats.degradations) == (report.retries, report.degradations)
            assert (stats.messages, stats.logical_bytes) == (2, 64)


#: (shape, ranks, plan options) -> (messages, logical bytes, wire bytes) of
#: one forward transform, summed over ranks.
PINNED = [
    ((12, 10, 8), 4, {"e_tol": 1e-8}, (28, 61_440, 38_400)),
    ((7, 6, 5), 3, {"codec": MantissaTrimCodec(36)}, (24, 13_440, 10_080)),
    ((8, 8, 8), 4, {"codec": CastCodec("fp32")}, (28, 32_768, 16_384)),
    ((6, 5, 4), 5, {}, (60, 7_680, 7_680)),
]


class TestVirtualAndSpmdMoveTheSameBytes:
    @pytest.mark.parametrize("shape,p,options,volume", PINNED, ids=["e_tol", "trim36", "fp32", "exact"])
    def test_pinned_volumes_and_identical_blocks(self, shape, p, options, volume):
        rng = np.random.default_rng(22)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        plan = Fft3d(shape, p, **options)
        world = VirtualWorld(p)
        y = plan.forward(x, world=world)
        totals = plan.last_stats.totals()
        assert (totals.messages, totals.logical_bytes, totals.wire_bytes) == volume
        assert world.traffic.messages == volume[0]
        assert world.traffic.total_bytes == volume[2]
        assert sum(world.traffic.per_message_sizes) == volume[2]

        blocks = plan.scatter(x)

        def kernel(comm):
            stats = FftStats()
            return plan.forward_spmd(comm, blocks[comm.rank], stats=stats), stats.totals()

        results = run_spmd(p, kernel)
        assert np.array_equal(plan.gather([block for block, _ in results]), y)  # bit-identical
        summed = ExchangeStats().merge(*(stats for _, stats in results))
        assert (summed.messages, summed.logical_bytes, summed.wire_bytes) == volume
