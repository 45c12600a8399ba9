"""Chaos tests: SPMD exchanges under seeded fault plans.

Every scenario runs a real multi-threaded exchange with a deterministic
:class:`FaultPlan` and asserts one of exactly two outcomes: a bit-exact
(or recovered) result, or a *typed* library error — never silent
corruption.  The injector's audit log is checked so a passing test
proves the fault actually fired.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import (
    CompressedOscAlltoallv,
    OscAlltoallv,
    TwoLevelCompressedAlltoallv,
    make_exchange,
)
from repro.compression import CastCodec, IdentityCodec, ShuffleZlibCodec
from repro.errors import CommunicatorError, ReproError, RetryExhaustedError
from repro.faults import FaultPlan, FaultRule, RetryPolicy
from repro.fft import ReshapePlan, brick_decomposition, pencil_decomposition
from repro.machine.spec import GpuSpec, MachineSpec, NetworkSpec
from repro.machine.topology import Topology
from repro.collectives.base import ExchangeStats
from repro.runtime import ThreadWorld, run_spmd

P = 4  # world size used throughout

#: Payload tag of the reference alltoallv (see Comm.alltoallv).
ALLTOALLV_TAG = -103


def _payloads(rank: int, size: int) -> list[np.ndarray]:
    """Deterministic uneven payloads, unique per (source, dest)."""
    rng = np.random.default_rng(100 + rank)
    return [rng.random(16 + (rank + d) % 5) for d in range(size)]


def _reference(p: int) -> list[list[np.ndarray]]:
    def kernel(comm):
        return comm.alltoallv(_payloads(comm.rank, comm.size))

    return run_spmd(p, kernel)


def _fast_retry(max_attempts: int = 2) -> RetryPolicy:
    return RetryPolicy(max_attempts=max_attempts, base_delay=1e-4, max_delay=1e-3)


# -- bit-flips in one-sided puts ----------------------------------------------------


class TestBitflipCompressedOsc:
    """The acceptance scenario: flip a put, detect by CRC, retry, recover."""

    def test_lossless_exchange_recovers_bit_exact(self):
        plan = FaultPlan([FaultRule("bitflip", rank=0, peer=1)], seed=3)
        world = ThreadWorld(P, faults=plan)
        ref = _reference(P)

        def kernel(comm):
            op = CompressedOscAlltoallv(comm, IdentityCodec(), retry_policy=_fast_retry())
            try:
                recv = op(_payloads(comm.rank, comm.size))
            finally:
                op.free()
            return recv, op.last_report

        results = world.run(kernel)
        assert world.injector.injected("bitflip") == 1  # the fault really fired
        for r in range(P):
            recv, _ = results[r]
            for s in range(P):
                assert np.array_equal(recv[s], ref[r][s]), f"rank {r} block {s}"
        # The whole detect -> retry -> recover sequence is in the reports.
        victim = results[1][1]
        assert victim.integrity_failures >= 1
        assert victim.retries >= 1
        assert victim.recovered >= 1
        kinds = [e.kind for e in victim.events]
        assert kinds.index("integrity-failure") < kinds.index("recovered")
        sender = results[0][1]
        assert sender.retransmissions >= 1
        # Unaffected ranks stayed clean.
        assert results[3][1].clean

    def test_lossy_codec_recovers_to_reference_values(self):
        plan = FaultPlan([FaultRule("bitflip", rank=2, peer=0)], seed=9)
        world = ThreadWorld(P, faults=plan)

        def kernel(comm):
            op = CompressedOscAlltoallv(comm, CastCodec("fp32"), retry_policy=_fast_retry())
            try:
                recv = op(_payloads(comm.rank, comm.size))
            finally:
                op.free()
            return recv, op.last_report

        results = world.run(kernel)
        assert world.injector.injected("bitflip") == 1
        for r in range(P):
            recv, _ = results[r]
            for s in range(P):
                expect = _payloads(s, P)[r]
                assert recv[s] == pytest.approx(expect, rel=1e-6)
        assert results[0][1].recovered >= 1

    def test_retries_disabled_degrades_to_lossless(self):
        """With retries off, recovery round 0 already uses the lossless
        fallback: the recovered block is bit-exact even under a lossy codec."""
        plan = FaultPlan([FaultRule("bitflip", rank=0, peer=1)], seed=3)
        world = ThreadWorld(P, faults=plan)

        def kernel(comm):
            op = CompressedOscAlltoallv(
                comm, CastCodec("fp32"), retry_policy=RetryPolicy.disabled()
            )
            try:
                recv = op(_payloads(comm.rank, comm.size))
            finally:
                op.free()
            return recv, op.last_report

        results = world.run(kernel)
        recv1, report1 = results[1]
        # The retransmitted block took the lossless path: exact, not fp32.
        assert np.array_equal(recv1[0], _payloads(0, P)[1])
        degrade = report1.of_kind("degrade")
        assert degrade and degrade[0].codec == ShuffleZlibCodec(level=1).name
        recovered = report1.of_kind("recovered")
        assert recovered and recovered[0].codec == ShuffleZlibCodec(level=1).name
        assert report1.retries == 0  # retries were disabled
        # Untouched blocks still carry fp32 error (the lossy path was used).
        exact = _payloads(2, P)[1]
        assert not np.array_equal(recv1[2], exact)
        assert recv1[2] == pytest.approx(exact, rel=1e-6)

    def test_repeated_bitflips_eventually_exhaust(self):
        """A put corrupted on *every* round of a plan that also corrupts
        the two-sided fallback ends in a typed error, not garbage."""
        plan = FaultPlan(
            [
                FaultRule("bitflip", rank=0, peer=1, max_triggers=None),
                FaultRule("drop", rank=0, peer=1, max_triggers=None),
            ],
            seed=7,
        )

        def kernel(comm):
            op = CompressedOscAlltoallv(
                comm,
                IdentityCodec(),
                retry_policy=RetryPolicy(max_attempts=1, base_delay=1e-4),
            )
            try:
                return op(_payloads(comm.rank, comm.size))
            finally:
                op.free()

        with pytest.raises((RetryExhaustedError, CommunicatorError)):
            run_spmd(P, kernel, faults=plan, timeout=5.0)


class TestBitflipRawOsc:
    def test_verify_mode_detects_and_recovers(self):
        plan = FaultPlan([FaultRule("bitflip", rank=0, peer=1)], seed=21)
        world = ThreadWorld(P, faults=plan)
        ref = _reference(P)

        def kernel(comm):
            op = OscAlltoallv(comm, verify=True, retry_policy=_fast_retry())
            try:
                recv = op(_payloads(comm.rank, comm.size))
            finally:
                op.free()
            return recv, op.last_report

        results = world.run(kernel)
        assert world.injector.injected("bitflip") == 1
        for r in range(P):
            recv, _ = results[r]
            for s in range(P):
                assert np.array_equal(recv[s].view(np.float64), ref[r][s])
        assert results[1][1].integrity_failures >= 1
        assert results[1][1].recovered >= 1

    def test_without_verify_the_corruption_is_silent(self):
        """Documents why verify exists: the raw OSC path has no checksums."""
        plan = FaultPlan([FaultRule("bitflip", rank=0, peer=1)], seed=21)
        world = ThreadWorld(P, faults=plan)

        def kernel(comm):
            op = OscAlltoallv(comm)  # verify=False
            try:
                return op(_payloads(comm.rank, comm.size))
            finally:
                op.free()

        results = world.run(kernel)
        corrupted = results[1][0].view(np.float64)
        assert not np.array_equal(corrupted, _payloads(0, P)[1])


# -- dropped / duplicated point-to-point messages ------------------------------------


class TestDropAndDuplicate:
    def test_dropped_payload_times_out_with_typed_error(self):
        plan = FaultPlan([FaultRule("drop", rank=0, peer=1, tag=ALLTOALLV_TAG)], seed=1)

        def kernel(comm):
            return comm.alltoallv(_payloads(comm.rank, comm.size))

        with pytest.raises(CommunicatorError):
            run_spmd(P, kernel, faults=plan, timeout=2.0)

    def test_duplicate_delivery_is_harmless(self):
        plan = FaultPlan(
            [FaultRule("duplicate", rank=0, peer=1, tag=ALLTOALLV_TAG)], seed=1
        )
        world = ThreadWorld(P, faults=plan)
        ref = _reference(P)

        def kernel(comm):
            return comm.alltoallv(_payloads(comm.rank, comm.size))

        results = world.run(kernel)
        assert world.injector.injected("duplicate") == 1
        for r in range(P):
            for s in range(P):
                assert np.array_equal(results[r][s], ref[r][s])


# -- stragglers ----------------------------------------------------------------------


class TestStraggler:
    def test_delayed_rank_does_not_change_results(self):
        plan = FaultPlan([FaultRule("straggle", rank=2, delay=0.15)], seed=0)
        world = ThreadWorld(P, faults=plan)
        ref = _reference(P)

        def kernel(comm):
            op = CompressedOscAlltoallv(comm, IdentityCodec(), retry_policy=_fast_retry())
            try:
                return op(_payloads(comm.rank, comm.size))
            finally:
                op.free()

        results = world.run(kernel)
        assert world.injector.injected("straggle") == 1
        for r in range(P):
            for s in range(P):
                assert np.array_equal(results[r][s], ref[r][s])


# -- transient codec failures --------------------------------------------------------


class TestTransientCodec:
    def test_codec_hiccup_is_retried(self):
        plan = FaultPlan([FaultRule("codec", rank=0)], seed=2)
        world = ThreadWorld(P, faults=plan)
        ref = _reference(P)

        def kernel(comm):
            op = CompressedOscAlltoallv(comm, IdentityCodec(), retry_policy=_fast_retry())
            try:
                recv = op(_payloads(comm.rank, comm.size))
            finally:
                op.free()
            return recv, op.last_report

        results = world.run(kernel)
        assert world.injector.injected("codec") == 1
        for r in range(P):
            recv, _ = results[r]
            for s in range(P):
                assert np.array_equal(recv[s], ref[r][s])
        report0 = results[0][1]
        assert report0.count("transient-codec") == 1
        assert report0.retries >= 1

    def test_codec_hiccup_without_retries_degrades(self):
        plan = FaultPlan([FaultRule("codec", rank=0)], seed=2)
        world = ThreadWorld(P, faults=plan)

        def kernel(comm):
            op = CompressedOscAlltoallv(
                comm, CastCodec("fp32"), retry_policy=RetryPolicy.disabled()
            )
            try:
                recv = op(_payloads(comm.rank, comm.size))
            finally:
                op.free()
            return recv, op.last_report

        results = world.run(kernel)
        report0 = results[0][1]
        assert report0.count("transient-codec") == 1
        assert report0.degradations == 1
        # The degraded message went lossless: its receiver got exact bytes.
        degraded_dest = report0.of_kind("degrade")[0].peer
        recv_at_dest = results[degraded_dest][0]
        assert np.array_equal(recv_at_dest[0], _payloads(0, P)[degraded_dest])


# -- e_tol-driven degradation --------------------------------------------------------


class TestToleranceDegradation:
    def test_unmeetable_tolerance_forces_lossless(self):
        ref = _reference(P)

        def kernel(comm):
            op = CompressedOscAlltoallv(
                comm, CastCodec("fp16", scaled=True), e_tol=1e-14
            )
            try:
                recv = op(_payloads(comm.rank, comm.size))
            finally:
                op.free()
            return recv, op.last_report

        results = run_spmd(P, kernel)
        for r in range(P):
            recv, report = results[r]
            for s in range(P):
                assert np.array_equal(recv[s], ref[r][s])  # exact despite fp16 codec
            assert report.count("tolerance-exceeded") == P
            assert report.degradations == P

    def test_loose_tolerance_keeps_lossy_path(self):
        def kernel(comm):
            op = CompressedOscAlltoallv(comm, CastCodec("fp32"), e_tol=1e-3)
            try:
                op(_payloads(comm.rank, comm.size))
            finally:
                op.free()
            return op.last_report

        for report in run_spmd(P, kernel):
            assert report.clean


# -- the full reshape path -----------------------------------------------------------


class TestReshapeUnderFaults:
    def test_reshape_heals_and_surfaces_report(self, rng):
        shape = (12, 12, 12)
        src = brick_decomposition(shape, P)
        dst = pencil_decomposition(shape, P, 1)
        plan = ReshapePlan(src, dst)
        x = (rng.random(shape) + 1j * rng.random(shape)).astype(np.complex128)
        from repro.fft import Box3d

        full = Box3d((0, 0, 0), shape)
        locals_ = [
            np.ascontiguousarray(x[src.box_of(r).slices_within(full)]) for r in range(P)
        ]

        # Pick a real off-rank message from the plan (not every (s, d)
        # pair overlaps) so the bit-flip has a payload to hit.
        flip_src, flip_dst = next(
            (s, d)
            for s in range(P)
            for d, box in plan.pairs[s]
            if d != s and not box.empty
        )
        fault_plan = FaultPlan([FaultRule("bitflip", rank=flip_src, peer=flip_dst)], seed=13)
        world = ThreadWorld(P, faults=fault_plan)

        def kernel(comm):
            stats = ExchangeStats()
            op = make_exchange(comm, codec=IdentityCodec(), retry_policy=_fast_retry())
            out = plan.run_spmd(comm, locals_[comm.rank], op, stats=stats)
            op.free()
            return out, stats

        results = world.run(kernel)
        assert world.injector.injected("bitflip") == 1
        # The reshape healed: global field is unchanged, just re-laid-out.
        for r in range(P):
            out, _ = results[r]
            expect = x[dst.box_of(r).slices_within(full)]
            assert np.array_equal(out, expect)
        victim_stats = results[flip_dst][1]
        assert victim_stats.reports and not victim_stats.clean
        assert victim_stats.retries >= 1
        assert any(rep.recovered for rep in victim_stats.reports)

    def test_clean_run_reports_clean(self, rng):
        shape = (8, 8, 8)
        src = brick_decomposition(shape, P)
        dst = pencil_decomposition(shape, P, 1)
        plan = ReshapePlan(src, dst)
        from repro.fft import Box3d

        full = Box3d((0, 0, 0), shape)
        x = rng.random(shape).astype(np.complex128)
        locals_ = [
            np.ascontiguousarray(x[src.box_of(r).slices_within(full)]) for r in range(P)
        ]

        def kernel(comm):
            stats = ExchangeStats()
            op = make_exchange(comm, codec=IdentityCodec())
            plan.run_spmd(comm, locals_[comm.rank], op, stats=stats)
            op.free()
            return stats

        for stats in run_spmd(P, kernel):
            assert stats.clean
            assert stats.retries == 0 and stats.degradations == 0


# -- meta: fault plans never leak into clean worlds ----------------------------------


class TestNoFaultPlanIsNoOp:
    def test_faultless_world_has_no_injector(self):
        assert ThreadWorld(2).injector is None

    def test_exchange_matches_faultless_world(self):
        ref = _reference(P)
        world = ThreadWorld(P, faults=FaultPlan())  # empty plan, injector active

        def kernel(comm):
            op = CompressedOscAlltoallv(comm, IdentityCodec())
            try:
                recv = op(_payloads(comm.rank, comm.size))
            finally:
                op.free()
            return recv, op.last_report

        results = world.run(kernel)
        for r in range(P):
            recv, report = results[r]
            assert report.clean
            for s in range(P):
                assert np.array_equal(recv[s], ref[r][s])

    def test_all_chaos_errors_are_typed(self):
        """Whatever a plan does, failures must be ReproError subclasses."""
        plan = FaultPlan(
            [
                FaultRule("bitflip", probability=0.5, max_triggers=None),
                FaultRule("drop", tag=ALLTOALLV_TAG, probability=0.2, max_triggers=None),
                FaultRule("straggle", rank=1, delay=0.01, max_triggers=2),
            ],
            seed=1234,
        )

        def kernel(comm):
            op = CompressedOscAlltoallv(
                comm,
                IdentityCodec(),
                retry_policy=RetryPolicy(max_attempts=1, base_delay=1e-4),
            )
            try:
                return op(_payloads(comm.rank, comm.size))
            finally:
                op.free()

        try:
            results = run_spmd(P, kernel, faults=plan, timeout=5.0)
        except ReproError:
            pass  # typed failure: acceptable chaos outcome
        else:
            ref = _reference(P)
            for r in range(P):
                for s in range(P):
                    assert np.array_equal(results[r][s], ref[r][s])


# -- one-shot exchanges: encoded into a region, decoded into a box ------------------


def _blocks(rank: int, size: int) -> list[np.ndarray]:
    """2-D complex blocks, unique per (source, dest), cut three ways at chunks=3."""
    rng = np.random.default_rng(300 + rank)
    shapes = [(3 + (rank + d) % 3, 5) for d in range(size)]
    return [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]


class _RoutedBitflip(TwoLevelCompressedAlltoallv):
    """Two-level exchange whose routed regions pass the injector's put hook
    (``corrupt_put``) as they leave their sender: a plan's ``bitflip``
    rule, which otherwise hits one-sided puts only, reaches them too."""

    def _encode_private(self, view, dest, codec, report, stats):
        region = super()._encode_private(view, dest, codec, report, stats)
        injector, flipped = self._injector(), None
        if injector is not None and codec is None:  # not on retransmissions
            flipped = injector.corrupt_put(self.comm.rank, dest, region)
        return region if flipped is None else flipped


def _credit_rule(comm, codec, **kwargs):
    """The flat compressed exchange under the credit rule."""
    return make_exchange(comm, codec=codec, method="pairwise", **kwargs)


class _MiscutFirstSend(CompressedOscAlltoallv):
    """Rank 0's first transmission to rank 1 is cut into ``frames`` frames,
    whatever ``pipeline_chunks`` says: its region no longer matches the
    cut of the receiver's box."""

    frames = 1

    def _encode_block(self, view, dest, codec, report, stats, region):
        if codec is not None or (self.comm.rank, dest) != (0, 1):
            return super()._encode_block(view, dest, codec, report, stats, region)
        chunks, self.pipeline_chunks = self.pipeline_chunks, self.frames
        try:
            return super()._encode_block(view, dest, codec, report, stats, region)
        finally:
            self.pipeline_chunks = chunks


class TestOneShotUnderFaults:
    """One-shot flat and two-level exchanges of 2-D blocks at
    ``pipeline_chunks=3``: a corrupted region is retransmitted from the
    still-live send view and decoded into the same box, over the partial
    decode — identical to a clean run, or exact after a step down the
    ladder."""

    TOPOLOGY = Topology(
        MachineSpec(name="chaos", gpus_per_node=2, gpu=GpuSpec(), network=NetworkSpec()), P
    )

    def _run(self, cls, faults=None, retry_policy=None):
        world = ThreadWorld(P, faults=faults, timeout=30.0)

        def kernel(comm):
            op = cls(comm, CastCodec("fp32"), topology=self.TOPOLOGY, pipeline_chunks=3,
                     retry_policy=retry_policy or _fast_retry())
            try:
                recv = op(_blocks(comm.rank, comm.size))
            finally:
                op.free()
            return recv, op.last_report

        return world, world.run(kernel)

    @pytest.mark.parametrize(
        "cls", [CompressedOscAlltoallv, _RoutedBitflip, _credit_rule], ids=["flat", "two-level", "credit"]
    )
    def test_bitflip_is_retransmitted_into_the_box(self, cls):
        _, clean = self._run(cls)
        flip = FaultPlan([FaultRule("bitflip", rank=0, peer=3)], seed=5)
        world, results = self._run(cls, faults=flip)
        assert world.injector.injected("bitflip") == 1
        for r in range(P):
            recv, report = results[r]
            assert [b.shape for b in recv] == [b.shape for b in clean[r][0]]
            assert all(np.array_equal(a, b) for a, b in zip(recv, clean[r][0]))
        victim = results[3][1]
        assert victim.integrity_failures == 1 and victim.recovered == 1
        assert results[0][1].retransmissions == 1
        assert all(results[r][1].clean for r in (1, 2))

    @pytest.mark.parametrize("cls", [CompressedOscAlltoallv, _RoutedBitflip], ids=["flat", "two-level"])
    def test_bitflip_without_retries_steps_down_to_lossless(self, cls):
        _, clean = self._run(cls)
        flip = FaultPlan([FaultRule("bitflip", rank=0, peer=3)], seed=5)
        _, results = self._run(cls, faults=flip, retry_policy=RetryPolicy.disabled())
        recv, report = results[3]
        assert np.array_equal(recv[0], _blocks(0, P)[3])  # exact: the lossless fallback
        assert recv[0] == pytest.approx(clean[3][0][0], rel=1e-6)  # within the fp32 bound
        assert all(np.array_equal(recv[s], clean[3][0][s]) for s in range(1, P))
        assert report.of_kind("recovered")[0].codec == ShuffleZlibCodec(level=1).name

    @pytest.mark.parametrize("frames", [1, 5])
    def test_a_miscut_region_goes_into_recovery(self, frames):
        """More or fewer frames than the box's cut: a CompressionError the
        recovery catches — never an IndexError out of the decode walk."""
        _, clean = self._run(CompressedOscAlltoallv)
        miscut = type("Miscut", (_MiscutFirstSend,), {"frames": frames})
        _, results = self._run(miscut, faults=FaultPlan())
        for r in range(P):
            assert all(np.array_equal(a, b) for a, b in zip(results[r][0], clean[r][0]))
        failures = results[1][1].of_kind("integrity-failure")
        assert len(failures) == 1 and "corrupt metadata" in failures[0].detail
        assert results[1][1].recovered == 1


# -- the self block: moved in place, through the same ladder --------------------------


class TestSelfBlockFaults:
    """The block a rank owes itself is not put, so no put fault can hit
    it — and it is still encoded, so every codec fault and tolerance
    check still can, with the report events a put block would have."""

    def _run(self, make_op, send_of, faults=None):
        world = ThreadWorld(P, faults=faults, timeout=30.0)

        def kernel(comm):
            op = make_op(comm)
            try:
                recv = op(send_of(comm.rank))
            finally:
                op.free()
            return recv, op.last_report, op.last_stats

        return world, world.run(kernel)

    def test_codec_fault_on_the_self_block_retries_then_degrades(self):
        hiccups = FaultPlan([FaultRule("codec", rank=0, peer=0, max_triggers=3)], seed=2)
        world, results = self._run(
            lambda comm: CompressedOscAlltoallv(comm, CastCodec("fp32"), retry_policy=_fast_retry()),
            lambda rank: _payloads(rank, P),
            hiccups,
        )
        assert world.injector.injected("codec") == 3
        recv, report, _ = results[0]
        assert [(e.kind, e.peer, e.attempt, e.codec) for e in report.events] == [
            ("transient-codec", 0, 0, "cast_fp32"), ("retry", 0, 0, "cast_fp32"),
            ("transient-codec", 0, 0, "cast_fp32"), ("retry", 0, 1, "cast_fp32"),
            ("transient-codec", 0, 0, "cast_fp32"), ("degrade", 0, 0, "zlib1_shuffle"),
        ]
        assert np.array_equal(recv[0], _payloads(0, P)[0])  # the lossless fallback: exact
        assert recv[1] == pytest.approx(_payloads(1, P)[0], rel=1e-6)
        assert all(results[r][1].clean for r in range(1, P))

    def test_e_tol_overrun_on_the_self_block_goes_lossless(self):
        """Integers survive the fp32 cast exactly; only the self block does not."""

        def send_of(rank):
            rng = np.random.default_rng(rank)
            return [rng.standard_normal(40) if d == rank else np.arange(40.0) + d for d in range(P)]

        _, results = self._run(
            lambda comm: CompressedOscAlltoallv(comm, CastCodec("fp32"), e_tol=1e-12),
            send_of,
        )
        for rank, (recv, report, stats) in enumerate(results):
            assert [(e.kind, e.peer, e.codec) for e in report.events] == [
                ("tolerance-exceeded", rank, "cast_fp32"), ("degrade", rank, "zlib1_shuffle"),
            ]
            assert all(np.array_equal(recv[s], send_of(s)[rank]) for s in range(P))
            assert stats.error_measured and stats.achieved_error == 0.0

    @pytest.mark.parametrize("cls", [CompressedOscAlltoallv, _RoutedBitflip], ids=["flat", "two-level"])
    def test_a_bitflip_on_every_put_misses_only_the_self_block(self, cls):
        """Every put (flat) or routed region (two-level) is corrupted: each
        rank fails, and recovers, the p - 1 blocks that crossed to it — the
        self block, which used to be one of them, is never sent."""
        topology = TestOneShotUnderFaults.TOPOLOGY

        def make_op(comm):
            return cls(comm, CastCodec("fp32"), topology=topology, pipeline_chunks=3,
                       retry_policy=_fast_retry())

        _, clean = self._run(make_op, lambda rank: _blocks(rank, P))
        flips = FaultPlan([FaultRule("bitflip", max_triggers=None)], seed=6)
        world, results = self._run(make_op, lambda rank: _blocks(rank, P), flips)
        assert world.injector.injected("bitflip") == P * (P - 1)
        for rank, (recv, report, stats) in enumerate(results):
            assert all(np.array_equal(a, b) for a, b in zip(recv, clean[rank][0]))
            failed = sorted(e.peer for e in report.of_kind("integrity-failure"))
            assert failed == [s for s in range(P) if s != rank]
            assert report.recovered == P - 1 and stats.retransmissions == P - 1
