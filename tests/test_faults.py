"""Unit tests for the fault-injection/resilience primitives.

Covers the seeded :class:`FaultPlan`/:class:`FaultInjector` machinery,
the :class:`RetryPolicy` backoff schedule, the checksummed v2 wire
format (CRC detection, restricted unpickling), the window-registry
lifecycle fix and the shrink-reuse window cache.
"""

from __future__ import annotations

import pickle
import struct
import zlib

import numpy as np
import pytest

from repro.collectives import SlotExchange
from repro.collectives.wire import (
    WIRE_MAGIC,
    WIRE_VERSION,
    decode_wire,
    encode_wire,
    frame_length,
    wire_overhead,
)
from repro.compression import CastCodec, IdentityCodec
from repro.errors import (
    CompressionError,
    FaultConfigError,
    TransientCodecError,
    WireIntegrityError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    ResilienceReport,
    RetryPolicy,
)
from repro.runtime import ThreadWorld, run_spmd


# -- FaultPlan / FaultRule ---------------------------------------------------------


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultRule("meteor-strike")

    @pytest.mark.parametrize("prob", [-0.1, 1.5])
    def test_bad_probability_rejected(self, prob):
        with pytest.raises(FaultConfigError):
            FaultRule("drop", probability=prob)

    def test_bad_counts_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultRule("bitflip", bits=0)
        with pytest.raises(FaultConfigError):
            FaultRule("bitflip", max_triggers=0)
        with pytest.raises(FaultConfigError):
            FaultRule("straggle", delay=-1.0)
        with pytest.raises(FaultConfigError):
            FaultRule("drop", after=-1)

    def test_plan_validates_entries(self):
        with pytest.raises(FaultConfigError):
            FaultPlan(["not a rule"])  # type: ignore[list-item]

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan([FaultRule("drop")])

    def test_rule_matching_filters(self):
        rule = FaultRule("drop", rank=1, peer=2, tag=-103)
        assert rule.matches("drop", 1, 2, -103)
        assert not rule.matches("drop", 0, 2, -103)
        assert not rule.matches("drop", 1, 3, -103)
        assert not rule.matches("drop", 1, 2, 0)
        assert not rule.matches("bitflip", 1, 2, -103)
        # None filters are wildcards.
        assert FaultRule("drop").matches("drop", 5, 7, 42)


class TestFaultInjector:
    def test_max_triggers_honoured(self):
        inj = FaultInjector(FaultPlan([FaultRule("drop", max_triggers=2)]))
        actions = [inj.p2p_action(0, 1) for _ in range(5)]
        assert actions == ["drop", "drop", "deliver", "deliver", "deliver"]
        assert inj.injected("drop") == 2

    def test_after_skips_early_ops(self):
        inj = FaultInjector(FaultPlan([FaultRule("drop", after=2, max_triggers=1)]))
        actions = [inj.p2p_action(0, 1) for _ in range(4)]
        assert actions == ["deliver", "deliver", "drop", "deliver"]

    def test_counters_are_per_rank(self):
        inj = FaultInjector(FaultPlan([FaultRule("drop", after=1, max_triggers=None)]))
        # Rank 0's first op is skipped, rank 1's first op is skipped too.
        assert inj.p2p_action(0, 1) == "deliver"
        assert inj.p2p_action(1, 0) == "deliver"
        assert inj.p2p_action(0, 1) == "drop"
        assert inj.p2p_action(1, 0) == "drop"

    def test_probabilistic_decisions_are_deterministic(self):
        plan = FaultPlan([FaultRule("drop", probability=0.5, max_triggers=None)], seed=11)
        # Two fresh injectors replay identically, op by op.
        inj_a, inj_b = FaultInjector(plan), FaultInjector(plan)
        seq_a = [inj_a.p2p_action(0, 1) for _ in range(64)]
        seq_b = [inj_b.p2p_action(0, 1) for _ in range(64)]
        assert seq_a == seq_b
        assert "drop" in seq_a and "deliver" in seq_a  # p=0.5 actually mixes

    def test_probability_zero_never_fires(self):
        inj = FaultInjector(FaultPlan([FaultRule("drop", probability=0.0, max_triggers=None)]))
        assert all(inj.p2p_action(0, 1) == "deliver" for _ in range(32))

    def test_bitflip_is_deterministic_and_single_bit(self):
        plan = FaultPlan([FaultRule("bitflip", bits=1)], seed=5)
        raw = np.zeros(64, dtype=np.uint8)
        out_a = FaultInjector(plan).corrupt_put(0, 1, raw)
        out_b = FaultInjector(plan).corrupt_put(0, 1, raw)
        assert out_a is not None and np.array_equal(out_a, out_b)
        flipped = np.unpackbits(out_a ^ raw).sum()
        assert flipped == 1
        assert np.array_equal(raw, np.zeros(64, dtype=np.uint8))  # input untouched

    def test_bitflip_skips_empty_payloads(self):
        inj = FaultInjector(FaultPlan([FaultRule("bitflip")]))
        assert inj.corrupt_put(0, 1, np.zeros(0, dtype=np.uint8)) is None
        assert inj.injected() == 0

    def test_codec_fault_raises_transient(self):
        inj = FaultInjector(FaultPlan([FaultRule("codec", rank=1, max_triggers=1)]))
        inj.codec_fault(0, 2)  # other rank: no-op
        with pytest.raises(TransientCodecError):
            inj.codec_fault(1, 2)
        inj.codec_fault(1, 2)  # trigger budget exhausted

    def test_straggle_delay(self):
        inj = FaultInjector(FaultPlan([FaultRule("straggle", rank=2, delay=0.25)]))
        assert inj.straggle_delay(0) == 0.0
        assert inj.straggle_delay(2) == 0.25
        assert inj.straggle_delay(2) == 0.0  # max_triggers=1 default


# -- RetryPolicy --------------------------------------------------------------------


class TestRetryPolicy:
    def test_schedule_is_deterministic(self):
        a = RetryPolicy(max_attempts=4, seed=7).schedule()
        b = RetryPolicy(max_attempts=4, seed=7).schedule()
        assert a == b
        assert len(a) == 4

    def test_backoff_grows_and_caps(self):
        p = RetryPolicy(max_attempts=8, base_delay=0.001, backoff=2.0, max_delay=0.01, jitter=0.0)
        d = p.schedule()
        assert d == sorted(d)
        assert d[0] == pytest.approx(0.001)
        assert d[-1] == pytest.approx(0.01)

    def test_jitter_bounded(self):
        p = RetryPolicy(max_attempts=16, base_delay=0.001, backoff=1.0, jitter=0.25)
        for a, d in enumerate(p.schedule()):
            assert 0.00075 <= d <= 0.00125, f"attempt {a}: {d}"

    def test_disabled(self):
        p = RetryPolicy.disabled()
        assert p.max_attempts == 0
        assert p.schedule() == []

    def test_validation(self):
        with pytest.raises(FaultConfigError):
            RetryPolicy(max_attempts=-1)
        with pytest.raises(FaultConfigError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(FaultConfigError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(FaultConfigError):
            RetryPolicy().delay(-1)


# -- ResilienceReport ----------------------------------------------------------------


class TestResilienceReport:
    def test_counts_and_summary(self):
        r = ResilienceReport(rank=3)
        assert r.clean
        r.record("integrity-failure", peer=1)
        r.record("retry", peer=1, attempt=0)
        r.record("recovered", peer=1, attempt=0, codec="identity")
        assert not r.clean
        assert r.integrity_failures == 1
        assert r.retries == 1
        assert r.recovered == 1
        assert r.degradations == 0
        assert "rank 3" in r.summary()
        assert [e.kind for e in r.of_kind("retry")] == ["retry"]

    def test_merge(self):
        a, b = ResilienceReport(rank=0), ResilienceReport(rank=0)
        a.record("retry")
        b.record("degrade", codec="zlib1_shuffle")
        a.merge(b)
        assert a.retries == 1 and a.degradations == 1


# -- wire format v2 -------------------------------------------------------------------


class TestWireV2:
    def test_roundtrip(self, rng):
        msg = CastCodec("fp16", scaled=True).compress(rng.random(100))
        frame = encode_wire(msg)
        assert bytes(frame[:4].tobytes()) == WIRE_MAGIC
        assert frame[4] == WIRE_VERSION
        out, consumed = decode_wire(frame)
        assert consumed == frame.size
        assert out.codec_name == msg.codec_name
        assert out.dtype_name == msg.dtype_name
        assert out.shape == msg.shape
        assert out.header == msg.header
        assert np.array_equal(out.payload, msg.payload)
        assert frame_length(frame) == frame.size
        assert wire_overhead(msg) == frame.size - msg.payload.size

    @pytest.mark.parametrize("byte_index", [0, 3, 4, 10, 20, 35, 60, -1])
    def test_any_flipped_bit_detected(self, rng, byte_index):
        frame = encode_wire(IdentityCodec().compress(rng.random(16)))
        bad = frame.copy()
        bad[byte_index] ^= 0x10
        with pytest.raises(WireIntegrityError):
            decode_wire(bad)

    def test_payload_corruption_detected(self, rng):
        frame = encode_wire(IdentityCodec().compress(rng.random(16)))
        bad = frame.copy()
        bad[-5] ^= 0x01  # inside the payload region
        with pytest.raises(WireIntegrityError, match="payload checksum"):
            decode_wire(bad)

    def test_metadata_corruption_detected(self, rng):
        frame = encode_wire(IdentityCodec().compress(rng.random(16)))
        bad = frame.copy()
        bad[34] ^= 0x01  # inside the metadata region
        with pytest.raises(WireIntegrityError, match="metadata checksum"):
            decode_wire(bad)

    def test_wrong_magic_rejected(self, rng):
        frame = encode_wire(IdentityCodec().compress(rng.random(4)))
        bad = frame.copy()
        bad[:4] = np.frombuffer(b"NOPE", dtype=np.uint8)
        with pytest.raises(WireIntegrityError, match="magic"):
            decode_wire(bad)
        with pytest.raises(WireIntegrityError, match="magic"):
            frame_length(bad)

    def test_wrong_version_rejected(self, rng):
        frame = encode_wire(IdentityCodec().compress(rng.random(4)))
        bad = frame.copy()
        bad[4] = 99
        with pytest.raises(WireIntegrityError, match="version"):
            decode_wire(bad)

    def test_integrity_error_is_a_compression_error(self):
        # Existing callers catching CompressionError keep working.
        assert issubclass(WireIntegrityError, CompressionError)

    def test_implausible_lengths_rejected(self):
        header = struct.pack(
            "<4sBBHQQII", WIRE_MAGIC, WIRE_VERSION, 0, 0, 1 << 60, 0, 0, 0
        )
        with pytest.raises(WireIntegrityError, match="implausible"):
            frame_length(np.frombuffer(header, dtype=np.uint8))


class _Evil:
    """Pickles to an os.system call — must never be executed on decode."""

    def __reduce__(self):
        import os

        return (os.system, ("echo pwned > /tmp/repro_pwned",))


def _forge_frame(meta: bytes, payload: bytes = b"") -> np.ndarray:
    """Craft a frame with *valid* CRCs around attacker-chosen metadata."""
    header = struct.pack(
        "<4sBBHQQII",
        WIRE_MAGIC,
        WIRE_VERSION,
        0,
        0,
        len(meta),
        len(payload),
        zlib.crc32(meta) & 0xFFFFFFFF,
        zlib.crc32(payload) & 0xFFFFFFFF,
    )
    return np.frombuffer(header + meta + payload, dtype=np.uint8).copy()


class TestRestrictedUnpickler:
    def test_code_execution_payload_rejected(self):
        frame = _forge_frame(pickle.dumps(_Evil()))
        with pytest.raises(WireIntegrityError, match="disallowed global"):
            decode_wire(frame)

    def test_global_lookup_rejected_even_for_stdlib(self):
        import collections

        frame = _forge_frame(pickle.dumps(("a", "b", (1,), collections.OrderedDict())))
        with pytest.raises(WireIntegrityError, match="disallowed global"):
            decode_wire(frame)

    def test_garbage_metadata_rejected(self):
        frame = _forge_frame(b"\x00\x01\x02 definitely not a pickle")
        with pytest.raises(WireIntegrityError):
            decode_wire(frame)

    def test_wrong_structure_rejected(self):
        frame = _forge_frame(pickle.dumps(("only", "three", "fields")))
        with pytest.raises(WireIntegrityError, match="structure"):
            decode_wire(frame)
        frame = _forge_frame(pickle.dumps((1, "f64", (4,), {})))
        with pytest.raises(WireIntegrityError, match="field types"):
            decode_wire(frame)
        frame = _forge_frame(pickle.dumps(("identity", "f64", (4,), "not a dict")))
        with pytest.raises(WireIntegrityError, match="header"):
            decode_wire(frame)

    def test_plain_metadata_still_decodes(self):
        msg = IdentityCodec().compress(np.arange(8, dtype=np.float64))
        assert decode_wire(encode_wire(msg))[0].shape == (8,)


# -- window lifecycle ------------------------------------------------------------------


class TestWindowRegistryLifecycle:
    def test_freed_windows_are_deregistered(self):
        world = ThreadWorld(3)

        def kernel(comm):
            for _ in range(4):
                win = comm.win_create(256)
                win.fence()
                win.put(np.full(8, comm.rank, dtype=np.uint8), (comm.rank + 1) % comm.size)
                win.fence()
                win.free()
            return True

        assert all(world.run(kernel))
        assert world.segments.names() == ["r0", "r1", "r2", "t"]  # every arena unlinked

    def test_live_windows_stay_registered(self):
        world = ThreadWorld(2)

        def kernel(comm):
            win = comm.win_create(64)
            win.fence()
            win.fence()
            return win.local_view().size

        assert world.run(kernel) == [64, 64]
        assert world.segments.names() == ["r0", "r1", "t", "w0"]  # the live window's arena


class TestStridedPutUnderFaults:
    """``Window.put`` takes strided N-d sources; the injector hooks must
    keep firing for them (they see the same bytes a packed put carries)."""

    def test_bitflip_and_straggle_fire_for_a_strided_source(self):
        block = np.arange(4 * 6 * 5, dtype=np.float64).reshape(4, 6, 5)
        box = block[1:3, ::2, 1:4]  # non-contiguous
        plan = FaultPlan(
            [
                FaultRule("bitflip", rank=0, peer=1, bits=1),
                FaultRule("straggle", rank=0, delay=0.001),
            ],
            seed=11,
        )
        world = ThreadWorld(2, faults=plan)

        def kernel(comm):
            win = comm.win_create(box.nbytes + 8)
            win.fence()
            if comm.rank == 0:
                win.put(box, 1, offset=3)
            win.fence()
            got = win.local_view()[3 : 3 + box.nbytes].copy()
            win.free()
            return got

        got = world.run(kernel)[1]
        sent = np.ascontiguousarray(box).view(np.uint8).reshape(-1)
        assert int(np.unpackbits(got ^ sent).sum()) == 1  # exactly the one flipped bit
        assert world.injector.injected("bitflip") == 1
        assert world.injector.injected("straggle") == 1


class TestOscWindowReuse:
    def test_shrinking_sizes_reuse_cached_window(self):
        def kernel(comm):
            op = SlotExchange(comm)
            big = [np.full(64, comm.rank, dtype=np.float64)] * comm.size
            small = [np.full(8, comm.rank, dtype=np.float64)] * comm.size
            huge = [np.full(128, comm.rank, dtype=np.float64)] * comm.size
            op(big)
            w0 = op.transport.win
            op(small)  # needs less capacity: must NOT recreate
            w1 = op.transport.win
            op(big)  # back up within capacity: still cached
            w2 = op.transport.win
            op(huge)  # outgrows capacity: recreates
            w3 = op.transport.win
            res = (w0 is w1, w1 is w2, w2 is w3)
            op.free()
            return res

        for reused_small, reused_big, recreated in run_spmd(4, kernel):
            assert reused_small is True
            assert reused_big is True
            assert recreated is False

    def test_uneven_shrink_still_correct(self):
        def kernel(comm):
            op = SlotExchange(comm)
            try:
                sizes_a = [(d + comm.rank) % 5 + 4 for d in range(comm.size)]
                sizes_b = [s // 2 + 1 for s in sizes_a]
                out = []
                for sizes in (sizes_a, sizes_b):
                    send = [
                        np.full(n, 10 * comm.rank + d, dtype=np.float64)
                        for d, n in enumerate(sizes)
                    ]
                    recv = op(send)
                    out.append([r.view(np.float64).copy() for r in recv])
                return out
            finally:
                op.free()

        p = 4
        results = run_spmd(p, kernel)
        for r in range(p):
            for phase, sizes_of in enumerate(results[r]):
                for s in range(p):
                    chunk = sizes_of[s]
                    assert np.all(chunk == 10 * s + r)
