"""Tests for the all-to-all exchanges: the raw slot exchange under both rules, and compressed."""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import SlotExchange, make_exchange
from repro.collectives.wire import decode_wire, encode_wire, frame_length
from repro.compression import CastCodec, IdentityCodec, MantissaTrimCodec, ShuffleZlibCodec
from repro.errors import CommunicatorError
from repro.machine import Topology, summit_spec
from repro.runtime import run_spmd


def _make_send(rank: int, size: int, rng_seed: int = 7) -> list[np.ndarray]:
    """Deterministic uneven payloads: dest d gets (d + rank % 3 + 1) items."""
    rng = np.random.default_rng(rng_seed + rank)
    return [rng.random(d + rank % 3 + 1) for d in range(size)]


def _once(comm, send, **config):
    """One call of a fresh exchange of ``config``: built, called, freed."""
    op = make_exchange(comm, **config)
    try:
        return op(send)
    finally:
        op.free()


def _reference(p: int) -> list[list[np.ndarray]]:
    def kernel(comm):
        return comm.alltoallv(_make_send(comm.rank, comm.size))

    return run_spmd(p, kernel)


class TestPairwise:
    @pytest.mark.parametrize("p", [1, 2, 3, 6])
    def test_matches_reference(self, p):
        ref = _reference(p)

        def kernel(comm):
            return _once(comm, _make_send(comm.rank, comm.size), method="pairwise")

        res = run_spmd(p, kernel)
        for r in range(p):
            for s in range(p):
                assert np.array_equal(res[r][s], ref[r][s])

    def test_with_node_aware_topology(self):
        topo = Topology(summit_spec(), 12)
        ref = _reference(12)

        def kernel(comm):
            return _once(comm, _make_send(comm.rank, comm.size), method="pairwise", topology=topo)

        res = run_spmd(12, kernel)
        for r in range(12):
            for s in range(12):
                assert np.array_equal(res[r][s], ref[r][s])

    def test_none_chunks_become_empty(self):
        def kernel(comm):
            send = [None] * comm.size
            return [len(r) for r in _once(comm, send, method="pairwise")]

        res = run_spmd(3, kernel)
        assert all(r == [0, 0, 0] for r in res)

    def test_wrong_send_length_rejected(self):
        def kernel(comm):
            _once(comm, [np.zeros(1)] * (comm.size - 1), method="pairwise")

        with pytest.raises(CommunicatorError):
            run_spmd(2, kernel, timeout=5.0)


class TestOsc:
    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_matches_reference_bytes(self, p):
        ref = _reference(p)

        def kernel(comm):
            return _once(comm, _make_send(comm.rank, comm.size), method="osc")

        res = run_spmd(p, kernel)
        for r in range(p):
            for s in range(p):
                assert res[r][s].tobytes() == ref[r][s].tobytes()

    def test_window_cached_across_calls(self):
        def kernel(comm):
            op = SlotExchange(comm)
            send = _make_send(comm.rank, comm.size)
            a = op(send)
            win_first = op.transport.win
            b = op(send)
            cached = op.transport.win is win_first
            # changing sizes forces re-creation
            bigger = [np.concatenate([c, c]) for c in send]
            c = op(bigger)
            recreated = op.transport.win is not win_first
            op.free()
            return cached, recreated, a[0].tobytes() == b[0].tobytes(), len(c)

        res = run_spmd(4, kernel)
        for cached, recreated, same, n in res:
            assert cached and recreated and same and n == 4

    def test_topology_ring(self):
        topo = Topology(summit_spec(), 12)
        ref = _reference(12)

        def kernel(comm):
            return _once(comm, _make_send(comm.rank, comm.size), method="osc", topology=topo)

        res = run_spmd(12, kernel)
        for r in range(12):
            for s in range(12):
                assert res[r][s].tobytes() == ref[r][s].tobytes()

    def test_empty_messages(self):
        def kernel(comm):
            send = [np.zeros(0), np.ones(3)] if comm.rank == 0 else [None, None]
            return [(len(r), r.dtype) for r in _once(comm, send, method="osc")]

        res = run_spmd(2, kernel)
        assert res[1][0] == (3, np.float64)  # 3 float64 from rank 0, in the sender's dtype


class TestCompressedOsc:
    def test_identity_codec_is_exact(self):
        ref = _reference(4)

        def kernel(comm):
            op = SlotExchange(comm, IdentityCodec())
            out = op(_make_send(comm.rank, comm.size))
            op.free()
            return out

        res = run_spmd(4, kernel)
        for r in range(4):
            for s in range(4):
                assert np.array_equal(res[r][s], ref[r][s])

    def test_lossless_codec_is_exact(self):
        ref = _reference(3)

        def kernel(comm):
            op = SlotExchange(comm, ShuffleZlibCodec())
            out = op(_make_send(comm.rank, comm.size))
            op.free()
            return out

        res = run_spmd(3, kernel)
        for r in range(3):
            for s in range(3):
                assert np.array_equal(res[r][s], ref[r][s])

    @pytest.mark.parametrize("chunks", [1, 3])
    def test_fp32_codec_error_and_rate(self, chunks):
        ref = _reference(4)

        def kernel(comm):
            op = SlotExchange(comm, CastCodec("fp32"), pipeline_chunks=chunks)
            out = op(_make_send(comm.rank, comm.size))
            rate = op.last_stats.achieved_rate
            op.free()
            return out, rate

        res = run_spmd(4, kernel)
        for r in range(4):
            out, rate = res[r]
            assert rate == pytest.approx(2.0)
            for s in range(4):
                assert np.allclose(out[s], ref[r][s], rtol=1e-6)
                assert not np.array_equal(out[s], ref[r][s])  # genuinely lossy

    def test_trim_codec(self):
        ref = _reference(3)

        def kernel(comm):
            op = SlotExchange(comm, MantissaTrimCodec(36), topology=None)
            out = op(_make_send(comm.rank, comm.size))
            op.free()
            return out

        res = run_spmd(3, kernel)
        for r in range(3):
            for s in range(3):
                assert np.allclose(res[r][s], ref[r][s], rtol=1e-10)

    def test_stats_accounting(self):
        def kernel(comm):
            op = SlotExchange(comm, CastCodec("fp32"))
            op([np.ones(10) for _ in range(comm.size)])
            st = op.last_stats
            op.free()
            return st.messages, st.logical_bytes, st.wire_bytes

        res = run_spmd(2, kernel)
        for msgs, orig, wire in res:
            assert msgs == 2 and orig == 160 and wire == 80

    def test_window_reuse_and_growth(self):
        def kernel(comm):
            op = SlotExchange(comm, CastCodec("fp32"))
            small = [np.ones(4) for _ in range(comm.size)]
            big = [np.ones(400) for _ in range(comm.size)]
            a = op(small)
            b = op(big)  # must grow collectively
            c = op(small)  # shrinking reuses the big window
            op.free()
            return a[0].size, b[0].size, c[0].size

        res = run_spmd(3, kernel)
        assert all(r == (4, 400, 4) for r in res)

    def test_rejects_bad_chunks(self):
        def kernel(comm):
            SlotExchange(comm, CastCodec("fp32"), pipeline_chunks=0)

        with pytest.raises(CommunicatorError):
            run_spmd(2, kernel, timeout=5.0)


class TestWireFormat:
    def test_roundtrip(self, random_complex):
        codec = CastCodec("fp32")
        msg = codec.compress(random_complex)
        frame = encode_wire(msg)
        back, consumed = decode_wire(frame)
        assert consumed == frame.size
        assert back.codec_name == msg.codec_name
        assert back.shape == msg.shape and back.dtype_name == msg.dtype_name
        assert np.array_equal(back.payload, msg.payload)
        assert np.array_equal(codec.decompress(back), codec.decompress(msg))

    def test_frame_length_and_concatenation(self, rng):
        codec = IdentityCodec()
        m1 = codec.compress(rng.random(10))
        m2 = codec.compress(rng.random(20))
        stream = np.concatenate([encode_wire(m1), encode_wire(m2)])
        n1 = frame_length(stream)
        first, consumed1 = decode_wire(stream)
        assert consumed1 == n1  # decode reports the same length as the header walk
        second, _ = decode_wire(stream[n1:])
        assert codec.decompress(first).size == 10
        assert codec.decompress(second).size == 20

    def test_truncated_frame_rejected(self, rng):
        from repro.errors import CompressionError

        frame = encode_wire(IdentityCodec().compress(rng.random(10)))
        with pytest.raises(CompressionError):
            decode_wire(frame[: frame.size - 4])

    def test_header_scalars_survive(self):
        codec = CastCodec("fp16", scaled=True)
        msg = codec.compress(np.array([1e6, 1.0]))
        back, _ = decode_wire(encode_wire(msg))
        assert back.header["scale"] == msg.header["scale"]
        assert np.isfinite(codec.decompress(back)).all()
