"""Hot-path regressions: empty regions, single-parse frames, self-copy aliasing,
verification folded into the encode pass, one encode and one decode per
fragment on every compressed path."""

import collections
import dataclasses
import hashlib
import threading

import numpy as np
import pytest

from repro.collectives import CompressedOscAlltoallv
from repro.collectives.pairwise import pairwise_alltoallv
from repro.collectives.variants import linear_alltoallv
from repro.collectives.wire import decode_wire, encode_wire, frame_length
from repro.accuracy.bounds import achieved_relative_error
from repro.collectives.twolevel import TwoLevelCompressedAlltoallv
from repro.compression import CastCodec, MantissaTrimCodec
from repro.compression.base import IdentityCodec
from repro.machine.spec import GpuSpec, MachineSpec, NetworkSpec
from repro.machine.topology import Topology
from repro.runtime.thread_rt import ThreadWorld
from repro.utils import no_alias_copy


class TestDecodeRegionEmpty:
    def test_empty_region_decodes_to_empty_fp64(self):
        """An empty region (a peer had nothing for this rank) reads no frame
        and leaves its empty FP64 box as it is.  Regression: decoding one
        used to np.concatenate([]), which raises ValueError."""
        from repro.collectives.base import ExchangeStats
        from repro.faults import ResilienceReport

        def kernel(comm):
            op = CompressedOscAlltoallv(comm, IdentityCodec())
            try:
                box = np.zeros(0)
                region = np.zeros(0, dtype=np.uint8)
                op._settle([None], [region], ResilienceReport(rank=0), ExchangeStats(), [box])
                return box.size, str(box.dtype), op.last_report.clean
            finally:
                op.free()

        [(size, dtype, clean)] = ThreadWorld(1).run(kernel)
        assert size == 0 and dtype == "float64" and clean

    def test_all_empty_exchange(self):
        p = 3
        send = [[np.zeros(0) for _ in range(p)] for _ in range(p)]

        def kernel(comm):
            op = CompressedOscAlltoallv(comm, IdentityCodec())
            try:
                return op(send[comm.rank])
            finally:
                op.free()

        for recv in ThreadWorld(p).run(kernel):
            assert all(b.size == 0 and b.dtype == np.float64 for b in recv)


class TestSingleParseFrameWalk:
    def test_decode_wire_reports_consumed_length(self):
        msg = IdentityCodec().compress(np.arange(5.0))
        frame = encode_wire(msg)
        decoded, consumed = decode_wire(frame)
        assert consumed == frame.size == frame_length(frame)
        assert np.array_equal(decoded.payload.view(np.float64), np.arange(5.0))

    def test_concatenated_stream_walks_without_reparsing(self):
        codec = IdentityCodec()
        frames = [encode_wire(codec.compress(np.full(n, float(n)))) for n in (1, 7, 3)]
        stream = np.concatenate(frames)
        pos, sizes = 0, []
        while pos < stream.size:
            msg, consumed = decode_wire(stream[pos:])
            # consumed must agree with the header's own framing
            assert consumed == frame_length(stream[pos:])
            sizes.append(msg.n_values)
            pos += consumed
        assert pos == stream.size
        assert sizes == [1, 7, 3]


class TestOriginalBytesAccounting:
    def _stats_for(self, send_blocks):
        p = len(send_blocks)

        def kernel(comm):
            op = CompressedOscAlltoallv(comm, IdentityCodec())
            try:
                op(send_blocks[comm.rank])
                return op.last_stats
            finally:
                op.free()

        return ThreadWorld(p).run(kernel)

    def test_float64_blocks(self):
        rng = np.random.default_rng(0)
        send = [[rng.standard_normal(6 + d) for d in range(2)] for _ in range(2)]
        for rank, stats in enumerate(self._stats_for(send)):
            assert stats.logical_bytes == sum(b.nbytes for b in send[rank])

    def test_complex128_blocks_count_both_components(self):
        rng = np.random.default_rng(1)
        send = [
            [(rng.standard_normal(5) + 1j * rng.standard_normal(5)) for _ in range(2)]
            for _ in range(2)
        ]
        for rank, stats in enumerate(self._stats_for(send)):
            # 16 bytes per complex element == arr.nbytes, not 8
            assert stats.logical_bytes == sum(b.nbytes for b in send[rank])
            assert stats.logical_bytes == 2 * 5 * 16

    def test_batched_blocks(self):
        rng = np.random.default_rng(2)
        send = [
            [
                (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
                for _ in range(2)
            ]
            for _ in range(2)
        ]
        for rank, stats in enumerate(self._stats_for(send)):
            assert stats.logical_bytes == sum(b.nbytes for b in send[rank])


class TestSelfBlockAliasing:
    """Regression: the self block was copied twice; now exactly once, no aliasing."""

    def test_no_alias_copy_contiguous_copies_once(self):
        x = np.arange(8.0)
        out = no_alias_copy(x)
        assert np.array_equal(out, x)
        assert not np.shares_memory(out, x)

    def test_no_alias_copy_noncontiguous(self):
        x = np.arange(16.0)[::2]
        out = no_alias_copy(x)
        assert out.flags["C_CONTIGUOUS"]
        assert np.array_equal(out, x)
        assert not np.shares_memory(out, x)

    def test_no_alias_copy_none_is_empty(self):
        out = no_alias_copy(None)
        assert out.size == 0 and out.dtype == np.uint8

    def _check_self_block(self, collective):
        p = 3

        def kernel(comm):
            base = np.arange(float(p * 4)).reshape(p, 4)
            contiguous = [base[d].copy() for d in range(p)]
            strided = [np.arange(8.0)[::2] + d for d in range(p)]
            results = []
            for send in (contiguous, strided):
                recv = collective(comm, send)
                mine = recv[comm.rank]
                aliased = np.shares_memory(mine, send[comm.rank])
                send[comm.rank][...] = -1.0  # mutate after the exchange
                results.append(
                    (aliased, bool((mine >= 0).all()), mine.flags["C_CONTIGUOUS"])
                )
            return results

        for per_rank in ThreadWorld(p).run(kernel):
            for aliased, unaffected, contig in per_rank:
                assert not aliased, "self block aliases the caller's send buffer"
                assert unaffected, "mutating the send buffer changed the result"
                assert contig

    def test_pairwise_self_block(self):
        self._check_self_block(lambda comm, send: pairwise_alltoallv(comm, send))

    def test_linear_self_block(self):
        self._check_self_block(lambda comm, send: linear_alltoallv(comm, send))

    def test_reference_self_block(self):
        self._check_self_block(lambda comm, send: comm.alltoallv(send))


class _CountingTrim(MantissaTrimCodec):
    """``trim_m35`` that counts its kernel calls (shared by the rank threads):
    encodes and self-block round trips with and without measurement, and
    decodes."""

    def __init__(self):
        super().__init__(35)
        self.calls = {"encode": 0, "encode_measured": 0, "decode": 0,
                      "roundtrip": 0, "roundtrip_measured": 0}
        self._lock = threading.Lock()

    def _count(self, name):
        with self._lock:
            self.calls[name] += 1

    def encode_into(self, values, payload, measure=False):
        self._count("encode_measured" if measure else "encode")
        return super().encode_into(values, payload, measure)

    def decode_into(self, payload, header, out):
        self._count("decode")
        return super().decode_into(payload, header, out)

    def roundtrip_into(self, values, out, measure=False):
        self._count("roundtrip_measured" if measure else "roundtrip")
        return super().roundtrip_into(values, out, measure)


class TestVerificationInTheEncodePass:
    """With ``e_tol`` set the sender used to decompress every fragment it
    had just compressed; the trim kernel now measures while it encodes."""

    P = 4

    def _run(self, make_op, e_tol):
        codec = _CountingTrim()
        rng = np.random.default_rng(3)
        send = [[rng.standard_normal(500 + 7 * d) for d in range(self.P)] for _ in range(self.P)]

        def kernel(comm):
            op = make_op(comm, codec, e_tol)
            try:
                recv = op(send[comm.rank])
                return recv, op.last_stats, op.last_report
            finally:
                op.free()

        return codec, send, ThreadWorld(self.P).run(kernel)

    def _check_no_sender_side_decompress(self, make_op):
        codec, send, results = self._run(make_op, 1e-10)
        remote = self.P * (self.P - 1)
        # every message is encoded once, measuring, and decoded once, by
        # its receiver, and by nobody else; a self block is one measured
        # round trip
        assert codec.calls == {"encode": 0, "encode_measured": remote, "decode": remote,
                               "roundtrip": 0, "roundtrip_measured": self.P}
        for rank, (recv, stats, report) in enumerate(results):
            assert report.clean and stats.error_measured
            worst = 0.0
            for source in range(self.P):
                sent = send[source][rank]
                assert np.array_equal(recv[source], codec.decompress(codec.compress(sent)))
            for block in send[rank]:
                restored = MantissaTrimCodec(35).decompress(MantissaTrimCodec(35).compress(block))
                worst = max(worst, achieved_relative_error(block, restored))
            # the number reported is the number a round trip would have measured
            assert stats.achieved_error == worst and 0.0 < worst < 1e-10

    def test_flat_exchange(self):
        self._check_no_sender_side_decompress(
            lambda comm, codec, e_tol: CompressedOscAlltoallv(comm, codec, e_tol=e_tol)
        )

    def test_two_level_exchange(self):
        two_per_node = MachineSpec(
            name="hotpath", gpus_per_node=2, gpu=GpuSpec(), network=NetworkSpec()
        )
        topo = Topology(two_per_node, self.P)
        self._check_no_sender_side_decompress(
            lambda comm, codec, e_tol: TwoLevelCompressedAlltoallv(
                comm, codec, e_tol=e_tol, topology=topo
            )
        )

    def test_unmeetable_tolerance_still_degrades_to_lossless(self):
        codec, send, results = self._run(
            lambda comm, codec, e_tol: CompressedOscAlltoallv(comm, codec, e_tol=e_tol), 1e-14
        )
        # each message: measured once, found wanting, re-sent lossless — the
        # trim codec itself never decodes anything
        assert codec.calls["encode_measured"] == self.P * (self.P - 1)
        assert codec.calls["roundtrip_measured"] == self.P  # the self blocks
        assert codec.calls["decode"] == 0
        for rank, (recv, stats, report) in enumerate(results):
            assert report.count("tolerance-exceeded") == self.P
            assert report.degradations == self.P
            assert stats.achieved_error == 0.0 and stats.error_measured
            for source in range(self.P):
                assert np.array_equal(recv[source], send[source][rank])

    def test_no_tolerance_measures_nothing(self):
        codec, _send, results = self._run(
            lambda comm, codec, e_tol: CompressedOscAlltoallv(comm, codec, e_tol=e_tol), None
        )
        assert codec.calls["encode_measured"] == codec.calls["roundtrip_measured"] == 0
        assert codec.calls["encode"] == codec.calls["decode"] == self.P * (self.P - 1)
        assert codec.calls["roundtrip"] == self.P
        assert not any(stats.error_measured for _recv, stats, _report in results)

    def test_default_measurement_round_trips_on_the_sender(self):
        """A lossy codec with no ``encode_into`` of its own (zfp-like) pays
        the round trip on the sender — the default measures by compress ->
        decompress — on top of the receiver's decode (a self block: on top
        of its own decode); the cast codec, which measures in its encode
        pass, decodes nothing on the sender, and a self block is one
        ``roundtrip_into``."""
        from repro.compression import ZfpLikeCodec

        calls = collections.Counter()
        lock = threading.Lock()

        def count(name):
            with lock:
                calls[name] += 1

        class CountingZfp(ZfpLikeCodec):
            def decompress(self, msg):
                count("zfp decompress")
                return super().decompress(msg)

        class CountingCast(CastCodec):
            def decompress(self, msg):
                count("cast decompress")
                return super().decompress(msg)

            def decode_into(self, payload, header, out):
                count("cast decode_into")
                return super().decode_into(payload, header, out)

            def roundtrip_into(self, values, out, measure=False):
                count("cast roundtrip_into")
                return super().roundtrip_into(values, out, measure)

        def run(codec):
            def kernel(comm):
                rng = np.random.default_rng(comm.rank)
                op = CompressedOscAlltoallv(comm, codec, e_tol=1e-3)
                try:
                    op([rng.standard_normal(64) for _ in range(comm.size)])
                    return op.last_stats.achieved_error, op.last_report.clean
                finally:
                    op.free()

            calls.clear()
            return ThreadWorld(2).run(kernel)

        messages = 2 * 2
        assert "encode_into" not in vars(ZfpLikeCodec)
        for error, clean in run(CountingZfp(tolerance=1e-6)):
            assert clean and 0.0 < error < 1e-3
        # sender verify + receiver decode (the default decode_into decompresses)
        assert calls == {"zfp decompress": 2 * messages}
        for error, clean in run(CountingCast("fp32")):
            assert clean and 0.0 < error < 1e-7
        # the receivers' alone, and the self blocks'
        assert calls == {"cast decode_into": messages - 2, "cast roundtrip_into": 2}


class TestBoundLossyExchangeTouchesEachCellOncePerSide:
    """A warm bound round trip stages nothing: every message is one
    ``encode_into`` straight into the destination's slot and one
    ``decode_into`` straight into the output block, every self block one
    ``roundtrip_into`` straight into it — no pack, no allocating codec
    call, no frame copy either way, nothing from the pool — and what
    comes out is what the staged exchange produces."""

    N, P = 32, 4
    FIELDS = ("messages", "logical_bytes", "wire_bytes", "achieved_error", "error_measured",
              "retries", "degradations", "retransmissions")

    def _run(self, monkeypatch, runtime, **plan_kwargs):
        import collections

        import repro.collectives.base as base_mod
        import repro.collectives.wire as wire_mod
        from repro.collectives.base import ExchangeStats
        from repro.compression.base import FixedWidthCodec
        from repro.fft import Fft3d
        from repro.fft.plan import FftStats
        from repro.fft.reshape import ReshapeStage
        from repro.runtime import make_world
        from repro.tuning.pool import BufferPool

        plan = Fft3d((self.N,) * 3, self.P, **plan_kwargs)
        kernels = type(plan.codec)  # CastCodec / MantissaTrimCodec: both override the three
        assert {"encode_into", "decode_into", "roundtrip_into"} <= vars(kernels).keys()
        # Counters: shared by rank threads, private to each forked rank.
        counts, lock = collections.Counter(), threading.Lock()
        for owner, name in [
            (ReshapeStage, "pack"), (base_mod, "pack"), (base_mod, "unpack"),
            (FixedWidthCodec, "compress"), (FixedWidthCodec, "compress_measured"),
            (FixedWidthCodec, "decompress"),
            (wire_mod, "encode_wire"), (wire_mod, "decode_wire"),
            (BufferPool, "acquire"), (kernels, "encode_into"), (kernels, "decode_into"),
            (kernels, "roundtrip_into"),
        ]:
            def counted(*args, _original=getattr(owner, name), _key=name, **kwargs):
                with lock:
                    counts[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        rng = np.random.default_rng(11)
        x = rng.standard_normal((self.N,) * 3) + 1j * rng.standard_normal((self.N,) * 3)
        blocks = plan.scatter(x)

        def kernel(comm):
            pool, b = BufferPool(), blocks[comm.rank]
            plan.forward_spmd(comm, plan.forward_spmd(comm, b, pool=pool), inverse=True, pool=pool)
            comm.barrier()  # bound and warm, everywhere
            before = dict(counts)
            comm.barrier()
            stats = FftStats()
            y = plan.forward_spmd(comm, b, stats=stats, pool=pool)
            z = plan.forward_spmd(comm, y, inverse=True, stats=stats, pool=pool)
            comm.barrier()
            delta = {k: counts[k] - before.get(k, 0) for k in counts}
            comm.barrier()
            # the forward transform again, staged: one-shot exchanges
            # through pack -> compress -> frame -> put, as before the binding
            staged, block = ExchangeStats(), b
            for stage in plan._pipeline(False):
                op = CompressedOscAlltoallv(comm, plan.codec, e_tol=plan.share)
                try:
                    block = stage.reshape.run_spmd(comm, block, op, stats=staged)
                finally:
                    op.free()
                block = plan._fft_stage(comm, block, stage)
            forward = ExchangeStats().merge(*stats.reshapes[:4])
            return delta, y, z, forward, staged, np.array_equal(block, y), pool.counters()

        return plan, x, make_world(runtime, self.P, timeout=120.0).run(kernel)

    def _check(self, monkeypatch, runtime, **plan_kwargs):
        from repro.collectives.base import ExchangeStats

        plan, x, results = self._run(monkeypatch, runtime, **plan_kwargs)
        everyone = sum(r.n_messages for r in plan.reshapes)
        selves = sum(rank in dict(r.pairs[rank]) for r in plan.reshapes for rank in range(self.P))
        for rank, (delta, _y, _z, forward, staged, same_as_staged, pool) in enumerate(results):
            own = sum(rank in dict(r.pairs[rank]) for r in plan.reshapes)
            sent = sum(len(r.pairs[rank]) for r in plan.reshapes) - own
            received = sum(len(r.incoming[rank]) for r in plan.reshapes) - own
            if runtime == "thread":  # one shared counter saw every rank
                sent = received = everyone - selves
                own = selves
            # one kernel call per message and side, one per self block, over
            # forward + inverse ...
            assert (delta.pop("encode_into"), delta.pop("decode_into")) == (2 * sent, 2 * received)
            assert delta.pop("roundtrip_into") == 2 * own
            # ... and nothing else
            assert not any(delta.values()), f"rank {rank} staged something: {delta}"
            assert pool["hits"] == pool["misses"] == 0
            assert same_as_staged
            for field in self.FIELDS:
                assert getattr(forward, field) == getattr(staged, field), field
            assert forward.clean and forward.error_measured == (plan.e_tol is not None)
        # virtual == SPMD: bit for bit, and in summed volume
        assert np.array_equal(plan.gather([r[1] for r in results]), plan.forward(x))
        total = ExchangeStats().merge(*[r[3] for r in results])
        virtual = plan.last_stats.totals()
        for field in ("messages", "logical_bytes", "wire_bytes"):
            assert getattr(total, field) == getattr(virtual, field), field
        back = plan.gather([r[2] for r in results])
        assert np.linalg.norm(back - x) <= 3 * plan.guaranteed_tolerance * np.linalg.norm(x)

    def test_fp32_cast_on_rank_threads(self, monkeypatch):
        self._check(monkeypatch, "thread", codec=CastCodec("fp32"))

    def test_e_tol_trim_on_rank_threads(self, monkeypatch):
        self._check(monkeypatch, "thread", e_tol=1e-10)

    def test_fp32_cast_on_forked_ranks(self, monkeypatch):
        self._check(monkeypatch, "proc", codec=CastCodec("fp32"))

    def test_e_tol_trim_on_forked_ranks(self, monkeypatch):
        self._check(monkeypatch, "proc", e_tol=1e-10)


def _digest(recv, stats, report) -> str:
    """One rank's result of an exchange call as one hash: the decoded
    blocks (dtype, shape, bytes), every ``ExchangeStats`` field and the
    report's events."""
    h = hashlib.sha256()
    for block in recv:
        block = np.asarray(block)
        h.update(f"{block.dtype}{block.shape}".encode())
        h.update(np.ascontiguousarray(block).tobytes())
    fields = [getattr(stats, f.name) for f in dataclasses.fields(stats) if f.name != "reports"]
    h.update(repr(fields).encode())
    h.update(repr([(e.kind, e.peer, e.attempt, e.codec, e.detail) for e in report.events]).encode())
    return h.hexdigest()


class TestOneShotExchangesTouchEachCellOncePerSide:
    """A one-shot call (``op(send)``) is a move into boxes the exchange
    allocates from one announcement allgather: every fragment is one
    ``encode_into`` straight into the destination's slot (flat) or a
    region of its own (two-level), and one ``decode_into`` straight into
    its box, every self fragment one ``roundtrip_into`` — no allocating
    codec call, no frame copy, nothing from the pool — and it delivers
    what the staged exchange it replaced delivered (digests of outputs,
    stats and reports pinned from it)."""

    P = 4
    CODECS = {"fp32": (CastCodec("fp32"), None), "trim": (MantissaTrimCodec(35), 1e-10)}
    #: ``(codec, pipeline_chunks, send rank)`` -> sha256 of the per-rank
    #: digests, as the staged exchange produced them — on either runtime,
    #: and for the flat and the two-level exchange alike.
    PINNED = {
        ("fp32", 1, 1): "b5d9b9444b62caa5", ("fp32", 1, 2): "8ef3de0f9258e21f",
        ("fp32", 3, 1): "7f878de9814e64f1", ("fp32", 3, 2): "021830fa28401cf8",
        ("trim", 1, 1): "520a6d2c094981f5", ("trim", 1, 2): "a9bfcbebb7cfc373",
        ("trim", 3, 1): "ba1fd56de8c31aa0", ("trim", 3, 2): "4dbecb81ea639594",
    }

    def _send(self, rank, ndim):
        rng = np.random.default_rng(40 + rank)
        send = []
        for d in range(self.P):
            shape = (7 + 2 * d + rank,) if ndim == 1 else (3 + d + rank % 2, 5)
            block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            send.append(None if d == (rank + 1) % self.P else block)
        return send

    def _run(self, monkeypatch, runtime, variant, codec_name, chunks, ndim):
        import repro.collectives.compressed as compressed_mod
        import repro.collectives.wire as wire_mod
        from repro.collectives import make_exchange
        from repro.compression.base import FixedWidthCodec
        from repro.runtime import make_world
        from repro.tuning.pool import BufferPool

        codec, e_tol = self.CODECS[codec_name]
        kernels = type(codec)
        assert {"encode_into", "decode_into", "roundtrip_into"} <= vars(kernels).keys()
        counts, lock = collections.Counter(), threading.Lock()
        for owner, name in [
            (FixedWidthCodec, "compress"), (FixedWidthCodec, "compress_measured"),
            (FixedWidthCodec, "decompress"), (BufferPool, "acquire"),
            (wire_mod, "encode_wire"), (wire_mod, "decode_wire"),
            # where the staged path looked the frame calls up; gone with it
            (compressed_mod, "encode_wire"), (compressed_mod, "decode_wire"),
            (kernels, "encode_into"), (kernels, "decode_into"), (kernels, "roundtrip_into"),
        ]:
            def counted(*args, _original=getattr(owner, name, None), _key=name, **kwargs):
                with lock:
                    counts[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted, raising=False)

        topology = None
        if variant == "two-level":
            spec = MachineSpec(name="hotpath", gpus_per_node=2, gpu=GpuSpec(), network=NetworkSpec())
            topology = Topology(spec, self.P)

        def kernel(comm):
            op = make_exchange(comm, codec=codec, variant=variant, topology=topology, e_tol=e_tol,
                               pipeline_chunks=chunks, pool=BufferPool())
            send = self._send(comm.rank, ndim)
            try:
                comm.barrier()
                before = dict(counts)
                comm.barrier()
                recv = op(send)
                comm.barrier()
                delta = {k: counts[k] - before.get(k, 0) for k in counts}
                comm.barrier()
            finally:
                op.free()
            return delta, _digest(recv, op.last_stats, op.last_report)

        return make_world(runtime, self.P, timeout=60.0).run(kernel)

    def _fragments(self, chunks, ndim, source=None, dest=None, own=False):
        """Fragments sent from ``source`` to ``dest`` (``None``: every rank),
        to another rank, or with ``own`` to the sender itself."""
        total = 0
        for s in range(self.P) if source is None else [source]:
            for d, block in enumerate(self._send(s, ndim)):
                if block is not None and dest in (None, d) and (d == s) == own:
                    total += min(chunks, len(block))
        return total

    def _check(self, monkeypatch, runtime, variant, codec_name, chunks, ndim):
        results = self._run(monkeypatch, runtime, variant, codec_name, chunks, ndim)
        for rank, (delta, _digest_) in enumerate(results):
            if runtime == "thread":  # one shared counter saw every rank
                sent = received = self._fragments(chunks, ndim)
                own = self._fragments(chunks, ndim, own=True)
            else:
                sent = self._fragments(chunks, ndim, source=rank)
                received = self._fragments(chunks, ndim, dest=rank)
                own = self._fragments(chunks, ndim, source=rank, own=True)
            assert (delta.pop("encode_into"), delta.pop("decode_into")) == (sent, received)
            assert delta.pop("roundtrip_into") == own
            assert not any(delta.values()), f"rank {rank} staged something: {delta}"
        combined = hashlib.sha256("".join(d for _, d in results).encode()).hexdigest()[:16]
        assert combined == self.PINNED[codec_name, chunks, ndim]

    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("chunks", [1, 3])
    @pytest.mark.parametrize("codec_name", ["fp32", "trim"])
    @pytest.mark.parametrize("variant", ["flat", "two-level"])
    def test_on_rank_threads(self, monkeypatch, variant, codec_name, chunks, ndim):
        self._check(monkeypatch, "thread", variant, codec_name, chunks, ndim)

    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("chunks", [1, 3])
    @pytest.mark.parametrize("codec_name", ["fp32", "trim"])
    def test_flat_on_forked_ranks(self, monkeypatch, codec_name, chunks, ndim):
        self._check(monkeypatch, "proc", "flat", codec_name, chunks, ndim)


def _digest_run(block, records) -> str:
    """:func:`_digest` of a transform: its output block, then the record
    and report of every exchange call it made, in order."""
    return "".join(_digest([block] if i == 0 else [], r, r.reports[0]) for i, r in enumerate(records))


class TestSelfBlockStaysLocal:
    """The block a rank owes itself never takes the wire, on every window
    exchange — plan-bound, one-shot flat and two-level: no reservation or
    put on the own window, no frame sealed or opened for it, one
    ``roundtrip_into`` per fragment of it and no ``encode_into`` or
    ``decode_into``.  It stays in the accounting: outputs, every
    ``ExchangeStats`` field and the report events are those of the
    exchange that sent it through its own window slot (digests pinned
    from it)."""

    #: name -> (shape, ranks, ranks per node of the two-level topology)
    GEOMETRIES = {"17^3-p4": ((17, 17, 17), 4, 2), "12x10x9-p3": ((12, 10, 9), 3, 1)}
    CODECS = {"raw": {}, "fp32": {"codec": CastCodec("fp32")}, "e_tol": {"e_tol": 1e-10}}
    CASES = [("raw", 1), ("fp32", 1), ("fp32", 3), ("e_tol", 1), ("e_tol", 3)]
    #: ``(geometry, codec, pipeline_chunks)`` -> sha256 of every rank's
    #: :func:`_digest_run` of the bound, flat and two-level transforms, as
    #: the exchange that put the self block produced them — on either
    #: runtime.  ``e_tol=1e-10`` picks ``trim_m34`` (its share of the round
    #: trip is ``1e-10 / sqrt(8)``); the exchange that put the self block
    #: gave these digests for a plan that picked the same codec.
    PINNED = {
        ("17^3-p4", "raw", 1): "bb7f1f96c8ae771d", ("12x10x9-p3", "raw", 1): "9d89d86d3f029961",
        ("17^3-p4", "fp32", 1): "8e03f14172f4102e", ("12x10x9-p3", "fp32", 1): "6add126ee30870a8",
        ("17^3-p4", "fp32", 3): "7452e447ae88c318", ("12x10x9-p3", "fp32", 3): "890389a10abeb24c",
        ("17^3-p4", "e_tol", 1): "0214e8eccf3e8a2b", ("12x10x9-p3", "e_tol", 1): "ca70ab6eb638669c",
        ("17^3-p4", "e_tol", 3): "a63010f42aebabb2", ("12x10x9-p3", "e_tol", 3): "9e579ca3baf0c970",
    }

    def _run(self, monkeypatch, runtime, geometry, codec_name, chunks):
        import repro.collectives.compressed as compressed_mod
        from repro.collectives import make_exchange
        from repro.collectives.base import unpack
        from repro.fft import Fft3d
        from repro.fft.plan import FftStats
        from repro.runtime import make_world
        from repro.runtime.window import Window
        from repro.tuning.profile import TuningEntry, TuningProfile

        shape, p, per_node = self.GEOMETRIES[geometry]
        spec = MachineSpec(name="selfblock", gpus_per_node=per_node, gpu=GpuSpec(), network=NetworkSpec())
        topology = Topology(spec, p)
        profile = None
        if codec_name != "raw":  # (a raw plan would adopt the entry's codec)
            profile = TuningProfile(machine=spec.name)
            entry = TuningEntry(codec="cast_fp32", pipeline_chunks=chunks, variant="flat", measured_s=1e-3)
            profile.record(p, shape, entry)
        plan = Fft3d(shape, p, topology=topology, tuning=profile, **self.CODECS[codec_name])

        counts, lock = collections.Counter(), threading.Lock()

        def count(key):
            with lock:
                counts[key] += 1

        def reserve(win, target_rank, offset, nbytes, _original=Window.reserve):
            count("own reserve" if target_rank == win._comm.rank else "reserve")
            return _original(win, target_rank, offset, nbytes)

        monkeypatch.setattr(Window, "reserve", reserve)  # every put goes through it
        hooked = [(compressed_mod, "seal"), (compressed_mod, "open_frame")]
        if plan.codec is not None:
            hooked += [(type(plan.codec), name) for name in ("encode_into", "decode_into", "roundtrip_into")]
        for owner, name in hooked:
            def counted(*args, _original=getattr(owner, name), _key=name, **kwargs):
                count(_key)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        rng = np.random.default_rng(26)
        blocks = plan.scatter(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

        def oneshot(comm, variant):
            """The forward transform through one-shot ``op(send)`` calls."""
            block, records = blocks[comm.rank], []
            for stage in plan.stages:
                side = stage.reshape.rank_stages[comm.rank]
                op = make_exchange(comm, codec=plan.codec, e_tol=plan.e_tol, variant=variant,
                                   topology=topology, pipeline_chunks=chunks)
                try:
                    recv = op([block[side.outgoing[d]] if d in side.outgoing else None
                               for d in range(comm.size)])
                finally:
                    op.free()
                records.append(op.last_stats)
                block = side.empty_out(block)
                for s, where in side.incoming.items():
                    unpack(block[where], np.asarray(recv[s]))
                block = plan._fft_stage(comm, block, stage)
            return block, records

        def kernel(comm):
            comm.barrier()
            before = dict(counts)
            comm.barrier()
            stats = FftStats()
            runs = [(plan.forward_spmd(comm, blocks[comm.rank], stats=stats), stats.reshapes)]
            runs += [oneshot(comm, variant) for variant in ("flat", "two-level")]
            comm.barrier()
            delta = {k: counts[k] - before.get(k, 0) for k in counts}
            comm.barrier()
            return delta, "".join(_digest_run(*run) for run in runs)

        return plan, make_world(runtime, p, timeout=60.0).run(kernel)

    @staticmethod
    def _fragments(plan, chunks, rank):
        """Fragments ``rank`` sends to others, to itself, and gets from
        others in one transform (a box is cut along its leading axis)."""
        def cut(box):
            return 1 if chunks == 1 or box.shape[0] <= 1 else min(chunks, box.shape[0])

        def total(which, mine):
            return sum(cut(box) for r in plan.reshapes for peer, box in which(r)[rank]
                       if (peer == rank) == mine)

        sent, own = total(lambda r: r.pairs, False), total(lambda r: r.pairs, True)
        return sent, own, total(lambda r: r.incoming, False)

    def _check(self, monkeypatch, runtime, geometry, codec_name, chunks):
        plan, results = self._run(monkeypatch, runtime, geometry, codec_name, chunks)
        per_rank = [self._fragments(plan, chunks, rank) for rank in range(plan.nranks)]
        assert sum(own for _, own, _ in per_rank) > 0  # the geometry has self blocks
        for rank, (delta, _) in enumerate(results):
            sent, own, got = (
                [sum(col) for col in zip(*per_rank)] if runtime == "thread"  # one shared counter
                else per_rank[rank]
            )
            assert delta.get("own reserve", 0) == 0 and delta["reserve"] > 0
            if plan.codec is None:
                assert not {"seal", "open_frame"} & delta.keys()
                continue
            # three transforms (bound, flat, two-level), one call per fragment
            assert (delta["seal"], delta["open_frame"]) == (3 * sent, 3 * got)
            assert (delta["encode_into"], delta["decode_into"]) == (3 * sent, 3 * got)
            assert delta["roundtrip_into"] == 3 * own
        combined = hashlib.sha256("".join(d for _, d in results).encode()).hexdigest()[:16]
        assert combined == self.PINNED[geometry, codec_name, chunks]

    @pytest.mark.parametrize("codec_name,chunks", CASES, ids=[f"{c}-x{k}" for c, k in CASES])
    @pytest.mark.parametrize("geometry", list(GEOMETRIES))
    def test_on_rank_threads(self, monkeypatch, geometry, codec_name, chunks):
        self._check(monkeypatch, "thread", geometry, codec_name, chunks)

    @pytest.mark.parametrize("codec_name,chunks", CASES, ids=[f"{c}-x{k}" for c, k in CASES])
    @pytest.mark.parametrize("geometry", list(GEOMETRIES))
    def test_on_forked_ranks(self, monkeypatch, geometry, codec_name, chunks):
        self._check(monkeypatch, "proc", geometry, codec_name, chunks)


class TestWarmBindingResolvesItsBookkeepingOnce:
    """What a bound reshape's messages share from one call to the next is
    worked out when the plan binds: a warm round trip pickles no frame
    metadata, builds no restricted unpickler, computes no frame room and
    builds no route (the only reader of a slot table's rows), and takes
    exactly one CRC32 per frame on each side — the payload's.  Under
    either completion rule, on both runtimes, with a cast and with a
    tolerance; ``pipeline_chunks=3`` cuts every message into frames."""

    N, P = 16, 4

    def _run(self, monkeypatch, runtime, method, **plan_kwargs):
        import pickle

        import repro.collectives.slots as slots_mod
        import repro.collectives.wire as wire_mod
        from repro.fft import Fft3d
        from repro.runtime import make_world
        from repro.tuning.profile import TuningEntry, TuningProfile

        shape = (self.N,) * 3
        profile = TuningProfile(machine="laptop")  # only for its pipeline_chunks
        profile.record(
            self.P, shape,
            TuningEntry(codec="cast_fp32", pipeline_chunks=3, variant="flat", measured_s=0.001),
        )
        plan = Fft3d(shape, self.P, tuning=profile, **plan_kwargs)
        assert plan._tuned_entry.pipeline_chunks == 3
        # Counters: shared by rank threads, private to each forked rank.
        counts, lock = collections.Counter(), threading.Lock()

        def bump(key):
            with lock:
                counts[key] += 1

        class CountingUnpickler(wire_mod._RestrictedUnpickler):
            def __init__(self, *args, **kwargs):
                bump("unpickler")
                super().__init__(*args, **kwargs)

        class CountingRoute(slots_mod.Route):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                bump("route")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(wire_mod, "_RestrictedUnpickler", CountingUnpickler)
        monkeypatch.setattr(slots_mod, "Route", CountingRoute)
        for owner, name in [
            (pickle, "dumps"), (wire_mod, "crc32"), (wire_mod, "seal"), (wire_mod, "open_frame"),
            (CompressedOscAlltoallv, "_frame_capacity"),
        ]:
            def counted(*args, _original=getattr(owner, name), _key=name, **kwargs):
                bump(_key)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        # the exchange module bound seal/open_frame by name at import
        import repro.collectives.compressed as compressed_mod

        monkeypatch.setattr(compressed_mod, "seal", wire_mod.seal)
        monkeypatch.setattr(compressed_mod, "open_frame", wire_mod.open_frame)

        rng = np.random.default_rng(5)
        x = rng.standard_normal((self.N,) * 3) + 1j * rng.standard_normal((self.N,) * 3)
        blocks = plan.scatter(x)

        def kernel(comm):
            b = blocks[comm.rank]
            for _ in range(2):  # bind, then warm every cache
                plan.forward_spmd(comm, plan.forward_spmd(comm, b, method=method), method=method,
                                  inverse=True)
            comm.barrier()
            before = dict(counts)
            comm.barrier()
            y = plan.forward_spmd(comm, b, method=method)
            z = plan.forward_spmd(comm, y, method=method, inverse=True)
            comm.barrier()
            delta = {k: counts[k] - before.get(k, 0) for k in counts}
            comm.barrier()
            return delta, z

        return plan, x, make_world(runtime, self.P, timeout=120.0).run(kernel)

    @pytest.mark.parametrize("runtime", ["thread", "proc"])
    @pytest.mark.parametrize("method", ["osc", "pairwise"], ids=["fence", "credit"])
    @pytest.mark.parametrize("codec", ["fp32", "e_tol"])
    def test_warm_round_trip(self, monkeypatch, runtime, method, codec):
        kwargs = {"codec": CastCodec("fp32")} if codec == "fp32" else {"e_tol": 1e-10}
        plan, x, results = self._run(monkeypatch, runtime, method, **kwargs)
        for delta, z in results:
            assert delta["seal"] > 0 and delta["open_frame"] > 0
            for key in ("dumps", "unpickler", "_frame_capacity", "route"):
                assert delta.get(key, 0) == 0, key
            assert delta["crc32"] == delta["seal"] + delta["open_frame"]
        back = plan.gather([z for _, z in results])
        assert np.linalg.norm(back - x) / np.linalg.norm(x) < plan.guaranteed_tolerance * 4

    @pytest.mark.parametrize("method", ["osc", "pairwise"], ids=["fence", "credit"])
    def test_a_window_grown_by_a_one_shot_call_is_walked_by_fresh_routes(self, monkeypatch, method):
        """A one-shot call through a bound exchange, with messages no slot
        holds, grows the window the binding shares.  Its own move walks a
        route built for the grown window, and so does every bound reshape
        after it: no move is handed a route of a window that is gone."""
        from repro.collectives.slots import SlotTransport
        from repro.fft import Fft3d

        moves, lock = [], threading.Lock()
        original = SlotTransport.move

        def move(self, route, produce, consume):
            with lock:
                moves.append(route.win is self.win)
            return original(self, route, produce, consume)

        monkeypatch.setattr(SlotTransport, "move", move)
        plan = Fft3d((self.N,) * 3, self.P, codec=CastCodec("fp32"))
        rng = np.random.default_rng(6)
        x = rng.standard_normal((self.N,) * 3) + 1j * rng.standard_normal((self.N,) * 3)
        blocks = plan.scatter(x)

        def kernel(comm):
            before = plan.forward_spmd(comm, blocks[comm.rank], method=method)
            binding = next(iter(comm.attrs.values()))
            window = binding.transport.win
            op = binding.bound[1].exchange
            big = [np.full(4 * self.N**3 // self.P, comm.rank + 1j * d) for d in range(comm.size)]
            got = op(big)  # one-shot: nothing of the plan's slots holds these
            grown = binding.transport.win is not window
            after = plan.forward_spmd(comm, blocks[comm.rank], method=method)
            fresh = all(b.exchange.route.win is binding.transport.win for b in binding.bound
                        if b.exchange.route is not None and b.exchange.route.moves)
            ok = all(np.array_equal(got[s], np.full_like(big[0], s + 1j * comm.rank))
                     for s in range(comm.size))
            return grown, fresh, ok, np.array_equal(before, after)

        results = ThreadWorld(self.P, timeout=60.0).run(kernel)
        assert all(r == (True, True, True, True) for r in results)
        assert moves and all(moves)
