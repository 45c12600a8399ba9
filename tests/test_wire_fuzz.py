"""Failure-injection tests: corrupt wire frames and payloads.

A library shipping compressed bytes across RMA windows must fail
loudly, not silently decode garbage, when framing is violated.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.wire import decode_wire, encode_wire, frame_length
from repro.compression import CastCodec, IdentityCodec, MantissaTrimCodec, ZfpLikeCodec
from repro.errors import CompressionError, ReproError


class TestTruncatedFrames:
    @pytest.mark.parametrize("keep", [0, 4, 8, 15])
    def test_header_truncation_rejected(self, rng, keep):
        frame = encode_wire(IdentityCodec().compress(rng.random(16)))
        with pytest.raises(CompressionError):
            decode_wire(frame[:keep])

    def test_payload_truncation_rejected(self, rng):
        frame = encode_wire(IdentityCodec().compress(rng.random(16)))
        with pytest.raises(CompressionError):
            decode_wire(frame[:-1])

    def test_frame_length_on_short_input(self):
        with pytest.raises(CompressionError):
            frame_length(np.zeros(4, dtype=np.uint8))

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_random_truncation_never_crashes_weirdly(self, cut):
        """Any truncation raises a library error (or decodes when the
        cut is beyond the frame) — never an unhandled exception type."""
        rng = np.random.default_rng(0)
        frame = encode_wire(CastCodec("fp32").compress(rng.random(8)))
        data = frame[: min(cut, frame.size)]
        try:
            decode_wire(data)
        except ReproError:
            pass  # expected failure mode
        except Exception as exc:  # noqa: BLE001
            pytest.fail(f"unexpected exception type: {type(exc).__name__}: {exc}")


class TestCorruptPayloads:
    def test_trim_codec_detects_bad_length(self, rng):
        codec = MantissaTrimCodec(23)
        msg = codec.compress(rng.random(10))
        msg.payload = msg.payload[:-2]
        with pytest.raises(CompressionError):
            codec.decompress(msg)

    def test_zfp_detects_short_bitstream(self, rng):
        codec = ZfpLikeCodec(rate=4.0)
        msg = codec.compress(rng.random(200))
        msg.payload = msg.payload[: msg.payload.size // 2]
        with pytest.raises(CompressionError):
            codec.decompress(msg)

    def test_bitflips_do_not_crash(self, rng):
        """Bit flips in a fixed-rate payload decode to *wrong values*,
        never to crashes (the stream is self-sized)."""
        codec = CastCodec("fp32")
        x = rng.random(64)
        msg = codec.compress(x)
        for pos in (0, 17, 100, 255):
            corrupted = msg.payload.copy()
            corrupted[pos % corrupted.size] ^= 0xFF
            msg2 = type(msg)(msg.codec_name, corrupted, msg.dtype_name, msg.shape, msg.header)
            out = codec.decompress(msg2)
            assert out.shape == x.shape  # shape integrity survives

    def test_wrong_codec_name_rejected(self, rng):
        msg = CastCodec("fp32").compress(rng.random(8))
        with pytest.raises(CompressionError):
            CastCodec("fp16").decompress(msg)


class TestInconsistentMetadata:
    """Frames whose checksums verify but whose metadata lies about the
    payload (a buggy or hostile sender): ``decode_wire`` has nothing to
    object to, so the codec must — with the error type the exchange's
    recovery catches."""

    CODECS = [IdentityCodec(), CastCodec("fp32"), CastCodec("bf16"), MantissaTrimCodec(35)]

    @given(
        st.integers(min_value=0, max_value=len(CODECS) - 1),
        st.lists(st.integers(min_value=-2, max_value=40), min_size=0, max_size=3),
        st.sampled_from(["float64", "complex128", "float32", ""]),
    )
    @settings(max_examples=120, deadline=None)
    def test_decodes_or_raises_a_library_error(self, which, shape, dtype_name):
        codec = self.CODECS[which]
        x = np.random.default_rng(0).random(12)
        msg = codec.compress(x)
        forged = type(msg)(codec.name, msg.payload, dtype_name, tuple(shape), msg.header)
        decoded, _ = decode_wire(encode_wire(forged))
        try:
            out = codec.decompress(decoded)
        except CompressionError:
            return
        except Exception as exc:  # noqa: BLE001
            pytest.fail(f"unexpected exception type: {type(exc).__name__}: {exc}")
        # it decoded: then the metadata did describe the 12 values
        assert out.shape == tuple(shape) and out.dtype.name == dtype_name
        assert out.size * (2 if dtype_name == "complex128" else 1) == 12

    def test_exchange_reports_an_integrity_failure(self, rng):
        """The forged block — its metadata does not describe the box it is
        to fill — reaches ``_settle``'s recovery as a failed block instead
        of escaping it as a bare ValueError."""
        from repro.collectives import CompressedOscAlltoallv
        from repro.collectives.base import ExchangeStats
        from repro.errors import WireIntegrityError
        from repro.faults import ResilienceReport
        from repro.runtime.thread_rt import ThreadWorld

        codec = MantissaTrimCodec(35)
        msg = codec.compress(rng.random(10))
        forged = encode_wire(type(msg)(codec.name, msg.payload, "float64", (3, 3)))

        def kernel(comm):
            op = CompressedOscAlltoallv(comm, codec)
            report = ResilienceReport(rank=0)
            try:
                with pytest.raises(WireIntegrityError, match="no fault plan active"):
                    op._settle([None], [forged], report, ExchangeStats(), [np.empty(10)])
            finally:
                op.free()
            return report

        [report] = ThreadWorld(1).run(kernel)
        assert report.count("integrity-failure") == 1


class TestChecksumsInPlace:
    """The CRCs are computed over the frame's own bytes; the frame format
    and the order of the checks are what they were."""

    def test_frame_bytes_match_the_v2_layout(self, rng):
        import pickle
        import struct
        import zlib

        msg = MantissaTrimCodec(35).compress(rng.standard_normal(100))
        meta = pickle.dumps(
            (msg.codec_name, msg.dtype_name, msg.shape, msg.header),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        payload = msg.payload.tobytes()
        header = struct.pack(
            "<4sBBHQQII", b"RPW2", 2, 0, 0, len(meta), len(payload),
            zlib.crc32(meta), zlib.crc32(payload),
        )
        assert encode_wire(msg).tobytes() == header + meta + payload

    def test_pooled_frame_is_byte_identical(self, rng):
        """A slot is reused epoch after epoch: a frame sealed over what an
        older epoch left in it is byte for byte ``encode_wire``'s."""
        from repro.collectives.wire import seal, stage
        from repro.compression import ShuffleZlibCodec

        older = encode_wire(MantissaTrimCodec(35).compress(rng.standard_normal(400)))
        x = rng.standard_normal(257)
        for codec in (CastCodec("fp32"), ShuffleZlibCodec(level=1)):
            slot = older.copy()  # still holding the older epoch's frame
            frame = seal(slot, *stage(slot, codec, x)[:2])
            assert frame.tobytes() == encode_wire(codec.compress(x)).tobytes(), codec.name

    @pytest.mark.parametrize("as_type", [bytes, bytearray, memoryview, np.asarray])
    def test_decodes_any_contiguous_buffer(self, rng, as_type):
        x = rng.standard_normal(33)
        frame = encode_wire(IdentityCodec().compress(x))
        # an unaligned slice of a larger buffer, as frames sit in a window
        arena = np.zeros(frame.size + 3, dtype=np.uint8)
        arena[3:] = frame
        source = arena[3:] if as_type is np.asarray else as_type(arena[3:].tobytes())
        msg, consumed = decode_wire(source)
        assert consumed == frame.size
        assert np.array_equal(IdentityCodec().decompress(msg), x)

    def test_decoded_payload_owns_its_bytes(self, rng):
        """One copy on decode: the message must survive the window region
        it was decoded from being overwritten by the next exchange."""
        x = rng.standard_normal(64)
        frame = encode_wire(IdentityCodec().compress(x))
        msg, _ = decode_wire(frame)
        assert not np.shares_memory(msg.payload, frame)
        frame[:] = 0
        assert np.array_equal(IdentityCodec().decompress(msg), x)

    def test_checks_fire_in_order_meta_then_payload(self, rng):
        frame = encode_wire(IdentityCodec().compress(rng.standard_normal(8)))
        both = frame.copy()
        both[40] ^= 0x01  # metadata byte
        both[-1] ^= 0x01  # payload byte
        with pytest.raises(CompressionError, match="metadata checksum"):
            decode_wire(both)
        only_payload = frame.copy()
        only_payload[-1] ^= 0x01
        with pytest.raises(CompressionError, match="payload checksum"):
            decode_wire(only_payload)

    @pytest.mark.parametrize("slack", [0, 64], ids=["exact", "in-a-larger-slot"])
    def test_every_single_bit_flip_of_the_header_is_rejected(self, rng, slack):
        """All 256 bits of the 32-byte header — the flags and reserved
        bytes (5-7) included, which used to be unpacked and ignored."""
        from repro.errors import WireIntegrityError

        frame = encode_wire(MantissaTrimCodec(35).compress(rng.standard_normal(40)))
        region = np.concatenate([frame, rng.integers(0, 256, slack, dtype=np.uint8)])
        decode_wire(region)  # intact: decodes, slack or not
        survived = []
        for bit in range(32 * 8):
            forged = region.copy()
            forged[bit // 8] ^= np.uint8(1 << (bit % 8))
            try:
                decode_wire(forged)
                survived.append(bit)
            except WireIntegrityError:
                pass
        assert survived == []

    @pytest.mark.parametrize("codec", [CastCodec("fp32"), MantissaTrimCodec(35)], ids=lambda c: c.name)
    def test_known_metadata_masks_no_bit_flip(self, rng, codec):
        """Once a frame's metadata is known (its writer staged it, a reader
        verified it), its CRC and fields are looked up, not recomputed: every
        single-bit flip of that frame's 32-byte header and of its metadata is
        still a WireIntegrityError at ``open_frame``, and a frame whose CRCs
        are valid but whose known metadata lies about its slab is still
        refused against the slab."""
        from repro.collectives import CompressedOscAlltoallv
        from repro.collectives import wire
        from repro.collectives.base import ExchangeStats
        from repro.errors import WireIntegrityError
        from repro.faults import ResilienceReport
        from repro.runtime.thread_rt import ThreadWorld

        x = rng.standard_normal(40)
        region = np.zeros(1024, dtype=np.uint8)
        frame = wire.seal(region, *wire.stage(region, codec, x)[:2]).copy()
        meta_len = int.from_bytes(frame[8:16].tobytes(), "little")
        assert frame[32 : 32 + meta_len].tobytes() in wire._KNOWN  # warm: the writer staged it
        wire.open_frame(frame)  # ... and a reader verified it
        survived = []
        for bit in range((32 + meta_len) * 8):
            forged = frame.copy()
            forged[bit // 8] ^= np.uint8(1 << (bit % 8))
            try:
                wire.open_frame(forged)
                survived.append(bit)
            except WireIntegrityError:
                pass
        assert survived == []

        # Valid CRCs, known metadata, the wrong slab: 40 values, a 30-value box.
        def kernel(comm):
            op = CompressedOscAlltoallv(comm, codec)
            try:
                for _ in range(2):  # the second time, the metadata is known to the reader
                    with pytest.raises(WireIntegrityError, match="no fault plan active"):
                        op._settle([None], [frame], ResilienceReport(rank=0), ExchangeStats(),
                                   [np.empty(30)])
            finally:
                op.free()

        ThreadWorld(1).run(kernel)

    def test_a_frame_sealed_in_a_slot_equals_encode_wire(self, rng):
        """One frame writer: produced where it lies — from a strided view,
        at an unaligned place in a larger region — a frame is byte for
        byte ``encode_wire(codec.compress(flat view))``, header-carrying
        codecs (whose metadata grows after the encode) included."""
        from repro.collectives.wire import open_frame, seal, stage
        from repro.compression import ShuffleZlibCodec

        base = rng.standard_normal((5, 6, 7)) + 1j * rng.standard_normal((5, 6, 7))
        for view in (base[1:4, ::2, 2:6], base[:, 0, :].real, base[2:2]):
            flat = np.ascontiguousarray(view).reshape(-1)
            for codec in (
                CastCodec("fp32"), CastCodec("fp16", scaled=True), MantissaTrimCodec(35),
                MantissaTrimCodec(23, rounding="truncate"), IdentityCodec(),
                ShuffleZlibCodec(level=1), ZfpLikeCodec(rate=4.0),
            ):
                want_msg, want_err = codec.compress_measured(flat)
                want = encode_wire(want_msg)
                arena = np.full(want.size + 5 + 40, 0x5A, dtype=np.uint8)
                region = arena[5:]
                meta_len, nbytes, header, achieved = stage(region, codec, view, measure=True)
                frame = seal(region, meta_len, nbytes)
                assert frame.tobytes() == want.tobytes(), codec.name
                assert header == want_msg.header and achieved == want_err
                assert np.all(arena[:5] == 0x5A) and np.all(region[want.size :] == 0x5A)
                msg, consumed = open_frame(region)
                assert consumed == want.size
                assert not msg.payload.size or np.shares_memory(msg.payload, arena)
                # one byte short of the frame: reported, nothing sealed
                tight = np.zeros(want.size - 1, dtype=np.uint8)
                assert seal(tight, *stage(tight, codec, view)[:2]) is None and not tight[:4].any()
