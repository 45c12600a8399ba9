"""Tests for the codec family: identity, cast, mantissa-trim, lossless."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression import (
    CastCodec,
    IdentityCodec,
    MantissaTrimCodec,
    ShuffleZlibCodec,
    evaluate_codec,
)
from repro.accuracy.bounds import achieved_relative_error
from repro.accuracy.metrics import rel_error
from repro.compression.base import CompressedMessage
from repro.compression.mantissa import CHUNK_VALUES
from repro.compression.metrics import max_abs_error
from repro.conformance.oracles import trim_roundtrip_reference
from repro.errors import CompressionError

well_scaled = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=300),
    elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, width=64),
)


class TestIdentityCodec:
    def test_bitexact_roundtrip(self, random_complex):
        codec = IdentityCodec()
        msg = codec.compress(random_complex)
        back = codec.decompress(msg)
        assert np.array_equal(back, random_complex)
        assert back.dtype == np.complex128

    def test_rate_and_size(self, random_complex):
        codec = IdentityCodec()
        msg = codec.compress(random_complex)
        assert msg.nbytes == random_complex.nbytes
        assert codec.compressed_nbytes(100) == 800

    def test_preserves_shape(self, rng):
        x = rng.random((4, 5, 6))
        codec = IdentityCodec()
        assert codec.decompress(codec.compress(x)).shape == (4, 5, 6)

    def test_codec_mismatch_rejected(self, rng):
        msg = IdentityCodec().compress(rng.random(8))
        with pytest.raises(CompressionError, match="produced by"):
            CastCodec("fp32").decompress(msg)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(CompressionError):
            IdentityCodec().compress(np.arange(4, dtype=np.int32))


class TestCastCodec:
    def test_fp32_rate_exact(self, random_complex):
        rep = evaluate_codec(CastCodec("fp32"), random_complex)
        assert rep.rate == pytest.approx(2.0)
        assert 1e-9 < rep.rel_l2 < 1e-7

    def test_fp16_rate_exact(self, random_complex):
        rep = evaluate_codec(CastCodec("fp16"), random_complex)
        assert rep.rate == pytest.approx(4.0)
        assert 1e-5 < rep.rel_l2 < 1e-3

    def test_bf16_rate_and_error(self, random_complex):
        rep = evaluate_codec(CastCodec("bf16"), random_complex)
        assert rep.rate == pytest.approx(4.0)
        assert 1e-4 < rep.rel_l2 < 1e-1

    def test_fp16_unscaled_overflows(self):
        x = np.array([1e6, 1.0])
        codec = CastCodec("fp16")
        back = codec.decompress(codec.compress(x))
        assert np.isinf(back[0])  # plain truncation, like the paper's

    def test_fp16_scaled_survives_overflow(self):
        x = np.array([1e6, 1.0])
        codec = CastCodec("fp16", scaled=True)
        back = codec.decompress(codec.compress(x))
        assert np.isfinite(back).all()
        assert back[0] == pytest.approx(1e6, rel=1e-3)

    def test_scaled_charges_header(self):
        codec = CastCodec("fp16", scaled=True)
        msg = codec.compress(np.ones(100))
        assert msg.nbytes == 200 + 8  # payload + scale scalar

    def test_scaled_all_zero_message(self):
        codec = CastCodec("fp32", scaled=True)
        back = codec.decompress(codec.compress(np.zeros(16)))
        assert np.array_equal(back, np.zeros(16))

    def test_fp32_matches_numpy_cast(self, rng):
        x = rng.standard_normal(512)
        codec = CastCodec("fp32")
        back = codec.decompress(codec.compress(x))
        assert np.array_equal(back, x.astype(np.float32).astype(np.float64))

    def test_rejects_fp64_target(self):
        with pytest.raises(CompressionError):
            CastCodec("fp64")

    @given(well_scaled)
    @settings(max_examples=50, deadline=None)
    def test_fp32_error_bounded(self, x):
        codec = CastCodec("fp32")
        back = codec.decompress(codec.compress(x))
        # relative bound plus FP32's underflow floor (subnormals flush)
        assert np.all(np.abs(back - x) <= 6.0e-8 * np.abs(x) + 1.5e-45)

    @given(well_scaled)
    @settings(max_examples=50, deadline=None)
    def test_bf16_roundtrip_error_bounded(self, x):
        codec = CastCodec("bf16")
        back = codec.decompress(codec.compress(x))
        # bf16 unit roundoff 2^-8, plus the FP32-range underflow floor.
        assert np.all(np.abs(back - x) <= 2.0**-8 * np.abs(x) + 1.5e-38)


class TestMantissaTrimCodec:
    @pytest.mark.parametrize(
        "m,bytes_per_value", [(52, 8), (44, 7), (36, 6), (28, 5), (23, 5), (20, 4), (12, 3), (4, 2)]
    )
    def test_packing_widths(self, m, bytes_per_value):
        codec = MantissaTrimCodec(m)
        assert codec.bytes_per_value == bytes_per_value
        assert codec.rate == pytest.approx(8.0 / bytes_per_value)

    def test_wire_size_matches_rate(self, rng):
        x = rng.random(1000)
        codec = MantissaTrimCodec(28)
        msg = codec.compress(x)
        assert msg.nbytes == 5000
        assert codec.compressed_nbytes(1000) == 5000

    def test_roundtrip_preserves_trimmed_values(self, rng):
        """Packing adds no loss beyond the mantissa rounding itself."""
        from repro.precision import trim_mantissa

        x = rng.standard_normal(512)
        for m in (36, 23, 10):
            codec = MantissaTrimCodec(m)
            back = codec.decompress(codec.compress(x))
            assert np.array_equal(back, trim_mantissa(x, m))

    def test_complex_roundtrip(self, random_complex):
        codec = MantissaTrimCodec(30)
        back = codec.decompress(codec.compress(random_complex))
        assert back.dtype == np.complex128 and back.shape == random_complex.shape
        assert rel_error(random_complex, back) < 2.0**-30

    def test_corrupt_payload_rejected(self, rng):
        codec = MantissaTrimCodec(23)
        msg = codec.compress(rng.random(10))
        bad = CompressedMessage(codec.name, msg.payload[:-1], msg.dtype_name, msg.shape)
        with pytest.raises(CompressionError, match="corrupt"):
            codec.decompress(bad)

    @given(well_scaled, st.integers(min_value=1, max_value=44))
    @settings(max_examples=50, deadline=None)
    def test_error_within_unit_roundoff(self, x, m):
        codec = MantissaTrimCodec(m)
        back = codec.decompress(codec.compress(x))
        assert np.all(np.abs(back - x) <= codec.error_bound * np.abs(x) + 1e-300)


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).reshape(-1).view(np.uint64)


def _from_bits(*patterns: int) -> np.ndarray:
    return np.array(patterns, dtype=np.uint64).view(np.float64)


_FMAX = float(np.finfo(np.float64).max)

#: One mantissa width per packing width k = 2 .. 8, plus the suite's trim_m35.
_WIDTH_BITS = (4, 12, 20, 28, 35, 36, 44, 52)


class TestTrimNanSurvives:
    """A NaN stays a NaN however few of its payload bits survive the packing."""

    @pytest.mark.parametrize("m", _WIDTH_BITS)
    @pytest.mark.parametrize("rounding", ["nearest", "truncate"])
    def test_low_payload_and_signalling_nans(self, m, rounding):
        codec = MantissaTrimCodec(m, rounding=rounding)
        x = _from_bits(
            0x7FF0_0000_0000_0001,  # signalling, payload in the lowest bit (decoded as +inf before)
            0xFFF0_0000_0000_0400,  # signalling, negative (decoded as -inf with trim_m35 before)
            0x7FF0_0000_0100_0000,
            0x7FF4_0000_0000_0000,  # signalling, payload survives every width
            0xFFF8_0000_0000_0000,  # the default quiet NaN, negative
            0x7FFF_FFFF_FFFF_FFFF,  # all ones: rounding it would carry into the sign
        )
        back = codec.decompress(codec.compress(x))
        assert np.isnan(back).all()
        assert np.array_equal(np.signbit(back), np.signbit(x))
        # kept bytes of a NaN are its own; only an emptied fraction gets the quiet bit
        keep = np.uint64((1 << 64) - (1 << (64 - 8 * codec.bytes_per_value)))
        survived = (_bits(x) & keep & np.uint64(0x000F_FFFF_FFFF_FFFF)) != 0
        assert np.array_equal(_bits(back)[survived], (_bits(x) & keep)[survived])
        assert np.all(_bits(back)[~survived] & np.uint64(0x0008_0000_0000_0000))

    def test_infinities_stay_infinite(self):
        x = np.array([np.inf, -np.inf, 1.0])
        for m in _WIDTH_BITS:
            codec = MantissaTrimCodec(m)
            assert np.array_equal(codec.decompress(codec.compress(x)), x)


def _adversarial(n: int, rng: np.random.Generator, specials: bool) -> np.ndarray:
    """``n`` float64 values over 600 decades with the awkward ones mixed in.

    Always: ±0, subnormals, the smallest subnormal.  With ``specials``:
    the largest finite values (round up to ±inf), ±Inf and NaNs — put
    where chunk boundaries fall as well as at both ends.
    """
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    awkward = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.1e-310, -3.3e-320]
    if specials:
        awkward += [1.797e308, -_FMAX, np.inf, -np.inf, np.nan]
        awkward += list(_from_bits(0x7FF0_0000_0000_0001, 0xFFF0_0000_0000_0400))
    spots = np.unique(
        np.concatenate(
            [
                rng.integers(0, max(n, 1), size=len(awkward)),
                [0, n - 1, CHUNK_VALUES - 1, CHUNK_VALUES, 2 * CHUNK_VALUES - 1, 3 * CHUNK_VALUES],
            ]
        )
    )
    spots = spots[(spots >= 0) & (spots < n)]
    x[spots] = np.resize(np.array(awkward), spots.size)
    return x


class TestTrimKernelEquivalence:
    """The chunked kernels against the reference rounding, as a property.

    ``decompress(compress(x))`` must be bit-identical to
    :func:`trim_mantissa` with the discarded bytes zeroed, and
    ``compress_measured`` must report exactly what a round trip through
    :func:`achieved_relative_error` would — for every width, both
    rounding modes, both dtypes, sizes straddling the chunk, and data
    full of the values rounding gets wrong.
    """

    SIZES = (0, 1, CHUNK_VALUES - 1, CHUNK_VALUES, CHUNK_VALUES + 1, 3 * CHUNK_VALUES + 7)

    @pytest.mark.parametrize("rounding", ["nearest", "truncate"])
    @pytest.mark.parametrize("m", range(1, 53))
    def test_bit_identical_to_reference(self, m, rounding):
        codec = MantissaTrimCodec(m, rounding=rounding)
        rng = np.random.default_rng([m, rounding == "nearest"])
        for dtype in (np.float64, np.complex128):
            for n in self.SIZES:
                for specials in (False, True):
                    x = _adversarial(n, rng, specials)
                    if dtype is np.complex128:
                        z = np.empty(n, dtype=np.complex128)
                        z.real, z.imag = x, _adversarial(n, rng, specials)
                        x = z
                    msg, achieved = codec.compress_measured(x)
                    back = codec.decompress(msg)
                    want = trim_roundtrip_reference(
                        x, m, codec.bytes_per_value, rounding=rounding
                    )
                    assert back.dtype == x.dtype and back.shape == x.shape
                    assert np.array_equal(_bits(back), _bits(want)), (dtype, n, specials)
                    assert np.array_equal(msg.payload, codec.compress(x).payload)
                    with np.errstate(invalid="ignore"):
                        reference_error = achieved_relative_error(x, back)
                    # == on the float, with NaN (an Inf or NaN in x) matching NaN
                    assert np.array_equal(achieved, reference_error, equal_nan=True), (
                        dtype, n, specials, achieved, reference_error,
                    )
                    assert isinstance(achieved, float)

    @pytest.mark.parametrize(
        "value", [0.0, -0.0, 5e-324, 1.797e308, _FMAX, np.inf, -np.inf, np.nan]
    )
    def test_single_awkward_values(self, value):
        x = np.array([value])
        for m in range(1, 53):
            codec = MantissaTrimCodec(m)
            msg, achieved = codec.compress_measured(x)
            back = codec.decompress(msg)
            assert np.array_equal(
                _bits(back), _bits(trim_roundtrip_reference(x, m, codec.bytes_per_value))
            )
            with np.errstate(invalid="ignore"):
                assert np.array_equal(
                    achieved, achieved_relative_error(x, back), equal_nan=True
                )

    def test_largest_finite_rounds_up_to_inf(self):
        codec = MantissaTrimCodec(35)
        msg, achieved = codec.compress_measured(np.array([_FMAX, 1.0]))
        assert np.isinf(codec.decompress(msg)[0]) and achieved == np.inf

    def test_input_is_not_mutated_and_scratch_is_per_call(self):
        """Codecs are shared by rank threads: concurrent calls on one
        instance must not see each other's scratch."""
        from concurrent.futures import ThreadPoolExecutor

        codec = MantissaTrimCodec(35)
        rng = np.random.default_rng(7)
        inputs = [rng.standard_normal(3 * CHUNK_VALUES + 7) * 10.0**i for i in range(8)]
        copies = [x.copy() for x in inputs]
        expected = [trim_roundtrip_reference(x, 35, 6) for x in inputs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(5):
                got = list(pool.map(lambda x: codec.decompress(codec.compress_measured(x)[0]), inputs))
                for g, want in zip(got, expected):
                    assert np.array_equal(_bits(g), _bits(want))
        for x, original in zip(inputs, copies):
            assert np.array_equal(_bits(x), _bits(original))

    def test_planar_payload_layout(self):
        """k = 6: all the high u32 halves, then all the u16 pieces below them."""
        x = np.array([1.5, -2.25, 3.0e10])
        msg = MantissaTrimCodec(36).compress(x)
        words = _bits(x)  # exactly representable: no rounding
        assert np.array_equal(msg.payload[:12].view("<u4"), (words >> np.uint64(32)).astype("<u4"))
        assert np.array_equal(
            msg.payload[12:].view("<u2"), ((words >> np.uint64(16)) & np.uint64(0xFFFF)).astype("<u2")
        )


class TestCastMeasuresInTheEncodePass:
    """``CastCodec.compress_measured`` widens the cast values it already
    holds instead of making the message round trip; it must report the
    identical float the base-class default (compress, decompress,
    :func:`achieved_relative_error`) does."""

    @pytest.mark.parametrize("scaled", [False, True], ids=["plain", "scaled"])
    @pytest.mark.parametrize("fmt", ["fp32", "fp16", "bf16"])
    def test_identical_to_the_round_trip(self, fmt, scaled):
        from repro.compression.base import Codec

        codec = CastCodec(fmt, scaled=scaled)
        rng = np.random.default_rng([ord(fmt[0]), len(fmt), scaled])
        for dtype in (np.float64, np.complex128):
            for n in (0, 1, 2, 257, 4096):
                # in range of every format (finite errors), then 600 decades
                # (overflow to Inf), then NaN, +-Inf and FMAX among the values
                for specials in (None, False, True):
                    draw = (
                        (lambda: rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n))
                        if specials is None
                        else (lambda: _adversarial(n, rng, specials))
                    )
                    x = draw()
                    if dtype is np.complex128:
                        z = np.empty(n, dtype=np.complex128)
                        z.real, z.imag = x, draw()
                        x = z
                    original = x.copy()
                    with np.errstate(all="ignore"):
                        msg, achieved = codec.compress_measured(x)
                        want_msg, want = Codec.compress_measured(codec, x)
                    assert isinstance(achieved, float)
                    # == on the float, with NaN (an Inf or NaN in x) matching NaN
                    assert np.array_equal(achieved, want, equal_nan=True), (
                        dtype, n, specials, achieved, want,
                    )
                    assert np.array_equal(msg.payload, want_msg.payload)
                    assert msg.header == want_msg.header and msg.shape == want_msg.shape
                    assert np.array_equal(_bits(x), _bits(original))  # input not mutated

    def test_all_zero_and_overflowing_messages(self):
        assert CastCodec("fp16", scaled=True).compress_measured(np.zeros(8))[1] == 0.0
        with np.errstate(over="ignore"):
            assert CastCodec("fp16").compress_measured(np.array([1e6, 1.0]))[1] == np.inf


class TestCompressMeasuredDefault:
    """``compress_measured`` against an explicit round trip: the
    base-class default and :class:`CastCodec`'s in-pass override."""

    @pytest.mark.parametrize(
        "codec",
        [CastCodec("fp32"), CastCodec("fp16", scaled=True), IdentityCodec(), ShuffleZlibCodec()],
        ids=lambda c: c.name,
    )
    def test_matches_explicit_round_trip(self, codec, random_complex):
        msg, achieved = codec.compress_measured(random_complex)
        back = codec.decompress(msg)
        assert achieved == achieved_relative_error(random_complex, back)
        assert np.array_equal(msg.payload, codec.compress(random_complex).payload)
        assert (achieved == 0.0) == codec.lossless


class TestCorruptMetadata:
    """Metadata that disagrees with the payload is a CompressionError — the
    type the exchange's recovery catches — never a bare ValueError."""

    CODECS = [IdentityCodec(), CastCodec("fp32"), CastCodec("bf16"), MantissaTrimCodec(35),
              ShuffleZlibCodec()]

    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
    @pytest.mark.parametrize(
        "dtype_name,shape",
        [
            ("float64", (11,)),  # more values than the payload holds
            ("float64", (3, 3)),  # fewer
            ("complex128", (10,)),  # twice as many scalars
            ("complex128", (2, 3)),
            ("float64", (-10,)),
            ("float64", (10, "x")),
            ("float32", (10,)),
        ],
    )
    def test_shape_or_dtype_disagrees_with_payload(self, codec, dtype_name, shape, rng):
        msg = codec.compress(rng.random(10))
        bad = CompressedMessage(codec.name, msg.payload, dtype_name, shape, msg.header)
        with pytest.raises(CompressionError):
            codec.decompress(bad)

    @pytest.mark.parametrize(
        "codec", [IdentityCodec(), CastCodec("fp32"), CastCodec("fp16"), CastCodec("bf16")],
        ids=lambda c: c.name,
    )
    def test_ragged_payload_length(self, codec, rng):
        msg = codec.compress(rng.random(10))
        bad = CompressedMessage(codec.name, msg.payload[:-1], msg.dtype_name, msg.shape, msg.header)
        with pytest.raises(CompressionError, match="corrupt"):
            codec.decompress(bad)

    def test_odd_stream_cannot_be_complex(self, rng):
        codec = MantissaTrimCodec(23)
        msg = codec.compress(rng.random(7))
        bad = CompressedMessage(codec.name, msg.payload, "complex128", (7,))
        with pytest.raises(CompressionError, match="corrupt metadata"):
            codec.decompress(bad)


class TestShuffleZlibCodec:
    def test_exact_roundtrip(self, random_complex):
        codec = ShuffleZlibCodec()
        back = codec.decompress(codec.compress(random_complex))
        assert np.array_equal(back, random_complex)

    def test_exact_roundtrip_no_shuffle(self, rng):
        codec = ShuffleZlibCodec(shuffle=False)
        x = rng.random(777)
        assert np.array_equal(codec.decompress(codec.compress(x)), x)

    def test_shuffle_helps_on_smooth_data(self, smooth_field):
        plain = evaluate_codec(ShuffleZlibCodec(shuffle=False, level=6), smooth_field)
        shuffled = evaluate_codec(ShuffleZlibCodec(shuffle=True, level=6), smooth_field)
        assert shuffled.rate > plain.rate

    def test_compresses_constant_data_massively(self):
        rep = evaluate_codec(ShuffleZlibCodec(), np.ones(10_000))
        assert rep.rate > 50 and rep.rel_l2 == 0.0

    def test_no_fixed_rate(self):
        codec = ShuffleZlibCodec()
        assert codec.rate is None
        with pytest.raises(CompressionError):
            codec.compressed_nbytes(100)

    def test_rejects_bad_level(self):
        with pytest.raises(CompressionError):
            ShuffleZlibCodec(level=0)

    @given(well_scaled)
    @settings(max_examples=30, deadline=None)
    def test_lossless_property(self, x):
        codec = ShuffleZlibCodec()
        assert np.array_equal(codec.decompress(codec.compress(x)), x)


class TestMetrics:
    def test_rel_l2_basics(self):
        x = np.array([3.0, 4.0])
        assert rel_error(x, x) == 0.0
        assert rel_error(x, np.zeros(2)) == pytest.approx(1.0)
        assert rel_error(np.zeros(2), np.zeros(2)) == 0.0

    def test_max_abs_complex(self):
        x = np.array([1 + 1j])
        y = np.array([1 + 0j])
        assert max_abs_error(x, y) == pytest.approx(1.0)

    def test_report_string(self, rng):
        rep = evaluate_codec(CastCodec("fp32"), rng.random(64))
        s = str(rep)
        assert "cast_fp32" in s and "rate" in s


# -- encode_into / decode_into: the same bytes, written and read in place ------------


#: NaN (quiet, and one whose set bits all sit in the trimmed bytes), ±Inf,
#: subnormals, signed zeros, extremes — next to ordinary values.
_SPECIAL_BITS = [
    0x7FF8_0000_0000_0000, 0x7FF0_0000_0000_0001, 0xFFF0_0000_0000_0000, 0x7FF0_0000_0000_0000,
    0x0000_0000_0000_0001, 0x800F_FFFF_FFFF_FFFF, 0x0000_0000_0000_0000, 0x8000_0000_0000_0000,
    0x7FEF_FFFF_FFFF_FFFF, 0x0010_0000_0000_0000, 0x3FF0_0000_0000_0001, 0xC08F_FFFF_FFFF_FFFF,
]


@st.composite
def strided_boxes(draw, special: bool = True):
    """``(base, where)``: a float64/complex128 block with batch dimensions
    and the index of a strided (possibly empty, possibly reversed) box of it."""
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scalars = int(np.prod(shape)) * (2 if dtype is np.complex128 else 1)
    values = rng.standard_normal(scalars) * 10.0 ** rng.integers(-3, 4, size=scalars)
    if special and draw(st.booleans()):
        hit = rng.random(scalars) < 0.3
        values.view(np.uint64)[hit] = rng.choice(np.array(_SPECIAL_BITS, dtype=np.uint64), int(hit.sum()))
    base = values.view(dtype).reshape(shape)
    where = []
    for n in shape:
        lo = draw(st.integers(0, n))
        hi = draw(st.integers(lo, n))
        step = draw(st.sampled_from([1, 1, 2, -1]))
        if step > 0 or hi == lo:
            where.append(slice(lo, hi, abs(step)))
        else:  # [lo, hi) walked backwards
            where.append(slice(hi - 1, lo - 1 if lo else None, -1))
    return base, tuple(where)


def _in_place_codecs():
    from repro.compression import ZfpLikeCodec

    exact = [
        CastCodec("fp32"), CastCodec("fp16"), CastCodec("bf16"),
        CastCodec("fp32", scaled=True), CastCodec("fp16", scaled=True),
        *[MantissaTrimCodec(m, rounding=r) for m in (1, 23, 35, 52) for r in ("nearest", "truncate")],
        IdentityCodec(), ShuffleZlibCodec(level=1),
    ]
    return exact, [ZfpLikeCodec(rate=4.0), ZfpLikeCodec(tolerance=1e-6)]


class TestEncodeIntoDecodeInto:
    """One kernel per codec: what ``encode_into`` writes into a caller's
    bytes *is* ``compress(...).payload``, what ``decode_into`` fills *is*
    ``decompress(...)``, and the measured error is the identical float —
    on any strided N-d box, with a batch dimension, empty, or full of
    NaN/Inf/subnormals."""

    EXACT, FINITE_ONLY = _in_place_codecs()

    def _check(self, codec, base, where):
        view = base[where]
        before = base.copy()
        flat = np.ascontiguousarray(view)
        with np.errstate(all="ignore"):
            ref = codec.compress(flat)
            ref_m, ref_err = codec.compress_measured(flat)
        n = ref.payload.size
        # an unaligned region with slack behind it, as a payload sits in a slot
        arena = np.full(n + 3 + 64, 0xAA, dtype=np.uint8)
        room = arena[3:]
        with np.errstate(all="ignore"):
            nbytes, header, achieved = codec.encode_into(view, room)
        assert (nbytes, header, achieved) == (n, ref.header, None)
        assert np.array_equal(room[:n], ref.payload)
        assert np.all(room[n:] == 0xAA) and np.all(arena[:3] == 0xAA), "wrote outside its payload"
        with np.errstate(all="ignore"):
            nbytes, header, achieved = codec.encode_into(view, room, True)
        assert nbytes == n and header == ref_m.header and np.array_equal(room[:n], ref_m.payload)
        assert achieved == ref_err or (np.isnan(achieved) and np.isnan(ref_err))
        assert np.array_equal(_bits(base), _bits(before)), "the source was written"
        if n:  # one byte too few: reported, not truncated
            assert codec.encode_into(view, np.zeros(n - 1, dtype=np.uint8))[0] == n

        with np.errstate(all="ignore"):
            expected = codec.decompress(ref)
        out_base = np.full(base.shape, -7.25, dtype=base.dtype)
        with np.errstate(all="ignore"):
            codec.decode_into(room[:n], header, out_base[where])
        assert np.array_equal(_bits(out_base[where]), _bits(expected))
        untouched = np.ones(base.shape, dtype=bool)
        untouched[where] = False
        assert np.all(out_base[untouched] == -7.25), "decoded outside its box"

    @given(st.data(), strided_boxes())
    @settings(max_examples=150, deadline=None)
    def test_cast_trim_identity_zlib(self, data, box):
        self._check(data.draw(st.sampled_from(self.EXACT)), *box)

    @given(st.data(), strided_boxes(special=False))
    @settings(max_examples=40, deadline=None)
    def test_zfp_like(self, data, box):
        self._check(data.draw(st.sampled_from(self.FINITE_ONLY)), *box)

    def test_chunked_kernel_on_strided_blocks_larger_than_a_chunk(self, rng):
        """The trim kernel's slab walk: boxes whose rows, planes and whole
        exceed CHUNK_VALUES, contiguous and not."""
        base = rng.standard_normal((3, 40, 70, 9)) + 1j * rng.standard_normal((3, 40, 70, 9))
        big_row = rng.standard_normal((2, 3 * CHUNK_VALUES + 5))
        for codec in (MantissaTrimCodec(35), MantissaTrimCodec(23, rounding="truncate"), CastCodec("fp32")):
            for b, where in (
                (base, np.s_[:, 3:37, ::2, 1:8]),
                (base, np.s_[1:, :, :, :]),
                (big_row, np.s_[:, 1::2]),
                (big_row, np.s_[1, :]),
            ):
                self._check(codec, b, where)

    def test_wrong_sized_payload_or_output_is_a_compression_error(self, rng):
        x = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        for codec in self.EXACT:
            payload = codec.compress(x).payload
            header = codec.compress(x).header
            for out in (np.empty((4, 4), complex), np.empty((4, 5)), np.empty((5, 5), complex)):
                with pytest.raises(CompressionError):
                    codec.decode_into(payload, header, out)
            with pytest.raises(CompressionError):
                codec.encode_into(np.arange(6, dtype=np.float32), np.zeros(64, dtype=np.uint8))
