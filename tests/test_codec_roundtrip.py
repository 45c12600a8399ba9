"""``Codec.roundtrip_into`` is ``decode_into`` of ``encode_into``, bit for bit.

The self block of an exchange never leaves its rank, so it takes the
round trip in one call; what it leaves in its box and what it reports
must be exactly what encoding into a payload and decoding that payload
would have produced, for every codec, on any strided view, specials and
empty views included.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression import CastCodec, MantissaTrimCodec, ShuffleZlibCodec, ZfpLikeCodec
from repro.compression.base import IdentityCodec

CODECS = [
    IdentityCodec(),
    *(CastCodec(fmt, scaled=scaled) for fmt in ("fp32", "fp16", "bf16") for scaled in (False, True)),
    *(
        MantissaTrimCodec(m, rounding=rounding)
        for m in (1, 23, 35, 52)
        for rounding in ("nearest", "truncate")
    ),
    ShuffleZlibCodec(),
    ZfpLikeCodec(rate=4.0),
]

#: NaN payloads that rounding alone would turn into an Inf or carry out of.
_NAN_PAYLOADS = np.array(
    [0x7FF0_0000_0000_0001, 0xFFF0_0000_0000_0100, 0x7FFF_FFFF_FFFF_FFFF], dtype=np.uint64
).view(np.float64)
_SPECIALS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1.7e308, -1.7e308, 65504.0, 1e-8,
             *_NAN_PAYLOADS]
_ELEMENTS = st.one_of(st.floats(width=64), st.sampled_from(_SPECIALS))
_SENTINEL = 777.0


@st.composite
def _views(draw):
    """A float64 or complex128 view of a larger array: any shape (empty
    sides included), every axis stepped, the last one possibly reversed."""
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6))
    steps = [draw(st.integers(1, 3)) for _ in shape]
    parts = 2 if dtype is np.complex128 else 1
    base = draw(
        hnp.arrays(np.float64, (*(n * k for n, k in zip(shape, steps)), parts), elements=_ELEMENTS)
    )
    base = base.view(dtype)[..., 0]
    view = base[tuple(slice(None, None, k) for k in steps)]
    return view[..., ::-1] if draw(st.booleans()) else view


def _box(view: np.ndarray, strided: bool) -> np.ndarray:
    """A sentinel-filled box shaped like ``view``: contiguous, or a view
    that skips every other item."""
    if not strided:
        return np.full(view.shape, _SENTINEL, dtype=view.dtype)
    return np.full((*view.shape, 2), _SENTINEL, dtype=view.dtype)[..., 1]


def _same(a, b) -> bool:
    """Equal, NaN counting as equal to NaN."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def _reference(codec, view, out, measure):
    """``decode_into(encode_into(view))`` into ``out``, through a payload
    of the codec's worst case (what does not fit is not decoded)."""
    n_float64 = view.size * (2 if view.dtype == np.complex128 else 1)
    payload = np.empty(codec.worst_case_nbytes(n_float64), dtype=np.uint8)
    nbytes, header, achieved = codec.encode_into(view, payload, measure)
    if nbytes <= payload.size:
        codec.decode_into(payload[:nbytes], header, out)
    return nbytes, header, achieved


@pytest.mark.parametrize(
    "codec", CODECS, ids=[c.name + (f"-{c.rounding}" if hasattr(c, "rounding") else "") for c in CODECS]
)
@settings(max_examples=40, deadline=None)
@given(view=_views(), measure=st.booleans(), strided=st.booleans())
def test_roundtrip_into_is_decode_of_encode(codec, view, measure, strided):
    before = view.copy()
    expected_out, out = _box(view, strided), _box(view, strided)
    with np.errstate(all="ignore"):
        expected = _reference(codec, view, expected_out, measure)
        got = codec.roundtrip_into(view, out, measure)
    assert np.array_equal(before.view(np.uint8), np.ascontiguousarray(view).view(np.uint8))
    assert got[0] == expected[0]
    assert got[1].keys() == expected[1].keys()
    assert all(_same(got[1][k], expected[1][k]) for k in got[1])
    assert _same(got[2], expected[2])
    assert np.array_equal(
        np.ascontiguousarray(out).view(np.uint8), np.ascontiguousarray(expected_out).view(np.uint8)
    )
