"""Compression codecs used inside the all-to-all exchange (Section IV).

The paper spans the whole spectrum of message compressors:

* *truncation/casting* — :class:`~repro.compression.truncation.CastCodec`
  (FP64→FP32/FP16/BF16, hardware-cast semantics, fixed rate 2×/4×),
* *mantissa trimming* — :class:`~repro.compression.mantissa.MantissaTrimCodec`
  (keep ``m`` fraction bits, real byte packing; the Fig. 2 knob),
* *transform-based lossy* — :class:`~repro.compression.zfp_like.ZfpLikeCodec`
  (ZFP-style blocked decorrelating lifting transform + block-floating-point
  quantisation; wins on spatially-correlated data),
* *lossless* — :class:`~repro.compression.lossless.ShuffleZlibCodec`
  (byte shuffle + DEFLATE; exact, data-dependent rate),
* *identity* — :class:`~repro.compression.base.IdentityCodec` (baseline).

:func:`~repro.compression.selection.codec_for_tolerance` spends one error
budget — the user's round-trip tolerance ``e_tol``, split in quadrature
over the compressions it covers — on the cheapest codec whose stated
per-message bound (:attr:`Codec.error_bound`) fits each one's share,
which is how Algorithm 1's approximate FFT controls its accuracy.
"""

from repro.compression.base import Codec, CompressedMessage, IdentityCodec
from repro.compression.lossless import ShuffleZlibCodec
from repro.compression.mantissa import MantissaTrimCodec
from repro.compression.metrics import CompressionReport, evaluate_codec
from repro.compression.selection import codec_for_tolerance
from repro.compression.truncation import CastCodec
from repro.compression.zfp_like import ZfpLikeCodec

__all__ = [
    "Codec",
    "CompressedMessage",
    "IdentityCodec",
    "CastCodec",
    "MantissaTrimCodec",
    "ZfpLikeCodec",
    "ShuffleZlibCodec",
    "CompressionReport",
    "evaluate_codec",
    "codec_for_tolerance",
]
