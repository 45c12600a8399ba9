"""Casting codecs: FP64 → {FP32, FP16, BF16} (Section IV-A).

Truncation is the paper's workhorse: "a casting-like operation that is
highly efficient due to the hardware support provided by modern
architectures".  It has a *fixed* compression rate (2× for FP32, 4× for
FP16/BF16), which is exactly what makes the performance model of
Section IV-B predictable ("our performance model for compression is that
the overall performance increases at the rate of the data compression").

``CastCodec(FP16, scaled=True)`` additionally applies a per-message block
scale before the cast: FP16's dynamic range tops out at 6.6e4 and the
intermediate values of a large FFT overflow it (the paper never reports
FP16 *accuracy* for this reason — see DESIGN.md).  The scale is one FP64
scalar per message, charged to the wire size.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import (
    Codec,
    CompressedMessage,
    as_float64_stream,
    from_float64_stream,
    payload_items,
)
from repro.errors import CompressionError
from repro.precision.formats import BF16, FP16, FP32, FP64, FloatFormat, get_format

__all__ = ["CastCodec"]


def _fp32_to_bf16_bits(x32: np.ndarray) -> np.ndarray:
    """Round float32 values to bfloat16, returned as uint16 bit patterns."""
    bits = x32.view(np.uint32)
    lsb = (bits >> np.uint32(16)) & np.uint32(1)
    rounded = bits + np.uint32(0x7FFF) + lsb  # round-to-nearest-even
    return (rounded >> np.uint32(16)).astype(np.uint16)


def _bf16_bits_to_fp32(u16: np.ndarray) -> np.ndarray:
    """Expand uint16 bfloat16 bit patterns back to float32."""
    return (u16.astype(np.uint32) << np.uint32(16)).view(np.float32)


class CastCodec(Codec):
    """Compress by casting each FP64 scalar to a narrower native format.

    Parameters
    ----------
    fmt:
        Target format: ``"fp32"`` (rate 2), ``"fp16"`` or ``"bf16"``
        (rate 4).  Casting to FP64 itself is rejected — use
        :class:`~repro.compression.base.IdentityCodec`.
    scaled:
        When true, divide the message by ``max(|x|)`` before casting and
        multiply back after decompression.  Protects FP16 from overflow
        at the cost of one extra scalar per message.  Defaults to off,
        matching the paper's plain truncation.
    """

    def __init__(self, fmt: str | FloatFormat = FP32, *, scaled: bool = False) -> None:
        fmt = get_format(fmt)
        if fmt is FP64:
            raise CompressionError("casting FP64->FP64 is the identity; use IdentityCodec")
        if fmt not in (FP32, FP16, BF16):
            raise CompressionError(f"CastCodec targets FP32/FP16/BF16, got {fmt.name}")
        self.fmt = fmt
        self.scaled = bool(scaled)
        self.name = f"cast_{fmt.name.lower()}" + ("_scaled" if scaled else "")

    @property
    def rate(self) -> float:
        return 64.0 / self.fmt.bits

    # -- compression ----------------------------------------------------------

    def compress(self, data: np.ndarray) -> CompressedMessage:
        stream, dtype_name, shape = as_float64_stream(data)
        header: dict[str, float | int | str] = {}
        if self.scaled:
            peak = float(np.max(np.abs(stream))) if stream.size else 0.0
            scale = peak if peak > 0.0 else 1.0
            stream = stream / scale
            header["scale"] = scale
        # overflow-to-inf is the defined cast behaviour for out-of-range
        # values (plain truncation, Section IV-A); silence the warning.
        with np.errstate(over="ignore"):
            if self.fmt is FP32:
                payload = stream.astype(np.float32).view(np.uint8)
            elif self.fmt is FP16:
                payload = stream.astype(np.float16).view(np.uint8)
            else:  # BF16
                payload = _fp32_to_bf16_bits(stream.astype(np.float32)).view(np.uint8)
        return CompressedMessage(self.name, payload, dtype_name, shape, header)

    def decompress(self, msg: CompressedMessage) -> np.ndarray:
        self._check_roundtrip_args(msg)
        if self.fmt is FP32:
            stream = payload_items(msg, np.float32).astype(np.float64)
        elif self.fmt is FP16:
            stream = payload_items(msg, np.float16).astype(np.float64)
        else:
            stream = _bf16_bits_to_fp32(payload_items(msg, np.uint16)).astype(np.float64)
        if self.scaled:
            stream = stream * float(msg.header["scale"])
        return from_float64_stream(stream, msg.dtype_name, msg.shape)
