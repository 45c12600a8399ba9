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

from repro.compression.base import FixedWidthCodec, as_float64_view
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


class CastCodec(FixedWidthCodec):
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
        #: What the payload holds (BF16 travels as uint16 bit patterns).
        self._item_dtype = {FP32: np.float32, FP16: np.float16, BF16: np.uint16}[fmt]
        self.width = fmt.bits // 8
        self.scaled = bool(scaled)
        self.name = f"cast_{fmt.name.lower()}" + ("_scaled" if scaled else "")

    @property
    def rate(self) -> float:
        return 64.0 / self.fmt.bits

    @property
    def error_bound(self) -> float:
        """The target format's unit round-off (values in its range)."""
        return self.fmt.unit_roundoff

    # -- compression ----------------------------------------------------------

    def encode_into(
        self, values: np.ndarray, payload: np.ndarray, measure: bool = False
    ) -> tuple[int, dict, float | None]:
        """The cast, straight from the (strided) view into ``payload``."""
        real = as_float64_view(values)
        nbytes = self.width * real.size
        if nbytes > payload.size:
            return nbytes, {}, None
        items = payload[:nbytes].view(self._item_dtype).reshape(real.shape)
        return nbytes, *self._cast(real, items, measure)

    def roundtrip_into(
        self, values: np.ndarray, out: np.ndarray, measure: bool = False
    ) -> tuple[int, dict, float | None]:
        """The cast into a narrow temporary, widened straight into ``out``."""
        real = as_float64_view(values)
        items = np.empty(real.shape, dtype=self._item_dtype)
        header, achieved = self._cast(real, items, measure)
        self._widen(items, header, as_float64_view(out))
        return self.width * real.size, header, achieved

    def _cast(self, real: np.ndarray, items: np.ndarray, measure: bool) -> tuple[dict, float | None]:
        """Cast ``real`` into the payload ``items``; ``(header, achieved)``."""
        header: dict[str, float | int | str] = {}
        source = real
        if self.scaled:
            peak = float(np.max(np.abs(real))) if real.size else 0.0
            scale = peak if peak > 0.0 else 1.0
            source = real / scale
            header["scale"] = scale
        # overflow-to-inf is the defined cast behaviour for out-of-range
        # values (plain truncation, Section IV-A); silence the warning.
        with np.errstate(over="ignore"):
            if self.fmt is BF16:
                source = _fp32_to_bf16_bits(source.astype(np.float32))
            np.copyto(items, source, casting="same_kind")
        if not (measure and real.size):
            return header, 0.0 if measure else None
        # The cast values are at hand: widen them as the receiver will
        # and measure here, without the message round trip.  One scratch
        # array, reused in place: fresh 512 KiB temporaries cost more in
        # page faults than the arithmetic.  inf - inf -> NaN is the
        # measured error of a message carrying infinities; the caller
        # treats NaN as "tolerance exceeded".
        from repro.accuracy.bounds import relative_linf  # lazy: accuracy imports the FFT layer

        scratch = self._widen(items, header)
        with np.errstate(invalid="ignore"):
            np.subtract(real, scratch, out=scratch)
        worst = float(np.abs(scratch, out=scratch).max())
        return header, relative_linf(worst, float(np.abs(real, out=scratch).max()))

    def _widen(self, items: np.ndarray, header: dict, out: np.ndarray | None = None) -> np.ndarray:
        """The float64 values a receiver restores from ``items``, in ``out``."""
        if self.fmt is BF16:
            items = _bf16_bits_to_fp32(items)
        out = np.empty(items.shape) if out is None else out
        np.copyto(out, items)
        if self.scaled:
            out *= float(header["scale"])
        return out

    def decode_into(self, payload: np.ndarray, header: dict, out: np.ndarray) -> None:
        real = self._scalars_of(payload, out)
        self._widen(payload.view(self._item_dtype).reshape(real.shape), header, real)
