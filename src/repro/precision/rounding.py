"""Vectorised mantissa truncation of binary64 arrays.

The paper's cheapest compressor is *truncation*: re-rounding an FP64 value
to a representation with fewer mantissa bits (Section IV-A, Fig. 2).  We
implement it as round-to-nearest-even directly on the ``uint64`` bit view,
which is exactly what a GPU truncation kernel does and is fully
vectorised in NumPy.

Complex arrays are handled by viewing them as interleaved real pairs, so
the same kernels serve the FFT data path (complex128 messages).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PrecisionError
from repro.precision.formats import FP64, FloatFormat, get_format

__all__ = ["trim_mantissa", "cast_via_format", "roundtrip_error"]

_SIGN_MASK = np.uint64(0x8000_0000_0000_0000)
_EXP_MASK = np.uint64(0x7FF0_0000_0000_0000)


def _as_float64_view(x: np.ndarray) -> np.ndarray:
    """View a float64/complex128 array as a flat float64 array (no copy)."""
    if x.dtype == np.float64:
        return x.reshape(-1)
    if x.dtype == np.complex128:
        return x.reshape(-1).view(np.float64)
    raise PrecisionError(f"expected float64 or complex128 data, got {x.dtype}")


def trim_mantissa(x: np.ndarray, mantissa_bits: int, *, rounding: str = "nearest") -> np.ndarray:
    """Round every element of ``x`` to ``mantissa_bits`` stored fraction bits.

    Parameters
    ----------
    x:
        ``float64`` or ``complex128`` array (any shape).
    mantissa_bits:
        Number of fraction bits kept, in ``[1, 52]``.  ``52`` is a no-op.
    rounding:
        ``"nearest"`` (round-to-nearest-even, the default — what a cast
        instruction does) or ``"truncate"`` (chop, a strict upper bound on
        the cast error).

    Returns
    -------
    np.ndarray
        New array of the same dtype/shape with the trimmed values.  The
        result is still *stored* in 64 bits; the byte-level packing that
        realises the compression rate lives in
        :class:`repro.compression.mantissa.MantissaTrimCodec`.

    Notes
    -----
    Rounding is performed on the raw bit pattern: adding the round bit to
    the integer representation correctly carries into the exponent field
    (e.g. ``1.111...b`` rounds up to ``10.0b`` with exponent + 1), which
    matches IEEE round-to-nearest-even semantics, including the overflow-
    to-infinity case.  NaN payloads are preserved unrounded.
    """
    if not 1 <= mantissa_bits <= 52:
        raise PrecisionError(f"mantissa_bits must be in [1, 52], got {mantissa_bits}")
    if rounding not in ("nearest", "truncate"):
        raise PrecisionError(f"unknown rounding mode {rounding!r}")
    x = np.asarray(x)
    out = x.copy()
    if mantissa_bits == 52:
        return out
    flat = _as_float64_view(out)
    bits = flat.view(np.uint64)

    shift = np.uint64(52 - mantissa_bits)
    keep_mask = ~np.uint64((np.uint64(1) << shift) - np.uint64(1))

    special = (bits & _EXP_MASK) == _EXP_MASK  # NaN / Inf: keep untouched
    if rounding == "nearest":
        # round-to-nearest-even: add (half - 1) + LSB-of-kept-field, then chop.
        half = np.uint64(1) << (shift - np.uint64(1))
        lsb = (bits >> shift) & np.uint64(1)
        rounded = (bits + (half - np.uint64(1)) + lsb) & keep_mask
    else:
        rounded = bits & keep_mask  # a new array: `bits` still holds the NaN payloads
    bits[...] = np.where(special, bits, rounded)
    return out


def cast_via_format(x: np.ndarray, fmt: str | FloatFormat) -> np.ndarray:
    """Round ``x`` (float64/complex128) *through* ``fmt`` and back to FP64.

    For the native formats this is a NumPy dtype round-trip (including
    FP16's narrow exponent range: overflow saturates to ``inf`` exactly as
    a hardware cast would).  BF16 and synthetic trimmed formats use the
    bit-level kernels: BF16 is FP32 with a 7-bit mantissa, so we round to
    8 significant bits *in FP32* and re-round to the FP32 exponent range.

    This is the semantic used by the Fig. 2 "bits" axis and by the
    mixed-precision (MP 64/32) accuracy study.
    """
    fmt = get_format(fmt)
    x = np.asarray(x)
    if fmt is FP64 or fmt.name == "FP64":
        return x.copy()
    if fmt.numpy_dtype is not None:
        target = fmt.numpy_dtype
        # overflow-to-inf is the defined hardware cast behaviour (e.g.
        # FP16's narrow range); silence NumPy's warning about it.
        with np.errstate(over="ignore"):
            if np.issubdtype(x.dtype, np.complexfloating):
                ctarget = np.complex64 if target == np.float32 else None
                if ctarget is not None:
                    return x.astype(ctarget).astype(np.complex128)
                # complex half: cast the interleaved real view.
                flat = x.reshape(-1).view(np.float64)
                return (
                    flat.astype(target).astype(np.float64).view(np.complex128).reshape(x.shape)
                )
            return x.astype(target).astype(np.float64)
    if fmt.exponent_bits == 11:
        return trim_mantissa(x, fmt.mantissa_bits)
    if fmt.exponent_bits == 8:  # bfloat16-style: FP32 range, short mantissa
        y = trim_mantissa(x, fmt.mantissa_bits)
        if np.issubdtype(y.dtype, np.complexfloating):
            return y.astype(np.complex64).astype(np.complex128)
        return y.astype(np.float32).astype(np.float64)
    raise PrecisionError(f"cannot emulate format {fmt}")


def roundtrip_error(x: np.ndarray, fmt: str | FloatFormat, *, ord: float | None = 2) -> float:
    """Relative error ``||x - cast(x)|| / ||x||`` introduced by one cast.

    A sanity tool: for well-scaled data this is close to the format's
    unit round-off (``~ u / sqrt(3)`` in the 2-norm for uniform inputs).
    """
    x = np.asarray(x)
    y = cast_via_format(x, fmt)
    denom = np.linalg.norm(x.reshape(-1), ord)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm((x - y).reshape(-1), ord) / denom)
