"""Batched local 1-D FFTs (the cuFFT substitute).

Each pencil phase applies an unnormalised 1-D DFT along the pencil axis
of the local block — ``N**2 / p`` independent transforms batched into a
single call.  NumPy's pocketfft backend preserves single precision, so
the ``fp32`` path genuinely computes in 32-bit arithmetic (the paper's
all-FP32 reference) while ``fp64`` is the double-precision reference.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlanError

__all__ = ["complex_dtype", "batched_fft", "batched_ifft", "fft_over"]

_DTYPES = {"fp64": np.complex128, "fp32": np.complex64}


def complex_dtype(precision: str) -> np.dtype:
    """Complex dtype of a working precision (``"fp64"`` / ``"fp32"``)."""
    try:
        return np.dtype(_DTYPES[precision.lower()])
    except KeyError:
        raise PlanError(f"unknown precision {precision!r}; use 'fp64' or 'fp32'") from None


def _batched(transform, a: np.ndarray, axis: int, precision: str) -> np.ndarray:
    dtype = complex_dtype(precision)
    out = transform(np.ascontiguousarray(a, dtype=dtype), axis=axis)
    # older NumPy may promote; force working precision
    return out if out.dtype == dtype else out.astype(dtype)


def batched_fft(a: np.ndarray, axis: int, precision: str = "fp64") -> np.ndarray:
    """Forward unnormalised FFT along ``axis`` in the given precision."""
    return _batched(np.fft.fft, a, axis, precision)


def batched_ifft(a: np.ndarray, axis: int, precision: str = "fp64") -> np.ndarray:
    """Inverse FFT along ``axis`` (``1/n`` normalised) in the given precision."""
    return _batched(np.fft.ifft, a, axis, precision)


def fft_over(block: np.ndarray, axis: int, inverse: bool = False) -> np.ndarray:
    """:func:`batched_fft` (``inverse``: ``ifft``) written over a stage's own ``block``."""
    return (np.fft.ifft if inverse else np.fft.fft)(block, axis=axis, out=block)
