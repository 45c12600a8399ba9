"""Theoretical error bounds quoted in Section III.

Round-off in the transform itself is bounded (Gentleman & Sande 1966,
as cited by the paper) by ``1.06 (2N)^{3/2} eps`` for a naive DFT and by
``1.06 * sum_j (2 p_j)^{3/2} eps`` for an FFT factored over the prime
factors ``p_j`` of ``N`` — the paper renders the exponent as ``2/3``
but the classical result (and dimensional sanity) give ``3/2``; we
implement both and default to the classical form.

Truncating the mantissa before the transform adds an input perturbation
of at most the truncated format's unit round-off; because the
(normalised) FFT is orthogonal — condition number 1 — that perturbation
passes to the output with no amplification, which is the paper's
"truncating the input will result in roughly the same error in the
output" argument.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ModelError, ToleranceError
from repro.utils.primes import prime_factors

__all__ = [
    "dft_roundoff_bound",
    "fft_roundoff_bound",
    "truncation_error_model",
    "relative_linf",
    "achieved_relative_error",
    "tolerance_exceeded",
]

#: Double-precision machine epsilon (unit round-off * 2).
EPS_FP64 = 2.0**-52


def dft_roundoff_bound(n: int, eps: float = EPS_FP64, *, exponent: float = 1.5) -> float:
    """Gentleman–Sande bound for a length-``n`` naive DFT."""
    if n < 1:
        raise ModelError(f"n must be >= 1, got {n}")
    return 1.06 * (2.0 * n) ** exponent * eps


def fft_roundoff_bound(n: int, eps: float = EPS_FP64, *, exponent: float = 1.5) -> float:
    """Gentleman–Sande bound for a length-``n`` FFT over its prime factors.

    >>> fft_roundoff_bound(1024) < dft_roundoff_bound(1024)
    True
    """
    if n < 1:
        raise ModelError(f"n must be >= 1, got {n}")
    return 1.06 * sum((2.0 * p) ** exponent for p in prime_factors(n)) * eps


def truncation_error_model(mantissa_bits: int, n_compressions: int = 1) -> float:
    """Expected relative error of an FFT whose messages keep ``m`` bits.

    Each compressed reshape perturbs the data by at most one unit
    round-off of the trimmed format; with condition number one the
    perturbations accumulate at worst linearly over the
    ``n_compressions`` compression events (8 for a forward+backward
    round trip with 4 reshapes each).
    """
    if not 1 <= mantissa_bits <= 52:
        raise ModelError(f"mantissa_bits must be in [1, 52], got {mantissa_bits}")
    if n_compressions < 0:
        raise ModelError("n_compressions must be >= 0")
    u = 2.0 ** -(mantissa_bits + 1)
    return n_compressions * u / math.sqrt(3.0)


def relative_linf(worst: float, peak: float) -> float:
    """Relative L-inf error from ``worst = max|x - y|`` and ``peak = max|x|``.

    The one place the two maxima become the number held against
    ``e_tol``: :func:`achieved_relative_error` computes them from a
    round trip, a codec's ``compress_measured`` override from its encode
    pass, and both report through here so they agree exactly.
    ``0/0 -> 0`` (an all-zero message is transported exactly).
    """
    return worst if peak == 0.0 else worst / peak


def achieved_relative_error(original: np.ndarray, restored: np.ndarray) -> float:
    """Realised relative L-inf error of one compressed round trip.

    This is the per-message quantity the resilient collectives compare
    against ``e_tol``: unlike the a-priori bounds above it measures the
    actual perturbation a codec introduced, so data-dependent codecs
    (scaled casts, ZFP-like blocks) are held to the tolerance too.
    """
    x = np.asarray(original)
    y = np.asarray(restored)
    if np.iscomplexobj(x) or np.iscomplexobj(y):
        # Complex payloads are measured on their real/imag components
        # (same L-inf scale the codecs quantise on), not silently cast.
        x = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
        y = np.ascontiguousarray(y, dtype=np.complex128).view(np.float64)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ModelError(f"shape mismatch: {x.shape} vs {y.shape}")
    if not x.size:
        return 0.0
    return relative_linf(float(np.max(np.abs(x - y))), float(np.max(np.abs(x))))


def tolerance_exceeded(achieved: float, e_tol: float) -> bool:
    """Does a realised error violate the user's tolerance ``e_tol``?

    The hook used by :class:`~repro.collectives.compressed.CompressedOscAlltoallv`
    to decide per-message degradation from the lossy codec to the
    lossless fallback.
    """
    if e_tol <= 0.0:
        raise ToleranceError(f"e_tol must be > 0, got {e_tol}")
    if not math.isfinite(achieved) or achieved < 0.0:
        return True
    return achieved > e_tol
