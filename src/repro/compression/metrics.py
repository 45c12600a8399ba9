"""Measurement helpers: what did a codec do to my data?

Used by tests, examples and the EXPERIMENTS.md generators to quantify
both sides of the paper's trade-off: achieved compression rate (speed)
and reconstruction error (accuracy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.base import Codec
from repro.trace import span as trace_span

__all__ = ["CompressionReport", "evaluate_codec", "max_abs_error"]


def max_abs_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Max pointwise absolute error (complex data: modulus of difference)."""
    diff = np.asarray(original) - np.asarray(reconstructed)
    return float(np.max(np.abs(diff))) if diff.size else 0.0


@dataclass(frozen=True)
class CompressionReport:
    """One codec-on-one-array evaluation."""

    codec_name: str
    n_values: int
    original_nbytes: int
    compressed_nbytes: int
    rel_l2: float
    max_abs: float

    @property
    def rate(self) -> float:
        """Achieved compression rate (original bytes / wire bytes).

        An empty array compresses to an empty message (0/0): rate 1.0
        by convention.  Nonzero input with zero wire bytes is ``inf``.
        """
        if self.compressed_nbytes:
            return self.original_nbytes / self.compressed_nbytes
        return 1.0 if self.original_nbytes == 0 else float("inf")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.codec_name:<16} rate={self.rate:6.2f}x  "
            f"rel_l2={self.rel_l2:9.2e}  max_abs={self.max_abs:9.2e}"
        )


def evaluate_codec(codec: Codec, data: np.ndarray) -> CompressionReport:
    """Round-trip ``data`` through ``codec`` and report rate + error."""
    from repro.accuracy.metrics import rel_error  # repro.accuracy imports the codecs

    data = np.asarray(data)
    with trace_span("compress", codec=codec.name, bytes=int(data.nbytes)):
        msg = codec.compress(data)
    with trace_span("decompress", codec=codec.name, bytes=int(msg.nbytes)):
        back = codec.decompress(msg)
    return CompressionReport(
        codec_name=codec.name,
        n_values=msg.n_values,
        original_nbytes=8 * msg.n_values,
        compressed_nbytes=msg.nbytes,
        rel_l2=rel_error(data, back),
        max_abs=max_abs_error(data, back),
    )
