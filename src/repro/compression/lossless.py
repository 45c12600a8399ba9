"""Lossless codec: byte shuffle + DEFLATE.

The paper's conclusion notes the framework "can be easily extended to
lossless compression so that we fall back to the classical 3D FFT with a
potential speedup".  This codec provides that fallback: a *byte shuffle*
(transposing the byte planes of the float64 stream, the trick used by
Blosc/HDF5) groups the highly-redundant exponent bytes together so a
general-purpose entropy coder (zlib) can exploit them.  The rate is
data-dependent: ~1x on random mantissas, several-fold on smooth fields.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.compression.base import (
    Codec,
    CompressedMessage,
    as_float64_stream,
    from_float64_stream,
)
from repro.errors import CompressionError

__all__ = ["ShuffleZlibCodec"]


class ShuffleZlibCodec(Codec):
    """Exact compression of FP64 streams (variable rate).

    Parameters
    ----------
    level:
        zlib compression level, 1 (fast) .. 9 (best).  Default 1 —
        message compression must be cheap relative to the network.
    shuffle:
        Apply the byte-plane shuffle before DEFLATE (default on).
    """

    lossless = True

    def __init__(self, *, level: int = 1, shuffle: bool = True) -> None:
        if not 1 <= level <= 9:
            raise CompressionError(f"zlib level must be in [1, 9], got {level}")
        self.level = int(level)
        self.shuffle = bool(shuffle)
        self.name = f"zlib{level}" + ("_shuffle" if shuffle else "")

    def worst_case_nbytes(self, n_float64: int) -> int:
        """zlib's ``compressBound``: incompressible input is stored, at
        5 B per 16 KiB block plus the stream wrapper."""
        n = 8 * n_float64
        return n + (n >> 12) + (n >> 14) + (n >> 25) + 13

    def compress(self, data: np.ndarray) -> CompressedMessage:
        stream, dtype_name, shape = as_float64_stream(data)
        raw = stream.view(np.uint8)
        if self.shuffle:
            raw = np.ascontiguousarray(raw.reshape(-1, 8).T).reshape(-1)
        compressed = zlib.compress(raw, self.level)  # zlib reads the array's buffer in place
        payload = np.frombuffer(compressed, dtype=np.uint8).copy()
        return CompressedMessage(self.name, payload, dtype_name, shape, {"n": stream.size})

    def decompress(self, msg: CompressedMessage) -> np.ndarray:
        self._check_roundtrip_args(msg)
        n = int(msg.header["n"])
        raw = np.frombuffer(zlib.decompress(np.ascontiguousarray(msg.payload)), dtype=np.uint8)
        if raw.size != 8 * n:
            raise CompressionError("corrupt lossless payload")
        if self.shuffle:
            raw = np.ascontiguousarray(raw.reshape(8, -1).T).reshape(-1)
        stream = raw.view(np.float64)
        return from_float64_stream(stream, msg.dtype_name, msg.shape)
