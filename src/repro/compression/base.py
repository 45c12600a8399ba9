"""Codec interface and the wire format of compressed messages.

Design constraints straight from Section V-B of the paper:

* compression must **not** be in place (MPI send buffers are const), so
  :meth:`Codec.compress` always allocates and returns a new buffer;
* the compressed stream must be **contiguous bytes** (it plays the role
  of MPI pack/unpack), so a message is a ``uint8`` payload plus the small
  header needed to invert it;
* for the performance pipeline the *size* of the compressed stream must
  be predictable before compressing (fixed-rate codecs), which is what
  :meth:`Codec.compressed_nbytes` exposes to the network model.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CompressionError

__all__ = [
    "CompressedMessage",
    "Codec",
    "FixedWidthCodec",
    "IdentityCodec",
    "as_float64_stream",
    "as_float64_view",
    "from_float64_stream",
    "payload_items",
]

#: float64 scalars per element of the dtypes a codec accepts.
_SCALARS_PER_ELEMENT = {"float64": 1, "complex128": 2}


def as_float64_stream(data: np.ndarray) -> tuple[np.ndarray, str, tuple[int, ...]]:
    """Flatten float64/complex128 data to a contiguous float64 stream.

    Returns ``(stream, dtype_name, shape)`` where ``stream`` is 1-D
    float64.  Complex arrays are viewed as interleaved (re, im) pairs —
    the natural memory layout that a GPU truncation kernel sees.
    """
    data = np.ascontiguousarray(data)
    if data.dtype == np.float64:
        return data.reshape(-1), "float64", data.shape
    if data.dtype == np.complex128:
        return data.reshape(-1).view(np.float64), "complex128", data.shape
    raise CompressionError(f"codecs operate on float64/complex128 data, got {data.dtype}")


def as_float64_view(data: np.ndarray) -> np.ndarray:
    """``data``, whatever its strides, as float64 scalars — no copy.

    A complex array gains a trailing ``(re, im)`` axis; C order over the
    view is the stream :func:`as_float64_stream` would have copied out.
    """
    if data.dtype == np.float64:
        return data
    if data.dtype == np.complex128:
        return data[..., np.newaxis].view(np.float64)
    raise CompressionError(f"codecs operate on float64/complex128 data, got {data.dtype}")


def from_float64_stream(stream: np.ndarray, dtype_name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`as_float64_stream`.

    Every ``decompress`` ends here, so this is where a message whose
    ``dtype_name``/``shape`` disagree with the decoded stream is
    rejected — as a :class:`CompressionError` the exchange's recovery
    can catch, not the ``ValueError`` NumPy's ``reshape``/``view`` raise.
    """
    per_element = _SCALARS_PER_ELEMENT.get(dtype_name)
    if per_element is None:
        raise CompressionError(f"unknown original dtype {dtype_name!r}")
    if not all(isinstance(d, (int, np.integer)) and d >= 0 for d in shape):
        raise CompressionError(f"corrupt metadata: shape {shape!r}")
    if stream.size != per_element * math.prod(shape):
        raise CompressionError(
            f"corrupt metadata: {dtype_name} shape {shape!r} does not describe "
            f"{stream.size} decoded float64 values"
        )
    stream = np.ascontiguousarray(stream, dtype=np.float64)
    if dtype_name == "complex128":
        stream = stream.view(np.complex128)
    return stream.reshape(shape)


def payload_items(msg: "CompressedMessage", dtype: np.dtype | type | str) -> np.ndarray:
    """View a message payload as ``dtype`` items (no copy).

    A payload that is not a whole number of items is corruption and
    raises :class:`CompressionError` (``ndarray.view`` would raise a
    bare ``ValueError``).
    """
    itemsize = np.dtype(dtype).itemsize
    if msg.payload.size % itemsize:
        raise CompressionError(
            f"corrupt payload: {msg.payload.size} B is not a multiple of the "
            f"{itemsize} B item size of {msg.codec_name}"
        )
    return msg.payload.view(dtype)


@dataclass
class CompressedMessage:
    """A compressed buffer plus the header needed to decompress it.

    Attributes
    ----------
    codec_name:
        Name of the codec that produced the payload.
    payload:
        Contiguous ``uint8`` byte stream (what actually goes on the wire).
    dtype_name / shape:
        Original array dtype and shape, restored on decompression.
    header:
        Small per-codec side information (e.g. block exponents are stored
        *inside* the payload; scalars like a global scale live here).
        Header bytes are charged to :attr:`nbytes` for honest accounting.
    """

    codec_name: str
    payload: np.ndarray
    dtype_name: str
    shape: tuple[int, ...]
    header: dict[str, float | int | str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.payload.dtype != np.uint8:
            raise CompressionError("payload must be a uint8 array")

    @property
    def nbytes(self) -> int:
        """Bytes on the wire: payload plus 8 bytes per header scalar."""
        return int(self.payload.nbytes) + 8 * len(self.header)

    @property
    def n_values(self) -> int:
        """Number of float64 scalars represented (2 per complex element)."""
        n = int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1
        return 2 * n if self.dtype_name == "complex128" else n


class Codec(ABC):
    """Abstract message compressor.

    Subclasses must be stateless with respect to the data (safe to share
    between ranks/threads) and must never mutate their input.
    """

    #: Identifier used in logs, plan dumps and message headers.
    name: str = "abstract"

    #: True when ``decompress(compress(x)) == x`` bit-for-bit.
    lossless: bool = False

    @abstractmethod
    def compress(self, data: np.ndarray) -> CompressedMessage:
        """Compress ``data`` (float64 or complex128) into a byte message."""

    @abstractmethod
    def decompress(self, msg: CompressedMessage) -> np.ndarray:
        """Invert :meth:`compress`, restoring dtype and shape."""

    def compress_measured(self, data: np.ndarray) -> tuple[CompressedMessage, float]:
        """Compress ``data`` and report the error the receiver will see.

        Returns ``(message, achieved)`` where ``achieved`` is
        :func:`~repro.accuracy.bounds.achieved_relative_error` of
        ``data`` against ``decompress(message)`` — the per-message
        quantity an exchange holds against its ``e_tol``.  This default
        makes the round trip; a codec whose encode kernel already has
        the restored values at hand overrides it to measure in the same
        pass (and must return the identical number).
        """
        # Lazy import: repro.accuracy pulls in the FFT layer, which
        # itself imports this package at load time.
        from repro.accuracy.bounds import achieved_relative_error

        msg = self.compress(data)
        return msg, achieved_relative_error(data, self.decompress(msg))

    # -- in place: strided view -> caller's bytes -> strided view ----------------

    def encode_into(
        self, values: np.ndarray, payload: np.ndarray, measure: bool = False
    ) -> tuple[int, dict, float | None]:
        """Encode ``values`` — a float64/complex128 view of any strides,
        read in C order, never written — into the head of ``payload``,
        contiguous ``uint8`` memory the caller owns (a window slot, say).

        Returns ``(nbytes, header, achieved)``: length and header scalars
        of the payload :meth:`compress` would have produced, and with
        ``measure`` the error :meth:`compress_measured` reports (else
        ``None``).  ``nbytes > payload.size``: it did not fit, and nothing
        usable was written.  This default compresses and copies; a codec
        whose kernel can write where it is told overrides it.
        """
        msg, achieved = self.compress_measured(values) if measure else (self.compress(values), None)
        nbytes = msg.payload.size
        if nbytes <= payload.size:
            payload[:nbytes] = msg.payload
        return nbytes, msg.header, achieved

    def decode_into(self, payload: np.ndarray, header: dict, out: np.ndarray) -> None:
        """Fill ``out`` (a view like :meth:`encode_into`'s ``values``) from
        exactly the bytes it wrote for one; ``payload`` is only read."""
        msg = CompressedMessage(self.name, payload, out.dtype.name, out.shape, header)
        np.copyto(out, self.decompress(msg))

    def roundtrip_into(
        self, values: np.ndarray, out: np.ndarray, measure: bool = False
    ) -> tuple[int, dict, float | None]:
        """Leave in ``out`` (a view like ``values``) what :meth:`decode_into`
        of :meth:`encode_into`'s bytes would, and return what it returns;
        ``nbytes`` over :meth:`worst_case_nbytes`: ``out`` is not written.
        This default goes through a scratch of that size."""
        scratch = np.empty(self.worst_case_nbytes(as_float64_view(values).size), dtype=np.uint8)
        nbytes, header, achieved = self.encode_into(values, scratch, measure)
        if nbytes <= scratch.size:
            self.decode_into(scratch[:nbytes], header, out)
        return nbytes, header, achieved

    # -- error model ----------------------------------------------------------

    @property
    def error_bound(self) -> float | None:
        """The codec's per-message relative L-inf bound: every message
        comes back with ``max|x - y| <= error_bound * max|x|`` (what an
        exchange measures and holds against its share of ``e_tol``).
        ``0.0``: exact; ``None``: unbounded (no error budget can admit it)."""
        return 0.0 if self.lossless else None

    # -- size model -----------------------------------------------------------

    @property
    def rate(self) -> float | None:
        """Fixed compression rate when the codec has one, else ``None``.

        The OSC pipeline (Section V) needs to size its receive staging
        buffers *before* data arrives; that is only possible for
        fixed-rate codecs — variable-rate codecs (lossless) force a
        worst-case allocation, which we also model.
        """
        return None

    def compressed_nbytes(self, n_float64: int) -> int:
        """Predicted wire bytes for ``n_float64`` scalars (fixed-rate only)."""
        r = self.rate
        if r is None:
            raise CompressionError(f"codec {self.name} has no fixed rate")
        return int(np.ceil(8 * n_float64 / r))

    def worst_case_nbytes(self, n_float64: int) -> int:
        """Upper bound on the payload of ``n_float64`` scalars.

        What a receiver that must reserve room before the data arrives
        sizes for.  The default is the input size: a compressor is not
        expected to expand its input (one that can says by how much).
        """
        return 8 * n_float64

    def _check_roundtrip_args(self, msg: CompressedMessage) -> None:
        if msg.codec_name != self.name:
            raise CompressionError(
                f"message was produced by {msg.codec_name!r}, not {self.name!r}"
            )


class FixedWidthCodec(Codec):
    """A codec that stores ``width`` bytes per float64 scalar and whose
    kernels are :meth:`encode_into` / :meth:`decode_into`: the allocating
    calls are those two on a fresh array, so there is one kernel each way."""

    width: int

    def _compress(self, data: np.ndarray, measure: bool) -> tuple[CompressedMessage, float | None]:
        data = np.atleast_1d(data)
        payload = np.empty(self.width * as_float64_view(data).size, dtype=np.uint8)
        _, header, achieved = self.encode_into(data, payload, measure)
        return CompressedMessage(self.name, payload, data.dtype.name, data.shape, header), achieved

    def compress(self, data: np.ndarray) -> CompressedMessage:
        return self._compress(data, measure=False)[0]

    def compress_measured(self, data: np.ndarray) -> tuple[CompressedMessage, float]:
        return self._compress(data, measure=True)

    def decompress(self, msg: CompressedMessage) -> np.ndarray:
        self._check_roundtrip_args(msg)
        try:
            out = np.empty(msg.shape, dtype=msg.dtype_name)
        except (TypeError, ValueError) as exc:
            raise CompressionError(f"corrupt metadata: {msg.dtype_name!r} {msg.shape!r}") from exc
        self.decode_into(msg.payload, msg.header, out)
        return out

    def _scalars_of(self, payload: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` as float64 scalars, once ``payload`` is seen to hold
        ``width`` bytes for each: any other length is corruption (of it, or
        of the metadata that sized ``out``)."""
        real = as_float64_view(out)
        if payload.size != self.width * real.size:
            raise CompressionError(
                f"corrupt metadata or payload: {payload.size} B of {self.name} "
                f"do not hold {real.size} float64 values"
            )
        return real


class IdentityCodec(Codec):
    """No-op codec: raw FP64 bytes on the wire (the paper's baseline)."""

    name = "identity"
    lossless = True

    @property
    def rate(self) -> float:
        return 1.0

    def compress(self, data: np.ndarray) -> CompressedMessage:
        stream, dtype_name, shape = as_float64_stream(data)
        payload = stream.copy().view(np.uint8)
        return CompressedMessage(self.name, payload, dtype_name, shape)

    def decompress(self, msg: CompressedMessage) -> np.ndarray:
        self._check_roundtrip_args(msg)
        return from_float64_stream(payload_items(msg, np.float64), msg.dtype_name, msg.shape)

    def roundtrip_into(
        self, values: np.ndarray, out: np.ndarray, measure: bool = False
    ) -> tuple[int, dict, float | None]:
        """One copy."""
        from repro.accuracy.bounds import achieved_relative_error  # lazy: see compress_measured

        np.copyto(out, values)
        achieved = achieved_relative_error(values, out) if measure else None
        return 8 * as_float64_view(values).size, {}, achieved
