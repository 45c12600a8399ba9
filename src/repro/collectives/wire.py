"""Byte-level framing of compressed messages for RMA transport (v2).

One-sided puts move raw bytes into a remote window, so a
:class:`~repro.compression.base.CompressedMessage` must be flattened
into a self-describing byte stream and re-inflated on the target.  The
v2 frame is::

    offset  size  field
    ------  ----  -----------------------------------------------
    0       4     magic ``b"RPW2"``
    4       1     format version (2)
    5       1     flags (reserved, 0)
    6       2     reserved (0)
    8       8     u64 meta_len
    16      8     u64 payload_len
    24      4     u32 CRC32 of the metadata bytes
    28      4     u32 CRC32 of the payload bytes
    32      ...   pickled metadata, then payload bytes

Frames are self-delimiting (needed when several pipeline fragments land
back-to-back in one window region) and now *self-validating*: a flipped
bit anywhere — header, metadata or payload — surfaces as a typed
:class:`~repro.errors.WireIntegrityError` instead of unpickling
garbage.  The metadata pickle carries only small plain values (codec
name, dtype, shape, scalar header entries) — never data — and is
deserialized through a restricted unpickler that refuses every global
lookup outside a tiny builtin allow-list, so a corrupted (or hostile)
frame cannot execute code.  Metadata cost stays a constant few dozen
bytes per message and is excluded from the *modelled* wire size
(``CompressedMessage.nbytes``), matching how a C implementation would
pack a fixed small header.
"""

from __future__ import annotations

import io
import pickle
import struct
import zlib

import numpy as np

from repro.compression.base import CompressedMessage
from repro.errors import WireIntegrityError

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "crc32",
    "encode_wire",
    "decode_wire",
    "frame_length",
    "wire_overhead",
]

WIRE_MAGIC = b"RPW2"
WIRE_VERSION = 2

#: Header layout: magic, version, flags, reserved, meta_len, payload_len,
#: meta_crc, payload_crc.
_HDR_STRUCT = struct.Struct("<4sBBHQQII")
_HDR_BYTES = _HDR_STRUCT.size  # 32

#: Upper bound on a sane length field — anything larger is corruption
#: (2**48 B = 256 TiB in a single frame is beyond any plan this code runs).
_MAX_LEN = 1 << 48


def crc32(buf: np.ndarray) -> int:
    """CRC32 of a C-contiguous array's bytes, read in place.

    ``zlib.crc32`` takes any contiguous buffer, so the array goes in as
    it is — no ``tobytes()`` copy of a multi-megabyte payload just to
    checksum it (and zlib drops the GIL while it runs).
    """
    return zlib.crc32(buf) & 0xFFFFFFFF


# -- restricted metadata deserialization ---------------------------------------

#: Globals the metadata unpickler may resolve.  Plain containers and
#: scalars need no global lookups at all; ``complex`` is the one builtin
#: a codec header could legitimately reference.
_ALLOWED_GLOBALS: dict[str, frozenset[str]] = {
    "builtins": frozenset({"complex", "frozenset", "set", "bytearray"}),
}


class _RestrictedUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):  # noqa: D102
        if name in _ALLOWED_GLOBALS.get(module, frozenset()):
            return super().find_class(module, name)
        raise WireIntegrityError(
            f"wire metadata references disallowed global {module}.{name}"
        )


def _safe_loads(raw: bytes):
    try:
        return _RestrictedUnpickler(io.BytesIO(raw)).load()
    except WireIntegrityError:
        raise
    except Exception as exc:  # pickle raises a zoo of exception types on garbage
        raise WireIntegrityError(f"wire metadata does not unpickle: {exc}") from exc


#: Globals the *control-plane* unpickler may resolve.  ``Comm.bcast`` /
#: ``gather`` move arbitrary-but-known payloads (plans, stats dicts,
#: NumPy arrays and scalars), so this list is wider than the wire-frame
#: metadata one — it adds the NumPy reconstruction entry points, under
#: both the pre-2.0 (``numpy.core``) and 2.x (``numpy._core``) module
#: paths so either side of a version skew can decode the other.
_CONTROL_GLOBALS: dict[str, frozenset[str]] = {
    "builtins": frozenset({"complex", "frozenset", "set", "bytearray"}),
    "numpy": frozenset({"ndarray", "dtype"}),
    "numpy.core.multiarray": frozenset({"_reconstruct", "scalar"}),
    "numpy._core.multiarray": frozenset({"_reconstruct", "scalar"}),
    "numpy.core.numeric": frozenset({"_frombuffer"}),
    "numpy._core.numeric": frozenset({"_frombuffer"}),
}


class _ControlUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):  # noqa: D102
        if name in _CONTROL_GLOBALS.get(module, frozenset()):
            return super().find_class(module, name)
        raise WireIntegrityError(
            f"control payload references disallowed global {module}.{name}"
        )


def control_loads(raw: bytes):
    """Restricted unpickle for collective control payloads (bcast/gather).

    Same defense as wire-frame metadata: a payload naming a global
    outside the allow-list raises :class:`WireIntegrityError` instead
    of importing and executing it.
    """
    try:
        return _ControlUnpickler(io.BytesIO(raw)).load()
    except WireIntegrityError:
        raise
    except Exception as exc:
        raise WireIntegrityError(f"control payload does not unpickle: {exc}") from exc


# -- encode ---------------------------------------------------------------------


def _pack_meta(msg: CompressedMessage) -> bytes:
    return pickle.dumps(
        (msg.codec_name, msg.dtype_name, msg.shape, msg.header),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def encode_wire(msg: CompressedMessage, *, pool=None) -> np.ndarray:
    """Flatten a compressed message into a contiguous uint8 frame.

    ``pool`` (any object with a ``BufferPool``-style ``acquire``) stages
    the frame in a reusable buffer instead of allocating — the exchange
    hot path releases frames back once their puts have completed.
    """
    meta = _pack_meta(msg)
    payload = msg.payload
    body = _HDR_BYTES + len(meta)
    total = body + payload.size
    frame = np.empty(total, dtype=np.uint8) if pool is None else pool.acquire(total)
    # Stage first, then checksum the staged bytes where they lie.
    frame[_HDR_BYTES:body] = np.frombuffer(meta, dtype=np.uint8)
    frame[body:] = payload
    _HDR_STRUCT.pack_into(
        frame,
        0,
        WIRE_MAGIC,
        WIRE_VERSION,
        0,
        0,
        len(meta),
        payload.size,
        crc32(frame[_HDR_BYTES:body]),
        crc32(frame[body:]),
    )
    return frame


# -- decode ---------------------------------------------------------------------


def _parse_header(frame: np.ndarray) -> tuple[int, int, int, int]:
    """Validate magic/version and return (meta_len, payload_len, crcs)."""
    if frame.size < _HDR_BYTES:
        raise WireIntegrityError(
            f"wire frame too short: {frame.size} B < {_HDR_BYTES} B header"
        )
    magic, version, _flags, _res, meta_len, payload_len, meta_crc, payload_crc = (
        _HDR_STRUCT.unpack_from(frame)
    )
    if magic != WIRE_MAGIC:
        raise WireIntegrityError(f"bad wire magic {magic!r} (expected {WIRE_MAGIC!r})")
    if version != WIRE_VERSION:
        raise WireIntegrityError(
            f"unsupported wire format version {version} (expected {WIRE_VERSION})"
        )
    if meta_len > _MAX_LEN or payload_len > _MAX_LEN:
        raise WireIntegrityError(
            f"implausible frame lengths (meta={meta_len}, payload={payload_len})"
        )
    return int(meta_len), int(payload_len), int(meta_crc), int(payload_crc)


def _as_u8(frame: np.ndarray | bytes | bytearray | memoryview) -> np.ndarray:
    # bytes-likes must go through frombuffer: numpy treats a bytes object
    # handed to ascontiguousarray as a scalar and fails with a bare
    # ValueError instead of viewing it as a u8 sequence.
    if isinstance(frame, (bytes, bytearray, memoryview)):
        return np.frombuffer(frame, dtype=np.uint8)
    return np.ascontiguousarray(frame, dtype=np.uint8)


def frame_length(frame: np.ndarray | bytes) -> int:
    """Total byte length of the frame starting at ``frame[0]``."""
    meta_len, payload_len, _, _ = _parse_header(_as_u8(frame))
    return _HDR_BYTES + meta_len + payload_len


def decode_wire(frame: np.ndarray | bytes) -> tuple[CompressedMessage, int]:
    """Re-inflate the frame starting at ``frame[0]`` (extra bytes ignored).

    Returns ``(message, consumed)`` where ``consumed`` is the total byte
    length of the frame just decoded — the offset of the next frame when
    several land back-to-back in one window region.  Previously callers
    re-parsed the header through :func:`frame_length` to advance; the
    decode already knows the length, so it is returned instead.

    Raises :class:`WireIntegrityError` — a :class:`CompressionError`
    subclass — on any magic, version, truncation or checksum violation.
    """
    frame = _as_u8(frame)
    meta_len, payload_len, meta_crc, payload_crc = _parse_header(frame)
    consumed = _HDR_BYTES + meta_len + payload_len
    if frame.size < consumed:
        raise WireIntegrityError(
            f"wire frame truncated: need {consumed} B, have {frame.size} B"
        )
    # Checksum the frame's own bytes; the payload is copied out (once)
    # only after it verified.
    meta, body = frame[_HDR_BYTES : _HDR_BYTES + meta_len], frame[_HDR_BYTES + meta_len : consumed]
    if crc32(meta) != meta_crc:
        raise WireIntegrityError("metadata checksum mismatch (corrupted frame)")
    if crc32(body) != payload_crc:
        raise WireIntegrityError("payload checksum mismatch (corrupted frame)")
    payload = body.copy()
    decoded = _safe_loads(meta.tobytes())
    if not (isinstance(decoded, tuple) and len(decoded) == 4):
        raise WireIntegrityError("wire metadata has unexpected structure")
    codec_name, dtype_name, shape, header = decoded
    if not isinstance(codec_name, str) or not isinstance(dtype_name, str):
        raise WireIntegrityError("wire metadata has unexpected field types")
    if not isinstance(header, dict):
        raise WireIntegrityError("wire metadata header must be a dict")
    return CompressedMessage(codec_name, payload, dtype_name, tuple(shape), header), consumed


def wire_overhead(msg: CompressedMessage) -> int:
    """Framing bytes added on top of the payload for this message."""
    return _HDR_BYTES + len(_pack_meta(msg))
