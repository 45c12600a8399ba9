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
back-to-back in one window region) and *self-validating*: a flipped
bit anywhere — header (reserved bytes included), metadata or payload —
surfaces as a typed :class:`~repro.errors.WireIntegrityError` instead of
unpickling garbage.  A frame is written and checked *where it lies*:
:func:`begin` / :func:`seal` build one in memory the caller supplies (a
window slot: the payload is produced straight into it, the checksums are
taken in place), :func:`open_frame` validates one without copying it, and
:func:`encode_wire` / :func:`decode_wire` are those on an array of their
own.  The metadata pickle carries only small plain values (codec
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

from repro.compression.base import Codec, CompressedMessage
from repro.errors import WireIntegrityError

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "crc32",
    "begin",
    "stage",
    "seal",
    "open_frame",
    "pack_meta",
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


#: CRC32 of a C-contiguous array's bytes (or of ``bytes``), read in place:
#: ``zlib.crc32`` takes any contiguous buffer, so the array goes in as it
#: is — no ``tobytes()`` copy of a multi-megabyte payload just to checksum
#: it (and zlib drops the GIL while it runs).  Unsigned 32-bit.
crc32 = zlib.crc32


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


def pack_meta(codec_name: str, dtype_name: str, shape: tuple[int, ...], header: dict) -> bytes:
    """The pickled metadata of a frame."""
    return pickle.dumps((codec_name, dtype_name, shape, header), protocol=pickle.HIGHEST_PROTOCOL)


# -- known metadata --------------------------------------------------------------
#
# A frame without header scalars carries the same metadata bytes on every
# call of a plan.  Their pickle, their CRC32 and their unpickled fields are
# functions of those bytes alone, so each is computed once: `_KNOWN` maps
# metadata bytes to (CRC32, fields), filled by the writer when it pickles
# them and by the reader once a frame of them verified in full.  A lookup
# yields exactly what the full path computes; bytes not in it take the
# full path (DESIGN §6.2).

_KNOWN: dict[bytes, tuple[int, tuple]] = {}
#: (codec, dtype, shape) -> its bare metadata's bytes, as uint8.
_BARE: dict[tuple, np.ndarray] = {}
_KNOWN_MAX = 4096  # distinct metadata of a process: a few per plan


def _remember(table: dict, key, value) -> None:
    if len(table) >= _KNOWN_MAX:
        table.clear()
    table[key] = value


def _bare_meta(ident: tuple) -> np.ndarray:
    """The metadata of a frame of ``ident`` with no header scalars, pickled
    once (and known, with its CRC and fields, from then on)."""
    meta = pack_meta(*ident, {})
    _remember(_KNOWN, meta, (crc32(meta), (*ident, {})))
    bare = np.frombuffer(meta, dtype=np.uint8)
    _remember(_BARE, ident, bare)
    return bare


def begin(region: np.ndarray, meta: np.ndarray) -> np.ndarray:
    """Start a frame at ``region[0]`` (contiguous ``uint8`` memory of the
    caller's): stage ``meta`` (metadata bytes, as ``uint8``) and return the
    room behind it, for the payload to be produced into — none when not
    even ``meta`` fits."""
    body = _HDR_BYTES + meta.size
    if body > region.size:
        return region[:0]
    region[_HDR_BYTES:body] = meta
    return region[body:]


def stage(
    region: np.ndarray, codec: Codec, values: np.ndarray, measure: bool = False
) -> tuple[int, int, dict, float | None]:
    """:func:`begin` a frame of ``values`` — a strided view, described as
    its flat C-order stream — and have ``codec`` encode the payload where
    it will lie (:meth:`Codec.encode_into`).  Returns ``(meta_len,
    payload_len, header, achieved)``; :func:`seal` completes the frame."""
    # (the scalar type's name is the dtype's, without dtype.name's 2 us)
    ident = (codec.name, values.dtype.type.__name__, (values.size,))
    meta = _BARE.get(ident)
    if meta is None:
        meta = _bare_meta(ident)
    payload = begin(region, meta)
    nbytes, header, achieved = codec.encode_into(values, payload, measure)
    if header:
        # Header scalars (a scale, a count) are known only now: the
        # metadata grows by their pickle and the payload moves up behind it.
        meta = np.frombuffer(pack_meta(*ident, header), dtype=np.uint8)
        at = _HDR_BYTES + meta.size
        if nbytes <= payload.size and at + nbytes <= region.size:
            region[at : at + nbytes] = payload[:nbytes]
            begin(region, meta)
    return meta.size, nbytes, header, achieved


def seal(region: np.ndarray, meta_len: int, payload_len: int) -> np.ndarray | None:
    """Finish the frame begun in ``region``: checksum metadata and payload
    where they lie, write the header.  Returns the frame, or ``None`` when
    it would have outgrown ``region`` (nothing is sealed then)."""
    body = _HDR_BYTES + meta_len
    if body + payload_len > region.size:
        return None
    meta = region[_HDR_BYTES:body]
    known = _KNOWN.get(meta.tobytes())
    _HDR_STRUCT.pack_into(
        region,
        0,
        WIRE_MAGIC,
        WIRE_VERSION,
        0,
        0,
        meta_len,
        payload_len,
        crc32(meta) if known is None else known[0],
        crc32(region[body : body + payload_len]),
    )
    return region[: body + payload_len]


def encode_wire(msg: CompressedMessage) -> np.ndarray:
    """Flatten a compressed message into a contiguous uint8 frame of its own."""
    meta = np.frombuffer(pack_meta(msg.codec_name, msg.dtype_name, msg.shape, msg.header), dtype=np.uint8)
    frame = np.empty(_HDR_BYTES + meta.size + msg.payload.size, dtype=np.uint8)
    begin(frame, meta)[...] = msg.payload
    return seal(frame, meta.size, msg.payload.size)


# -- decode ---------------------------------------------------------------------


def _parse_header(frame: np.ndarray) -> tuple[int, int, int, int]:
    """Validate the fixed header and return (meta_len, payload_len, crcs)."""
    if frame.size < _HDR_BYTES:
        raise WireIntegrityError(
            f"wire frame too short: {frame.size} B < {_HDR_BYTES} B header"
        )
    magic, version, flags, reserved, meta_len, payload_len, meta_crc, payload_crc = (
        _HDR_STRUCT.unpack_from(frame)
    )
    if magic != WIRE_MAGIC:
        raise WireIntegrityError(f"bad wire magic {magic!r} (expected {WIRE_MAGIC!r})")
    if version != WIRE_VERSION:
        raise WireIntegrityError(
            f"unsupported wire format version {version} (expected {WIRE_VERSION})"
        )
    if flags or reserved:  # writers store 0: anything else is a flipped bit
        raise WireIntegrityError(
            f"nonzero reserved header bytes (flags={flags:#x}, reserved={reserved:#x})"
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


def open_frame(frame: np.ndarray) -> tuple[CompressedMessage, int]:
    """Validate the frame at ``frame[0]`` (contiguous ``uint8``; extra
    bytes ignored) where it lies.

    Returns ``(message, consumed)``: the message's payload is a *view* of
    ``frame``, for a reader that decodes it on the spot, and ``consumed``
    the frame's length — the offset of the next frame when several lie
    back to back in one window region.

    Raises :class:`WireIntegrityError` — a :class:`CompressionError`
    subclass — on any magic, version, truncation or checksum violation.
    """
    meta_len, payload_len, meta_crc, payload_crc = _parse_header(frame)
    consumed = _HDR_BYTES + meta_len + payload_len
    if frame.size < consumed:
        raise WireIntegrityError(
            f"wire frame truncated: need {consumed} B, have {frame.size} B"
        )
    meta, payload = frame[_HDR_BYTES : _HDR_BYTES + meta_len], frame[_HDR_BYTES + meta_len : consumed]
    raw = meta.tobytes()
    known = _KNOWN.get(raw)
    if (crc32(meta) if known is None else known[0]) != meta_crc:
        raise WireIntegrityError("metadata checksum mismatch (corrupted frame)")
    if crc32(payload) != payload_crc:
        raise WireIntegrityError("payload checksum mismatch (corrupted frame)")
    if known is None:
        fields = _fields(raw)
        if not fields[3]:
            _remember(_KNOWN, raw, (meta_crc, fields))
    else:
        fields = known[1]
    codec_name, dtype_name, shape, header = fields
    # (a fresh header dict: the message's is the caller's to keep)
    return CompressedMessage(codec_name, payload, dtype_name, shape, dict(header)), consumed


def _fields(raw: bytes) -> tuple:
    """The checked fields of metadata bytes: restricted unpickle, then structure."""
    decoded = _safe_loads(raw)
    if not (isinstance(decoded, tuple) and len(decoded) == 4):
        raise WireIntegrityError("wire metadata has unexpected structure")
    codec_name, dtype_name, shape, header = decoded
    if not isinstance(codec_name, str) or not isinstance(dtype_name, str):
        raise WireIntegrityError("wire metadata has unexpected field types")
    if not isinstance(header, dict):
        raise WireIntegrityError("wire metadata header must be a dict")
    return codec_name, dtype_name, tuple(shape), header


def decode_wire(frame: np.ndarray | bytes) -> tuple[CompressedMessage, int]:
    """:func:`open_frame` on arrays or bytes, with the payload copied out
    (once, after it verified): the message outlives ``frame``."""
    msg, consumed = open_frame(_as_u8(frame))
    msg.payload = msg.payload.copy()
    return msg, consumed


def wire_overhead(msg: CompressedMessage) -> int:
    """Framing bytes added on top of the payload for this message."""
    return _HDR_BYTES + len(pack_meta(msg.codec_name, msg.dtype_name, msg.shape, msg.header))
