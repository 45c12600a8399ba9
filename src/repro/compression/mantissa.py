"""Mantissa-trimming codec with real byte packing (Section IV-B, Fig. 2).

The Fig. 2 sweep varies the number of retained mantissa bits between the
52 of FP64 and the 23 of FP32.  :func:`repro.precision.rounding.trim_mantissa`
is the reference *rounding*; this codec rounds the same way and
additionally *packs* the surviving bits so the wire actually shrinks: a
value keeping ``m`` mantissa bits occupies ``1 + 11 + m`` bits, which we
round up to whole bytes (``k = ceil((12 + m) / 8)``) and store as the top
``k`` bytes of the binary64 pattern.  Keeping 23 bits therefore costs
5 bytes/value (rate 1.6×) — byte granularity is the honest cost of a
packing kernel that stays memory-bandwidth-bound, and the codec reports
it faithfully.

Payload layout
--------------
The layout is defined on the little-endian ``uint64`` bit pattern of
each value (a big-endian host converts on entry; the wire does not
change).  The top ``k`` bytes of a word are split, widest first, into
the power-of-two pieces of ``k``'s binary expansion, and the payload is
**planar**: all ``n`` pieces of the first kind, then all of the second,
each plane a contiguous little-endian array::

    k = 6:   n x u32 (bytes 4..7)   then   n x u16 (bytes 2..3)
    k = 7:   n x u32 (bytes 4..7),  n x u16 (bytes 2..3),  n x u8 (byte 1)
    k = 3:   n x u16 (bytes 6..7),  n x u8 (byte 5)

Every plane is an aligned strided view of the word array, so packing is
one gather per plane and unpacking one scatter — no ``k``-byte rows,
which NumPy can only move a byte at a time.

Kernels
-------
Both directions walk the message in :data:`CHUNK_VALUES`-sized pieces so
the handful of passes a piece needs (round, detect specials, measure,
gather) all hit cache; the round trip of a self block is the same loop.
Scratch is allocated per call: codec instances are shared by rank threads.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import FixedWidthCodec, as_float64_view
from repro.errors import CompressionError
from repro.precision.formats import trimmed_format

__all__ = ["MantissaTrimCodec", "CHUNK_VALUES"]

#: Values per kernel pass.  Three 8-byte arrays of this length are live
#: at once (input, rounded words, float scratch): 384 KiB, L2-resident,
#: and large enough that per-ufunc dispatch stays under 5 % of a pass.
CHUNK_VALUES = 16384

_LE64 = np.dtype("<u8")
_EXP_MASK = 0x7FF0_0000_0000_0000
_FRAC_MASK = 0x000F_FFFF_FFFF_FFFF
_QUIET_BIT = 0x0008_0000_0000_0000
_ALL_ONES = 0xFFFF_FFFF_FFFF_FFFF


def _plane_layout(k: int) -> tuple[tuple[int, int], ...]:
    """``(byte offset in the LE word, width)`` of each plane, widest first."""
    planes, top = [], 8
    for width in (8, 4, 2, 1):
        if k & width:
            top -= width
            planes.append((top, width))
    return tuple(planes)


def _slabs(view: np.ndarray, limit: int, start: int = 0):
    """Cut an N-d view into ``(flat offset, piece)`` pairs of at most
    ``limit`` items, each piece one C-order range of the whole (slabs of
    the outermost axis that does not fit; a 1-D stream is cut flat)."""
    if view.size <= limit or view.ndim == 0:
        if view.size:
            yield start, view
        return
    inner = view.size // len(view)
    if inner > limit:
        for i in range(len(view)):
            yield from _slabs(view[i], limit, start + i * inner)
    else:
        step = limit // inner
        for at in range(0, len(view), step):
            yield start + at * inner, view[at : at + step]


class MantissaTrimCodec(FixedWidthCodec):
    """Keep ``mantissa_bits`` fraction bits of every FP64 scalar.

    Parameters
    ----------
    mantissa_bits:
        Fraction bits kept, in ``[1, 52]``.  The worst-case relative
        error per value is the format's unit round-off
        ``2**-(mantissa_bits + 1)``.
    rounding:
        ``"nearest"`` (default, ties to even) or ``"truncate"``; same
        semantics as :func:`~repro.precision.rounding.trim_mantissa`.

    NaN and ±Inf are not rounded (a carry out of an all-ones exponent
    would turn a NaN into a zero); they keep their top ``k`` bytes, and a
    NaN whose set mantissa bits all lie in the discarded bytes gets the
    quiet bit forced so it stays a NaN.
    """

    def __init__(self, mantissa_bits: int, *, rounding: str = "nearest") -> None:
        self.fmt = trimmed_format(mantissa_bits)
        if rounding not in ("nearest", "truncate"):
            raise CompressionError(f"unknown rounding mode {rounding!r}")
        self.mantissa_bits = int(mantissa_bits)
        self.rounding = rounding
        #: Stored bytes per value after packing (sign+exp+mantissa, byte-aligned).
        self.bytes_per_value = self.width = int(np.ceil((1 + 11 + mantissa_bits) / 8))
        if not 1 <= self.bytes_per_value <= 8:
            raise CompressionError(f"invalid packing width {self.bytes_per_value}")
        self.name = f"trim_m{mantissa_bits}"
        self._planes = _plane_layout(self.bytes_per_value)

    @property
    def rate(self) -> float:
        return 8.0 / self.bytes_per_value

    @property
    def error_bound(self) -> float:
        """Per-value relative rounding bound (the unit round-off), so per
        message too."""
        if self.rounding == "nearest":
            return self.fmt.unit_roundoff
        return 2.0 * self.fmt.unit_roundoff

    # -- layout ---------------------------------------------------------------

    def _word_planes(self, words: np.ndarray) -> list[np.ndarray]:
        """Strided views of the kept bytes of a ``<u8`` word array."""
        return [words.view(f"<u{w}")[off // w :: 8 // w] for off, w in self._planes]

    def _payload_planes(self, payload: np.ndarray, n: int) -> list[np.ndarray]:
        """The contiguous per-plane arrays of an ``n``-value payload."""
        planes, pos = [], 0
        for _off, w in self._planes:
            planes.append(payload[pos : pos + w * n].view(f"<u{w}"))
            pos += w * n
        return planes

    # -- kernels --------------------------------------------------------------

    def _keep_specials(self, words: np.ndarray, bits: np.ndarray) -> None:
        """Undo the rounding of NaN/±Inf in a chunk (rare branch)."""
        idx = np.flatnonzero((bits & np.uint64(_EXP_MASK)) == np.uint64(_EXP_MASK))
        raw = bits[idx]
        kept = raw & np.uint64(_ALL_ONES << (64 - 8 * self.bytes_per_value) & _ALL_ONES)
        frac = np.uint64(_FRAC_MASK)
        kept[((raw & frac) != 0) & ((kept & frac) == 0)] |= np.uint64(_QUIET_BIT)
        words[idx] = kept

    def encode_into(
        self, values: np.ndarray, payload: np.ndarray, measure: bool = False
    ) -> tuple[int, dict, float | None]:
        """Round, pack and (optionally) measure in one chunked pass, from
        the (strided) view straight into the planes of ``payload``.

        With ``measure`` the third result is the achieved relative L-inf
        error ``max|x - rounded| / max|x|`` — the rounded word is exactly
        what :meth:`decode_into` restores, so this is
        :func:`~repro.accuracy.bounds.achieved_relative_error` of the
        round trip without making the round trip.
        """
        real = as_float64_view(values)
        nbytes = self.bytes_per_value * real.size
        if nbytes > payload.size:
            return nbytes, {}, None
        return nbytes, {}, self._round(real, measure, self._payload_planes(payload, real.size))

    def roundtrip_into(
        self, values: np.ndarray, out: np.ndarray, measure: bool = False
    ) -> tuple[int, dict, float | None]:
        """The same pass into ``out`` (a rounded word's dropped bytes are 0)."""
        real = as_float64_view(values)
        return self.bytes_per_value * real.size, {}, self._round(real, measure, as_float64_view(out))

    def _round(self, real: np.ndarray, measure: bool, sink: list | np.ndarray) -> float | None:
        """The one rounding loop: round, keep specials and measure ``real``
        chunk by chunk, into the payload planes (a list) or the float64
        view ``sink`` (in place where a chunk of it is contiguous)."""
        shift = 52 - self.mantissa_bits
        s = np.uint64(shift)
        one = np.uint64(1)
        half_m1 = np.uint64((1 << max(shift - 1, 0)) - 1)
        mask = np.uint64(_ALL_ONES << shift & _ALL_ONES)
        nearest = self.rounding == "nearest"

        words = np.empty(min(real.size, CHUNK_VALUES), dtype=_LE64)
        scratch = np.empty(words.size, dtype=np.float64)
        gathered = None  # a strided chunk is made contiguous here, in cache
        word_planes = self._word_planes(words)
        sinks = None if isinstance(sink, list) else _slabs(sink, CHUNK_VALUES)
        peak = worst = 0.0
        # inf - inf -> NaN is the measured error of a message carrying
        # infinities; the caller treats NaN as "tolerance exceeded".
        with np.errstate(invalid="ignore"):
            for lo, piece in _slabs(real, CHUNK_VALUES):
                c = piece.size
                if piece.flags.c_contiguous:
                    x = piece.reshape(-1)
                else:
                    if gathered is None:
                        gathered = np.empty(words.size, dtype=np.float64)
                    x = gathered[:c]
                    np.copyto(x.reshape(piece.shape), piece)
                u = x.view(np.uint64)
                w, f = words[:c], scratch[:c]
                if sinks is not None:
                    _, dest = next(sinks)
                    if direct := dest.flags.c_contiguous:
                        w = dest.reshape(-1).view(_LE64)
                np.abs(x, out=f)
                chunk_peak = f.max()
                if shift == 0:
                    w[...] = u
                elif nearest:
                    # ties-to-even on the bit pattern: add (half - 1) plus
                    # the LSB of the kept field, then chop; the carry
                    # walks into the exponent exactly as IEEE rounding does.
                    np.right_shift(u, s, out=w)
                    np.bitwise_and(w, one, out=w)
                    np.add(w, u, out=w)
                    np.add(w, half_m1, out=w)
                    np.bitwise_and(w, mask, out=w)
                else:
                    np.bitwise_and(u, mask, out=w)
                if not chunk_peak < np.inf:  # a NaN or an Inf is in here
                    self._keep_specials(w, u)
                if measure:
                    np.subtract(x, w.view("<f8"), out=f)
                    np.abs(f, out=f)
                    worst = np.maximum(worst, f.max())
                    peak = np.maximum(peak, chunk_peak)
                if sinks is None:
                    for dst, src in zip(sink, word_planes):
                        dst[lo : lo + c] = src[:c]
                elif not direct:
                    np.copyto(dest, w.view("<f8").reshape(dest.shape))
        if not measure:
            return None
        from repro.accuracy.bounds import relative_linf  # lazy: accuracy imports the FFT layer

        return relative_linf(float(worst), float(peak))

    def decode_into(self, payload: np.ndarray, header: dict, out: np.ndarray) -> None:
        real = self._scalars_of(payload, out)
        in_planes = self._payload_planes(payload, real.size)
        words = None  # staging for chunks of ``out`` that are not contiguous
        for lo, piece in _slabs(real, CHUNK_VALUES):
            c, direct = piece.size, piece.flags.c_contiguous
            if direct:
                w = piece.reshape(-1).view(_LE64)
            else:
                if words is None:
                    words = np.empty(min(real.size, CHUNK_VALUES), dtype=_LE64)
                w = words[:c]
            if self.bytes_per_value < 8:
                w.fill(0)
            for dst, src in zip(self._word_planes(w), in_planes):
                dst[...] = src[lo : lo + c]
            if not direct:
                np.copyto(piece, w.view("<f8").reshape(piece.shape))
