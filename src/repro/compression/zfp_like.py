"""A ZFP-style transform codec (Section IV-A, "sophisticated" compressors).

The paper contrasts truncation with ZFP [Lindstrom 2014]: a blocked codec
that exploits *spatial correlation* and supports both fixed-rate and
fixed-accuracy operation.  This module implements the same pipeline from
scratch, vectorised over blocks:

1. partition the float64 stream into blocks of 64 values (logical
   4x4x4 cubes);
2. block-floating-point promotion: each block is scaled by ``2**-emax``
   (``emax`` = exponent of the block's largest magnitude) and quantised
   to 46-bit integers;
3. the zfp decorrelating lifting transform (the non-orthogonal
   ``1/16 * [[4,4,4,4],[5,1,-1,-5],[-4,4,4,-4],[-2,6,-6,2]]`` basis,
   implemented with adds and arithmetic shifts) applied along the three
   axes of the cube;
4. coefficients are grouped by *sequency* (total frequency index
   ``i+j+k``, ten groups); each group stores a relative exponent and is
   quantised with its own bit width.  On smooth data the transform
   drains energy out of high-sequency groups, whose widths collapse to
   zero — this adaptive allocation is where the codec beats plain
   truncation at equal rate (the property the paper attributes to ZFP).

Fixed-rate mode water-fills a per-block bit budget across the groups
(decoder recomputes the identical allocation from the stored exponents —
no width table on the wire).  Fixed-accuracy mode sizes each group from
an absolute error tolerance, giving a variable, data-dependent rate.  On
random data the transform cannot decorrelate anything and the codec
degenerates to truncation-with-overhead, which is why the paper's
headline experiments use plain truncation (Section VI).
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import (
    Codec,
    CompressedMessage,
    as_float64_stream,
    from_float64_stream,
)
from repro.errors import CompressionError

__all__ = ["ZfpLikeCodec", "fwd_lift", "inv_lift", "pack_bits", "unpack_bits"]

#: Working integer precision of the block-floating-point promotion.
_Q = 46
#: Values per block (a logical 4x4x4 cube).
_BLOCK = 64
#: Number of sequency groups (i+j+k for 4-ary digits: 0..9).
_NGROUPS = 10
#: Sentinel exponent for all-zero blocks / groups.
_ZERO_EMAX = -(2**14)
#: Max bits kept per coefficient (widths beyond the promoted precision
#: only cost wire bytes, but tight tolerances on large-magnitude blocks
#: legitimately need up to ~50).
_MAX_BITS = 50
#: Per-block side information: emax (int16) + 10 group deltas (int8).
_SIDE_BYTES = 2 + _NGROUPS

# Sequency group of each coefficient in the flattened 4x4x4 block, and the
# canonical coefficient order (grouped by sequency, stable within a group).
_IJK = np.indices((4, 4, 4)).reshape(3, _BLOCK)
_GROUP_OF = (_IJK[0] + _IJK[1] + _IJK[2]).astype(np.int64)
_ORDER = np.argsort(_GROUP_OF, kind="stable")
_GROUP_SIZES = np.bincount(_GROUP_OF, minlength=_NGROUPS)  # [1,3,6,10,12,12,10,6,3,1]
_GROUP_STARTS = np.concatenate([[0], np.cumsum(_GROUP_SIZES)[:-1]])


def fwd_lift(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """zfp forward decorrelating lift along ``axis`` (length-4 axis).

    Operates on int64 data with adds and arithmetic shifts only; the
    basis includes a 1/16 scaling so coefficient magnitudes do not grow.
    """
    v = np.moveaxis(v, axis, -1)
    x = v[..., 0].copy()
    y = v[..., 1].copy()
    z = v[..., 2].copy()
    w = v[..., 3].copy()
    x += w; x >>= 1; w -= x
    z += y; z >>= 1; y -= z
    x += z; x >>= 1; z -= x
    w += y; w >>= 1; y -= w
    w += y >> 1; y -= w >> 1
    out = np.stack([x, y, z, w], axis=-1)
    return np.moveaxis(out, -1, axis)


def inv_lift(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse of :func:`fwd_lift` up to ±2 integer ulps (zfp's lossy pair)."""
    v = np.moveaxis(v, axis, -1)
    x = v[..., 0].copy()
    y = v[..., 1].copy()
    z = v[..., 2].copy()
    w = v[..., 3].copy()
    y += w >> 1; w -= y >> 1
    y += w; w <<= 1; w -= y
    z += x; x <<= 1; x -= z
    y += z; z <<= 1; z -= y
    w += x; x <<= 1; x -= w
    out = np.stack([x, y, z, w], axis=-1)
    return np.moveaxis(out, -1, axis)


def pack_bits(u: np.ndarray, width: int) -> np.ndarray:
    """Pack unsigned integers (< 2**width) into a dense uint8 bit stream."""
    if width < 1 or width > 64:
        raise CompressionError(f"bit width must be in [1, 64], got {width}")
    u = u.astype(np.uint64, copy=False).reshape(-1)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((u[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.reshape(-1))


def unpack_bits(payload: np.ndarray, n_values: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: recover ``n_values`` ``width``-bit ints."""
    total = n_values * width
    if payload.size * 8 < total:
        raise CompressionError("bit stream shorter than expected")
    bits = np.unpackbits(payload, count=total).reshape(n_values, width)
    weights = np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64)
    return (bits.astype(np.uint64) * weights[None, :]).sum(axis=1, dtype=np.uint64)


def _round_shift(q: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Element-wise arithmetic right shift with round-to-nearest (shift>=0)."""
    shift = shift.astype(np.int64)
    half = np.where(shift > 0, np.int64(1) << np.maximum(shift - 1, 0), np.int64(0))
    return (q + half) >> shift


class ZfpLikeCodec(Codec):
    """Blocked transform codec with fixed-rate or fixed-accuracy control.

    Parameters
    ----------
    rate:
        Fixed compression rate (original bytes / compressed bytes), e.g.
        ``4.0``.  Mutually exclusive with ``tolerance``.
    tolerance:
        Absolute per-value error bound target; per-group bit budgets
        adapt to coefficient magnitude (variable rate).  Mutually
        exclusive with ``rate``.  Note the intrinsic accuracy floor:
        the (lossy) integer lifting pair loses ~2 ulps of the 46-bit
        promotion, so errors cannot drop below ~``2**-40 * max|block|``
        no matter how tight the tolerance — request full-precision
        transport via :class:`~repro.compression.base.IdentityCodec`
        or lossless compression instead.
    """

    #: Guard bits absorbing quantisation + inverse-transform gain; keeps the
    #: realised max error within a small factor of the requested tolerance.
    _GUARD = 5

    #: Relative error the lifting pair leaves whatever the tolerance (the
    #: ~2 lost ulps of the 46-bit promotion, with a factor 4 of headroom).
    _FLOOR = 2.0**-38

    def __init__(self, *, rate: float | None = None, tolerance: float | None = None) -> None:
        if (rate is None) == (tolerance is None):
            raise CompressionError("specify exactly one of rate= or tolerance=")
        if rate is not None:
            if not 1.1 <= rate <= 40.0:
                raise CompressionError(f"rate must be in [1.1, 40], got {rate}")
            budget = 64.0 * _BLOCK / rate - 8.0 * _SIDE_BYTES
            self._budget_bits = max(int(budget), 2 * _BLOCK)
            self.tolerance = None
            self.name = f"zfp_rate{rate:g}"
        else:
            if not tolerance > 0:
                raise CompressionError(f"tolerance must be positive, got {tolerance}")
            self._budget_bits = None
            self.tolerance = float(tolerance)
            self.name = f"zfp_tol{tolerance:.1e}"
        self._rate_arg = rate

    @property
    def error_bound(self) -> float | None:
        """Twice the tolerance — the realised error's documented factor;
        absolute, so relative for messages of unit peak and up — or the
        accuracy floor if that is larger; ``None`` in rate mode, which
        bounds bytes, not error."""
        return None if self.tolerance is None else max(2.0 * self.tolerance, self._FLOOR)

    @property
    def rate(self) -> float | None:
        if self._budget_bits is None:
            return None  # variable rate (fixed accuracy)
        return 64.0 * _BLOCK / (self._budget_bits + 8.0 * _SIDE_BYTES)

    # -- shared helpers ---------------------------------------------------------

    @staticmethod
    def _blockize(stream: np.ndarray) -> tuple[np.ndarray, int]:
        """Pad to a whole number of blocks and reshape to (nb, 4, 4, 4)."""
        n = stream.size
        nb = max(1, int(np.ceil(n / _BLOCK)))
        padded = np.zeros(nb * _BLOCK, dtype=np.float64)
        padded[:n] = stream
        return padded.reshape(nb, 4, 4, 4), n

    def _widths_from_deltas(self, deltas: np.ndarray) -> np.ndarray:
        """Per-(block, group) bit widths, recomputable by the decoder.

        ``deltas``: (nb, 10) int — group exponent minus block exponent
        (<= 0), with ``_ZERO_EMAX`` marking empty groups.

        Fixed-rate: water-filling — widths ``clip(delta + T, 0, MAX)``
        with the largest integer water level ``T`` whose total cost fits
        the block budget (binary search, vectorised over blocks).

        Fixed-accuracy: ``delta`` measures the group's magnitude relative
        to the block's; the needed width is (group exponent) − log2(tol),
        clipped.  The caller folds the block exponent in.
        """
        empty = deltas <= _ZERO_EMAX // 2
        d = np.where(empty, np.int64(-(10**6)), deltas.astype(np.int64))
        if self._budget_bits is not None:
            sizes = _GROUP_SIZES[None, :]
            lo = np.full(deltas.shape[0], -2 * _MAX_BITS, dtype=np.int64)
            hi = np.full(deltas.shape[0], 2 * _MAX_BITS + 64, dtype=np.int64)
            # invariant: cost(lo) <= budget < cost(hi)
            while np.any(hi - lo > 1):
                mid = (lo + hi) // 2
                w = np.clip(d + mid[:, None], 0, _MAX_BITS)
                cost = (w * sizes).sum(axis=1)
                ok = cost <= self._budget_bits
                lo = np.where(ok, mid, lo)
                hi = np.where(ok, hi, mid)
            return np.clip(d + lo[:, None], 0, _MAX_BITS)
        raise CompressionError("internal: fixed-accuracy widths need the block emax")

    # -- compress -----------------------------------------------------------------

    def compress(self, data: np.ndarray) -> CompressedMessage:
        stream, dtype_name, shape = as_float64_stream(data)
        blocks, n = self._blockize(stream)
        nb = blocks.shape[0]

        amax = np.abs(blocks).reshape(nb, -1).max(axis=1)
        nz = amax > 0
        emax = np.full(nb, _ZERO_EMAX, dtype=np.int64)
        emax[nz] = np.frexp(amax[nz])[1].astype(np.int64)  # amax = f * 2**emax

        # Promote to Q-bit ints: |x| < 2**emax  =>  |q| < 2**Q.  ldexp on
        # the data itself avoids materialising 2**(Q-emax), which would
        # overflow for blocks of very small magnitude (emax << 0).
        shift_exp = np.where(nz, _Q - emax, 0)[:, None, None, None]
        q = np.rint(np.ldexp(blocks, shift_exp)).astype(np.int64)
        q[~nz] = 0
        for axis in (1, 2, 3):
            q = fwd_lift(q, axis=axis)

        # Reorder coefficients into sequency order and compute group stats.
        coef = q.reshape(nb, _BLOCK)[:, _ORDER]  # (nb, 64) grouped by sequency
        gmax = np.zeros((nb, _NGROUPS), dtype=np.int64)
        for g in range(_NGROUPS):
            s, e = _GROUP_STARTS[g], _GROUP_STARTS[g] + _GROUP_SIZES[g]
            gmax[:, g] = np.abs(coef[:, s:e]).max(axis=1)
        # Group exponent relative to the promoted scale: |c| < 2**(gexp).
        gexp = np.full((nb, _NGROUPS), _ZERO_EMAX, dtype=np.int64)
        gnz = gmax > 0
        gexp[gnz] = np.frexp(gmax[gnz].astype(np.float64))[1].astype(np.int64)

        # Deltas stored on the wire (int8): group exponent minus Q.
        deltas = np.where(gnz, gexp - _Q, np.int64(_ZERO_EMAX))
        deltas_i8 = np.where(gnz, np.clip(gexp - _Q, -127, 0), np.int64(-128)).astype(np.int8)

        if self._budget_bits is not None:
            widths = self._widths_from_deltas(np.where(gnz, deltas_i8.astype(np.int64), _ZERO_EMAX))
        else:
            # need step 2**(emax_block + delta - width + 1) <= tolerance
            log_tol = int(np.floor(np.log2(self.tolerance)))
            need = emax[:, None] + deltas_i8.astype(np.int64) - log_tol + self._GUARD
            widths = np.where(gnz, np.clip(need, 0, _MAX_BITS), 0)

        # Quantise each group: keep `width` bits of a value bounded by
        # 2**gexp; shift = gexp + 1 - width (>= 0 by construction).
        widths_per_coef = np.repeat(widths, _GROUP_SIZES, axis=1)  # (nb, 64)
        gexp_per_coef = np.repeat(np.where(gnz, gexp, np.int64(0)), _GROUP_SIZES, axis=1)
        shift = np.maximum(gexp_per_coef + 1 - widths_per_coef, 0)
        qs = _round_shift(coef, shift)
        lim = np.where(
            widths_per_coef > 0, np.int64(1) << np.maximum(widths_per_coef - 1, 0), np.int64(1)
        )
        qs = np.clip(qs, -lim, lim - 1)

        # Pack coefficients in canonical order: widths ascending, then
        # (block, group, coefficient) order — decoder re-derives this.
        biased = (qs + lim).astype(np.uint64)
        chunks: list[np.ndarray] = []
        for w in np.unique(widths_per_coef):
            if w == 0:
                continue
            sel = widths_per_coef == w
            chunks.append(pack_bits(biased[sel], int(w)))
        packed = (
            np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint8)
        )

        payload = np.concatenate(
            [
                emax.astype(np.int16).view(np.uint8),
                deltas_i8.reshape(-1).view(np.uint8),
                packed,
            ]
        )
        return CompressedMessage(self.name, payload, dtype_name, shape, {"n": n})

    # -- decompress ------------------------------------------------------------------

    def decompress(self, msg: CompressedMessage) -> np.ndarray:
        self._check_roundtrip_args(msg)
        n = int(msg.header["n"])
        nb = max(1, int(np.ceil(n / _BLOCK)))
        emax = msg.payload[: 2 * nb].view(np.int16).astype(np.int64)
        deltas_i8 = msg.payload[2 * nb : 2 * nb + nb * _NGROUPS].view(np.int8)
        packed = msg.payload[2 * nb + nb * _NGROUPS :]

        deltas = deltas_i8.reshape(nb, _NGROUPS).astype(np.int64)
        gnz = deltas != -128
        gexp = np.where(gnz, deltas + _Q, np.int64(_ZERO_EMAX))

        if self._budget_bits is not None:
            widths = self._widths_from_deltas(np.where(gnz, deltas, _ZERO_EMAX))
        else:
            log_tol = int(np.floor(np.log2(self.tolerance)))
            need = emax[:, None] + deltas - log_tol + self._GUARD
            widths = np.where(gnz, np.clip(need, 0, _MAX_BITS), 0)

        widths_per_coef = np.repeat(widths, _GROUP_SIZES, axis=1)
        gexp_per_coef = np.repeat(np.where(gnz, gexp, np.int64(0)), _GROUP_SIZES, axis=1)
        shift = np.maximum(gexp_per_coef + 1 - widths_per_coef, 0)

        coef = np.zeros((nb, _BLOCK), dtype=np.int64)
        offset = 0
        for w in np.unique(widths_per_coef):
            if w == 0:
                continue
            sel = widths_per_coef == w
            count = int(sel.sum())
            nbytes_used = (count * int(w) + 7) // 8
            u = unpack_bits(packed[offset : offset + nbytes_used], count, int(w))
            offset += nbytes_used
            lim = np.int64(1) << np.int64(int(w) - 1)
            coef[sel] = (u.astype(np.int64) - lim) << shift[sel]

        q = np.zeros((nb, _BLOCK), dtype=np.int64)
        q[:, _ORDER] = coef
        q = q.reshape(nb, 4, 4, 4)
        for axis in (3, 2, 1):
            q = inv_lift(q, axis=axis)

        bnz = emax != _ZERO_EMAX
        shift_exp = np.where(bnz, emax - _Q, 0)[:, None, None, None]
        blocks = np.ldexp(q.astype(np.float64), shift_exp)
        blocks[~bnz] = 0.0
        stream = blocks.reshape(-1)[:n]
        return from_float64_stream(stream, msg.dtype_name, msg.shape)
