"""Reference oracles the generated implementations are checked against.

Every differential property needs an independent source of truth:

* :func:`make_send_matrix` / :func:`expected_recv` — the alltoallv
  contract is pure bookkeeping: ``recv[d][s] = send[s][d]``.  The
  expected side is computed by direct indexing, touching none of the
  runtime/collective code under test.
* :func:`scatter_global` / :func:`gather_global` — reshape oracles:
  slicing a global array by a :class:`~repro.fft.decomposition.CartesianDecomp`
  with plain NumPy indexing (no plan, no boxes math reuse beyond
  ``box_of``, which the geometry tests cover directly).
* :func:`numpy_fft_reference` — NumPy's FFT as the transform oracle.
* :func:`assert_blocks_equal` — dtype-tolerant exact comparison
  (one-sided transports return raw ``uint8``; compressed transports
  restore the original dtype).
* :func:`trim_roundtrip_reference` — what a
  :class:`~repro.compression.mantissa.MantissaTrimCodec` round trip must
  restore, bit for bit, derived from the reference rounding
  :func:`~repro.precision.rounding.trim_mantissa` and plain bit masks
  (none of the codec's chunked kernels or its payload layout).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConformanceFailure
from repro.fft.decomposition import CartesianDecomp
from repro.precision.rounding import trim_mantissa

__all__ = [
    "make_send_matrix",
    "expected_recv",
    "assert_blocks_equal",
    "scatter_global",
    "gather_global",
    "numpy_fft_reference",
    "relative_error",
    "trim_roundtrip_reference",
]


def make_send_matrix(
    sizes: list[list[int]], dtype: str, data_seed: int
) -> list[list[np.ndarray]]:
    """Deterministic ``send[s][d]`` payloads: unique values per (s, d) pair."""
    rng = np.random.default_rng(data_seed)
    p = len(sizes)
    out: list[list[np.ndarray]] = []
    for s in range(p):
        row: list[np.ndarray] = []
        for d in range(p):
            n = int(sizes[s][d])
            if dtype == "uint8":
                row.append(rng.integers(0, 256, size=n, dtype=np.uint8))
            elif dtype == "complex128":
                row.append((rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.complex128))
            else:
                row.append(rng.standard_normal(n))
        out.append(row)
    return out


def expected_recv(send: list[list[np.ndarray]]) -> list[list[np.ndarray]]:
    """The alltoallv contract, by direct transposition: ``recv[d][s] = send[s][d]``."""
    p = len(send)
    return [[send[s][d] for s in range(p)] for d in range(p)]


def assert_blocks_equal(got: np.ndarray, want: np.ndarray, *, where: str) -> None:
    """Exact equality, tolerating byte-typed transports.

    ``got`` may be a raw ``uint8`` view of ``want``'s bytes (OSC window
    transport) or carry the original dtype.  Zero-size blocks compare
    equal regardless of dtype (senders passing ``None``/empty produce
    placeholder dtypes on the receive side).
    """
    got = np.asarray(got)
    want = np.asarray(want)
    if want.size == 0:
        if got.size != 0:
            raise ConformanceFailure(f"{where}: expected empty block, got {got.size} elements")
        return
    if got.dtype != want.dtype:
        if got.dtype != np.uint8 or got.nbytes != want.nbytes:
            raise ConformanceFailure(
                f"{where}: dtype/size mismatch: got {got.dtype}×{got.size}, "
                f"want {want.dtype}×{want.size}"
            )
        got = got.reshape(-1).view(want.dtype)
    if got.shape != want.reshape(-1).shape[:1] and got.shape != want.shape:
        got = got.reshape(want.shape)
    if not np.array_equal(got.reshape(-1), want.reshape(-1)):
        bad = int(np.flatnonzero(got.reshape(-1) != want.reshape(-1))[0])
        raise ConformanceFailure(
            f"{where}: payload mismatch at element {bad}: "
            f"got {got.reshape(-1)[bad]!r}, want {want.reshape(-1)[bad]!r}"
        )


# -- reshape / FFT oracles --------------------------------------------------------------


def scatter_global(decomp: CartesianDecomp, x: np.ndarray) -> list[np.ndarray]:
    """Slice a global ``(..., n0, n1, n2)`` array into per-rank blocks."""
    out: list[np.ndarray] = []
    for r in range(decomp.nranks):
        box = decomp.box_of(r)
        sl = tuple(slice(lo, hi) for lo, hi in zip(box.lo, box.hi))
        out.append(np.ascontiguousarray(x[(Ellipsis,) + sl]))
    return out


def gather_global(decomp: CartesianDecomp, blocks: list[np.ndarray]) -> np.ndarray:
    """Reassemble per-rank blocks into the global array."""
    batch = blocks[0].shape[:-3]
    out = np.empty(batch + decomp.shape, dtype=blocks[0].dtype)
    for r in range(decomp.nranks):
        box = decomp.box_of(r)
        sl = tuple(slice(lo, hi) for lo, hi in zip(box.lo, box.hi))
        out[(Ellipsis,) + sl] = blocks[r]
    return out


def numpy_fft_reference(x: np.ndarray, *, inverse: bool = False) -> np.ndarray:
    """NumPy's FFT over the trailing three axes (the transform oracle)."""
    axes = (-3, -2, -1)
    return np.fft.ifftn(x, axes=axes) if inverse else np.fft.fftn(x, axes=axes)


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """Normwise relative error ``||got - want|| / ||want||`` (0 for 0/0)."""
    denom = float(np.linalg.norm(np.asarray(want).reshape(-1)))
    diff = float(np.linalg.norm((np.asarray(got) - np.asarray(want)).reshape(-1)))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / denom


def trim_roundtrip_reference(
    x: np.ndarray, mantissa_bits: int, bytes_per_value: int, *, rounding: str = "nearest"
) -> np.ndarray:
    """``decompress(compress(x))`` of a mantissa-trim codec, from first principles.

    The reference rounding, then the bytes the packing discards zeroed
    (only NaN/Inf, which the rounding leaves untouched, have any set),
    then the one deliberate deviation: a NaN whose set fraction bits
    were all discarded keeps NaN-ness through the quiet bit instead of
    collapsing to ±Inf.
    """
    exp, frac = np.uint64(0x7FF0_0000_0000_0000), np.uint64(0x000F_FFFF_FFFF_FFFF)
    x = np.ascontiguousarray(x)
    src = x.reshape(-1).view(np.uint64)
    out = trim_mantissa(x, mantissa_bits, rounding=rounding)
    bits = out.reshape(-1).view(np.uint64)
    bits &= np.uint64((1 << 64) - (1 << (64 - 8 * bytes_per_value)))
    was_nan = ((src & exp) == exp) & ((src & frac) != 0)
    bits[was_nan & ((bits & frac) == 0)] |= np.uint64(0x0008_0000_0000_0000)
    return out
