"""Brick and pencil decompositions on Cartesian process grids.

The paper's Fig. 1 pipeline needs four layouts of the same ``n0 n1 n2``
grid over ``p`` ranks:

* *bricks* — a balanced 3-D process grid (the domain-decomposition
  layout applications hand to heFFTe);
* *x/y/z pencils* — layouts where one dimension is entirely local so a
  batched 1-D FFT can run along it; the remaining two dimensions are
  split over a 2-D process grid.

All four are :class:`CartesianDecomp` instances: per-axis partitions
into contiguous intervals plus row-major rank ordering.  Partitions are
balanced to within one cell (``partition1d``), so non-divisible sizes
are fine — message sizes then "vary from one destination to another",
exactly the generality ``MPI_Alltoallv`` exists for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.errors import DecompositionError, PlanError
from repro.fft.box import Box3d

__all__ = [
    "partition1d",
    "process_grid",
    "CartesianDecomp",
    "brick_decomposition",
    "pencil_decomposition",
]


def partition1d(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into ``parts`` contiguous intervals, balanced ±1.

    >>> partition1d(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    """
    if parts < 1:
        raise DecompositionError(f"parts must be >= 1, got {parts}")
    if n < parts:
        raise DecompositionError(f"cannot split {n} cells into {parts} non-empty parts")
    base, rem = divmod(n, parts)
    out: list[tuple[int, int]] = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < rem else 0)
        out.append((start, stop))
        start = stop
    return out


@lru_cache(maxsize=None)
def _factor_pairs(p: int) -> list[tuple[int, int]]:
    return [(a, p // a) for a in range(1, p + 1) if p % a == 0]


def process_grid(p: int, ndim: int, *, extents: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Factor ``p`` ranks into an ``ndim``-D grid, as cubic as possible.

    ``extents`` (the data dimensions being split) steer the grid towards
    proportional splits and forbid factors larger than the dimension.

    >>> process_grid(12, 3)
    (2, 2, 3)
    >>> process_grid(12, 2, extents=(1024, 1024))
    (3, 4)
    """
    if p < 1:
        raise DecompositionError(f"p must be >= 1, got {p}")
    if ndim == 1:
        return (p,)
    if ndim == 2:
        best: tuple[int, int] | None = None
        best_score = float("inf")
        for a, b in _factor_pairs(p):
            if extents is not None and (a > extents[0] or b > extents[1]):
                continue
            if extents is not None:
                score = abs(extents[0] / a - extents[1] / b)
            else:
                score = abs(a - b)
            if score < best_score:
                best, best_score = (a, b), score
        if best is None:
            raise DecompositionError(f"no 2-D grid of {p} ranks fits extents {extents}")
        return best
    if ndim == 3:
        best3: tuple[int, int, int] | None = None
        best_score = float("inf")
        for a, bc in _factor_pairs(p):
            for b, c in _factor_pairs(bc):
                if extents is not None and (
                    a > extents[0] or b > extents[1] or c > extents[2]
                ):
                    continue
                if extents is not None:
                    la, lb, lc = extents[0] / a, extents[1] / b, extents[2] / c
                else:
                    la, lb, lc = float(a), float(b), float(c)
                score = max(la, lb, lc) / max(min(la, lb, lc), 1e-12)
                if score < best_score:
                    best3, best_score = (a, b, c), score
        if best3 is None:
            raise DecompositionError(f"no 3-D grid of {p} ranks fits extents {extents}")
        return best3
    raise DecompositionError(f"ndim must be 1, 2 or 3, got {ndim}")


@dataclass(frozen=True)
class CartesianDecomp:
    """A Cartesian decomposition: per-axis partitions + row-major ranks."""

    shape: tuple[int, int, int]
    partitions: tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]

    def __post_init__(self) -> None:
        for axis, (n, part) in enumerate(zip(self.shape, self.partitions)):
            if part[0][0] != 0 or part[-1][1] != n:
                raise DecompositionError(f"axis {axis} partition does not cover [0, {n})")
            for (a0, a1), (b0, b1) in zip(part, part[1:]):
                if a1 != b0:
                    raise DecompositionError(f"axis {axis} partition has a gap/overlap")

    @property
    def grid(self) -> tuple[int, int, int]:
        return tuple(len(p) for p in self.partitions)  # type: ignore[return-value]

    @property
    def nranks(self) -> int:
        g = self.grid
        return g[0] * g[1] * g[2]

    def coords_of(self, rank: int) -> tuple[int, int, int]:
        """Grid coordinates of ``rank`` (row-major ordering)."""
        g = self.grid
        if not 0 <= rank < self.nranks:
            raise DecompositionError(f"rank {rank} out of range")
        i2 = rank % g[2]
        i1 = (rank // g[2]) % g[1]
        i0 = rank // (g[1] * g[2])
        return i0, i1, i2

    def rank_of(self, coords: tuple[int, int, int]) -> int:
        g = self.grid
        return (coords[0] * g[1] + coords[1]) * g[2] + coords[2]

    def box_of(self, rank: int) -> Box3d:
        """The global index box owned by ``rank``."""
        c = self.coords_of(rank)
        lo = tuple(self.partitions[d][c[d]][0] for d in range(3))
        hi = tuple(self.partitions[d][c[d]][1] for d in range(3))
        return Box3d(lo, hi)  # type: ignore[arg-type]

    def where(self, rank: int) -> tuple:
        """Index of ``rank``'s block in a global ``(..., n0, n1, n2)`` array."""
        box = self.box_of(rank)
        return (..., *(slice(lo, hi) for lo, hi in zip(box.lo, box.hi)))

    def scatter(self, x: np.ndarray, dtype=None) -> list[np.ndarray]:
        """Split a global array into contiguous per-rank blocks.

        Leading batch dimensions ride along: all batch entries of a cell
        travel together, heFFTe-style.
        """
        if x.shape[-3:] != self.shape:
            raise PlanError(f"array shape {x.shape} != plan shape {self.shape}")
        return [
            np.ascontiguousarray(x[self.where(r)], dtype=dtype) for r in range(self.nranks)
        ]

    def gather(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Assemble per-rank blocks back into the global array."""
        out = np.empty(blocks[0].shape[:-3] + self.shape, dtype=blocks[0].dtype)
        for r, block in enumerate(blocks):
            out[self.where(r)] = block
        return out

    def overlapping_ranks(self, box: Box3d) -> list[int]:
        """Ranks whose boxes intersect ``box`` (grid search, no full scan)."""
        ranges: list[range] = []
        for d in range(3):
            part = self.partitions[d]
            lo_idx = next(
                (i for i, (a, b) in enumerate(part) if b > box.lo[d]), len(part)
            )
            hi_idx = next(
                (i for i, (a, b) in enumerate(part) if a >= box.hi[d]), len(part)
            )
            ranges.append(range(lo_idx, hi_idx))
        out: list[int] = []
        for i0 in ranges[0]:
            for i1 in ranges[1]:
                for i2 in ranges[2]:
                    out.append(self.rank_of((i0, i1, i2)))
        return out


def brick_decomposition(shape: tuple[int, int, int], nranks: int) -> CartesianDecomp:
    """Balanced 3-D brick layout of ``shape`` over ``nranks`` ranks."""
    grid = process_grid(nranks, 3, extents=shape)
    parts = tuple(tuple(partition1d(n, g)) for n, g in zip(shape, grid))
    return CartesianDecomp(tuple(shape), parts)  # type: ignore[arg-type]


def pencil_decomposition(
    shape: tuple[int, int, int], nranks: int, axis: int
) -> CartesianDecomp:
    """Pencil layout: dimension ``axis`` fully local, the others split 2-D."""
    if axis not in (0, 1, 2):
        raise DecompositionError(f"axis must be 0, 1 or 2, got {axis}")
    others = [d for d in range(3) if d != axis]
    grid2 = process_grid(nranks, 2, extents=(shape[others[0]], shape[others[1]]))
    grid = [1, 1, 1]
    grid[others[0]], grid[others[1]] = grid2
    parts = tuple(tuple(partition1d(n, g)) for n, g in zip(shape, grid))
    return CartesianDecomp(tuple(shape), parts)  # type: ignore[arg-type]
