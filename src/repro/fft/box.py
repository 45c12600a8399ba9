"""Axis-aligned index boxes — the currency of heFFTe-style reshapes.

A :class:`Box3d` is a half-open cuboid ``[lo, hi)`` of global grid
indices.  Reshapes are computed purely from box *intersections*: the
bytes rank ``s`` must send to rank ``d`` are exactly
``inbox(s) & outbox(d)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DecompositionError

__all__ = ["Box3d"]


@dataclass(frozen=True)
class Box3d:
    """Half-open box ``[lo[d], hi[d])`` in three dimensions."""

    lo: tuple[int, int, int]
    hi: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.lo) != 3 or len(self.hi) != 3:
            raise DecompositionError("Box3d needs 3-tuples")
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise DecompositionError(f"inverted box {self.lo}..{self.hi}")

    # -- geometry ---------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))  # type: ignore[return-value]

    @property
    def size(self) -> int:
        s = self.shape
        return s[0] * s[1] * s[2]

    @property
    def empty(self) -> bool:
        return self.size == 0

    def intersect(self, other: "Box3d") -> "Box3d":
        """Largest box contained in both (possibly empty)."""
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(l, min(a, b)) for l, a, b in zip(lo, self.hi, other.hi))
        return Box3d(lo, hi)  # type: ignore[arg-type]

    def contains(self, other: "Box3d") -> bool:
        return all(a <= b for a, b in zip(self.lo, other.lo)) and all(
            a >= b for a, b in zip(self.hi, other.hi)
        )

    # -- indexing ----------------------------------------------------------------

    def slices_within(self, outer: "Box3d") -> tuple[slice, slice, slice]:
        """Slices selecting this box inside an array laid out as ``outer``.

        Raises when this box is not fully contained in ``outer``.
        """
        if not outer.contains(self):
            raise DecompositionError(f"{self} not contained in {outer}")
        return tuple(
            slice(l - ol, h - ol) for l, h, ol in zip(self.lo, self.hi, outer.lo)
        )  # type: ignore[return-value]
