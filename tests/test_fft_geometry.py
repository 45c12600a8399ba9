"""Tests for box algebra and Cartesian decompositions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecompositionError
from repro.fft import (
    Box3d,
    brick_decomposition,
    partition1d,
    pencil_decomposition,
    process_grid,
)

boxes = st.builds(
    lambda lo, sz: Box3d(tuple(lo), tuple(l + s for l, s in zip(lo, sz))),
    st.tuples(*[st.integers(0, 20)] * 3),
    st.tuples(*[st.integers(0, 15)] * 3),
)


class TestBox3d:
    def test_shape_size(self):
        b = Box3d((1, 2, 3), (4, 6, 9))
        assert b.shape == (3, 4, 6) and b.size == 72 and not b.empty

    def test_empty_box(self):
        assert Box3d((5, 5, 5), (5, 9, 9)).empty

    def test_inverted_rejected(self):
        with pytest.raises(DecompositionError):
            Box3d((3, 0, 0), (1, 2, 2))

    def test_intersect(self):
        a = Box3d((0, 0, 0), (10, 10, 10))
        b = Box3d((5, 5, 5), (15, 15, 15))
        assert a.intersect(b) == Box3d((5, 5, 5), (10, 10, 10))

    def test_disjoint_intersection_empty(self):
        a = Box3d((0, 0, 0), (2, 2, 2))
        b = Box3d((5, 5, 5), (6, 6, 6))
        assert a.intersect(b).empty

    def test_contains(self):
        outer = Box3d((0, 0, 0), (10, 10, 10))
        assert outer.contains(Box3d((2, 3, 4), (5, 6, 7)))
        assert not outer.contains(Box3d((2, 3, 4), (11, 6, 7)))

    def test_slices_within(self):
        outer = Box3d((10, 0, 0), (20, 5, 5))
        inner = Box3d((12, 1, 2), (15, 3, 5))
        sl = inner.slices_within(outer)
        assert sl == (slice(2, 5), slice(1, 3), slice(2, 5))
        arr = np.zeros(outer.shape)
        arr[sl] = 1.0
        assert arr.sum() == inner.size

    def test_slices_outside_rejected(self):
        with pytest.raises(DecompositionError):
            Box3d((0, 0, 0), (5, 5, 5)).slices_within(Box3d((1, 0, 0), (5, 5, 5)))

    @given(boxes, boxes)
    @settings(max_examples=100, deadline=None)
    def test_intersection_properties(self, a, b):
        i = a.intersect(b)
        assert i == b.intersect(a)  # commutative
        if not i.empty:
            assert a.contains(i) and b.contains(i)
        assert i.intersect(a) == i  # idempotent on the result


class TestPartition1d:
    def test_balanced(self):
        assert partition1d(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert partition1d(9, 3) == [(0, 3), (3, 6), (6, 9)]

    def test_rejects_too_many_parts(self):
        with pytest.raises(DecompositionError):
            partition1d(3, 4)

    def test_rejects_zero_parts(self):
        with pytest.raises(DecompositionError):
            partition1d(10, 0)

    @given(st.integers(1, 500), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_properties(self, n, parts):
        if parts > n:
            with pytest.raises(DecompositionError):
                partition1d(n, parts)
            return
        out = partition1d(n, parts)
        assert out[0][0] == 0 and out[-1][1] == n
        sizes = [b - a for a, b in out]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1  # balanced
        assert all(o1[1] == o2[0] for o1, o2 in zip(out, out[1:]))  # contiguous


class TestProcessGrid:
    def test_3d_balanced(self):
        assert sorted(process_grid(12, 3)) == [2, 2, 3]
        assert process_grid(8, 3) == (2, 2, 2)

    def test_2d_with_extents(self):
        g = process_grid(12, 2, extents=(1024, 1024))
        assert g[0] * g[1] == 12 and {g[0], g[1]} == {3, 4}

    def test_extent_constraint_respected(self):
        g = process_grid(64, 2, extents=(4, 1024))
        assert g[0] <= 4

    def test_1d(self):
        assert process_grid(7, 1) == (7,)

    def test_impossible_grid_rejected(self):
        with pytest.raises(DecompositionError):
            process_grid(64, 2, extents=(2, 2))

    @given(st.integers(1, 256))
    @settings(max_examples=60, deadline=None)
    def test_3d_product(self, p):
        g = process_grid(p, 3)
        assert g[0] * g[1] * g[2] == p


class TestDecompositions:
    @pytest.mark.parametrize("shape,p", [((16, 16, 16), 8), ((24, 20, 18), 6), ((32, 8, 8), 12)])
    def test_bricks_cover_disjointly(self, shape, p):
        decomp = brick_decomposition(shape, p)
        counts = np.zeros(shape, dtype=int)
        full = Box3d((0, 0, 0), shape)
        for box in map(decomp.box_of, range(decomp.nranks)):
            counts[box.slices_within(full)] += 1
        assert (counts == 1).all()

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_pencils_full_along_axis(self, axis):
        shape = (16, 20, 24)
        decomp = pencil_decomposition(shape, 8, axis)
        for box in map(decomp.box_of, range(decomp.nranks)):
            assert box.lo[axis] == 0 and box.hi[axis] == shape[axis]

    def test_pencils_cover(self):
        shape = (16, 16, 16)
        decomp = pencil_decomposition(shape, 12, 1)
        counts = np.zeros(shape, dtype=int)
        full = Box3d((0, 0, 0), shape)
        for box in map(decomp.box_of, range(decomp.nranks)):
            counts[box.slices_within(full)] += 1
        assert (counts == 1).all()

    def test_rank_coords_roundtrip(self):
        decomp = brick_decomposition((16, 16, 16), 12)
        for r in range(12):
            assert decomp.rank_of(decomp.coords_of(r)) == r

    def test_overlapping_ranks_matches_bruteforce(self):
        src = brick_decomposition((20, 24, 28), 12)
        dst = pencil_decomposition((20, 24, 28), 12, 0)
        for s in range(12):
            sbox = src.box_of(s)
            fast = set(dst.overlapping_ranks(sbox))
            brute = {d for d in range(12) if not sbox.intersect(dst.box_of(d)).empty}
            assert fast == brute

    def test_large_rank_count(self):
        decomp = brick_decomposition((64, 64, 64), 1536)
        assert decomp.nranks == 1536
        assert sum(decomp.box_of(r).size for r in range(decomp.nranks)) == 64**3

    def test_invalid_axis(self):
        with pytest.raises(DecompositionError):
            pencil_decomposition((8, 8, 8), 4, 3)
