"""Mosaic floorplan enumeration against two independent oracles.

Oracle one: diagonal rectangulations.  Tilings of the n x n grid by n
axis-aligned rectangles, each containing exactly one diagonal cell (i, i),
are in bijection with mosaic floorplans, and can be counted by direct
backtracking with no shared code.

Oracle two: the Baxter property spelled out literally.  A permutation
contains 2-41-3 when positions a < b, b+1 < c satisfy
p[b+1] < p[a] < p[c] < p[b], and 3-14-2 when p[b] < p[c] < p[a] < p[b+1].
"""

import gc
from itertools import permutations

import pytest

from convexkit.tiling import (
    baxter_count,
    enumerate_floorplans,
    floorplan_from_code,
)

KNOWN_COUNTS = {1: 1, 2: 2, 3: 6, 4: 22, 5: 92, 6: 422, 7: 2074, 8: 10754}


def count_diagonal_rectangulations(n: int) -> int:
    """Backtracking over the first uncovered cell, row-major order."""
    covered = [[False] * n for _ in range(n)]

    def diagonal_cells(r0, c0, r1, c1):
        # diagonal cells (i, i) inside rows [r0, r1) x cols [c0, c1)
        return sum(1 for i in range(max(r0, c0), min(r1, c1)))

    def first_free():
        for r in range(n):
            for c in range(n):
                if not covered[r][c]:
                    return r, c
        return None

    def rec() -> int:
        cell = first_free()
        if cell is None:
            return 1
        r0, c0 = cell
        total = 0
        for r1 in range(r0 + 1, n + 1):
            if any(covered[r][c0] for r in range(r0, r1)):
                break
            for c1 in range(c0 + 1, n + 1):
                if any(covered[r][c1 - 1] for r in range(r0, r1)):
                    break
                if diagonal_cells(r0, c0, r1, c1) != 1:
                    continue
                for r in range(r0, r1):
                    for c in range(c0, c1):
                        covered[r][c] = True
                total += rec()
                for r in range(r0, r1):
                    for c in range(c0, c1):
                        covered[r][c] = False
        return total

    return rec()


def brute_is_baxter(p) -> bool:
    n = len(p)
    for b in range(n - 1):
        for a in range(b):
            for c in range(b + 2, n):
                if p[b + 1] < p[a] < p[c] < p[b]:
                    return False
                if p[b] < p[c] < p[a] < p[b + 1]:
                    return False
    return True


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_counts_match_diagonal_rectangulation_oracle(n):
    assert len(enumerate_floorplans(n)) == count_diagonal_rectangulations(n)


@pytest.mark.parametrize("n", sorted(KNOWN_COUNTS))
def test_known_counts(n):
    assert len(enumerate_floorplans(n)) == KNOWN_COUNTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_counts_match_baxter_filter(n):
    """The closed-form Baxter count against the literal pattern filter
    over all n! permutations, and the enumeration against both."""
    brute = sum(1 for p in permutations(range(1, n + 1)) if brute_is_baxter(p))
    assert len(enumerate_floorplans(n)) == baxter_count(n) == brute


def test_is_baxter_known_cases():
    """The literal filter on the two forbidden patterns of length four and
    on three Baxter permutations."""
    assert not brute_is_baxter((2, 4, 1, 3))
    assert not brute_is_baxter((3, 1, 4, 2))
    assert brute_is_baxter((2, 1, 4, 3))
    assert brute_is_baxter((1, 2, 3, 4))
    assert brute_is_baxter((1,))


def test_codes_are_distinct_and_replayable():
    for n in range(1, 6):
        plans = enumerate_floorplans(n)
        codes = {fp.code for fp in plans}
        assert len(codes) == len(plans)
        for fp in plans:
            assert floorplan_from_code(fp.code) == fp


def test_enumeration_order_is_pinned():
    """Depth first, vertical insertions before horizontal, smaller push
    counts first: the recorded search-iso reports depend on this order."""
    assert [fp.code for fp in enumerate_floorplans(3)] == [
        (("V", 1), ("V", 1)),
        (("V", 1), ("H", 1)),
        (("V", 1), ("H", 2)),
        (("H", 1), ("V", 1)),
        (("H", 1), ("V", 2)),
        (("H", 1), ("H", 1)),
    ]


def test_replay_rejects_bad_codes():
    with pytest.raises(ValueError):
        floorplan_from_code((("X", 1),))
    with pytest.raises(ValueError):
        floorplan_from_code((("V", 2),))
    with pytest.raises(ValueError):
        floorplan_from_code((("H", 0),))


def test_room_segment_structure():
    for n in range(1, 6):
        for fp in enumerate_floorplans(n):
            assert fp.n == n
            lefts, rights, bottoms, tops = set(), set(), set(), set()
            for left, right, bottom, top in fp.rooms:
                assert 0 <= left < fp.num_vsegs and 0 <= right < fp.num_vsegs
                assert 0 <= bottom < fp.num_hsegs and 0 <= top < fp.num_hsegs
                assert left != right and bottom != top
                lefts.add(left)
                rights.add(right)
                bottoms.add(bottom)
                tops.add(top)
            # every interior wall has rooms on both of its sides
            for v in range(2, fp.num_vsegs):
                assert v in lefts and v in rights
            for h in range(2, fp.num_hsegs):
                assert h in bottoms and h in tops
            # the outer walls are used
            assert 0 in lefts and 1 in rights
            assert 0 in bottoms and 1 in tops


def test_enumerate_bounds():
    with pytest.raises(ValueError):
        enumerate_floorplans(0)
    with pytest.raises(ValueError):
        enumerate_floorplans(9)
    with pytest.raises(ValueError):
        baxter_count(0)


def test_enumeration_leaves_no_garbage():
    """The result list is freed by reference counting alone: no cycle
    (such as a self-referencing closure) keeps it for the cyclic GC."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        enumerate_floorplans(6)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
