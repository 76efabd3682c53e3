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

from convexkit.tiling.floorplans import descend, iter_floorplans
from reference import baxter_count, count_diagonal_rectangulations, enumerate_floorplans

KNOWN_COUNTS = {1: 1, 2: 2, 3: 6, 4: 22, 5: 92, 6: 422, 7: 2074, 8: 10754, 9: 58202}


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
            assert descend(fp.code) == (fp, None)


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


def test_walk_yields_the_pinned_order_with_each_value_on_its_child():
    """`iter_floorplans` is the walk behind `enumerate_floorplans`, and a
    value grown down the tree reaches the leaf it was made for: growing
    each child's insertion code gives every leaf its own code, on the walk
    and on `descend`'s one path to the leaf."""

    def grow(code, fp, left, top):
        assert code == fp.code
        moves = [("V", j) for j in range(1, len(left) + 1)] + [("H", j) for j in range(1, len(top) + 1)]
        return [code + (move,) for move in moves]

    for n in range(1, 7):
        walked = list(iter_floorplans(n, grow, ()))
        assert [fp for fp, *_ in walked] == enumerate_floorplans(n)
        assert all(code == fp.code for fp, _, _, code in walked)
        assert all(descend(fp.code, grow, ()) == (fp, code) for fp, _, _, code in walked)
        assert all(value is None for *_, value in iter_floorplans(n))


def test_walk_hands_out_each_floorplans_walls():
    """The walls that come with each floorplan are its rooms on the left
    wall from top to bottom, each above the next, and on the top wall from
    left to right, each beside the next."""
    for n in range(1, 7):
        for fp, left, top, _ in iter_floorplans(n):
            rooms = fp.rooms
            assert sorted(left) == [i for i, room in enumerate(rooms) if room[0] == 0]
            assert sorted(top) == [i for i, room in enumerate(rooms) if room[3] == 1]
            assert rooms[left[0]][3] == 1 and rooms[left[-1]][2] == 0
            assert all(rooms[a][2] == rooms[b][3] for a, b in zip(left, left[1:]))
            assert rooms[top[0]][0] == 0 and rooms[top[-1]][1] == 1
            assert all(rooms[a][1] == rooms[b][0] for a, b in zip(top, top[1:]))


def test_replay_rejects_bad_codes():
    with pytest.raises(ValueError):
        descend((("X", 1),))
    with pytest.raises(ValueError):
        descend((("V", 2),))
    with pytest.raises(ValueError):
        descend((("H", 0),))


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
        enumerate_floorplans(10)
    with pytest.raises(ValueError):
        baxter_count(0)


def test_stopped_walk_leaves_no_garbage():
    """A walk dropped part way, with its carried values, is freed by
    reference counting alone, as is one run to the end."""
    import convexkit.tiling.isoperimetric as isoperimetric

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        walk = iter_floorplans(6, isoperimetric._grow_lines, isoperimetric._ROOT_LINE)
        for _ in zip(range(100), walk):
            pass
        del walk
        for _ in iter_floorplans(6, isoperimetric._grow_lines, isoperimetric._ROOT_LINE):
            pass
        isoperimetric.search_isoperimetric(7, limit=1)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


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
