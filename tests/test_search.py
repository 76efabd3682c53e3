"""Exhaustive tiling enumeration: known counts, witnesses, determinism."""

import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit.tiling.search import (
    UnsupportedInstance,
    _search_fill,
    _side_sums,
    enumerate_layouts,
)
from convexkit.tiling.tiles import Tile, TileSet, parse_tileset, verify_layout


def dims_of(results):
    return [(r.width, r.height) for r in results]


def test_four_unit_squares_two_targets():
    ts = parse_tileset("1 1 4\n")
    results = enumerate_layouts(ts)
    assert dims_of(results) == [(2, 2), (4, 1)]
    for r in results:
        assert verify_layout(ts, r.layout) is None


def test_two_4x1_two_2x1_three_targets():
    ts = parse_tileset("4 1 2\n2 1 2\n")
    results = enumerate_layouts(ts)
    assert set(dims_of(results)) == {(12, 1), (4, 3), (6, 2)}
    assert len(results) == 3
    assert len(enumerate_layouts(ts)) == 3
    for r in results:
        assert verify_layout(ts, r.layout) is None


def test_single_tile_orientation():
    ts = parse_tileset("3 5\n")
    assert dims_of(enumerate_layouts(ts)) == [(5, 3)]
    # without rotation only the as-given orientation tiles
    assert dims_of(enumerate_layouts(ts, allow_rotation=False)) == [(3, 5)]


def test_rotation_off_is_subset_as_unordered_pairs():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 5)
        ts = TileSet(
            [
                Tile(i + 1, Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 3)))
                for i in range(n)
            ]
        )
        fixed = {tuple(sorted((r.width, r.height))) for r in enumerate_layouts(ts, allow_rotation=False)}
        free = {tuple(sorted((r.width, r.height))) for r in enumerate_layouts(ts)}
        assert fixed <= free


def test_random_witnesses_verify():
    rng = random.Random(2)
    for _ in range(25):
        n = rng.randint(3, 6)
        ts = TileSet(
            [
                Tile(i + 1, Fraction(rng.randint(1, 4)), Fraction(rng.randint(1, 4)))
                for i in range(n)
            ]
        )
        for r in enumerate_layouts(ts):
            assert r.layout.target_width == r.width
            assert r.layout.target_height == r.height
            assert verify_layout(ts, r.layout) is None


def test_rational_dimensions_stay_exact():
    ts = parse_tileset("3/2 1\n1/2 1\n")
    results = enumerate_layouts(ts)
    assert dims_of(results) == [(2, 1)]
    assert isinstance(results[0].width, Fraction)
    assert verify_layout(ts, results[0].layout) is None


def test_no_targets_when_area_is_prime_and_sides_do_not_fit():
    # two tiles of total area 7 with no side sum producing a 7x1 or 1x7 fill
    ts = parse_tileset("2 2\n3 1\n")
    assert enumerate_layouts(ts) == []


def test_cap_guard():
    ts = parse_tileset("1 1 25\n")
    with pytest.raises(UnsupportedInstance):
        enumerate_layouts(ts)
    results = enumerate_layouts(ts, cap=25)
    assert (5, 5) in dims_of(results)


def test_enumeration_is_deterministic():
    ts = parse_tileset("4 1 2\n2 1 2\n")
    a = enumerate_layouts(ts)
    b = enumerate_layouts(ts)
    assert a == b


sides = st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(sides, sides), min_size=1, max_size=5),
    st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=12),
    st.booleans(),
)
def test_scaling_the_tiles_scales_every_result(dims, q, allow_rotation):
    ts = TileSet([Tile(k + 1, w, h) for k, (w, h) in enumerate(dims)])
    scaled = TileSet([Tile(k + 1, w * q, h * q) for k, (w, h) in enumerate(dims)])
    base = enumerate_layouts(ts, allow_rotation)
    grown = enumerate_layouts(scaled, allow_rotation)
    assert len(grown) == len(base)
    for a, b in zip(base, grown):
        assert (b.width, b.height) == (a.width * q, a.height * q)
        assert b.layout.target_width == b.width and b.layout.target_height == b.height
        assert [(p.tile_id, p.rotated) for p in b.layout.placements] == [
            (p.tile_id, p.rotated) for p in a.layout.placements
        ]
        assert [(p.x, p.y) for p in b.layout.placements] == [
            (p.x * q, p.y * q) for p in a.layout.placements
        ]
        assert verify_layout(scaled, b.layout) is None


def enumerate_measured(ts):
    """enumerate_layouts(ts), its wall time and its traced peak memory."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        results = enumerate_layouts(ts)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return results, elapsed, peak


def test_pair_near_one_thousand_answers_at_once():
    # lcm of the denominators is 988,027: the scaled area is about 2e9 and
    # the width about 1e6 grid units.
    ts = parse_tileset("1/997 1\n1 1/991\n")
    results, elapsed, peak = enumerate_measured(ts)
    assert dims_of(results) == [(1, Fraction(1988, 988027))]
    assert verify_layout(ts, results[0].layout) is None
    assert elapsed < 1.0
    assert peak < 16 << 20


def test_pair_near_one_hundred_thousand_answers_at_once():
    # lcm of the denominators is 9,999,399,973: one bit per unit of the
    # scaled sides would take gigabytes; the set of sums holds seven
    ts = parse_tileset("1/100003 1\n1 1/99991\n")
    results, elapsed, peak = enumerate_measured(ts)
    assert dims_of(results) == [(1, Fraction(199994, 9999399973))]
    assert verify_layout(ts, results[0].layout) is None
    assert elapsed < 1.0
    assert peak < 16 << 20


def brute_side_sums(choices, limit):
    """Reference: every pick of 0 or one choice per tile, summed."""
    picks = itertools.product(*[(0,) + opts for opts in choices])
    return {s for s in map(sum, picks) if 0 < s <= limit}


side = st.one_of(st.integers(1, 12), st.integers(1, 10**15))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.lists(st.tuples(side), min_size=1, max_size=8),
        st.lists(st.tuples(side, side), min_size=1, max_size=8),
    ),
    st.one_of(st.integers(-1, 100), st.integers(0, 10**16)),
)
def test_side_sums_equal_every_pick(choices, limit):
    assert _side_sums(choices, limit) == brute_side_sums(choices, limit)


def grid_search_fill(dims, counts, W, H, allow_rotation):
    """Reference: the skyline as one height per grid column."""
    skyline = [0] * W
    placed = []

    def rec(remaining):
        if remaining == 0:
            return True
        y = min(skyline)
        x = skyline.index(y)
        run = 0
        while x + run < W and skyline[x + run] == y:
            run += 1
        free_h = H - y
        for i, (w, h) in enumerate(dims):
            if counts[i] == 0:
                continue
            for rot in (False, True):
                if rot and (not allow_rotation or w == h):
                    continue
                pw, ph = (h, w) if rot else (w, h)
                if pw > run or ph > free_h:
                    continue
                counts[i] -= 1
                for c in range(x, x + pw):
                    skyline[c] = y + ph
                placed.append((i, x, y, rot))
                if rec(remaining - 1):
                    return True
                placed.pop()
                for c in range(x, x + pw):
                    skyline[c] = y
                counts[i] += 1
        return False

    return placed if rec(sum(counts)) else None


def test_run_skyline_places_like_the_grid_skyline():
    rng = random.Random(11)
    compared = found = 0
    for _ in range(300):
        dims = sorted({(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))})
        counts = [rng.randint(1, 2) for _ in dims]
        area = sum(c * w * h for c, (w, h) in zip(counts, dims))
        for W in range(1, area + 1):
            if area % W:
                continue
            for rotation in (False, True):
                want = grid_search_fill(dims, list(counts), W, area // W, rotation)
                got = _search_fill(dims, list(counts), W, area // W, rotation)
                assert got == want
                compared += 1
                found += want is not None
    assert compared > 2000 and found > 500
