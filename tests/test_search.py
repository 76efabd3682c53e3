"""Exhaustive tiling enumeration: known counts, witnesses, determinism."""

import itertools
import os
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from conftest import case_named, case_table
from convexkit import UnsupportedInstance
from convexkit.tiling import search
from convexkit.tiling.search import _search_fill, _side_sums, enumerate_layouts
from convexkit.tiling.tiles import Tile, TileSet, parse_tileset, verify_layout
from reference import search_fill_unpruned

SEVEN_TILES = os.path.join(os.path.dirname(__file__), "data", "seven.tiles")
# eight tiles that tile no rectangle; the unpruned search places 459,591
# tiles before it gives up
EIGHT_TILES = """\
21/7 8/2
14/7 23/2
12/2 20/1
16/3 6/2
6/7 6/5
37/3 15/2
20/1 21/1
21/3 16/2
"""


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


def draw_side(rng):
    """A fraction in [1/6, 4] with denominator at most 6."""
    d = rng.randint(1, 6)
    return Fraction(rng.randint(1, 4 * d), d)


def draw_scaling_case(rng):
    """One to five tiles, a scale in [1/10, 10] with denominator at most 12,
    and whether tiles may turn."""
    dims = [(draw_side(rng), draw_side(rng)) for _ in range(rng.randint(1, 5))]
    d = rng.randint(1, 12)
    q = Fraction(rng.randint(-(-d // 10), 10 * d), d)
    return dims, q, rng.random() < 0.5


SCALING_CASES = case_table(
    "test_scaling_the_tiles_scales_every_result", 60, draw_scaling_case,
    first=[
        ([(Fraction(1, 6), Fraction(1, 6))], Fraction(1, 10), False),
        ([(Fraction(4), Fraction(1, 6))] * 5, Fraction(10), True),
    ],
)


def test_scaling_the_tiles_scales_every_result():
    for i, (dims, q, allow_rotation) in enumerate(SCALING_CASES):
        with case_named(i, dims, q, allow_rotation):
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


def draw_side_sum_case(rng):
    """One to eight tiles, each with one choice of side or two, from 1..12
    or 1..10**15, and a limit from -1..100 or 0..10**16."""
    tops = (12, 10**15)
    n, k = rng.randint(1, 8), rng.randint(1, 2)
    choices = [tuple(rng.randint(1, rng.choice(tops)) for _ in range(k)) for _ in range(n)]
    limit = rng.randint(-1, 100) if rng.random() < 0.5 else rng.randint(0, 10**16)
    return choices, limit


SIDE_SUM_CASES = case_table(
    "test_side_sums_equal_every_pick", 300, draw_side_sum_case,
    first=[
        ([(1,)], -1),
        ([(1,)], 0),
        ([(1,)], 1),
        ([(3, 2), (2,), (5, 4)], 6),
        ([(12, 12)] * 8, 100),
        ([(10**15,), (1, 10**15)], 10**16),
    ],
)


def test_side_sums_equal_every_pick():
    for i, (choices, limit) in enumerate(SIDE_SUM_CASES):
        with case_named(i, choices, limit):
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


def guillotine_dims(rng, n):
    """n integer rectangles cut from a random one by guillotine cuts, so
    that they tile it without rotation."""
    rects = [(rng.randint(2, 12), rng.randint(2, 12))]
    while len(rects) < n:
        w, h = rects.pop(max(range(len(rects)), key=lambda j: rects[j][0] * rects[j][1]))
        if w == h == 1:
            return rects + [(1, 1)]
        if h == 1 or (w > 1 and rng.random() < 0.5):
            c = rng.randint(1, w - 1)
            rects += [(c, h), (w - c, h)]
        else:
            c = rng.randint(1, h - 1)
            rects += [(w, c), (w, h - c)]
    return rects


def test_pruned_search_finds_what_the_unpruned_search_finds(monkeypatch):
    rng = random.Random(27)
    found = {False: 0, True: 0}
    for trial in range(160):
        if trial % 2:
            dims = guillotine_dims(rng, rng.randint(2, 8))
        else:
            dims = [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(rng.randint(1, 7))]
        q = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        ts = TileSet([Tile(k + 1, w * q, h * q) for k, (w, h) in enumerate(dims)])
        for rotation in (False, True):
            got = enumerate_layouts(ts, rotation)
            with monkeypatch.context() as m:
                m.setattr(search, "_search_fill", search_fill_unpruned)
                want = enumerate_layouts(ts, rotation)
            assert got == want
            found[rotation] += len(got)
    assert min(found.values()) > 100


@pytest.mark.parametrize(
    "text, targets, most",
    [(open(SEVEN_TILES).read(), [(24, 18)], 200), (EIGHT_TILES, [], 500)],
    ids=["seven", "eight"],
)
def test_side_sum_rules_bound_the_placements(monkeypatch, text, targets, most):
    # the unpruned search places 1,768 tiles on seven.tiles
    raise_run = search._raise_run
    placements = 0

    def counted(*args):
        nonlocal placements
        placements += 1
        return raise_run(*args)

    monkeypatch.setattr(search, "_raise_run", counted)
    assert dims_of(enumerate_layouts(parse_tileset(text))) == targets
    assert placements <= most
