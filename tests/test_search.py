"""Exhaustive tiling enumeration: known counts, witnesses, determinism."""

import random
from fractions import Fraction

import pytest

from convexkit.tiling import (
    Tile,
    TileSet,
    UnsupportedInstance,
    enumerate_layouts,
    parse_tileset,
    verify_layout,
)


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
