"""Divisor-count record-setters and the strip-packing censuses they drive."""

import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit.tiling import hcn as hcn_module
from convexkit.tiling import (
    HcnContext,
    Layout,
    Placement,
    UnsupportedInstance,
    build_hcn_tileset,
    construct_width_layout,
    divisor_count,
    divisors,
    hcn_context,
    hcn_layout_census,
    hcn_split_census,
    hcn_up_to,
    is_hcn,
    split_extension,
    triangular,
    verify_layout,
)
from convexkit.tiling.hcn import _partition_widths, construct_split_layout

# Record-setters up to 1,500,000 and their divisor counts.
RECORDS = [
    1, 2, 4, 6, 12, 24, 36, 48, 60, 120, 180, 240, 360, 720, 840,
    1260, 1680, 2520, 5040, 7560, 10080, 15120, 20160, 25200, 27720,
    45360, 50400, 55440, 83160, 110880, 166320, 221760, 277200, 332640,
    498960, 554400, 665280, 720720, 1081080, 1441440,
]
RECORD_DIVISOR_COUNTS = [
    1, 2, 3, 4, 6, 8, 9, 10, 12, 16, 18, 20, 24, 30, 32, 36, 40, 48,
    60, 64, 72, 80, 84, 90, 96, 100, 108, 120, 128, 144, 160, 168,
    180, 192, 200, 216, 224, 240, 256, 288,
]


def divisor_sieve(limit: int) -> np.ndarray:
    """Oracle: d[v] = number of divisors of v for v in 0..limit (d[0] unused)."""
    d = np.zeros(limit + 1, dtype=np.uint16)
    for i in range(1, limit + 1):
        d[i::i] += 1
    return d


def sieve_records(d: np.ndarray) -> list:
    body = d[1:].astype(np.int64)
    prev_best = np.concatenate(([0], np.maximum.accumulate(body)[:-1]))
    return (np.nonzero(body > prev_best)[0] + 1).tolist()


def test_records_up_to_one_and_a_half_million():
    assert hcn_up_to(1_500_000) == RECORDS
    assert sieve_records(divisor_sieve(1_500_000)) == RECORDS


def test_records_match_the_sieve_at_every_small_limit():
    d = divisor_sieve(5_000)
    records = sieve_records(d)
    for v in range(1, 5_001):
        assert is_hcn(v) == (v in records)
    for limit in (1, 2, 3, 5, 6, 7, 11, 12, 13, 100, 719, 720, 721, 5_000):
        assert hcn_up_to(limit) == [n for n in records if n <= limit]


def test_records_up_to_ten_to_the_eighteenth():
    start = time.perf_counter()
    records = hcn_up_to(10**18)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(records) == 156
    assert records[: len(RECORDS)] == RECORDS
    counts = [divisor_count(n) for n in records]
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_is_hcn_needs_no_sieve():
    assert not hasattr(hcn_module, "divisor_sieve")
    tracemalloc.start()
    try:
        assert is_hcn(735134400)
        assert not is_hcn(735134401)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert divisor_count(735134400) == 1344


def test_records_need_a_positive_limit():
    for limit in (0, -5):
        with pytest.raises(ValueError, match="limit must be >= 1"):
            hcn_up_to(limit)
    assert not is_hcn(0)


def test_record_divisor_counts():
    assert [divisor_count(h) for h in RECORDS] == RECORD_DIVISOR_COUNTS


def test_divisor_count_matches_sieve():
    sieve = divisor_sieve(2000)
    for v in range(1, 2001):
        assert divisor_count(v) == int(sieve[v])


def test_divisors_listing():
    rng = random.Random(1)
    for _ in range(50):
        v = rng.randint(1, 100_000)
        assert divisors(v) == [k for k in range(1, v + 1) if v % k == 0]
    assert divisors(60) == [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]
    for v in (0, -6):
        with pytest.raises(ValueError, match="positive"):
            divisors(v)


def test_divisors_of_a_large_record_cost_its_divisor_count():
    # trial division up to the square root took 0.85 s here
    h = 97_821_761_637_600
    start = time.perf_counter()
    ds = divisors(h)
    assert time.perf_counter() - start < 0.1
    assert len(ds) == divisor_count(h)
    assert ds[-3:] == [h // 3, h // 2, h] and all(h % d == 0 for d in ds)


def test_is_hcn():
    members = set(RECORDS)
    for v in range(1, 200):
        assert is_hcn(v) == (v in members)


def test_divisor_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisor_count(0)


def test_triangular():
    assert [triangular(i) for i in range(1, 6)] == [1, 3, 6, 10, 15]
    with pytest.raises(ValueError):
        triangular(0)


def test_context_construction():
    ctx = hcn_context(60, 5, 4)
    assert (ctx.h, ctx.m, ctx.i, ctx.d, ctx.L) == (60, 15, 5, 4, Fraction(4))
    assert ctx == HcnContext(60, 5, Fraction(4))


def test_context_rejects_bad_inputs():
    with pytest.raises(ValueError):
        hcn_context(60, 7, 1)  # triangular(7) = 28 does not divide 60
    with pytest.raises(ValueError):
        hcn_context(50, 4, 1)  # 50 is not a record-setter
    with pytest.raises(ValueError):
        hcn_context(60, 5, 0)  # height must be positive


def test_tileset_shape():
    ts = build_hcn_tileset(hcn_context(60, 5, 4))
    assert len(ts) == 20
    widths = [int(t.width) for t in ts]
    assert widths == sorted(widths)
    assert widths.count(3) == 4
    assert all(t.height == 4 for t in ts)
    assert [t.id for t in ts] == list(range(1, 21))


def census_widths(census):
    return [F for F, layout in census.items() if layout is not None]


def test_all_unit_tiles_census():
    # 60 unit-width tiles pack every one of the 12 divisor widths
    ctx = hcn_context(60, 1, 1)
    census = hcn_layout_census(ctx)
    assert len(census_widths(census)) == 12
    assert census_widths(census) == divisors(60)


def test_three_width_census():
    # {20 of width 1, 2, 3} reaches every divisor of 120 except 1 and 2
    ctx = hcn_context(120, 3, 20)
    census = hcn_layout_census(ctx)
    assert len(census_widths(census)) == 14
    assert census_widths(census) == [d for d in divisors(120) if d >= 3]


def test_five_width_census():
    ctx = hcn_context(60, 5, 4)
    census = hcn_layout_census(ctx)
    assert census_widths(census) == [5, 6, 10, 12, 15, 20, 30, 60]
    assert [F for F, lay in census.items() if lay is None] == [1, 2, 3, 4]


def test_census_of_720_tiles_needs_no_deep_recursion():
    # 120 tiles of each width 1..6: one row search over 720 tiles
    ctx = hcn_context(2520, 6, 4)
    census = hcn_layout_census(ctx)
    widths = census_widths(census)
    assert widths == [d for d in divisors(2520) if d >= 6]
    assert len(widths) == 43
    ts = build_hcn_tileset(ctx)
    for F in (6, 2520):
        assert verify_layout(ts, construct_width_layout(ctx, F)) is None


def test_census_layouts_verify_exactly():
    for (h, i, L) in [(60, 1, 1), (120, 3, 20), (60, 5, 4), (720, 5, Fraction(1, 3))]:
        ctx = hcn_context(h, i, L)
        ts = build_hcn_tileset(ctx)
        for F, height in hcn_layout_census(ctx).items():
            layout = construct_width_layout(ctx, F)
            assert (layout is None) == (height is None)
            if layout is None:
                continue
            assert height == Fraction(h, F) * ctx.L
            assert (layout.target_width, layout.target_height) == (F, height)
            assert verify_layout(ts, layout) is None


def test_feasible_widths_are_the_divisors_from_i_up_without_a_full_search(monkeypatch):
    calls = []

    def counted(counts, i, target):
        calls.append((counts[1], target))
        return _partition_widths(counts, i, target)

    monkeypatch.setattr(hcn_module, "_partition_widths", counted)
    cases = 0
    for h in hcn_up_to(200_000):
        for i in range(1, 40):
            m = triangular(i)
            if h % m:
                continue
            del calls[:]
            census = hcn_layout_census(hcn_context(h, i, 1))
            assert census_widths(census) == [F for F in divisors(h) if F >= i]
            cases += len(census)
            # one search per width, on the fewest copies whose sum it divides
            searched = [target for _, target in calls]
            assert len(searched) == len(set(searched))
            assert all(c == F // gcd(F, m) for c, F in calls)
    assert cases == 22_812


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(i=st.integers(1, 7), d=st.integers(1, 12))
def test_few_copy_rows_repeat_into_a_packing_of_every_copy(i, d):
    # d * m need not be a record-setter, which HcnContext insists on
    m = triangular(i)
    census = hcn_layout_census(SimpleNamespace(h=d * m, i=i, d=d, L=Fraction(1)))
    assert list(census) == divisors(d * m)
    for F, height in census.items():
        assert (height is None) == (_partition_widths([0] + [d] * i, i, F) is None)
        k = F // gcd(F, m)
        assert d % k == 0
        rows = _partition_widths([0] + [k] * i, i, F)
        if rows is not None:
            repeated = rows * (d // k)
            assert all(sum(row) == F for row in repeated)
            assert Counter(w for row in repeated for w in row) == {w: d for w in range(1, i + 1)}


def test_census_of_27720_tiles_answers_at_once():
    # 27,720 tiles, 120 divisor widths: the census places no tile
    ctx = hcn_context(55440, 3, 4)
    start = time.perf_counter()
    for census in (hcn_layout_census(ctx), hcn_split_census(ctx)):
        assert census_widths(census) == [d for d in divisors(55440) if d >= 3]
        assert len(census_widths(census)) == 118
    assert time.perf_counter() - start < 0.5


def test_drawing_past_the_census_cap_is_refused_at_once():
    # 720,720 unit tiles: refused before the tile set is built
    ctx = hcn_context(720720, 1, 4)
    assert ctx.i * ctx.d > hcn_module.CENSUS_PLACEMENT_CAP
    start = time.perf_counter()
    for draw in (construct_width_layout, construct_split_layout):
        with pytest.raises(UnsupportedInstance, match="census cap"):
            draw(ctx, 1)
    assert time.perf_counter() - start < 0.5


def test_construct_width_layout_requires_divisor():
    ctx = hcn_context(60, 5, 4)
    with pytest.raises(ValueError):
        construct_width_layout(ctx, 7)


def test_split_census_adds_width_59():
    ctx = hcn_context(60, 5, 118)  # L = 118 = 2 * (60 - 1)
    census = hcn_split_census(ctx)
    assert list(census) == [5, 6, 10, 12, 15, 20, 30, 59, 60]
    assert census[59] == 120
    # the witness: every unsplit tile side by side in a 59 x 118 block,
    # the two 1 x 59 halves of tile 1 rotated on top as full-width rows
    ts2 = split_extension(build_hcn_tileset(ctx), 1, "h", 59)
    assert len(ts2) == 21
    placements, x = [], 0
    for t in ts2:
        if t.id not in (1, 21):
            placements.append(Placement(t.id, Fraction(x), Fraction(0), False))
            x += t.width
    placements.append(Placement(1, Fraction(0), Fraction(118), True))
    placements.append(Placement(21, Fraction(0), Fraction(119), True))
    assert verify_layout(ts2, Layout(Fraction(59), census[59], tuple(placements))) is None
    for F in census:
        if F != 59:
            ts2, layout = construct_split_layout(ctx, F)
            assert verify_layout(ts2, layout) is None
            assert layout.target_height == census[F]


def test_split_census_without_magic_height():
    # any other height keeps exactly the base widths and heights
    ctx = hcn_context(60, 5, 4)
    census = hcn_split_census(ctx)
    base = hcn_layout_census(ctx)
    assert census == {F: height for F, height in base.items() if height is not None}
    assert list(census) == [5, 6, 10, 12, 15, 20, 30, 60]
    for F in census:
        ts2, layout = construct_split_layout(ctx, F)
        assert verify_layout(ts2, layout) is None
