"""Tile file parsing, exact layout verification, and split extensions."""

import os
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from convexkit.tiling import (
    DefectReport,
    Layout,
    Placement,
    Tile,
    TileFileError,
    TileSet,
    layout_from_json,
    layout_to_json,
    load_layout,
    load_tileset,
    parse_tileset,
    serialize_tileset,
    split_extension,
    verify_layout,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="module")
def seven():
    return load_tileset(os.path.join(DATA, "seven.tiles"))


@pytest.fixture(scope="module")
def seven_layout():
    return load_layout(os.path.join(DATA, "seven.json"))


def test_seven_tile_fixture_is_isoperimetric(seven):
    assert len(seven) == 7
    for t in seven:
        assert 2 * t.semiperimeter == 39
    areas = [t.area for t in seven]
    assert len(set(areas)) == 7
    assert seven.total_area == 432  # 24 * 18


def test_seven_tile_layout_verifies(seven, seven_layout):
    assert seven_layout.target_width == 24
    assert seven_layout.target_height == 18
    assert verify_layout(seven, seven_layout) is None


def test_parse_keeps_rationals_exact():
    ts = parse_tileset("19/2 10\n0.25 3\n")
    assert ts[0].width == Fraction(19, 2)
    assert ts[1].width == Fraction(1, 4)
    assert ts[0].id == 1 and ts[1].id == 2


def test_parse_count_expansion():
    ts = parse_tileset("2 3 4\n1 1\n")
    assert len(ts) == 5
    assert [t.id for t in ts] == [1, 2, 3, 4, 5]
    assert all(t.width == 2 for t in ts.tiles[:4])


def test_parse_comments_and_blanks():
    ts = parse_tileset("# header\n\n1 2  # trailing\n")
    assert len(ts) == 1 and ts[0].height == 2


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("1 2\nbogus 4\n", 2),
        ("1\n", 1),
        ("1 2 3 4\n", 1),
        ("1 2\n3 4 0\n", 2),
        ("1 2\n3 4 -1\n", 2),
        ("0 5\n", 1),
        ("5 -1\n", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(TileFileError) as ei:
        parse_tileset(text)
    assert ei.value.line_no == line_no
    assert f"line {line_no}:" in str(ei.value)


def test_parse_empty_file_rejected():
    with pytest.raises(TileFileError):
        parse_tileset("# nothing here\n")


def test_serialize_roundtrip(seven):
    again = parse_tileset(serialize_tileset(seven))
    assert [(t.width, t.height) for t in again] == [(t.width, t.height) for t in seven]
    assert [t.id for t in again] == [t.id for t in seven]


def test_tileset_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        TileSet([Tile(1, Fraction(1), Fraction(1)), Tile(1, Fraction(2), Fraction(1))])


def test_tileset_by_id():
    tiles = [Tile(tid, Fraction(tid), Fraction(1)) for tid in (7, 3, 12)]
    ts = TileSet(tiles)
    assert [ts.by_id(tid) for tid in (3, 7, 12)] == [tiles[1], tiles[0], tiles[2]]
    with pytest.raises(KeyError) as err:
        ts.by_id(4)
    assert err.value.args == (4,)


def two_units():
    return TileSet([Tile(1, Fraction(1), Fraction(1)), Tile(2, Fraction(1), Fraction(1))])


def test_verify_accepts_exact_tiling():
    ts = two_units()
    layout = Layout(Fraction(2), Fraction(1), (Placement(1, Fraction(0), Fraction(0)), Placement(2, Fraction(1), Fraction(0))))
    assert verify_layout(ts, layout) is None


def test_verify_honors_rotation():
    ts = TileSet([Tile(1, Fraction(2), Fraction(1))])
    layout = Layout(Fraction(1), Fraction(2), (Placement(1, Fraction(0), Fraction(0), rotated=True),))
    assert verify_layout(ts, layout) is None


def defect_kind(ts, layout):
    rep = verify_layout(ts, layout)
    assert rep is not None
    return rep.kind


def test_verify_defect_unknown_tile():
    ts = two_units()
    layout = Layout(Fraction(2), Fraction(1), (Placement(99, Fraction(0), Fraction(0)), Placement(2, Fraction(1), Fraction(0))))
    assert defect_kind(ts, layout) == "unknown-tile"


def test_verify_defect_duplicate_tile():
    ts = two_units()
    layout = Layout(Fraction(2), Fraction(1), (Placement(1, Fraction(0), Fraction(0)), Placement(1, Fraction(1), Fraction(0))))
    assert defect_kind(ts, layout) == "duplicate-tile"


def test_verify_defect_unused_tile():
    ts = two_units()
    layout = Layout(Fraction(2), Fraction(1), (Placement(1, Fraction(0), Fraction(0)),))
    assert defect_kind(ts, layout) == "unused-tile"


def test_verify_defect_out_of_bounds():
    ts = two_units()
    layout = Layout(Fraction(2), Fraction(1), (Placement(1, Fraction(0), Fraction(0)), Placement(2, Fraction(3, 2), Fraction(0))))
    assert defect_kind(ts, layout) == "out-of-bounds"


def test_verify_defect_area_mismatch(seven, seven_layout):
    bigger = Layout(Fraction(25), Fraction(18), seven_layout.placements)
    assert defect_kind(seven, bigger) == "area-mismatch"


def test_verify_defect_gap():
    ts = two_units()
    # both tiles stacked on the right half; left slab is uncovered
    layout = Layout(Fraction(2), Fraction(1), (Placement(1, Fraction(1), Fraction(0)), Placement(2, Fraction(1), Fraction(0))))
    assert defect_kind(ts, layout) == "gap"


def test_verify_defect_overlap():
    ts = TileSet(
        [
            Tile(1, Fraction(2), Fraction(1)),
            Tile(2, Fraction(1), Fraction(1)),
            Tile(3, Fraction(1), Fraction(1)),
        ]
    )
    # total area matches 2x2 but tile 2 sits inside tile 1's row
    layout = Layout(
        Fraction(2),
        Fraction(2),
        (
            Placement(1, Fraction(0), Fraction(0)),
            Placement(2, Fraction(0), Fraction(0)),
            Placement(3, Fraction(0), Fraction(1)),
        ),
    )
    assert defect_kind(ts, layout) == "overlap"


def test_verify_mutated_fixture_catches_shift(seven, seven_layout):
    ps = list(seven_layout.placements)
    ps[3] = Placement(ps[3].tile_id, ps[3].x + Fraction(1, 7), ps[3].y, ps[3].rotated)
    rep = verify_layout(seven, Layout(seven_layout.target_width, seven_layout.target_height, tuple(ps)))
    assert rep is not None
    assert rep.kind in ("overlap", "gap", "out-of-bounds")


def test_split_extension_conserves_area(seven):
    split = split_extension(seven, 1, "w", Fraction(4))
    assert len(split) == 8
    assert split.total_area == seven.total_area
    assert max(t.id for t in split) == 8
    a = split.by_id(1)
    b = split.by_id(8)
    assert (a.width, a.height) == (Fraction(4), Fraction(19, 2))
    assert (b.width, b.height) == (Fraction(6), Fraction(19, 2))
    # untouched tiles keep their dims
    assert split.by_id(2).width == seven.by_id(2).width


def test_split_extension_height_axis():
    ts = TileSet([Tile(1, Fraction(3), Fraction(2))])
    split = split_extension(ts, 1, "h", Fraction(1, 2))
    assert split.by_id(1).height == Fraction(1, 2)
    assert split.by_id(2).height == Fraction(3, 2)
    assert split.by_id(2).width == 3


@pytest.mark.parametrize("axis,pos", [("x", 1), ("w", 0), ("w", 10), ("w", 11), ("h", Fraction(19, 2))])
def test_split_extension_rejects_bad_cuts(seven, axis, pos):
    with pytest.raises(ValueError):
        split_extension(seven, 1, axis, pos)


def test_split_extension_unknown_tile(seven):
    with pytest.raises(KeyError):
        split_extension(seven, 42, "w", 1)


def test_layout_json_roundtrip(seven_layout):
    text = layout_to_json(seven_layout)
    again = layout_from_json(text)
    assert again == seven_layout
    # numbers stay exact p/q strings, never floats
    assert "19/2" in text or "/" in text or text.count('"x"') == 7


def test_layout_json_malformed():
    with pytest.raises(ValueError):
        layout_from_json('{"target": [1]}')
    with pytest.raises(ValueError):
        layout_from_json('{"placements": []}')


def test_layout_json_rotated_must_be_boolean():
    def doc(rotated):
        return (
            '{"target": ["2", "1"], "placements": [{"id": 1, "x": "0", "y": "0"'
            + ("" if rotated is None else f', "rotated": {rotated}')
            + "}]}"
        )

    for bad in ('"false"', '"true"', "1", "0", "null"):
        with pytest.raises(ValueError, match="malformed layout document"):
            layout_from_json(doc(bad))
    assert layout_from_json(doc(None)).placements[0].rotated is False
    for flag in (True, False):
        layout = Layout(Fraction(1), Fraction(2), (Placement(1, Fraction(0), Fraction(0), rotated=flag),))
        again = layout_from_json(layout_to_json(layout))
        assert again == layout
        assert again.placements[0].rotated is flag


def verify_by_full_scan(ts, layout):
    """The verifier's bounds check and its former plane sweep, which scans
    every tile for every slab: the oracle for the active-set sweep on
    layouts that use every tile once and match the target area."""
    W, H = layout.target_width, layout.target_height
    rects = []
    for p in layout.placements:
        x0, y0, x1, y1 = layout.placed_rect(ts, p)
        if x0 < 0 or y0 < 0 or x1 > W or y1 > H:
            return DefectReport(
                "out-of-bounds",
                f"tile {p.tile_id} occupies [{x0},{x1}]x[{y0},{y1}] outside {W}x{H}",
            )
        rects.append((p.tile_id, x0, y0, x1, y1))
    xs = sorted({Fraction(0), W, *(r[1] for r in rects), *(r[3] for r in rects)})
    for x0, x1 in zip(xs, xs[1:]):
        spans = sorted((r[2], r[4], r[0]) for r in rects if r[1] <= x0 and r[3] >= x1)
        cur = Fraction(0)
        prev_id = None
        for y0, y1, tid in spans:
            if y0 > cur:
                return DefectReport(
                    "gap", f"uncovered region near x in ({x0},{x1}), y in ({cur},{y0})"
                )
            if y0 < cur:
                return DefectReport(
                    "overlap",
                    f"tiles {prev_id} and {tid} overlap near x in ({x0},{x1}), y={y0}",
                )
            cur, prev_id = y1, tid
        if cur != H:
            return DefectReport(
                "gap", f"uncovered region near x in ({x0},{x1}), y in ({cur},{H})"
            )
    return None


def guillotine_layout(rng, pieces):
    """A random perfect tiling: cut rectangles along a grid of step q until
    there are `pieces` of them (or none can be cut), then place each piece
    as a tile, some rotated."""
    q = Fraction(1, rng.choice([1, 2, 3]))
    W, H = Fraction(rng.randint(4, 12)), Fraction(rng.randint(4, 12))
    rects = [(Fraction(0), Fraction(0), W, H)]
    for _ in range(pieces - 1):
        x0, y0, x1, y1 = rects.pop(rng.randrange(len(rects)))
        nx, ny = int((x1 - x0) / q), int((y1 - y0) / q)
        if nx > 1 and (ny == 1 or rng.random() < 0.5):
            cut = x0 + q * rng.randint(1, nx - 1)
            rects += [(x0, y0, cut, y1), (cut, y0, x1, y1)]
        elif ny > 1:
            cut = y0 + q * rng.randint(1, ny - 1)
            rects += [(x0, y0, x1, cut), (x0, cut, x1, y1)]
        else:
            rects.append((x0, y0, x1, y1))
    tiles, placements = [], []
    for tid, (x0, y0, x1, y1) in enumerate(rects, start=1):
        rotated = rng.random() < 0.3
        w, h = x1 - x0, y1 - y0
        tiles.append(Tile(tid, h, w) if rotated else Tile(tid, w, h))
        placements.append(Placement(tid, x0, y0, rotated))
    rng.shuffle(placements)
    return TileSet(tiles), Layout(W, H, tuple(placements))


def test_active_set_sweep_matches_the_full_scan():
    rng = random.Random(7)
    kinds = Counter()
    for _ in range(300):
        ts, layout = guillotine_layout(rng, rng.randint(1, 25))
        assert verify_layout(ts, layout) is None
        assert verify_by_full_scan(ts, layout) is None
        # move one tile: a gap and an overlap, or a tile out of bounds
        ps = list(layout.placements)
        k = rng.randrange(len(ps))
        dx, dy = (Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(2))
        ps[k] = Placement(ps[k].tile_id, ps[k].x + dx, ps[k].y + dy, ps[k].rotated)
        moved = Layout(layout.target_width, layout.target_height, tuple(ps))
        rep = verify_layout(ts, moved)
        assert rep == verify_by_full_scan(ts, moved)
        kinds[rep.kind if rep else None] += 1
    assert {"gap", "overlap", "out-of-bounds"} <= set(kinds)


def test_verify_a_long_row_is_fast():
    n = 4000
    ts = TileSet([Tile(i, Fraction(1), Fraction(1)) for i in range(1, n + 1)])
    row = Layout(Fraction(n), Fraction(1), tuple(Placement(i, Fraction(i - 1), Fraction(0)) for i in range(1, n + 1)))
    t0 = time.perf_counter()
    assert verify_layout(ts, row) is None
    assert time.perf_counter() - t0 < 1.0
