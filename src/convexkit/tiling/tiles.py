"""Axis-aligned rectangle tiles, layouts, and the exact layout verifier.

All coordinates and dimensions are Fractions, so verification is exact:
a layout either tiles its target rectangle or it does not, with no epsilon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ..kernel import Rational, format_rational, parse_rational


class TileFileError(ValueError):
    """Malformed tile file; carries the 1-based line number, and the file's
    path when the text came from a file."""

    def __init__(self, line_no: int, message: str, path: str = ""):
        super().__init__(f"line {line_no}{f' of {path}' if path else ''}: {message}")
        self.line_no = line_no
        self.message = message


@dataclass(frozen=True)
class Tile:
    id: int
    width: Rational
    height: Rational

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"tile {self.id}: dimensions must be positive")

    @property
    def area(self) -> Rational:
        return self.width * self.height

    @property
    def semiperimeter(self) -> Rational:
        return self.width + self.height


class TileSet:
    """Immutable collection of tiles with unique ids."""

    __slots__ = ("tiles", "_by_id")

    def __init__(self, tiles: Iterable[Tile]):
        tiles = tuple(tiles)
        if not tiles:
            raise ValueError("a tile set needs at least one tile")
        index = {}
        for t in tiles:
            if t.id in index:
                raise ValueError(f"duplicate tile id {t.id}")
            index[t.id] = t
        self.tiles = tiles
        self._by_id = index

    def __len__(self):
        return len(self.tiles)

    def __iter__(self):
        return iter(self.tiles)

    def __getitem__(self, i):
        return self.tiles[i]

    def by_id(self, tile_id: int) -> Tile:
        return self._by_id[tile_id]

    @property
    def total_area(self) -> Rational:
        return sum((t.area for t in self.tiles), Fraction(0))

    def dims_multiset(self):
        """Sorted (width, height) pairs, ignoring ids."""
        return tuple(sorted((t.width, t.height) for t in self.tiles))


def parse_tileset(text: str) -> TileSet:
    """Parse the plain-text tile format: one `WIDTH HEIGHT [COUNT]` per line.

    Numbers are decimals or p/q rationals, kept exact.  Blank lines and
    text after `#` are ignored.  Tile ids are assigned 1..n in file order,
    with COUNT > 1 expanding to consecutive ids.
    """
    tiles = []
    next_id = 1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise TileFileError(line_no, f"expected WIDTH HEIGHT [COUNT], got {len(parts)} fields")
        try:
            w = parse_rational(parts[0])
            h = parse_rational(parts[1])
        except ValueError as e:
            raise TileFileError(line_no, str(e)) from None
        count = 1
        if len(parts) == 3:
            if not parts[2].isdigit() or int(parts[2]) == 0:
                raise TileFileError(line_no, f"COUNT must be a positive integer, got {parts[2]!r}")
            count = int(parts[2])
        if w <= 0 or h <= 0:
            raise TileFileError(line_no, "dimensions must be positive")
        for _ in range(count):
            tiles.append(Tile(next_id, w, h))
            next_id += 1
    if not tiles:
        raise TileFileError(0, "no tiles in file")
    return TileSet(tiles)


def serialize_tileset(ts: TileSet) -> str:
    lines = [f"{format_rational(t.width)} {format_rational(t.height)}" for t in ts]
    return "\n".join(lines) + "\n"


def load_tileset(path: str) -> TileSet:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        return parse_tileset(text)
    except TileFileError as e:
        raise TileFileError(e.line_no, e.message, path) from None


@dataclass(frozen=True)
class Placement:
    tile_id: int
    x: Rational
    y: Rational
    rotated: bool = False


@dataclass(frozen=True)
class Layout:
    """A claimed tiling of a target_width x target_height rectangle."""

    target_width: Rational
    target_height: Rational
    placements: tuple

    def placed_rect(self, ts: TileSet, p: Placement):
        """(x0, y0, x1, y1) of a placement, honoring rotation."""
        t = ts.by_id(p.tile_id)
        w, h = (t.height, t.width) if p.rotated else (t.width, t.height)
        return (p.x, p.y, p.x + w, p.y + h)


@dataclass(frozen=True)
class DefectReport:
    """First defect found by verify_layout; kind is one of
    unknown-tile, duplicate-tile, unused-tile, out-of-bounds,
    area-mismatch, overlap, gap."""

    kind: str
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


def verify_layout(ts: TileSet, layout: Layout) -> Optional[DefectReport]:
    """Exact verification.  Returns None when the layout is a perfect tiling
    of the target (every tile used once, no overlap, no gap), otherwise the
    first defect found.  All arithmetic is rational.
    """
    W, H = layout.target_width, layout.target_height
    if W <= 0 or H <= 0:
        return DefectReport("out-of-bounds", f"target {W} x {H} is not a rectangle")

    ids = [t.id for t in ts]
    used = [p.tile_id for p in layout.placements]
    known = set(ids)
    for p in layout.placements:
        if p.tile_id not in known:
            return DefectReport("unknown-tile", f"placement references tile id {p.tile_id}")
    counts = {}
    for tid in used:
        counts[tid] = counts.get(tid, 0) + 1
        if counts[tid] > 1:
            return DefectReport("duplicate-tile", f"tile {tid} placed more than once")
    for tid in ids:
        if tid not in counts:
            return DefectReport("unused-tile", f"tile {tid} never placed")

    rects = []
    for p in layout.placements:
        x0, y0, x1, y1 = layout.placed_rect(ts, p)
        if x0 < 0 or y0 < 0 or x1 > W or y1 > H:
            return DefectReport(
                "out-of-bounds",
                f"tile {p.tile_id} occupies [{x0},{x1}]x[{y0},{y1}] outside {W}x{H}",
            )
        rects.append((p.tile_id, x0, y0, x1, y1))

    total = sum((t.area for t in ts), Fraction(0))
    if total != W * H:
        return DefectReport("area-mismatch", f"tile area {total} != target area {W * H}")

    # Plane sweep over x: between consecutive edge abscissas every tile either
    # spans the whole slab or misses it, so the y-intervals must partition
    # [0, H].  The tiles spanning a slab are those begun at or before its left
    # end and not ended there; the active set follows the tiles sorted by
    # start and by end, so each slab costs the sort of its own spans, not a
    # scan of every tile.
    xs = sorted({Fraction(0), W, *(r[1] for r in rects), *(r[3] for r in rects)})
    starts = sorted(rects, key=lambda r: r[1])
    ends = sorted(rects, key=lambda r: r[3])
    active = set()
    k = e = 0
    for x0, x1 in zip(xs, xs[1:]):
        while k < len(starts) and starts[k][1] <= x0:
            active.add((starts[k][2], starts[k][4], starts[k][0]))
            k += 1
        while e < len(ends) and ends[e][3] <= x0:
            active.discard((ends[e][2], ends[e][4], ends[e][0]))
            e += 1
        spans = sorted(active)
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


def split_extension(ts: TileSet, tile_id: int, axis: str, position) -> TileSet:
    """Replace one tile by the two pieces of an axis-aligned cut.

    axis "w" cuts the width at `position` (two side-by-side pieces),
    axis "h" cuts the height.  The first piece keeps the original id,
    the second gets max id + 1.  Any tiling with the original set extends
    to one with the split set by cutting the placed tile in place.
    """
    if axis not in ("w", "h"):
        raise ValueError(f"axis must be 'w' or 'h', got {axis!r}")
    position = Fraction(position)
    t = ts.by_id(tile_id)
    limit = t.width if axis == "w" else t.height
    if not (0 < position < limit):
        raise ValueError(f"cut position {position} not interior to (0, {limit})")
    new_id = max(x.id for x in ts) + 1
    out = []
    for x in ts:
        if x.id != tile_id:
            out.append(x)
            continue
        if axis == "w":
            out.append(Tile(tile_id, position, x.height))
            out.append(Tile(new_id, x.width - position, x.height))
        else:
            out.append(Tile(tile_id, x.width, position))
            out.append(Tile(new_id, x.width, x.height - position))
    return TileSet(out)


def layout_to_dict(layout: Layout) -> dict:
    """The layout document: all numbers as exact p/q strings."""
    return {
        "target": [format_rational(layout.target_width), format_rational(layout.target_height)],
        "placements": [
            {
                "id": p.tile_id,
                "x": format_rational(p.x),
                "y": format_rational(p.y),
                "rotated": p.rotated,
            }
            for p in layout.placements
        ],
    }


def layout_to_json(layout: Layout) -> str:
    """Serialize a layout; all numbers as exact p/q strings."""
    return json.dumps(layout_to_dict(layout), indent=2, sort_keys=True) + "\n"


def _rotated_flag(p: dict) -> bool:
    """The placement's "rotated" field: a JSON boolean, false when absent."""
    value = p.get("rotated", False)
    if not isinstance(value, bool):
        raise TypeError(f"'rotated' must be true or false, got {value!r}")
    return value


def layout_from_json(text: str) -> Layout:
    try:
        doc = json.loads(text)
        tw = parse_rational(str(doc["target"][0]))
        th = parse_rational(str(doc["target"][1]))
        placements = tuple(
            Placement(
                int(p["id"]),
                parse_rational(str(p["x"])),
                parse_rational(str(p["y"])),
                _rotated_flag(p),
            )
            for p in doc["placements"]
        )
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise ValueError(f"malformed layout document: {e}") from None
    return Layout(tw, th, placements)


def load_layout(path: str) -> Layout:
    """The layout in the JSON file at path; a malformed document's message
    names the file (and, for bad JSON, the line)."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        return layout_from_json(text)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
