"""Exhaustive search for perfect rectangle tilings.

Given a finite tile set, enumerate every target rectangle (up to the
W >= H symmetry) that the full set tiles exactly, with one witness layout
per target.  Dimensions are rescaled to integers by the lcm of the input
denominators, so the backtracking search is exact integer arithmetic.
Candidate sides come from the set of reachable side sums, whose size
follows the number of distinct sums, not the scaled magnitudes, so tiles
with large denominators cost no more memory than integer ones.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .tiles import Layout, Placement, TileSet

DEFAULT_TILE_CAP = 24


class UnsupportedInstance(ValueError):
    """Instance exceeds the exhaustive-search cap."""


class TilingResult(NamedTuple):
    width: Fraction
    height: Fraction
    layout: Layout


def _side_sums(choices: List[Tuple[int, ...]], limit: int) -> set:
    """Sums in 1..limit where each tile contributes 0 or one of its
    `choices`.  Any edge of any tiling is partitioned by placed tile sides,
    so valid target sides must live in this set.  The set grows one tile
    at a time from {0}, keeping only sums <= limit, so its cost follows
    the number of distinct sums (at most min(3^k, limit) for k tiles), not
    the size of the sides."""
    sums = {0}
    for opts in choices:
        sums |= {s + v for s in sums for v in opts if s + v <= limit}
    sums.discard(0)
    return sums


def _raise_run(runs: List[Tuple[int, int, int]], k: int, width: int, rise: int) -> List[Tuple[int, int, int]]:
    """The skyline after a tile `width` wide and `rise` tall is placed at
    the left end of run k, merged back into maximal runs."""
    x, run, y = runs[k]
    out = runs[:k]
    for r in [(x, width, y + rise), (x + width, run - width, y)] + runs[k + 1 :]:
        if r[1] == 0:
            continue
        if out and out[-1][2] == r[2]:
            out[-1] = (out[-1][0], out[-1][1] + r[1], r[2])
        else:
            out.append(r)
    return out


def _search_fill(
    dims: List[Tuple[int, int]],
    counts: List[int],
    W: int,
    H: int,
    allow_rotation: bool,
) -> Optional[List[Tuple[int, int, int, bool]]]:
    """Try to tile the W x H integer rectangle with the given multiset of
    tile dimensions.  Returns placements (dims index, x, y, rotated) or None.

    Always fills the lowest-leftmost uncovered cell; the tile covering that
    cell must have its bottom-left corner there, so trying every distinct
    tile dimension in each orientation is exhaustive.  The covered region's
    top edge is kept as maximal runs (x, width, height) of equal height,
    so each step costs time in the number of runs (at most one per placed
    tile, plus one), not in W.
    """
    placed: List[Tuple[int, int, int, bool]] = []

    def rec(runs: List[Tuple[int, int, int]], remaining: int) -> bool:
        if remaining == 0:
            return True
        k = min(range(len(runs)), key=lambda j: runs[j][2])
        x, run, y = runs[k]
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
                placed.append((i, x, y, rot))
                if rec(_raise_run(runs, k, pw, ph), remaining - 1):
                    return True
                placed.pop()
                counts[i] += 1
        return False

    return placed if rec([(0, W, 0)], sum(counts)) else None


def enumerate_layouts(
    ts: TileSet,
    allow_rotation: bool = True,
    cap: int = DEFAULT_TILE_CAP,
) -> List[TilingResult]:
    """All target rectangles the tile set tiles exactly, one witness layout
    each, deduplicated up to the W x H <-> H x W symmetry (with rotation
    allowed the W >= H orientation is reported).  Exact: a target appears
    iff a perfect tiling exists, and every witness passes verify_layout.
    """
    if len(ts) > cap:
        raise UnsupportedInstance(
            f"{len(ts)} tiles exceeds the exhaustive-search cap of {cap}"
        )
    scale = math.lcm(*(side.denominator for t in ts for side in (t.width, t.height)))
    sides = []
    for t in ts:
        sides.append((int(t.width * scale), int(t.height * scale)))
    area = sum(w * h for w, h in sides)

    # Distinct dims with multiplicity; remember which tile ids carry each.
    dim_ids: dict = {}
    for t, (w, h) in zip(ts, sides):
        dim_ids.setdefault((w, h), []).append(t.id)
    dims = sorted(dim_ids)
    id_pools = [list(dim_ids[d]) for d in dims]

    if allow_rotation:
        wsums = hsums = _side_sums([(w, h) for w, h in sides], area)
    else:
        wsums = _side_sums([(w,) for w, _ in sides], area)
        hsums = _side_sums([(h,) for _, h in sides], area)

    # Candidate targets, one per unordered dimension pair.  Without rotation
    # the two orientations of a pair differ, so both may need an attempt.
    candidates: dict = {}
    for W in sorted(wsums):
        if area % W != 0:
            continue
        H = area // W
        if H not in hsums:
            continue
        if allow_rotation and H > W:
            continue
        key = (max(W, H), min(W, H))
        candidates.setdefault(key, []).append((W, H))

    results = []
    for key in sorted(candidates):
        witness = None
        for W, H in sorted(candidates[key], reverse=True):
            counts = [len(pool) for pool in id_pools]
            witness = _search_fill(dims, counts, W, H, allow_rotation)
            if witness is not None:
                break
        if witness is None:
            continue
        pools = [list(pool) for pool in id_pools]
        placements = []
        for i, x, y, rot in witness:
            tid = pools[i].pop(0)
            placements.append(
                Placement(tid, Fraction(x, scale), Fraction(y, scale), rot)
            )
        placements.sort(key=lambda p: p.tile_id)
        results.append(
            TilingResult(
                Fraction(W, scale),
                Fraction(H, scale),
                Layout(Fraction(W, scale), Fraction(H, scale), tuple(placements)),
            )
        )
    return results
