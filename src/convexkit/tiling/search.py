"""Exhaustive search for perfect rectangle tilings.

Given a finite tile set, enumerate every target rectangle (up to the
W >= H symmetry) that the full set tiles exactly, with one witness layout
per target.  Dimensions are rescaled to integers by the lcm of the input
denominators, so the backtracking search is exact integer arithmetic.
Candidate sides come from the set of reachable side sums, whose size
follows the number of distinct sums, not the scaled magnitudes, so tiles
with large denominators cost no more memory than integer ones.

The same sums prune the search.  A partial tiling leaves a skyline of
maximal runs (x, width, y) on the W x H target, and the unplaced tiles
must fill the rest exactly, so every run obeys two rules:

- height rule: H - y is 0 or a sum of one side from each of some unplaced
  tiles.  A vertical line through the open span of the run, above y and
  off every tile edge, crosses each unplaced tile at most once, and the
  tiles it crosses split [y, H] by their heights;
- well rule: a run lower than both neighbours (a wall counts as height H)
  has a width that is such a sum.  A horizontal line just above y inside
  the well meets placed tiles on both sides, so the tiles it crosses lie
  inside the well and split its width by their widths.

Without rotation the height rule uses tile heights and the well rule tile
widths; with rotation either side serves both.  A skyline that breaks a
rule has no completion, so cutting it keeps every answer and every
witness of the unpruned search.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .. import UnsupportedInstance
from .tiles import Layout, Placement, TileSet

DEFAULT_TILE_CAP = 24


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


Reach = Callable[[Tuple[int, ...]], Tuple[set, set]]


def _reachable(dims: List[Tuple[int, int]], allow_rotation: bool, limit: int) -> Reach:
    """reach(counts) -> (heights, widths): the side sums in 1..limit of the
    unplaced tiles, counts[i] of each dims[i], for the height and the well
    rule.  Memoized per counts tuple, so one `reach` can serve every
    target of a tile set."""
    memo: dict = {}

    def reach(counts: Tuple[int, ...]) -> Tuple[set, set]:
        sums = memo.get(counts)
        if sums is None:
            tiles = [d for d, c in zip(dims, counts) for _ in range(c)]
            if allow_rotation:
                sums = (_side_sums(tiles, limit),) * 2
            else:
                sums = (_side_sums([(h,) for _, h in tiles], limit),
                        _side_sums([(w,) for w, _ in tiles], limit))
            memo[counts] = sums
        return sums

    return reach


def _completable(runs: List[Tuple[int, int, int]], H: int, heights: set, widths: set) -> bool:
    """False when some run of the skyline breaks the height rule or the
    well rule (see the module docstring), given the side sums of the
    unplaced tiles."""
    left = H
    last = len(runs) - 1
    for j, (_, run, y) in enumerate(runs):
        if y < H and H - y not in heights:
            return False
        if y < left and y < (runs[j + 1][2] if j < last else H) and run not in widths:
            return False
        left = y
    return True


def _search_fill(
    dims: List[Tuple[int, int]],
    counts: List[int],
    W: int,
    H: int,
    allow_rotation: bool,
    reach: Reach,
) -> Optional[List[Tuple[int, int, int, bool]]]:
    """Try to tile the W x H integer rectangle with the given multiset of
    tile dimensions, whose areas sum to W * H.  Returns placements (dims
    index, x, y, rotated) or None.  `reach` is a `_reachable` for these
    dims and a limit of at least max(W, H), shared by every target of one
    tile set.

    Always fills the lowest-leftmost uncovered cell; the tile covering that
    cell must have its bottom-left corner there, so trying every distinct
    tile dimension in each orientation is exhaustive.  The covered region's
    top edge is kept as maximal runs (x, width, height) of equal height,
    so each step costs time in the number of runs (at most one per placed
    tile, plus one), not in W.  A child skyline is entered only if every
    run obeys the height rule (H - y is 0 or a side sum of the unplaced
    tiles: a vertical line above the run crosses each of them at most
    once) and the well rule (a run below both neighbours, walls counting
    as H, is as wide as a side sum of the unplaced tiles: a horizontal
    line just above it crosses only tiles inside the well).  Both are
    necessary, so the depth-first order and the first witness are those of
    the unpruned search.
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
                heights, widths = reach(tuple(counts))
                # the tile's own column and the well it leaves beside it
                # first, before the whole child skyline is built
                if (
                    (ph == free_h or free_h - ph in heights)
                    and (pw == run or run - pw in widths)
                ):
                    placed.append((i, x, y, rot))
                    child = _raise_run(runs, k, pw, ph)
                    if _completable(child, H, heights, widths) and rec(child, remaining - 1):
                        return True
                    placed.pop()
                counts[i] += 1
        return False

    found = rec([(0, W, 0)], sum(counts))
    # rec refers to itself through its closure; drop that cycle now, so
    # the memo in `reach` is not kept alive until the cyclic collector runs
    rec = None
    return placed if found else None


def enumerate_layouts(
    ts: TileSet,
    allow_rotation: bool = True,
    cap: int = DEFAULT_TILE_CAP,
) -> List[Layout]:
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

    full = tuple(len(pool) for pool in id_pools)
    hsums, wsums = _reachable(dims, allow_rotation, area)(full)

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

    # one memo of unplaced side sums for every target, capped at the
    # largest candidate side
    reach = _reachable(dims, allow_rotation, max(candidates, default=(0,))[0])
    results = []
    for key in sorted(candidates):
        witness = None
        for W, H in sorted(candidates[key], reverse=True):
            witness = _search_fill(dims, list(full), W, H, allow_rotation, reach)
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
        results.append(Layout(Fraction(W, scale), Fraction(H, scale), tuple(placements)))
    return results
