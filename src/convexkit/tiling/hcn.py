"""Highly composite numbers and the tile families they generate.

A record-setter (highly composite number) is a positive integer with more
divisors than every smaller positive integer.  When h is such a number and
m = 1 + 2 + ... + i divides h with quotient d, the multiset holding d tiles
of each width 1..i (all of height L) has total width-sum h, and it packs a
strip of width F for every divisor F of h with F >= i.  Counting feasible
strip widths over all divisors links the divisor count of h to the number
of distinct packings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .search import UnsupportedInstance
from .tiles import Layout, Placement, Tile, TileSet, split_extension

CENSUS_PLACEMENT_CAP = 500_000  # i*d tiles times divisor_count(h) widths


def divisor_count(v: int) -> int:
    """Exact number of divisors by trial-division factorization."""
    if v <= 0:
        raise ValueError("divisor_count needs a positive integer")
    count = 1
    p = 2
    while p * p <= v:
        if v % p == 0:
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            count *= e + 1
        p += 1 if p == 2 else 2
    if v > 1:
        count *= 2
    return count


def divisors(v: int) -> List[int]:
    small = [d for d in range(1, int(v**0.5) + 1) if v % d == 0]
    large = [v // d for d in reversed(small) if d * d != v]
    return small + large


def hcn_up_to(limit: int) -> List[int]:
    """All record-setters for the divisor count in 1..limit, ascending.

    Moving the prime exponents of any n, largest first, onto the smallest
    primes gives some m <= n with d(m) = d(n), so every record-setter has
    non-increasing exponents on the first primes (Ramanujan 1915).  Only those candidates
    are generated, each with d(n) = prod(e_k + 1), so the cost follows
    their number (32,749 up to 10**18), not the limit.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    candidates = [(1, 1)]
    # Candidates on the first k primes: (n, d(n), exponent of the k-th prime).
    level, p = [(1, 1, limit.bit_length())], 1
    while level:
        p += 1
        while divisor_count(p) != 2:
            p += 1
        nxt = []
        for n, d, cap in level:
            e, v = 1, n * p
            while v <= limit and e <= cap:
                nxt.append((v, d * (e + 1), e))
                e, v = e + 1, v * p
        candidates.extend((n, d) for n, d, _ in nxt)
        level = nxt
    records, best = [], 0
    for n, d in sorted(candidates):
        if d > best:
            records.append(n)
            best = d
    return records


def is_hcn(v: int) -> bool:
    """Whether v is a divisor-count record-setter; as cheap as hcn_up_to(v)."""
    return v >= 1 and hcn_up_to(v)[-1] == v


def triangular(i: int) -> int:
    if i < 1:
        raise ValueError("triangular index must be >= 1")
    return i * (i + 1) // 2


@dataclass(frozen=True)
class HcnContext:
    """h highly composite, m = triangular(i) dividing h, d = h / m,
    L the common tile height."""

    h: int
    i: int
    L: Fraction

    def __post_init__(self):
        if self.h % self.m != 0:
            raise ValueError(f"triangular(i) = {self.m} does not divide h = {self.h}")
        if self.L <= 0:
            raise ValueError("tile height L must be positive")
        if not is_hcn(self.h):
            raise ValueError(f"{self.h} is not a divisor-count record-setter")

    @property
    def m(self) -> int:
        return triangular(self.i)

    @property
    def d(self) -> int:
        return self.h // self.m


def hcn_context(h: int, i: int, L) -> HcnContext:
    return HcnContext(h, i, Fraction(L))


def build_hcn_tileset(ctx: HcnContext) -> TileSet:
    """d tiles of each width 1..i, all of height L, ids 1..(i*d) with
    widths ascending."""
    tiles = []
    next_id = 1
    for w in range(1, ctx.i + 1):
        for _ in range(ctx.d):
            tiles.append(Tile(next_id, Fraction(w), ctx.L))
            next_id += 1
    return TileSet(tiles)


def _partition_widths(counts: List[int], i: int, target: int) -> Optional[List[List[int]]]:
    """Split the width multiset {w: counts[w]} into groups each summing to
    `target`.  Depth-first backtracking: fill one group at a time, each
    group's widths non-increasing, the widest available tile tried first.
    The search keeps its own stack of choices, one entry per tile, so its
    depth is not bounded by the interpreter's recursion limit."""
    total = sum(w * c for w, c in enumerate(counts))
    if total == 0:
        return []
    if any(counts[w] > 0 for w in range(target + 1, len(counts))):
        return None
    # chosen[k] = (width taken, room left in its group before, its width cap)
    chosen: List[Tuple[int, int, int]] = []
    room, max_w = target, i
    w = min(max_w, room)
    while True:
        while w > 0 and counts[w] == 0:
            w -= 1
        if w > 0:
            counts[w] -= 1
            chosen.append((w, room, max_w))
            room, max_w = room - w, w
            if room == 0:
                if not any(counts):
                    break
                room, max_w = target, i
            w = min(max_w, room)
        elif chosen:
            w, room, max_w = chosen.pop()
            counts[w] += 1
            w -= 1
        else:
            return None
    groups: List[List[int]] = []
    group: List[int] = []
    for w, room, _ in chosen:
        group.append(w)
        if room == w:  # this tile closed its group
            groups.append(group)
            group = []
    return groups


def construct_width_layout(ctx: HcnContext, F: int) -> Optional[Layout]:
    """A packing of the full tile family into an F x (h/F)*L rectangle,
    or None when width F is infeasible.  F must divide h; each row is one
    group of tiles whose widths sum to F."""
    if ctx.h % F != 0:
        raise ValueError(f"width {F} does not divide h = {ctx.h}")
    counts = [0] * (ctx.i + 1)
    for w in range(1, ctx.i + 1):
        counts[w] = ctx.d
    groups = _partition_widths(counts, ctx.i, F)
    if groups is None:
        return None

    # Tile ids of width w run (w-1)*d + 1 .. w*d; hand them out in order.
    next_id = [(w - 1) * ctx.d + 1 for w in range(ctx.i + 1)]
    placements = []
    for row, group in enumerate(groups):
        y = row * ctx.L
        x = 0
        for w in sorted(group):
            placements.append(Placement(next_id[w], Fraction(x), y, False))
            next_id[w] += 1
            x += w
    return Layout(Fraction(F), len(groups) * ctx.L, tuple(placements))


def hcn_layout_census(ctx: HcnContext) -> Dict[int, Optional[Layout]]:
    """Feasibility of every divisor width of h, ascending: width -> witness
    layout or None.  The number of feasible widths is the object of study.
    Raises UnsupportedInstance, before any width is tried, when placing all
    i*d tiles once per divisor width exceeds CENSUS_PLACEMENT_CAP."""
    placements = ctx.i * ctx.d * divisor_count(ctx.h)
    if placements > CENSUS_PLACEMENT_CAP:
        raise UnsupportedInstance(
            f"census would place {placements:,} tiles, over the census cap of {CENSUS_PLACEMENT_CAP:,}"
        )
    return {F: construct_width_layout(ctx, F) for F in divisors(ctx.h)}


def hcn_split_census(ctx: HcnContext):
    """Census after halving one width-1 tile.

    The split tile set still packs every feasible width of the base census
    (stack the two halves where the original tile stood).  When L = 2(h-1)
    one extra width appears: all unsplit tiles side by side make an
    (h-1) x L block, and the two 1 x L/2 halves, rotated, stack on top as
    full-width rows.  Returns (tileset, {width -> layout}).
    """
    base = hcn_layout_census(ctx)
    ts = build_hcn_tileset(ctx)
    split_id = next(t.id for t in ts if t.width == 1)
    half = ctx.L / 2
    ts2 = split_extension(ts, split_id, "h", half)
    new_id = max(t.id for t in ts2)

    out: Dict[int, Optional[Layout]] = {}
    for F, layout in base.items():
        if layout is None:
            continue
        placements = []
        for p in layout.placements:
            if p.tile_id == split_id:
                placements.append(Placement(split_id, p.x, p.y, False))
                placements.append(Placement(new_id, p.x, p.y + half, False))
            else:
                placements.append(p)
        out[F] = Layout(layout.target_width, layout.target_height, tuple(placements))

    extra = ctx.h - 1
    if ctx.L == 2 * (ctx.h - 1) and extra not in out:
        placements = []
        x = Fraction(0)
        for t in ts2:
            if t.id in (split_id, new_id):
                continue
            placements.append(Placement(t.id, x, Fraction(0), False))
            x += t.width
        # Two rotated halves lie flat across the top, each L/2 = h-1 wide.
        placements.append(Placement(split_id, Fraction(0), ctx.L, True))
        placements.append(Placement(new_id, Fraction(0), ctx.L + 1, True))
        out[extra] = Layout(Fraction(extra), ctx.L + 2, tuple(placements))
    return ts2, dict(sorted(out.items()))
