"""Highly composite numbers and the tile families they generate.

A record-setter (highly composite number) is a positive integer with more
divisors than every smaller positive integer.  When h is such a number and
m = 1 + 2 + ... + i divides h with quotient d, the multiset holding d tiles
of each width 1..i (all of height L) has width-sum h.  The census asks which
divisor widths F of h it packs in rows.  For every record-setter up to 10**7
with i < 80 the answer is exactly F >= i: observed, not proven (Chen, Fu,
Wang and Zhou 2005 prove it for d = 1), so each answer carries a certificate:
a feasible divisor of F, the width-i tile overhanging F, or an exact search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Dict, Iterator, List, Optional, Tuple

from .search import UnsupportedInstance
from .tiles import Layout, Placement, Tile, TileSet, split_extension

CENSUS_PLACEMENT_CAP = 500_000  # tiles in one drawn layout or one all-copies search


def _factorize(v: int) -> Iterator[Tuple[int, int]]:
    """(prime, exponent) pairs of v, ascending, by trial division."""
    if v <= 0:
        raise ValueError(f"need a positive integer, got {v}")
    p = 2
    while p * p <= v:
        if v % p == 0:
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            yield p, e
        p += 1 if p == 2 else 2
    if v > 1:
        yield v, 1


def divisor_count(v: int) -> int:
    """Exact number of divisors, prod(e + 1) over the prime factorization."""
    return prod(e + 1 for _, e in _factorize(v))


def divisors(v: int) -> List[int]:
    """All divisors of v, ascending, built from its prime factorization."""
    ds = [1]
    for p, e in _factorize(v):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


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
    widths = (Fraction(w) for w in range(1, ctx.i + 1) for _ in range(ctx.d))
    return TileSet([Tile(k, w, ctx.L) for k, w in enumerate(widths, 1)])


def _partition_widths(counts: List[int], i: int, target: int) -> Optional[List[List[int]]]:
    """Split the width multiset {w: counts[w]} into groups each summing to
    `target`.  Depth-first backtracking: fill one group at a time, each
    group's widths non-increasing, the widest available tile tried first.
    The search keeps its own stack of choices, one entry per tile, so its
    depth is not bounded by the interpreter's recursion limit."""
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


def _check_cap(i: int, d: int, what: str) -> None:
    cap = CENSUS_PLACEMENT_CAP
    if i * d > cap:
        raise UnsupportedInstance(f"{what}: {i * d:,} tiles, over the census cap of {cap:,}")


def _width_rows(i: int, d: int, F: int) -> Optional[Tuple[int, List[List[int]]]]:
    """(c, rows): rows of width F packing c copies of the widths 1..i, with
    c dividing d, so the rows repeated d/c times pack all d copies.  c is
    first the fewest copies whose width-sum F divides, F / gcd(F, m), and
    then d itself, so None means no packing of the d copies exists."""
    for c in dict.fromkeys((F // gcd(F, triangular(i)), d)):
        if c == d:
            _check_cap(i, d, f"searching width {F}")
        rows = _partition_widths([0] + [c] * i, i, F)
        if rows is not None:
            return c, rows
    return None


def hcn_layout_census(ctx: HcnContext) -> Dict[int, Optional[Fraction]]:
    """Every divisor width F of h, ascending: F -> strip height (h/F)*L, or
    None when the tile family packs no strip of width F.  F is feasible when
    F/p is, for a prime p (lay p rows of width F/p side by side); else
    infeasible when F < i (the width-i tile overhangs); else as _width_rows
    decides.  No tile is placed; construct_width_layout draws one width."""
    primes = [p for p, _ in _factorize(ctx.h)]
    heights: Dict[int, Optional[Fraction]] = {}
    for F in divisors(ctx.h):
        feasible = any(F % p == 0 and heights[F // p] for p in primes) or (
            F >= ctx.i and _width_rows(ctx.i, ctx.d, F) is not None
        )
        heights[F] = Fraction(ctx.h, F) * ctx.L if feasible else None
    return heights


def construct_width_layout(ctx: HcnContext, F: int) -> Optional[Layout]:
    """A packing of the full tile family into an F x (h/F)*L rectangle, or
    None when width F is infeasible.  F must divide h; each row is one group
    of _width_rows.  Raises UnsupportedInstance, before any tile is placed,
    when the family has more than CENSUS_PLACEMENT_CAP tiles."""
    if ctx.h % F != 0:
        raise ValueError(f"width {F} does not divide h = {ctx.h}")
    _check_cap(ctx.i, ctx.d, f"drawing width {F}")
    found = _width_rows(ctx.i, ctx.d, F)
    if found is None:
        return None
    copies, groups = found

    # Tile ids of width w run (w-1)*d + 1 .. w*d; hand them out in order.
    next_id = [(w - 1) * ctx.d + 1 for w in range(ctx.i + 1)]
    placements = []
    for row, group in enumerate(groups * (ctx.d // copies)):
        x = 0
        for w in sorted(group):
            placements.append(Placement(next_id[w], Fraction(x), row * ctx.L, False))
            next_id[w] += 1
            x += w
    return Layout(Fraction(F), Fraction(ctx.h, F) * ctx.L, tuple(placements))


def hcn_split_census(ctx: HcnContext) -> Dict[int, Fraction]:
    """Feasible widths after halving one width-1 tile: width -> strip height.
    Every base width stays (stack the halves where the tile stood).  When
    L = 2(h-1), width h-1 joins at height L + 2: the unsplit tiles side by
    side, and the two 1 x L/2 halves rotated on top as full-width rows."""
    out = {F: H for F, H in hcn_layout_census(ctx).items() if H is not None}
    if ctx.L == 2 * (ctx.h - 1):
        out.setdefault(ctx.h - 1, ctx.L + 2)
    return dict(sorted(out.items()))


def construct_split_layout(ctx: HcnContext, F: int) -> Tuple[TileSet, Layout]:
    """The split tile set (tile 1 cut at height L/2) and its packing of a
    feasible base width F: construct_width_layout with the new half,
    tile i*d + 1, stacked on tile 1."""
    layout = construct_width_layout(ctx, F)
    half = ctx.L / 2
    top = [Placement(ctx.i * ctx.d + 1, p.x, p.y + half, False)
           for p in layout.placements if p.tile_id == 1]
    return (split_extension(build_hcn_tileset(ctx), 1, "h", half),
            Layout(layout.target_width, layout.target_height, layout.placements + tuple(top)))
