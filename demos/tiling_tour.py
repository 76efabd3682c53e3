"""Tilings tour: equal-perimeter tile sets, layout counts, divisor records.

Run as a script; each section prints what it computes.
"""

from fractions import Fraction

from convexkit.tiling.hcn import (
    HcnContext,
    divisor_count,
    hcn_layout_census,
    hcn_split_census,
    hcn_up_to,
)
from convexkit.tiling.isoperimetric import search_isoperimetric
from convexkit.tiling.search import enumerate_layouts
from convexkit.tiling.tiles import parse_tileset, verify_layout

SEVEN = """\
10 19/2
16 7/2
6 27/2
31/2 4
11/2 14
37/2 1
5/2 17
"""


def section(title):
    print()
    print(f"== {title} ==")


section("seven tiles, one perimeter, seven areas")
ts = parse_tileset(SEVEN)
for t in ts:
    print(f"  tile {t.id}: {t.width} x {t.height}, perimeter {2 * (t.width + t.height)}, "
          f"area {t.width * t.height}")
for lay in enumerate_layouts(ts):
    ok = verify_layout(ts, lay) is None
    print(f"  tiles a {lay.target_width} x {lay.target_height} rectangle (verified: {ok})")

section("how many rectangle targets can n tiles reach?")
print("  four unit squares:")
for lay in enumerate_layouts(parse_tileset("1 1 4\n")):
    print(f"    {lay.target_width} x {lay.target_height}")
print("  two 4x1 plus two 2x1:")
for lay in enumerate_layouts(parse_tileset("4 1 2\n2 1 2\n")):
    print(f"    {lay.target_width} x {lay.target_height}")

section("divisor records and their tile censuses")
records = hcn_up_to(200)
print(f"  records up to 200: {records}")
ctx = HcnContext(60, 1, 1)
census = hcn_layout_census(ctx)
feasible = [w for w, lay in census.items() if lay is not None]
print(f"  60 unit tiles tile a width-F strip for every divisor F of 60: "
      f"{len(feasible)} widths (divisor count {divisor_count(60)})")

ctx = HcnContext(60, 5, 4)
census = hcn_layout_census(ctx)
feasible = [w for w, lay in census.items() if lay is not None]
print(f"  h=60, widths 1..5, height 4: {len(feasible)} of {divisor_count(60)} "
      f"divisor widths remain: {feasible}")

# halving one unit-width tile recovers a width when L = 2(h-1)
ctx = HcnContext(60, 5, Fraction(118))
split_census = hcn_split_census(ctx)
print(f"  after halving one 1 x 118 tile: widths {sorted(split_census)}")

section("equal semiperimeter, all areas distinct")
for n in (2, 3, 4):
    res = search_isoperimetric(n)
    print(f"  n={n}: {res.status} after {res.examined} floorplans")
res = search_isoperimetric(7, limit=1)
w = res.witnesses[0]
print(f"  n=7: witness on a {w.layout.target_width} x {w.layout.target_height} "
      f"rectangle, areas {[str(a) for a in w.areas]}")
