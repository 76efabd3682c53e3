"""Shape extremes tour: how long and how short can a convex region be,
once its area and perimeter are both fixed?

The longest shape is a two-arc lens.  The short end is open; we survey
the two families with the smallest known diameters.  Every shape is an
exact ArcPolygon (circular arcs and segments), so its area, perimeter and
widths are closed forms.
"""

import math
import random

from convexkit.extremal import (
    crossover_scan,
    interpolate_constant_width,
    lens_metrics,
    max_diameter_shape,
    min_diameter_survey,
    reuleaux_metrics,
)
from convexkit.kernel import ArcPolygon, ConvexPolygon, convex_hull, diameter

print("== the longest shape: a lens ==")
area, perimeter = 0.5, 4.0
lens = max_diameter_shape(area, perimeter)
m = lens_metrics(lens)
print(f"area {area}, perimeter {perimeter} -> lens with diameter {lens.diameter:.9f}")
print(f"  half-angle {lens.alpha:.6f}, check: area {m['area']:.12f}, "
      f"perimeter {m['perimeter']:.12f}")
shape = ArcPolygon.lens(lens.diameter, lens.alpha)
print(f"  as arcs: area {shape.area:.12f}, perimeter {shape.perimeter:.12f}, "
      f"diameter {shape.widths()[1]:.12f}")

# no random polygon with the same area and perimeter beats it
rng = random.Random(1)
worst = -math.inf
for _ in range(200):
    pts = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randint(3, 30))]
    hull = convex_hull(pts)
    if len(hull) < 3:
        continue
    try:
        poly = ConvexPolygon(hull)
    except ValueError:
        continue
    rival = max_diameter_shape(poly.area, poly.perimeter)
    worst = max(worst, diameter(poly) - rival.diameter)
print(f"  200 random polygons: none longer than its lens "
      f"(worst margin {worst:.3g})")

print()
print("== the short end: constant-width bodies ==")
m = reuleaux_metrics(1.0)
print(f"Reuleaux triangle, width 1: area {m['area']:.9f}, perimeter {m['perimeter']:.9f}")
for t in (0.0, 0.5, 1.0):
    body = interpolate_constant_width(t)
    w_min, w_max = body.widths()
    print(f"  interpolant t={t}: {len(body.pieces)} pieces, area {body.area:.12f}, "
          f"widths {w_min:.12f} .. {w_max:.12f}")
print("every member has diameter perimeter/pi; areas sweep Reuleaux .. disc")

print()
print("== below the Reuleaux area: sectors take over ==")
for a in (0.71, 0.65, 0.55, 0.40):
    rep, _ = min_diameter_survey(a)
    if not rep["feasible"]:
        print(f"  area {a}: infeasible ({rep['reason']})")
    elif rep["candidates"]:
        best = rep["best"]
        print(f"  area {a}: best {best['family']}, diameter {best['diameter']:.6f}")
    else:
        print(f"  area {a}: feasible, but {rep['reason']}")

print()
print("== where the sector family turns ==")
scan = crossover_scan(math.pi)
knee = scan["crossover"]
conj = scan["conjectured"]
print(f"recorded crossover guess: diameter {conj['diameter']}, area {conj['area']}")
print(f"recomputed knee at phi=pi/3: r={knee['radius']:.9f}, "
      f"area={knee['area']:.9f}, diameter={knee['diameter']:.9f}")
for s in scan["sectors_at_conjectured_area"]:
    print(f"sector hitting the recorded area: r={s['radius']:.6f}, "
          f"phi={s['phi']:.6f}, diameter={s['diameter']:.6f}")
