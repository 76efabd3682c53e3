"""Fair cuts tour: splitting a convex region so areas scale like a:b and
perimeters like sqrt(a):sqrt(b).

A straight cut can do it on a long rectangle but not on a disc; dropping
convexity of one piece, a boundary band reaches the scaled ratio on many
rectangles, and its exact feasible runs show where it cannot.
"""

import math

from convexkit.fairpart import (
    RatioTarget,
    disc_chord_analysis,
    find_scaled_fair_cut,
    nonconvex_band_partition,
    perimeter_ratio_profile,
    solve_band,
    split,
)
from convexkit.kernel.polygon import rectangle, regular_ngon

target = RatioTarget(1, 3)
print(f"target: areas {target}, perimeters sqrt(1/3) = {target.rho:.9f}")

print()
print("== 1 x 4 rectangle ==")
rect = rectangle(4, 1)
profile = perimeter_ratio_profile(rect, target)
rhos = [p.rho for p in profile]
print(f"perimeter ratio across directions: {min(rhos):.6f} .. {max(rhos):.6f}")
res = find_scaled_fair_cut(rect, target)
pieces = split(rect, res.cut)
print(f"found a cut at theta={res.cut.theta:.6f}: rho={res.rho:.12f}")
print(f"  areas      {pieces.area_a:.12f} : {pieces.area_b:.12f}"
      f"  (ratio {pieces.area_a / pieces.area_b:.12f})")
print(f"  perimeters {pieces.perimeter_a:.12f} : {pieces.perimeter_b:.12f}"
      f"  (ratio {pieces.perimeter_a / pieces.perimeter_b:.12f})")

print()
print("== disc (as a 4096-gon) ==")
disc = regular_ngon(4096)
# its order-4096 rotation symmetry leaves the sweep one period of events
res = find_scaled_fair_cut(disc, target, order=4096)
chord = disc_chord_analysis(target)
print(f"every direction gives the same rho (rotation symmetry): "
      f"{res.rho_min:.9f} .. {res.rho_max:.9f}")
print(f"chord solve: rho={chord['rho']:.9f} vs target {chord['target_rho']:.9f}; "
      f"achievable={chord['achievable']}, gap {chord['gap']:.4f}")
print("a straight cut cannot give the disc a scaled fair split at 1:3")

print()
print("== boundary band on the unit square ==")
# the band hugs the boundary, starting at the bottom-edge midpoint; s is
# the fraction of the outer boundary it covers
for s in (0.125, 0.25, 0.3, 0.45):
    e = nonconvex_band_partition(1.0, 1.0, target, s)
    if e.feasible:
        print(f"  s={s:5.3f}: rho={e.rho:.6f}, corners covered {e.corners_covered}, "
              f"small piece convex: {e.small_convex}")
    else:
        print(f"  s={s:5.3f}: infeasible ({e.reason})")
res = solve_band(1.0, 1.0, target)
print(f"solved in closed form: s*={res.sample.s:.12f} gives rho={res.sample.rho:.12f} "
      f"(target {math.sqrt(1 / 3):.12f})")

print()
print("== but not every ratio is reachable ==")
# the feasible runs are exact intervals of s, so the gap is a certificate;
# a run of one point is a band whose arc ends on a corner
res = solve_band(1.0, 1.0, RatioTarget(16, 25))
print("16:25 wants rho=0.8; the exact feasible runs on the square:")
for run in res.runs:
    print(f"  s in [{run.s_lo:.6f}, {run.s_hi:.6f}] -> "
          f"rho in [{run.rho_min:.6f}, {run.rho_max:.6f}]")
print(f"found: {res.found}")
