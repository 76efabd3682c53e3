"""Diameter extremizers at fixed area and perimeter.

Upper end: among convex regions with given area A and perimeter p, the
two-circular-arc lens maximizes the diameter; the solver inverts the lens
family's area/perimeter^2 ratio, which rises with the half-angle (the
test suite checks this on a fine grid).

Lower end: no closed-form minimizer is known.  We explore two families
with small diameter: constant-width bodies interpolating Reuleaux triangle
to disc (all of diameter p/pi), and circular sectors, which extend below
the constant-width area floor at the cost of a growing diameter.  Every
shape is an exact `ArcPolygon`; nothing here is sampled.  Lengths and areas
must be positive and finite: NaN and infinity raise ValueError.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from . import Frozen
from .kernel.arcs import ArcPolygon
from .kernel.roots import bisect_root, segment_over_cube

REULEAUX_AREA_COEFF = 0.5 * (math.pi - math.sqrt(3.0))
DEFAULT_WIDTH = 1.0
DEFAULT_PERIMETER = math.pi * DEFAULT_WIDTH  # the perimeter of every body of that constant width
DISC_BOUND_REASON = "area exceeds the disc bound p^2 / 4 pi"  # the isoperimetric inequality


class Lens(Frozen):
    """Intersection of two equal discs.  diameter d is the corner-to-corner
    chord; alpha in (0, pi/2] is the half-angle of each arc, pi/2 the disc."""

    __slots__ = ("diameter", "alpha")

    def __post_init__(self):
        if not 0 < self.diameter < math.inf:
            raise ValueError("lens diameter must be positive and finite")
        if not (0.0 < self.alpha <= math.pi / 2 + 1e-12):
            raise ValueError("lens half-angle must lie in (0, pi/2]")

    @property
    def arc_radius(self) -> float:
        return self.diameter / (2.0 * math.sin(self.alpha))


def _check_lengths(**values: float) -> None:
    for name, v in values.items():
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite, got {v}")


def lens_metrics(lens: Lens) -> dict:
    r, a = lens.arc_radius, lens.alpha
    return {
        "area": 2.0 * (r * a) ** 2 * a * segment_over_cube(a),
        "perimeter": 4.0 * a * r,
        "diameter": lens.diameter,
    }


def _lens_ratio(alpha: float) -> float:
    """area / perimeter^2 of the lens with half-angle alpha; scale-free."""
    return alpha * segment_over_cube(alpha) / 8.0


def max_diameter_shape(area: float, perimeter: float) -> Optional[Lens]:
    """The lens with the given area and perimeter, or None when no convex
    shape fits (area above the disc bound p^2/4pi).  At the bound the disc
    itself comes back, as the alpha = pi/2 lens."""
    _check_lengths(area=area, perimeter=perimeter)
    u = area / (perimeter * perimeter)
    u_disc = 1.0 / (4.0 * math.pi)
    if u > u_disc * (1.0 + 1e-12):
        return None
    if u >= u_disc:
        alpha = math.pi / 2
    else:
        # the ratio is alpha/8 times 4/pi^2 to 2/3, so 12 u <= alpha <= 20 u
        hi = min(20.0 * u, math.pi / 2)
        alpha = bisect_root(lambda a: _lens_ratio(a) - u, 12.0 * u, hi, xtol=1.2e-14 * u)
    if not math.isfinite(perimeter / alpha):  # the arc radius is p / (4 alpha)
        raise ValueError(f"area / perimeter^2 = {u:.3g} is too small: the lens's arc radius overflows")
    d = perimeter * math.sin(alpha) / (2.0 * alpha)
    return Lens(d, alpha)


def sector_metrics(radius: float, phi: float) -> dict:
    """Circular sector of radius r and opening angle phi in (0, pi].
    Perimeter counts the two radii; diameter is the radius up to phi = pi/3,
    the far chord beyond."""
    _check_lengths(radius=radius)
    if not (0.0 < phi <= math.pi + 1e-12):
        raise ValueError("sector angle must lie in (0, pi]")
    return {
        "area": 0.5 * radius * radius * phi,
        "perimeter": radius * (2.0 + phi),
        "diameter": max(radius, 2.0 * radius * math.sin(phi / 2.0)),
    }


def solve_sector(area: float, perimeter: float) -> List[Tuple[float, float]]:
    """All sectors (r, phi), phi in (0, pi], with the given area and
    perimeter.  u = A/p^2 = phi / (2 (2+phi)^2) rises to 1/16 at phi = 2
    then falls, so phi solves the quadratic 2u phi^2 + (8u-1) phi + 8u = 0
    with discriminant 1 - 16u.  Its roots phi- <= 2 <= phi+ (product 4)
    come from the cancellation-free forms below; zero, one, or two of them
    lie in (0, pi].  A discriminant within rounding of 0 is the peak
    itself, answered by the single root phi = 2."""
    _check_lengths(area=area, perimeter=perimeter)
    u = area / (perimeter * perimeter)
    disc = 1.0 - 16.0 * u
    if disc < -1e-14:
        return []
    if abs(disc) <= 1e-14:
        phis = [2.0]
    else:
        q = (1.0 - 8.0 * u) + math.sqrt(disc)
        phis = [16.0 * u / q, q / (4.0 * u)]
    return [(perimeter / (2.0 + phi), phi) for phi in phis if 0.0 < phi <= math.pi]


def interpolate_constant_width(t: float, width: float = DEFAULT_WIDTH) -> ArcPolygon:
    """Minkowski interpolation (1-t) Reuleaux + t disc: six arcs, every
    member of constant width `width`, hence perimeter pi * width."""
    if not (0.0 <= t <= 1.0):
        raise ValueError("interpolation parameter must lie in [0, 1]")
    _check_lengths(width=width)
    return ArcPolygon.reuleaux(width).combine(ArcPolygon.disc(width), t)


def constant_width_range(width: float) -> Tuple[float, float]:
    """(A_R, A_D): the areas of the Reuleaux triangle and of the disc of
    width w, which bound every body of constant width w (Blaschke-Lebesgue)."""
    return REULEAUX_AREA_COEFF * width * width, 0.25 * math.pi * width * width


def _constant_width_areas(area: float, width: float) -> Tuple[float, float, bool]:
    """A_R and A_D, and whether the area lies in the constant-width range,
    up to 1e-12 of each end at every scale."""
    lo_a, hi_a = constant_width_range(width)
    return lo_a, hi_a, lo_a * (1.0 - 1e-12) <= area <= hi_a * (1.0 + 1e-12)


def interpolant_with_area(area: float, width: float = DEFAULT_WIDTH) -> Tuple[float, ArcPolygon]:
    """The interpolation parameter whose body has the given area, and that
    body.  The mixed area of a body with a disc of radius r is r p / 2, which
    for the Reuleaux triangle of width w and the disc of diameter w is the
    disc's own area; so the area is A_D - (1-t)^2 (A_D - A_R), solved for t
    in closed form (clamped to [0, 1])."""
    _check_lengths(area=area, width=width)
    lo_a, hi_a, inside = _constant_width_areas(area, width)
    if not inside:
        raise ValueError(
            f"area {area:.6g} outside the constant-width range [{lo_a:.6g}, {hi_a:.6g}]"
        )
    t = min(max(1.0 - math.sqrt(max(hi_a - area, 0.0) / (hi_a - lo_a)), 0.0), 1.0)
    return t, interpolate_constant_width(t, width)


def min_diameter_survey(
    area: float, perimeter: float = DEFAULT_PERIMETER
) -> Tuple[dict, List[ArcPolygon]]:
    """Survey the known small-diameter families at the given area and
    perimeter.  Constant-width bodies cover areas between the Reuleaux and
    disc values (diameter exactly perimeter/pi); sectors reach lower areas
    with larger diameters.  Areas above the disc bound are infeasible.

    Returns (report, bodies), with one exact body per candidate, in
    candidate order, for callers that draw them.  The constant-width
    candidate's diameter is w = perimeter/pi exactly; its area and
    perimeter are its body's."""
    _check_lengths(area=area, perimeter=perimeter)
    w = perimeter / math.pi
    reuleaux_area, disc_area, constant_width = _constant_width_areas(area, w)
    report: dict = {
        "area": area,
        "perimeter": perimeter,
        "width": w,
        "disc_area": disc_area,
        "reuleaux_area": reuleaux_area,
        "feasible": area <= disc_area * (1.0 + 1e-12),
        "candidates": [],
    }
    bodies: List[ArcPolygon] = []
    if not report["feasible"]:
        report["reason"] = DISC_BOUND_REASON
        return report, bodies

    if constant_width:
        t, body = interpolant_with_area(min(area, disc_area), w)
        report["candidates"].append(
            {
                "family": "constant-width",
                "diameter": w,
                "t": t,
                "area": body.area,
                "perimeter": body.perimeter,
            }
        )
        bodies.append(body)
    for r, phi in solve_sector(area, perimeter):
        m = sector_metrics(r, phi)
        report["candidates"].append(
            {
                "family": "sector",
                "diameter": m["diameter"],
                "radius": r,
                "phi": phi,
                "area": m["area"],
                "perimeter": m["perimeter"],
            }
        )
        bodies.append(ArcPolygon.sector(r, phi))
    if report["candidates"]:
        best = min(report["candidates"], key=lambda c: c["diameter"])
        report["best"] = best
    else:
        report["reason"] = "no surveyed family reaches this area"
    return report, bodies


# Conjectured crossover between the constant-width and sector regimes,
# recorded from prior experiments at perimeter pi: the sector with angle
# pi/3 and these approximate metrics.
CONJECTURED_CROSSOVER = {"diameter": 1.045, "area": 0.57, "phi": math.pi / 3}


def crossover_scan(perimeter: float = DEFAULT_PERIMETER) -> dict:
    """Reconciliation of the conjectured sector crossover against exact
    sector algebra.  The sector family's diameter is minimized exactly at
    phi = pi/3 (radius equals far chord there); the scan reports that knee,
    the recorded conjecture scaled to this perimeter, and the sectors that
    actually meet the conjectured area."""
    _check_lengths(perimeter=perimeter)
    scale = perimeter / math.pi

    knee_phi = math.pi / 3
    knee_r = perimeter / (2.0 + knee_phi)
    knee = sector_metrics(knee_r, knee_phi)

    conj = {
        "diameter": CONJECTURED_CROSSOVER["diameter"] * scale,
        "area": CONJECTURED_CROSSOVER["area"] * scale * scale,
        "phi": CONJECTURED_CROSSOVER["phi"],
    }
    at_conj_area = [
        {"radius": r, "phi": phi, **sector_metrics(r, phi)}
        for r, phi in solve_sector(conj["area"], perimeter)
    ]

    w = perimeter / math.pi
    return {
        "perimeter": perimeter,
        "constant_width_diameter": w,
        "constant_width_area_range": constant_width_range(w),
        "sector_min_diameter": knee["diameter"],
        "crossover": {
            "radius": knee_r,
            "phi": knee_phi,
            "area": knee["area"],
            "diameter": knee["diameter"],
        },
        "conjectured": conj,
        "sectors_at_conjectured_area": at_conj_area,
    }
