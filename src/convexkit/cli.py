"""Command-line entry point.

One subcommand family per problem area: `tiling` (rectangle layouts,
floorplans, divisor-record censuses), `fairpart` (scaled fair cuts of
convex regions), `shapes` (diameter extremizers), `poly` (face-multiset
polyhedra).  Every run writes report.json into --out; --svg and --obj add
drawings and meshes.  All numbers in reports are serialized as strings
(rationals as p/q, floats with 17 significant digits) so identical runs
produce byte-identical files.

Exit codes: 0 success; 1 the computed answer is "infeasible / not found",
or the requested solid does not exist (`NoSuchSolid`, with a "rejected"
report); 2 a flag argparse rejects, or any other `ValueError` or `OSError`
(a bad input file, a value the library rejects, an instance beyond a
program limit), printed as `error: ...` on stderr with no report written.
--expect-infeasible swaps 0 and 1 for scripted conjecture checks and
leaves 2 alone.  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .extremal import (
    crossover_scan,
    interpolate_constant_width,
    lens_metrics,
    max_diameter_shape,
    min_diameter_survey,
    reuleaux_metrics,
)
from .fairpart import (
    disc_chord_analysis,
    find_scaled_fair_cut,
    parse_ratio,
    perimeter_ratio_profile,
    solve_band,
    split,
)
from .kernel import (
    ArcPolygon, ConvexPolygon, SupportBody, rectangle, regular_ngon, support_body_metrics
)
from .kernel.rational import format_rational, parse_rational
from .polyhedra import (
    Mesh,
    NoSuchSolid,
    build_cube_with_pyramids,
    build_decagonal_dipyramidal_antiprism,
    build_icosagonal_dipyramid,
    build_pseudorhombicuboctahedron,
    build_rhombicuboctahedron,
    compare_report,
    mesh_summary,
    mesh_to_obj,
)
from .tiling import (
    UnsupportedInstance,
    build_hcn_tileset,
    construct_width_layout,
    enumerate_layouts,
    hcn_context,
    hcn_layout_census,
    hcn_split_census,
    hcn_up_to,
    layout_to_dict,
    load_layout,
    load_tileset,
    search_isoperimetric,
    serialize_tileset,
    verify_layout,
)
from .tiling.hcn import construct_split_layout, divisor_count

PX_PER_UNIT = 20.0

PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
]


# ---------------------------------------------------------------- reports


def jsonable(x):
    if isinstance(x, bool):
        return x
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


def render_report(report: dict) -> str:
    return json.dumps(jsonable(report), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------- drawing


def _fmt(v: float) -> str:
    return format(round(v, 4), "g")


def svg_document(width_px: float, height_px: float, body: List[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width_px)}" '
        f'height="{_fmt(height_px)}" viewBox="0 0 {_fmt(width_px)} {_fmt(height_px)}">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def _framed(x_lo: float, y_lo: float, x_hi: float, y_hi: float, pad_share: float):
    """The page of a drawing: the bounding box widened by pad_share of its
    larger side, as (page width, page height, map from plane point to the
    "x,y" of its pixel, y pointing down)."""
    pad = pad_share * max(x_hi - x_lo, y_hi - y_lo)
    x0, y1 = x_lo - pad, y_hi + pad

    def px(x: float, y: float) -> str:
        return f"{_fmt((x - x0) * PX_PER_UNIT)},{_fmt((y1 - y) * PX_PER_UNIT)}"

    return (x_hi - x0 + pad) * PX_PER_UNIT, (y1 - y_lo + pad) * PX_PER_UNIT, px


def svg_polygons(rings: List[List[Tuple[float, float]]]) -> str:
    """Each ring as a filled SVG polygon, in palette order."""
    xs = [p[0] for ring in rings for p in ring]
    ys = [p[1] for ring in rings for p in ring]
    W, H, px = _framed(min(xs), min(ys), max(xs), max(ys), 0.0)
    body = [
        f'<polygon points="{" ".join(px(x, y) for x, y in ring)}" fill="{PALETTE[i % len(PALETTE)]}" '
        'fill-opacity="0.6" stroke="#333333" stroke-width="1"/>'
        for i, ring in enumerate(rings)
    ]
    return svg_document(W, H, body)


def svg_outlines(shapes: List[ArcPolygon]) -> str:
    """Each shape's exact outline as an SVG path of segments and arcs, in
    palette order.  The page flips y, so a counterclockwise arc is drawn
    with sweep flag 0."""
    x_lo, y_lo, x_hi, y_hi = zip(*(s.bounds() for s in shapes))
    W, H, px = _framed(min(x_lo), min(y_lo), max(x_hi), max(y_hi), 0.05)
    body = []
    for i, shape in enumerate(shapes):
        start, steps = shape.outline()
        d = [f"M {px(*start)}"] + [
            f"A {_fmt(r * PX_PER_UNIT)},{_fmt(r * PX_PER_UNIT)} 0 0 0 {px(x, y)}" if r
            else f"L {px(x, y)}"
            for x, y, r in steps
        ]
        body.append(f'<path d="{" ".join(d)} Z" fill="none" stroke="{PALETTE[i % len(PALETTE)]}" '
                    'stroke-width="1.5"/>')
    return svg_document(W, H, body)


# ---------------------------------------------------------------- parsing


def parse_shape(spec: str) -> ConvexPolygon:
    """rect:WxH (exact sides) or ngon:N (regular N-gon, circumradius 1)."""
    kind, _, rest = spec.partition(":")
    if kind == "rect":
        return rectangle(*parse_rect(spec))
    if kind == "ngon":
        try:
            n = int(rest)
        except ValueError:
            raise ValueError(f"--shape {spec!r}: N in ngon:N must be an integer") from None
        return regular_ngon(n)
    raise ValueError(f"--shape {spec!r}: unknown shape; use rect:WxH or ngon:N")


def parse_rect(spec: str) -> Tuple[Fraction, Fraction]:
    kind, _, rest = spec.partition(":")
    if kind != "rect":
        raise ValueError("this command needs a rectangle shape rect:WxH")
    w_s, _, h_s = rest.partition("x")
    return parse_rational(w_s), parse_rational(h_s)


def positive_float(text: str) -> float:
    """argparse type for a float flag that may reach no library call."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def angle_samples(text: str) -> int:
    """argparse type for an angle-grid size that may reach no library call."""
    value = int(text)
    if value < 4:
        raise argparse.ArgumentTypeError(f"must be at least 4, got {text}")
    return value


# ---------------------------------------------------------------- handlers

Handler = Tuple[bool, dict, Dict[str, str], List[str]]


def cmd_tiling_verify(args) -> Handler:
    ts = load_tileset(args.tiles)
    layout = load_layout(args.layout)
    defect = verify_layout(ts, layout)
    report = {
        "command": "tiling verify",
        "tiles": args.tiles,
        "layout": args.layout,
        "target": [layout.target_width, layout.target_height],
        "valid": defect is None,
    }
    lines = []
    if defect is None:
        lines.append(
            f"valid: {len(layout.placements)} tiles fill "
            f"{layout.target_width} x {layout.target_height}"
        )
    else:
        report["defect"] = {"kind": defect.kind, "detail": defect.detail}
        lines.append(f"invalid ({defect.kind}): {defect.detail}")
    files = {}
    if args.svg:
        files["layout.svg"] = _layout_svg(ts, layout)
    return defect is None, report, files, lines


def _layout_svg(ts, layout) -> str:
    W = float(layout.target_width) * PX_PER_UNIT
    H_units = float(layout.target_height)
    body = []
    for idx, pl in enumerate(layout.placements):
        tile = ts.by_id(pl.tile_id)
        w, h = (tile.height, tile.width) if pl.rotated else (tile.width, tile.height)
        x = float(pl.x) * PX_PER_UNIT
        y = (H_units - float(pl.y) - float(h)) * PX_PER_UNIT
        body.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(float(w) * PX_PER_UNIT)}" '
            f'height="{_fmt(float(h) * PX_PER_UNIT)}" '
            f'fill="{PALETTE[idx % len(PALETTE)]}" stroke="#333333" stroke-width="1"/>'
        )
    return svg_document(W, H_units * PX_PER_UNIT, body)


def cmd_tiling_enumerate(args) -> Handler:
    ts = load_tileset(args.tiles)
    results = enumerate_layouts(ts, allow_rotation=not args.no_rotation, cap=args.cap)
    report = {
        "command": "tiling enumerate",
        "tiles": args.tiles,
        "allow_rotation": not args.no_rotation,
        "count": len(results),
        "layouts": [
            {
                "width": r.width,
                "height": r.height,
                "placements": layout_to_dict(r.layout)["placements"],
            }
            for r in results
        ],
    }
    lines = [f"{len(results)} layout(s): " + ", ".join(f"{r.width} x {r.height}" for r in results)]
    files = {}
    if args.svg:
        for i, r in enumerate(results):
            files[f"layout-{i}.svg"] = _layout_svg(ts, r.layout)
    return len(results) > 0, report, files, lines


def cmd_tiling_search_iso(args) -> Handler:
    res = search_isoperimetric(args.n, limit=args.limit)
    report = {
        "command": "tiling search-iso",
        "n": res.n,
        "status": res.status,
        "examined_floorplans": res.examined,
        "forced_equal_pairs": len(res.forced),
        "residual_floorplans": len(res.residual),
        "witnesses": [
            {
                "floorplan_code": [list(move) for move in w.floorplan.code],
                "target": [w.layout.target_width, w.layout.target_height],
                "areas": list(w.areas),
                "tiles": serialize_tileset(w.tileset),
                "layout": layout_to_dict(w.layout),
            }
            for w in res.witnesses
        ],
    }
    lines = [
        f"n={res.n}: {res.status} ({res.examined} floorplans, "
        f"{len(res.witnesses)} witness(es), {len(res.forced)} forced-equal, "
        f"{len(res.residual)} residual, {res.infeasible} infeasible, "
        f"{res.certified_empty} certified empty)"
    ]
    files = {}
    if args.svg and res.witnesses:
        files["layout.svg"] = _layout_svg(res.witnesses[0].tileset, res.witnesses[0].layout)
    return bool(res.witnesses), report, files, lines


def cmd_tiling_hcn(args) -> Handler:
    census_flags = (args.h, args.i, args.length)
    if args.limit is not None:
        if census_flags != (None, None, None):
            raise ValueError("hcn takes either --limit or --h --i --length, not both")
        records = hcn_up_to(args.limit)
        report = {
            "command": "tiling hcn",
            "limit": args.limit,
            "count": len(records),
            "records": [{"n": n, "divisors": divisor_count(n)} for n in records],
        }
        return True, report, {}, [f"{len(records)} divisor records up to {args.limit}"]
    if None in census_flags:
        raise ValueError("hcn needs either --limit or all of --h --i --length")
    ctx = hcn_context(args.h, args.i, parse_rational(args.length))
    census = hcn_layout_census(ctx)
    feasible = [w for w, height in census.items() if height is not None]
    report = {
        "command": "tiling hcn",
        "h": ctx.h,
        "m": ctx.m,
        "i": ctx.i,
        "d": ctx.d,
        "length": ctx.L,
        "tile_count": ctx.i * ctx.d,
        "feasible_widths": feasible,
        "infeasible_widths": [w for w, height in census.items() if height is None],
        "count": len(feasible),
        "targets": {str(w): [Fraction(w), census[w]] for w in feasible},
    }
    lines = [f"h={ctx.h} i={ctx.i} L={ctx.L}: {len(feasible)} layout widths {feasible}"]
    files = {}
    if args.svg and feasible:
        layout = construct_width_layout(ctx, feasible[0])
        files["layout.svg"] = _layout_svg(build_hcn_tileset(ctx), layout)
    return len(feasible) > 0, report, files, lines


def cmd_tiling_split(args) -> Handler:
    ctx = hcn_context(args.h, args.i, parse_rational(args.length))
    census = hcn_split_census(ctx)
    widths = list(census)
    report = {
        "command": "tiling split",
        "h": ctx.h,
        "i": ctx.i,
        "length": ctx.L,
        "tile_count": ctx.i * ctx.d + 1,
        "feasible_widths": widths,
        "count": len(widths),
        "targets": {str(w): [Fraction(w), height] for w, height in census.items()},
    }
    lines = [f"after split: {len(widths)} layout widths {widths}"]
    files = {}
    if args.svg and widths:
        # h/2 is always feasible, so widths[0] is a base width, never h-1
        files["layout.svg"] = _layout_svg(*construct_split_layout(ctx, widths[0]))
    return len(widths) > 0, report, files, lines


def cmd_fairpart_profile(args) -> Handler:
    poly = parse_shape(args.shape)
    target = parse_ratio(args.ratio)
    profile = perimeter_ratio_profile(poly, target, samples=args.samples)
    rhos = [p.rho for p in profile]
    i_min = min(range(len(rhos)), key=rhos.__getitem__)
    i_max = max(range(len(rhos)), key=rhos.__getitem__)
    report = {
        "command": "fairpart profile",
        "shape": args.shape,
        "ratio": str(target),
        "target_rho": target.rho,
        "samples": args.samples,
        "rho_min": rhos[i_min],
        "theta_at_min": profile[i_min].theta,
        "rho_max": rhos[i_max],
        "theta_at_max": profile[i_max].theta,
        "rho_at_theta0": rhos[0],
    }
    lines = [
        f"rho over {args.samples} directions: [{rhos[i_min]:.9f}, {rhos[i_max]:.9f}], "
        f"target {target.rho:.9f}"
    ]
    return True, report, {}, lines


def cmd_fairpart_solve(args) -> Handler:
    poly = parse_shape(args.shape)
    target = parse_ratio(args.ratio)
    res = find_scaled_fair_cut(poly, target, tol=args.tol, samples=args.samples)
    report = {
        "command": "fairpart solve",
        "shape": args.shape,
        "ratio": str(target),
        "target_rho": target.rho,
        "found": res.found,
        "rho_min": res.rho_min,
        "rho_max": res.rho_max,
    }
    files = {}
    lines = []
    if res.found:
        report["cut"] = {"theta": res.cut.theta, "offset": res.cut.offset}
        report["rho"] = res.rho
        pieces = split(poly, res.cut)
        report["piece_areas"] = [pieces.area_a, pieces.area_b]
        report["piece_perimeters"] = [pieces.perimeter_a, pieces.perimeter_b]
        lines.append(
            f"cut at theta={res.cut.theta:.9f}, offset={res.cut.offset:.9f}: "
            f"rho={res.rho:.12f} (target {target.rho:.12f})"
        )
        if args.svg:
            files["pieces.svg"] = svg_polygons(
                [list(pieces.piece_a.vertices), list(pieces.piece_b.vertices)]
            )
    else:
        lines.append(
            f"no cut found on the {args.samples}-angle grid for rho={target.rho:.9f}; "
            f"sampled rho range [{res.rho_min:.9f}, {res.rho_max:.9f}]"
        )
    return res.found, report, files, lines


def cmd_fairpart_disc(args) -> Handler:
    target = parse_ratio(args.ratio)
    chord = disc_chord_analysis(target)
    report = {
        "command": "fairpart disc",
        "ratio": str(target),
        "chord_solve": chord,
    }
    lines = [
        f"disc chord cut at area fraction {target.fraction}: rho={chord['rho']:.9f}, "
        f"target {chord['target_rho']:.9f}, achievable={chord['achievable']}"
    ]
    ok = bool(chord["achievable"])
    if args.ngon:
        poly = regular_ngon(args.ngon)
        res = find_scaled_fair_cut(poly, target, tol=args.tol, samples=args.samples)
        report["ngon"] = {
            "n": args.ngon,
            "found": res.found,
            "rho_min": res.rho_min,
            "rho_max": res.rho_max,
            "agreement_with_chord": abs(res.rho_min - chord["rho"]),
        }
        lines.append(
            f"{args.ngon}-gon check: found={res.found}, "
            f"rho range [{res.rho_min:.9f}, {res.rho_max:.9f}]"
        )
        ok = ok and res.found
    return ok, report, {}, lines


def cmd_fairpart_band(args) -> Handler:
    w, h = parse_rect(args.shape)
    target = parse_ratio(args.ratio)
    res = solve_band(float(w), float(h), target, tol=args.tol)
    report = {
        "command": "fairpart band",
        "shape": args.shape,
        "ratio": str(target),
        "target_rho": res.target_rho,
        "found": res.found,
        "feasible_runs": [
            {
                "s": [run.s_lo, run.s_hi],
                "rho_endpoints": [run.rho_lo, run.rho_hi],
                "rho_range": [run.rho_min, run.rho_max],
            }
            for run in res.runs
        ],
        "infeasible_reasons": list(res.infeasible_reasons),
    }
    files = {}
    lines = []
    if res.found:
        s = res.sample
        report["solution"] = {
            "s": s.s,
            "rho": s.rho,
            "thickness": s.thickness,
            "arm": s.arm,
            "small_piece_convex": s.small_convex,
            "areas": [s.area_small, s.area_big],
            "perimeters": [s.perimeter_small, s.perimeter_big],
        }
        lines.append(
            f"band at s={s.s:.9f}: rho={s.rho:.9f}, small piece "
            f"{'convex' if s.small_convex else 'non-convex'}"
        )
        if args.svg and s.piece_small and s.piece_big:
            files["pieces.svg"] = svg_polygons([list(s.piece_small), list(s.piece_big)])
    else:
        lines.append(
            f"no band reaches rho={res.target_rho:.9f}; its exact runs reach "
            + ", ".join(f"[{r.rho_min:.6f}, {r.rho_max:.6f}]" for r in res.runs)
        )
    return res.found, report, files, lines


def cmd_shapes_maxdiam(args) -> Handler:
    lens = max_diameter_shape(args.area, args.perimeter)
    report = {
        "command": "shapes maxdiam",
        "area": args.area,
        "perimeter": args.perimeter,
        "feasible": lens is not None,
    }
    files = {}
    lines = []
    if lens is None:
        report["reason"] = "area exceeds the disc bound p^2 / 4 pi"
        lines.append("infeasible: no convex shape has this area at this perimeter")
        return False, report, files, lines
    m = lens_metrics(lens)
    report["lens"] = {
        "diameter": lens.diameter,
        "half_angle": lens.alpha,
        "arc_radius": lens.arc_radius,
        "area": m["area"],
        "perimeter": m["perimeter"],
    }
    lines.append(
        f"lens: diameter={lens.diameter:.9f}, half-angle={lens.alpha:.9f}, "
        f"arc radius={lens.arc_radius:.9f}"
    )
    if args.svg:
        files["outline.svg"] = svg_outlines([ArcPolygon.lens(lens.diameter, lens.alpha)])
    return True, report, files, lines


def cmd_shapes_mindiam(args) -> Handler:
    report, cw_body = min_diameter_survey(args.area, args.perimeter)
    report = {"command": "shapes mindiam", **report}
    lines = []
    files = {}
    if not report["feasible"]:
        lines.append(f"infeasible: {report['reason']}")
        return False, report, files, lines
    if "best" in report:
        best = report["best"]
        lines.append(
            f"best of surveyed families: {best['family']} with diameter {best['diameter']:.9f}"
        )
        if args.svg:
            files["outline.svg"] = svg_outlines([
                ArcPolygon.sector(c["radius"], c["phi"]) if c["family"] == "sector" else cw_body
                for c in report["candidates"]
            ])
    else:
        lines.append(f"no candidate: {report['reason']}")
    return bool(report["candidates"]), report, files, lines


# the cross-check body takes time and memory linear in its samples
MAX_CROSSCHECK_SAMPLES = 100_000


def cmd_shapes_interp(args) -> Handler:
    body = interpolate_constant_width(args.t, args.width)
    min_width, diameter = body.widths()
    report = {
        "command": "shapes interp",
        "t": args.t,
        "width": args.width,
        "area": body.area,
        "perimeter": body.perimeter,
        "mean_width": body.perimeter / math.pi,
        "diameter": diameter,
        "width_spread": diameter - min_width,
        "reuleaux_area": reuleaux_metrics(args.width)["area"],
        "disc_area": 0.25 * math.pi * args.width * args.width,
    }
    lines = [
        f"t={args.t}: area={body.area:.9f}, perimeter={body.perimeter:.9f}, "
        f"width spread={report['width_spread']:.3g}"
    ]
    if args.samples is not None:
        # a cross-check of the exact values, never the answer
        if args.samples > MAX_CROSSCHECK_SAMPLES:
            raise UnsupportedInstance(f"--samples {args.samples} exceeds the cross-check cap "
                                      f"of {MAX_CROSSCHECK_SAMPLES} samples")
        sampled = SupportBody.from_function(body.support, args.samples)
        m, widths = support_body_metrics(sampled), sampled.widths()
        report["sampled"] = {
            "samples": args.samples,
            "area": m["area"],
            "perimeter": m["perimeter"],
            "width_spread": max(widths) - min(widths),
        }
        lines.append(f"{args.samples}-sample cross-check: area={m['area']:.9f}, "
                     f"perimeter={m['perimeter']:.9f}")
    files = {}
    if args.svg:
        files["outline.svg"] = svg_outlines([body])
    return True, report, files, lines


def cmd_shapes_crossover(args) -> Handler:
    scan = crossover_scan(args.perimeter)
    report = {"command": "shapes crossover", **scan}
    c = scan["crossover"]
    conj = scan["conjectured"]
    lines = [
        f"conjectured crossover: diameter {conj['diameter']:.9f}, area {conj['area']:.9f}",
        f"recomputed sector knee (phi=pi/3): r={c['radius']:.9f}, area={c['area']:.9f}, "
        f"diameter={c['diameter']:.9f}",
    ]
    for s in scan["sectors_at_conjectured_area"]:
        lines.append(
            f"sector at conjectured area: r={s['radius']:.9f}, phi={s['phi']:.9f}, "
            f"diameter={s['diameter']:.9f}"
        )
    return True, report, {}, lines


# The dimension flags and their values when not given.
SOLID_DIMS = {"a": 1.0, "h": 0.3, "s": 1.0, "l": 3.5}

# solid -> (the dimension flags it reads, its builder taking them in order).
# The lambdas look the builders up at call time, so a wrapped name is seen.
SOLID_BUILDERS = {
    "cube-pyr-opposite": ("ah", lambda a, h: build_cube_with_pyramids(a, h, "opposite")),
    "cube-pyr-adjacent": ("ah", lambda a, h: build_cube_with_pyramids(a, h, "adjacent")),
    "rco": ("", lambda: build_rhombicuboctahedron()),
    "pseudo-rco": ("", lambda: build_pseudorhombicuboctahedron()),
    "icosa-dipyramid": ("sl", lambda s, l: build_icosagonal_dipyramid(s, l)),
    "deca-antiprism": ("sl", lambda s, l: build_decagonal_dipyramidal_antiprism(s, l)),
}


def _build_solids(names: List[str], args) -> List[Mesh]:
    """The named solids, after rejecting an unknown name and any dimension
    flag that none of them reads."""
    for name in names:
        if name not in SOLID_BUILDERS:
            raise ValueError(f"unknown solid {name!r}; choose from {sorted(SOLID_BUILDERS)}")
    read = "".join(SOLID_BUILDERS[n][0] for n in names)
    for flag in SOLID_DIMS:
        if getattr(args, flag) is not None and flag not in read:
            raise ValueError(f"--{flag} is read by none of the solids {', '.join(names)}")
    dims = {f: SOLID_DIMS[f] if getattr(args, f) is None else getattr(args, f) for f in SOLID_DIMS}
    return [build(*(dims[f] for f in flags)) for flags, build in (SOLID_BUILDERS[n] for n in names)]


def cmd_poly_build(args) -> Handler:
    (mesh,) = _build_solids([args.solid], args)
    summary = mesh_summary(mesh)
    report = {"command": "poly build", "solid": args.solid, **summary}
    lines = [
        f"{args.solid}: V={mesh.num_vertices} E={mesh.num_edges} F={mesh.num_faces}, "
        f"volume={summary['volume']:.9f}, convex={summary['convex']}"
    ]
    files = {}
    if args.obj:
        files[f"{args.solid}.obj"] = mesh_to_obj(mesh)
    return True, report, files, lines


def cmd_poly_compare(args) -> Handler:
    names = [s.strip() for s in args.solids.split(",") if s.strip()]
    meshes = _build_solids(names, args)
    rep = compare_report(meshes, names)
    report = {"command": "poly compare", **rep}
    lines = []
    for e in rep["meshes"]:
        lines.append(
            f"{e['name']}: convex={e['convex']}, volume={e['volume']:.9f}, "
            f"faces {e['faces_by_side_count']}"
        )
    lines.append(f"face-multiset classes: {rep['multiset_classes']}")
    lines.append(f"congruence classes: {rep['congruence_classes']}")
    files = {}
    if args.obj:
        for n, m in zip(names, meshes):
            files[f"{n}.obj"] = mesh_to_obj(m)
    return True, report, files, lines


# ---------------------------------------------------------------- plumbing


def _add_common(p: argparse.ArgumentParser, svg: bool = False, obj: bool = False) -> None:
    """The flags every subcommand takes, plus --svg and --obj on the
    subcommands whose handler reads them."""
    p.add_argument("--out", default=".", help="directory for report.json and artifacts")
    if svg:
        p.add_argument("--svg", action="store_true", help="emit SVG drawings")
    if obj:
        p.add_argument("--obj", action="store_true", help="emit OBJ meshes")
    p.add_argument("--json", action="store_true", help="print the full JSON report")
    p.add_argument(
        "--expect-infeasible",
        action="store_true",
        help="invert the exit code: 0 when the answer is infeasible/not found",
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="convexkit",
        description="geometry exploration toolkit: tilings, fair cuts, extremal shapes, polyhedra",
    )
    sub = p.add_subparsers(dest="family", required=True)

    tiling = sub.add_parser("tiling", help="rectangle tilings and divisor-record censuses")
    tsub = tiling.add_subparsers(dest="cmd", required=True)

    tv = tsub.add_parser("verify", help="check a layout file against a tile file")
    tv.add_argument("--tiles", required=True)
    tv.add_argument("--layout", required=True)
    _add_common(tv, svg=True)

    te = tsub.add_parser("enumerate", help="find all rectangle targets tileable by the set")
    te.add_argument("--tiles", required=True)
    te.add_argument("--cap", type=int, default=24, help="max tiles accepted")
    te.add_argument("--no-rotation", action="store_true")
    _add_common(te, svg=True)

    ti = tsub.add_parser("search-iso", help="search unit-semiperimeter floorplans with distinct areas")
    ti.add_argument("--n", type=int, required=True)
    ti.add_argument("--limit", type=int, default=None, help="stop after this many witnesses")
    ti.add_argument("--seed", type=int, default=0, help="no effect; the search is deterministic")
    _add_common(ti, svg=True)

    th = tsub.add_parser("hcn", help="divisor records, or the layout census of a record-number tile set")
    th.add_argument("--limit", type=int, default=None, help="list divisor records up to this bound")
    th.add_argument("--h", type=int, default=None, help="record number of tiles per group")
    th.add_argument("--i", type=int, default=None, help="widths run 1..i")
    th.add_argument("--length", default=None, help="common tile length (rational)")
    _add_common(th, svg=True)

    tp = tsub.add_parser("split", help="layout census after halving one unit-width tile")
    tp.add_argument("--h", type=int, required=True)
    tp.add_argument("--i", type=int, required=True)
    tp.add_argument("--length", required=True)
    _add_common(tp, svg=True)

    fp = sub.add_parser("fairpart", help="scaled fair partitions by a straight cut")
    fsub = fp.add_subparsers(dest="cmd", required=True)

    fpr = fsub.add_parser("profile", help="perimeter ratio across all cut directions")
    fpr.add_argument("--shape", required=True)
    fpr.add_argument("--ratio", required=True)
    fpr.add_argument("--samples", type=int, default=720)
    _add_common(fpr)

    fso = fsub.add_parser("solve", help="find a cut with the prescribed perimeter ratio")
    fso.add_argument("--shape", required=True)
    fso.add_argument("--ratio", required=True)
    fso.add_argument("--tol", type=float, default=1e-9)
    fso.add_argument("--samples", type=int, default=720)
    _add_common(fso, svg=True)

    fdi = fsub.add_parser("disc", help="chord analysis of the disc, optionally cross-checked on an n-gon")
    fdi.add_argument("--ratio", required=True)
    fdi.add_argument("--ngon", type=int, default=0, help="polygon vertices for the cross-check (0 = skip)")
    fdi.add_argument("--tol", type=positive_float, default=1e-9)
    fdi.add_argument("--samples", type=angle_samples, default=720)
    _add_common(fdi)

    fba = fsub.add_parser("band", help="boundary-band partition of a rectangle")
    fba.add_argument("--shape", required=True, help="rect:WxH")
    fba.add_argument("--ratio", required=True)
    fba.add_argument("--tol", type=float, default=1e-6)
    fba.add_argument("--samples", type=int, default=None,
                     help="no effect; the band is solved in closed form")
    _add_common(fba, svg=True)

    sh = sub.add_parser("shapes", help="diameter extremizers at fixed area and perimeter")
    ssub = sh.add_subparsers(dest="cmd", required=True)

    sma = ssub.add_parser("maxdiam", help="the diameter-maximizing lens")
    sma.add_argument("--area", type=float, required=True)
    sma.add_argument("--perimeter", type=float, required=True)
    _add_common(sma, svg=True)

    smi = ssub.add_parser("mindiam", help="survey small-diameter families")
    smi.add_argument("--area", type=float, required=True)
    smi.add_argument("--perimeter", type=float, default=math.pi)
    _add_common(smi, svg=True)

    sip = ssub.add_parser("interp", help="constant-width interpolant between Reuleaux and disc")
    sip.add_argument("--t", type=float, required=True)
    sip.add_argument("--width", type=float, default=1.0)
    sip.add_argument("--samples", type=int, default=None,
                     help="also measure an N-sample support body of the shape, as a cross-check "
                     f"(at most {MAX_CROSSCHECK_SAMPLES})")
    _add_common(sip, svg=True)

    scr = ssub.add_parser("crossover", help="sector crossover: conjectured vs recomputed")
    scr.add_argument("--perimeter", type=float, default=math.pi)
    _add_common(scr)

    po = sub.add_parser("poly", help="polyhedra with matching face multisets")
    psub = po.add_subparsers(dest="cmd", required=True)

    dims = argparse.ArgumentParser(add_help=False)
    for flag, what in (("a", "cube side"), ("h", "pyramid height"), ("s", "triangle base edge"),
                       ("l", "triangle lateral edge")):
        dims.add_argument(f"--{flag}", type=float, default=None,
                          help=f"{what} (default {SOLID_DIMS[flag]}), for the solids that read it")

    pb = psub.add_parser("build", parents=[dims], help="build one solid and report its invariants")
    pb.add_argument("--solid", required=True)
    _add_common(pb, obj=True)

    pc = psub.add_parser("compare", parents=[dims], help="compare invariants across solids")
    pc.add_argument("--solids", required=True, help="comma-separated solid names")
    _add_common(pc, obj=True)

    return p


HANDLERS = {
    ("tiling", "verify"): cmd_tiling_verify,
    ("tiling", "enumerate"): cmd_tiling_enumerate,
    ("tiling", "search-iso"): cmd_tiling_search_iso,
    ("tiling", "hcn"): cmd_tiling_hcn,
    ("tiling", "split"): cmd_tiling_split,
    ("fairpart", "profile"): cmd_fairpart_profile,
    ("fairpart", "solve"): cmd_fairpart_solve,
    ("fairpart", "disc"): cmd_fairpart_disc,
    ("fairpart", "band"): cmd_fairpart_band,
    ("shapes", "maxdiam"): cmd_shapes_maxdiam,
    ("shapes", "mindiam"): cmd_shapes_mindiam,
    ("shapes", "interp"): cmd_shapes_interp,
    ("shapes", "crossover"): cmd_shapes_crossover,
    ("poly", "build"): cmd_poly_build,
    ("poly", "compare"): cmd_poly_compare,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0

    try:
        ok, report, files, lines = HANDLERS[(args.family, args.cmd)](args)
    except NoSuchSolid as e:
        ok, files, lines = False, {}, [f"rejected: {e}"]
        report = {"command": f"{args.family} {args.cmd}", "feasible": False, "error": str(e)}
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    rendered = render_report(report)
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        fh.write(rendered)
    for name, content in files.items():
        with open(os.path.join(args.out, name), "w") as fh:
            fh.write(content)

    if args.json:
        print(rendered, end="")
    else:
        for line in lines:
            print(line)

    if args.expect_infeasible:
        return 0 if not ok else 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
