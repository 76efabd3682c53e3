"""Acceptance gate: one test per shipped claim, each printing a PASS/FAIL
line with its runtime against the stated budget.  Run with -s to see the
lines as they appear, e.g. `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import json
import math
import os
import random
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

from convexkit.cli import main
from convexkit.extremal import (
    REULEAUX_AREA_COEFF,
    crossover_scan,
    interpolate_constant_width,
    max_diameter_shape,
)
from convexkit.fairpart import (
    RatioTarget,
    disc_chord_analysis,
    find_scaled_fair_cut,
    nonconvex_band_partition,
    perimeter_ratio_profile,
    solve_band,
)
from convexkit.kernel.arcs import ArcPolygon
from convexkit.kernel.polygon import ConvexPolygon, rectangle, regular_ngon
from convexkit.kernel.support import SupportBody, support_body_metrics
from convexkit.polyhedra import (
    build_cube_with_pyramids,
    build_decagonal_dipyramidal_antiprism,
    build_icosagonal_dipyramid,
    build_pseudorhombicuboctahedron,
    build_rhombicuboctahedron,
    distance_multiset,
    face_multiset,
    volume,
)
from convexkit.tiling.hcn import (
    HcnContext,
    divisor_count,
    hcn_layout_census,
    hcn_split_census,
    hcn_up_to,
)
from convexkit.tiling.isoperimetric import search_isoperimetric
from convexkit.tiling.tiles import load_tileset, parse_tileset, verify_layout
from reference import convex_hull, count_diagonal_rectangulations, enumerate_floorplans

DATA = os.path.join(os.path.dirname(__file__), "data")
SEVEN_TILES = os.path.join(DATA, "seven.tiles")


def criterion(n, budget, summary):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - t0
                if budget is not None:
                    assert elapsed < budget, (
                        f"run time {elapsed:.2f}s exceeds the {budget:g}s budget"
                    )
            except BaseException:
                print(f"criterion {n:2d} FAIL: {summary}")
                raise
            cap = "no budget" if budget is None else f"budget {budget:g}s"
            print(f"criterion {n:2d} PASS ({elapsed:6.2f}s, {cap}): {summary}")

        return wrapper

    return deco


@criterion(1, 60, "seven-tile equal-perimeter set tiles 24 x 18")
def test_criterion_01_seven_tile_example(tmp_path):
    ts = load_tileset(SEVEN_TILES)
    assert len(ts.tiles) == 7
    for t in ts:
        assert 2 * (t.width + t.height) == Fraction(39)
    areas = [t.width * t.height for t in ts]
    assert len(set(areas)) == 7

    out = tmp_path / "enum"
    rc = main(["tiling", "enumerate", "--tiles", SEVEN_TILES, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert any(
        (r["width"], r["height"]) == ("24", "18") for r in report["layouts"]
    )
    from convexkit.tiling.search import enumerate_layouts

    results = enumerate_layouts(ts)
    hit = [r for r in results if (r.width, r.height) == (24, 18)]
    assert hit and verify_layout(ts, hit[0].layout) is None


@criterion(2, 1, "layout counts for the two reference tile multisets")
def test_criterion_02_layout_counts():
    squares = parse_tileset("1 1 4\n")
    from convexkit.tiling.search import enumerate_layouts

    results = enumerate_layouts(squares)
    assert len(results) == 2

    mixed = parse_tileset("4 1 2\n2 1 2\n")
    dims = {(r.width, r.height) for r in enumerate_layouts(mixed)}
    assert {(12, 1), (4, 3), (6, 2)} <= dims


@criterion(3, 10, "divisor-record tile censuses: 12 / 14 / 8 / 9 layouts")
def test_criterion_03_hcn_censuses():
    def count(census):
        return sum(1 for v in census.values() if v is not None)

    assert count(hcn_layout_census(HcnContext(60, 1, 1))) == 12
    assert count(hcn_layout_census(HcnContext(120, 3, 20))) == 14

    census = hcn_layout_census(HcnContext(60, 5, 4))
    feasible = sorted(w for w, lay in census.items() if lay is not None)
    assert feasible == [5, 6, 10, 12, 15, 20, 30, 60]

    split_census = hcn_split_census(HcnContext(60, 5, 118))
    assert len(split_census) == 9
    assert 59 in split_census


RECORDS = [
    1, 2, 4, 6, 12, 24, 36, 48, 60, 120, 180, 240, 360, 720, 840,
    1260, 1680, 2520, 5040, 7560, 10080, 15120, 20160, 25200, 27720,
    45360, 50400, 55440, 83160, 110880, 166320, 221760, 277200, 332640,
    498960, 554400, 665280, 720720, 1081080, 1441440,
]
RECORD_DIVISOR_COUNTS = [
    1, 2, 3, 4, 6, 8, 9, 10, 12, 16, 18, 20, 24, 30, 32, 36, 40, 48,
    60, 64, 72, 80, 84, 90, 96, 100, 108, 120, 128, 144, 160, 168,
    180, 192, 200, 216, 224, 240, 256, 288,
]


@criterion(4, 60, "divisor records to 1441440 and their divisor counts")
def test_criterion_04_record_series():
    records = hcn_up_to(1_500_000)
    assert records == RECORDS
    assert [divisor_count(n) for n in records] == RECORD_DIVISOR_COUNTS


@criterion(5, 300, "no equal-semiperimeter distinct-area tiling for n <= 4")
def test_criterion_05_small_n_impossibility():
    for n in (2, 3, 4):
        res = search_isoperimetric(n)
        assert res.status == "exhausted-no-solution"
        assert not res.witnesses
    for n in (1, 2, 3, 4):
        count = sum(1 for _ in enumerate_floorplans(n))
        assert count == count_diagonal_rectangulations(n)
    assert count_diagonal_rectangulations(4) == 22


@criterion(6, 60, "1x4 rectangle 1:3 fair cut; disc 1:3 out of reach")
def test_criterion_06_fair_partition():
    rect = rectangle(4, 1)
    target = RatioTarget(1, 3)
    rhos = [p.rho for p in perimeter_ratio_profile(rect, target)]
    assert min(abs(r - 0.5) for r in rhos) <= 1e-9
    assert min(abs(r - 17 / 19) for r in rhos) <= 1e-9

    res = find_scaled_fair_cut(rect, target)
    assert res.found
    assert abs(res.rho - math.sqrt(1 / 3)) <= 1e-9

    disc = regular_ngon(4096)
    res = find_scaled_fair_cut(disc, target, order=4096)
    assert not res.found
    chord = disc_chord_analysis(target)
    assert abs(res.rho_min - chord["rho"]) <= 1e-3
    assert abs(res.rho_max - chord["rho"]) <= 1e-3


@criterion(7, 10, "boundary band on the unit square reaches rho = sqrt(1/3)")
def test_criterion_07_band_demo():
    res = solve_band(1.0, 1.0, RatioTarget(1, 3))
    assert res.found
    assert abs(res.sample.rho - math.sqrt(1 / 3)) < 1e-6
    end = nonconvex_band_partition(1.0, 1.0, RatioTarget(1, 3), 0.5)
    assert end.feasible
    assert not end.small_convex


@criterion(8, 30, "constant-width family: areas, widths, continuous sweep")
def test_criterion_08_constant_width_suite():
    reuleaux = ArcPolygon.reuleaux(1.0)
    assert abs(reuleaux.area - REULEAUX_AREA_COEFF) <= 1e-6
    disc = ArcPolygon.disc(1.0)
    assert abs(disc.area - math.pi / 4) <= 1e-6

    areas = []
    for k in range(1000):
        body = interpolate_constant_width(k / 999)
        w_min, w_max = body.widths()
        assert w_max - w_min < 1e-9
        assert abs(body.perimeter - math.pi) <= 1e-6
        areas.append(body.area)
    assert abs(areas[0] - REULEAUX_AREA_COEFF) <= 1e-3
    assert abs(areas[-1] - math.pi / 4) <= 1e-3
    assert max(abs(b - a) for a, b in zip(areas, areas[1:])) < 1e-3

    # a 720-sample support body of the midpoint shape agrees with the exact values
    mid = interpolate_constant_width(0.5)
    sampled = SupportBody.from_function(mid.support, 720)
    m = support_body_metrics(sampled)
    w = sampled.widths()
    assert max(w) - min(w) < 1e-9
    assert abs(m["perimeter"] - mid.perimeter) <= 1e-6
    assert abs(m["area"] - mid.area) <= 1e-3


@criterion(9, 60, "lens diameter dominates 500 random convex polygons")
def test_criterion_09_lens_dominance():
    rng = random.Random(0)
    checked = 0
    while checked < 500:
        pts = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randint(3, 40))]
        hull = convex_hull(pts)
        if len(hull) < 3:
            continue
        try:
            poly = ConvexPolygon(hull)
        except ValueError:
            continue
        checked += 1
        lens = max_diameter_shape(poly.area, poly.perimeter)
        assert lens is not None
        assert lens.diameter >= ArcPolygon.polygon(poly.vertices).widths()[1] - 1e-9


@criterion(10, 1, "sector knee brackets the recorded crossover values")
def test_criterion_10_sector_reconciliation(tmp_path, capsys):
    scan = crossover_scan(math.pi)
    knee = scan["crossover"]
    assert 1.02 <= knee["radius"] <= 1.05
    assert 0.54 <= knee["area"] <= 0.60

    rc = main(["shapes", "crossover", "--out", str(tmp_path / "o")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "conjectured crossover" in text and "1.045" in text
    assert "recomputed sector knee" in text and "1.030977" in text


@criterion(11, 10, "equal-face-multiset polyhedron pairs")
def test_criterion_11_polyhedra():
    opp = build_cube_with_pyramids(1.0, 0.3, "opposite")
    adj = build_cube_with_pyramids(1.0, 0.3, "adjacent")
    assert face_multiset(opp) == face_multiset(adj)
    assert abs(volume(opp) - 1.2) <= 1e-9
    assert abs(volume(adj) - 1.2) <= 1e-9
    assert distance_multiset(opp) != distance_multiset(adj)

    rco = build_rhombicuboctahedron()
    pseudo = build_pseudorhombicuboctahedron()
    ms = face_multiset(rco)
    assert {len(sig): c for sig, c in ms.items()} == {4: 18, 3: 8}
    assert ms == face_multiset(pseudo)
    v1, v2 = volume(rco), volume(pseudo)
    assert abs(v1 - v2) <= 1e-9 * max(v1, v2)
    assert distance_multiset(rco) != distance_multiset(pseudo)

    dipyr = build_icosagonal_dipyramid()
    anti = build_decagonal_dipyramidal_antiprism()
    md = face_multiset(dipyr)
    assert sum(md.values()) == 40 and all(len(sig) == 3 for sig in md)
    assert md == face_multiset(anti)
    vd, va = volume(dipyr), volume(anti)
    assert abs(vd - va) > 0.01 * max(vd, va)


DETERMINISM_COMMANDS = [
    ["tiling", "verify", "--tiles", SEVEN_TILES,
     "--layout", os.path.join(DATA, "seven.json"), "--svg"],
    ["tiling", "enumerate", "--tiles", SEVEN_TILES, "--svg"],
    ["tiling", "search-iso", "--n", "4"],
    ["tiling", "hcn", "--limit", "10000"],
    ["tiling", "hcn", "--h", "60", "--i", "5", "--length", "4"],
    ["tiling", "split", "--h", "60", "--i", "5", "--length", "118"],
    ["fairpart", "profile", "--shape", "rect:4x1", "--ratio", "1:3"],
    ["fairpart", "solve", "--shape", "rect:4x1", "--ratio", "1:3", "--svg"],
    ["fairpart", "disc", "--ratio", "1:3", "--ngon", "128"],
    ["fairpart", "band", "--shape", "rect:1x1", "--ratio", "1:3", "--svg"],
    ["shapes", "maxdiam", "--area", "0.5", "--perimeter", "4", "--svg"],
    ["shapes", "mindiam", "--area", "0.71"],
    ["shapes", "interp", "--t", "0.5", "--samples", "1440"],
    ["shapes", "crossover"],
    ["poly", "build", "--solid", "rco", "--obj"],
    ["poly", "compare", "--solids", "rco,pseudo-rco"],
]


@criterion(12, None, "byte-identical artifacts for every command, run twice")
def test_criterion_12_determinism(tmp_path):
    for idx, argv in enumerate(DETERMINISM_COMMANDS):
        a = tmp_path / f"{idx}a"
        b = tmp_path / f"{idx}b"
        rc_a = main(argv + ["--out", str(a)])
        rc_b = main(argv + ["--out", str(b)])
        assert rc_a == rc_b
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b))
        assert "report.json" in names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (argv, name)
            if name.endswith(".svg"):
                ET.fromstring((a / name).read_text())
