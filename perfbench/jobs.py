"""The four workloads: their jobs, seeded inputs, and output checks.

A job is one README-style CLI command, run in process through
`convexkit.cli.main(argv)`.  `build(workload, seed, inputs, outputs)` writes
the job inputs under `inputs` and returns the job list; the same seed always
gives the same inputs.  Seeds change input values, never input sizes, so
runs on different seeds cost about the same.

Every job has a check.  Float jobs are checked against their documented
tolerances with the closed forms and brute-force recomputations in
`oracles`; exact-path jobs (every `tiling` command but the known-defect
census) must in addition reproduce the report.json digest recorded in
`digests.json`.
"""

from __future__ import annotations

import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from oracles import (
    BAXTER,
    CENSUS_60_5,
    RECORD_DIVISOR_COUNTS,
    RECORDS,
    SPLIT_60_5_118_COUNT,
    SPLIT_60_5_118_EXTRA,
    check_tiling,
    close,
    constant_width_area,
    cube_with_pyramids_volume,
    cut_rho,
    disc_chord_rho,
    divisor_count,
    expect,
    icosagonal_dipyramid_volume,
    polygon_points,
    rational,
    rhombicuboctahedron_volume,
    sector,
    two_tile_targets,
)

WORKLOADS = ("iso-exact", "fair-cuts", "records-layouts", "shapes-solids")
HERE = Path(__file__).resolve().parent
SEVEN_TILES = (HERE / "seven.tiles").read_text()

# Seeded values of exact-path jobs come from these pools, so every input a
# seed can pick has a recorded report.json digest.
ISO_SEED_POOL = range(8)
SEVEN_TARGET = {(Fraction(24), Fraction(18))}
PAIR_100_POOL = [(101, 99), (103, 97), (97, 101), (99, 103), (103, 101), (97, 99)]


@dataclass
class Output:
    rc: int
    out: Path
    stdout: str

    def report(self) -> dict:
        return json.loads((self.out / "report.json").read_text())

    def text(self, name: str) -> str:
        return (self.out / name).read_text()


@dataclass
class Job:
    name: str
    argv: list
    expect_rc: tuple
    check: Callable[[Output], None]
    exact: bool = False
    # The exception a known defect makes this job raise.  That raise counts
    # as a failure; any other raise, from any job, is a wrong answer.
    known_defect: Optional[type] = None
    # Untimed step that derives this job's input from an earlier job's output.
    prepare: Optional[Callable[[], None]] = field(default=None, repr=False)


def _svg(o: Output, name: str) -> None:
    root = ET.fromstring(o.text(name))
    expect(root.tag.endswith("svg") and len(root) > 0, f"{name} has no drawing")


# ---------------------------------------------------------------- iso-exact


def _check_iso_exhausted(n: int):
    def check(o: Output) -> None:
        r = o.report()
        expect(r["status"] == "exhausted-no-solution", f"n={n}: status {r['status']}")
        expect(not r["witnesses"] and r["residual_floorplans"] == 0, f"n={n}: not certified")
        expect(r["examined_floorplans"] == BAXTER[n - 1], f"n={n}: examined {r['examined_floorplans']}")
    return check


def _check_iso_witness(o: Output) -> None:
    r = o.report()
    expect(r["status"] == "witnesses" and len(r["witnesses"]) == 1, f"status {r['status']}")
    w = r["witnesses"][0]
    dims = [tuple(rational(v) for v in line.split()) for line in w["tiles"].splitlines()]
    expect(len(dims) == 7, "witness needs 7 rooms")
    expect(all(a + b == 1 for a, b in dims), "a room's semiperimeter is not 1")
    areas = [a * b for a, b in dims]
    expect(len(set(areas)) == 7, "room areas are not distinct")
    expect([rational(v) for v in w["areas"]] == areas, "reported areas differ")
    width, height = (rational(v) for v in w["layout"]["target"])
    expect([rational(v) for v in w["target"]] == [width, height], "target mismatch")
    check_tiling({i + 1: d for i, d in enumerate(dims)}, width, height, w["layout"]["placements"])


def iso_exact(rng: random.Random, inputs: Path, outputs: Path) -> list:
    jobs = [
        Job(f"search-iso-n{n}", ["tiling", "search-iso", "--n", str(n)], (1,),
            _check_iso_exhausted(n), exact=True)
        for n in range(2, 7)
    ]
    s = rng.choice(ISO_SEED_POOL)
    jobs.append(Job(f"search-iso-n7-limit1-seed{s}",
                    ["tiling", "search-iso", "--n", "7", "--limit", "1", "--seed", str(s)],
                    (0,), _check_iso_witness, exact=True))
    return jobs


# ---------------------------------------------------------------- fair-cuts


def _ratio(text: str):
    a, b = (int(v) for v in text.split(":"))
    return min(a, b), max(a, b)


def _check_profile(shape: str, ratio: str):
    a, b = _ratio(ratio)
    pts = polygon_points(shape)

    def check(o: Output) -> None:
        r = o.report()
        lo, hi, at0 = (float(r[k]) for k in ("rho_min", "rho_max", "rho_at_theta0"))
        close(float(r["target_rho"]), math.sqrt(a / b), 1e-15, "target rho")
        expect(lo <= at0 <= hi, "rho at theta 0 outside [rho_min, rho_max]")
        f = a / (a + b)
        close(cut_rho(pts, float(r["theta_at_min"]), f), lo, 1e-7, "rho_min recomputed")
        close(cut_rho(pts, float(r["theta_at_max"]), f), hi, 1e-7, "rho_max recomputed")
        close(cut_rho(pts, 0.0, f), at0, 1e-7, "rho at theta 0 recomputed")
    return check


def _check_readme_profile(o: Output) -> None:
    _check_profile("rect:4x1", "1:3")(o)
    r = o.report()
    close(float(r["rho_min"]), 0.5, 1e-9, "rect 4x1 rho_min")
    close(float(r["rho_at_theta0"]), 17 / 19, 1e-9, "rect 4x1 rho at theta 0")


def _check_solve(shape: str, ratio: str, svg: bool):
    a, b = _ratio(ratio)
    pts = polygon_points(shape)

    def check(o: Output) -> None:
        r = o.report()
        want = math.sqrt(a / b)
        expect(o.rc == (0 if r["found"] else 1), "exit code disagrees with found")
        if not r["found"]:
            expect(not float(r["rho_min"]) <= want <= float(r["rho_max"]),
                   "target inside the sampled range but no cut found")
            return
        close(float(r["rho"]), want, 1e-9, "cut rho")
        pa, pb = (float(v) for v in r["piece_areas"])
        close(pa / pb, a / b, 1e-9 * a / b, "piece area ratio")
        qa, qb = (float(v) for v in r["piece_perimeters"])
        close(qa / qb, want, 1e-8, "piece perimeter ratio")
        close(cut_rho(pts, float(r["cut"]["theta"]), a / (a + b)), want, 1e-7, "cut rho recomputed")
        if svg:
            _svg(o, "pieces.svg")
    return check


def _check_disc(o: Output) -> None:
    r = o.report()
    chord = float(r["chord_solve"]["rho"])
    close(chord, disc_chord_rho(0.25), 1e-12, "disc chord rho")
    expect(r["chord_solve"]["achievable"] is False, "1:3 chord reported achievable")
    ng = r["ngon"]
    expect(ng["found"] is False, "4096-gon reported a 1:3 fair cut")
    close(float(ng["rho_min"]), chord, 1e-3, "4096-gon rho_min vs chord")
    close(float(ng["rho_max"]), chord, 1e-3, "4096-gon rho_max vs chord")


def _check_band(ratio: str, must_find: bool):
    a, b = _ratio(ratio)

    def check(o: Output) -> None:
        r = o.report()
        expect(o.rc == (0 if r["found"] else 1), "exit code disagrees with found")
        expect(r["found"] or not must_find, "band not found")
        if r["found"]:
            s = r["solution"]
            rho = float(s["rho"])
            close(rho, math.sqrt(a / b), 1e-6, "band rho")
            small, big = (float(v) for v in s["areas"])
            close(small / big, a / b, 1e-9 * a / b, "band area ratio")
            ps, pb = (float(v) for v in s["perimeters"])
            close(ps / pb, rho, 1e-12, "band perimeter ratio")
    return check


def fair_cuts(rng: random.Random, inputs: Path, outputs: Path) -> list:
    fp = ["fairpart"]
    jobs = [
        Job("profile-rect4x1", fp + ["profile", "--shape", "rect:4x1", "--ratio", "1:3"],
            (0,), _check_readme_profile),
        Job("solve-rect4x1", fp + ["solve", "--shape", "rect:4x1", "--ratio", "1:3", "--svg"],
            (0,), _check_solve("rect:4x1", "1:3", svg=True)),
        Job("disc-ngon4096", fp + ["disc", "--ratio", "1:3", "--ngon", "4096", "--expect-infeasible"],
            (0,), _check_disc),
        Job("band-square", fp + ["band", "--shape", "rect:1x1", "--ratio", "1:3"],
            (0,), _check_band("1:3", must_find=True)),
    ]
    # Seeded shapes at half the default angle grid: a rectangle with
    # rational sides and aspect ratio 3..8 (where a straight fair cut
    # exists), a small n-gon that pays per-call overhead, and an n-gon with
    # about a thousand vertices that pays per-vertex cost.
    a = rng.randint(1, 3)
    ratio = f"{a}:{rng.randint(a + 1, 6)}"
    h = Fraction(rng.randint(3, 9), rng.randint(2, 7))
    w = h * Fraction(rng.randint(30, 80), 10)
    rect = f"rect:{w}x{h}"
    small = f"ngon:{rng.randint(17, 64)}"
    large = f"ngon:{rng.randint(1024, 1088)}"
    grid = ["--samples", "360"]
    jobs += [
        Job("solve-rect-seeded", fp + ["solve", "--shape", rect, "--ratio", ratio, "--svg"] + grid,
            (0, 1), _check_solve(rect, ratio, svg=True)),
        Job("profile-ngon-small", fp + ["profile", "--shape", small, "--ratio", ratio] + grid,
            (0,), _check_profile(small, ratio)),
        Job("profile-ngon-large", fp + ["profile", "--shape", large, "--ratio", ratio] + grid,
            (0,), _check_profile(large, ratio)),
        Job("band-rect-seeded", fp + ["band", "--shape", rect, "--ratio", ratio, "--svg"],
            (0, 1), _check_band(ratio, must_find=False)),
    ]
    return jobs


# ---------------------------------------------------------- records-layouts


def _check_records(o: Output) -> None:
    r = o.report()
    expect([e["n"] for e in r["records"]] == RECORDS, "divisor records differ")
    expect([e["divisors"] for e in r["records"]] == RECORD_DIVISOR_COUNTS, "divisor counts differ")
    expect(all(divisor_count(e["n"]) == e["divisors"] for e in r["records"]), "divisor count")


def _check_census(h: int, length: int, widths=None):
    divs = [d for d in range(1, h + 1) if h % d == 0]

    def check(o: Output) -> None:
        r = o.report()
        feasible = r["feasible_widths"]
        expect(sorted(feasible + r["infeasible_widths"]) == divs, "census misses a divisor width")
        expect(r["count"] == len(feasible) == len(r["targets"]), "census count")
        for w in feasible:
            tw, th = (rational(v) for v in r["targets"][str(w)])
            expect(tw == w and tw * th == h * length, f"target of width {w}")
        if widths is not None:
            expect(feasible == widths, f"feasible widths {feasible}")
    return check


def _check_split(o: Output) -> None:
    r = o.report()
    expect(r["count"] == SPLIT_60_5_118_COUNT, f"split census count {r['count']}")
    expect(SPLIT_60_5_118_EXTRA in r["feasible_widths"], "split census lacks width 59")


def _tile_dims(text: str) -> dict:
    dims = {}
    for line in text.splitlines():
        line = line.split("#")[0].split()
        if line:
            count = int(line[2]) if len(line) > 2 else 1
            for _ in range(count):
                dims[len(dims) + 1] = (rational(line[0]), rational(line[1]))
    return dims


def _check_enumerate(tiles_text: str, targets: set, exhaustive: bool, svg: bool = False):
    """`targets` must be among the reported rectangles; with `exhaustive`
    they must be all of them."""
    dims = _tile_dims(tiles_text)

    def check(o: Output) -> None:
        r = o.report()
        expect(r["count"] == len(r["layouts"]) > 0, "no layouts")
        found = set()
        for lay in r["layouts"]:
            w, h = rational(lay["width"]), rational(lay["height"])
            check_tiling(dims, w, h, lay["placements"])
            found.add((max(w, h), min(w, h)))
        expect(found == targets if exhaustive else targets <= found,
               f"targets {sorted(found)} vs expected {sorted(targets)}")
        if svg:
            for k in range(len(r["layouts"])):
                _svg(o, f"layout-{k}.svg")
    return check


def write_layout(enum_out: Path, dest: Path):
    """Turn the first layout an enumerate job reported into a layout file."""
    def prepare() -> None:
        lay = json.loads((enum_out / "report.json").read_text())["layouts"][0]
        doc = {"target": [lay["width"], lay["height"]], "placements": lay["placements"]}
        dest.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return prepare


def _check_verify(o: Output) -> None:
    r = o.report()
    expect(r["valid"] is True and "defect" not in r, f"layout rejected: {r.get('defect')}")


def records_layouts(rng: random.Random, inputs: Path, outputs: Path) -> list:
    p, q = rng.choice(PAIR_100_POOL)
    tile_sets = {
        "seven": SEVEN_TILES,
        f"pair-{p}-{q}": f"1/{p} 1\n1 1/{q}\n",
        "pair-301-299": "1/301 1\n1 1/299\n",
    }
    for name, text in tile_sets.items():
        (inputs / f"{name}.tiles").write_text(text)

    hcn = ["tiling", "hcn"]
    jobs = [
        Job("hcn-limit1500000", hcn + ["--limit", "1500000"], (0,), _check_records, exact=True),
        Job("census-h60-i5", hcn + ["--h", "60", "--i", "5", "--length", "4"], (0,),
            _check_census(60, 4, CENSUS_60_5), exact=True),
        Job("census-h720-i5", hcn + ["--h", "720", "--i", "5", "--length", "4"], (0,),
            _check_census(720, 4), exact=True),
        Job("census-h1260-i6", hcn + ["--h", "1260", "--i", "6", "--length", "4"], (0,),
            _check_census(1260, 4), exact=True),
        # Known defect: _partition_widths recurses once per row group, so every
        # h >= 2520 dies with RecursionError.  Kept so error_rate shows it.
        # No report exists to record a digest from, so only the census
        # check applies once it runs.
        Job("census-h2520-i6", hcn + ["--h", "2520", "--i", "6", "--length", "4"], (0,),
            _check_census(2520, 4), known_defect=RecursionError),
        Job("split-h60-i5", ["tiling", "split", "--h", "60", "--i", "5", "--length", "118"], (0,),
            _check_split, exact=True),
    ]
    for name, text in tile_sets.items():
        tiles = (inputs / f"{name}.tiles").as_posix()
        layout = inputs / f"{name}-layout.json"
        readme = name == "seven"
        # seven.tiles must fill 24 x 18 (acceptance criterion 01); a pair
        # fills exactly the rectangles where the two share a full side.
        targets = SEVEN_TARGET if readme else two_tile_targets(*_tile_dims(text).values())
        jobs.append(Job(f"enumerate-{name}",
                        ["tiling", "enumerate", "--tiles", tiles] + (["--svg"] if readme else []),
                        (0,), _check_enumerate(text, targets, not readme, svg=readme), exact=True))
        jobs.append(Job(f"verify-{name}",
                        ["tiling", "verify", "--tiles", tiles, "--layout", layout.as_posix()],
                        (0,), _check_verify, exact=True,
                        prepare=write_layout(outputs / f"enumerate-{name}", layout)))
    return jobs


# ------------------------------------------------------------ shapes-solids


def _check_maxdiam(area: float, perimeter: float, svg: bool):
    def check(o: Output) -> None:
        lens = o.report()["lens"]
        d, alpha, r = (float(lens[k]) for k in ("diameter", "half_angle", "arc_radius"))
        close(2.0 * r * r * (alpha - math.sin(alpha) * math.cos(alpha)), area, 1e-9 * area, "lens area")
        close(4.0 * alpha * r, perimeter, 1e-9 * perimeter, "lens perimeter")
        close(2.0 * r * math.sin(alpha), d, 1e-9 * d, "lens diameter")
        if svg:
            _svg(o, "outline.svg")
    return check


def _check_mindiam(area: float, family: str, svg: bool):
    def check(o: Output) -> None:
        r = o.report()
        cands = r["candidates"]
        expect(cands and {c["family"] for c in cands} == {family}, f"families {cands}")
        for c in cands:
            close(float(c["perimeter"]), math.pi, 1e-6, "candidate perimeter")
            if family == "sector":
                m = sector(float(c["radius"]), float(c["phi"]))
                close(m["area"], area, 1e-9, "sector area")
                close(m["perimeter"], math.pi, 1e-9, "sector perimeter")
                close(m["diameter"], float(c["diameter"]), 1e-12, "sector diameter")
            else:
                close(float(c["area"]), area, 1e-6, "constant-width area")
                close(constant_width_area(float(c["t"]), 1.0), area, 1e-5, "Steiner area at t")
                close(float(c["diameter"]), 1.0, 1e-12, "constant-width diameter")
        best = min(float(c["diameter"]) for c in cands)
        close(float(r["best"]["diameter"]), best, 0.0, "best diameter")
        if svg:
            _svg(o, "outline.svg")
    return check


def _check_interp(t: float, svg: bool):
    def check(o: Output) -> None:
        r = o.report()
        close(float(r["area"]), constant_width_area(t, 1.0), 1e-6, "interpolant area")
        close(float(r["perimeter"]), math.pi, 1e-6, "interpolant perimeter")
        expect(float(r["width_spread"]) < 1e-9, "width not constant")
        if svg:
            _svg(o, "outline.svg")
    return check


def _check_crossover(o: Output) -> None:
    expect("conjectured crossover" in o.stdout and "1.045" in o.stdout, "conjecture line")
    expect("recomputed sector knee" in o.stdout and "1.030977" in o.stdout, "knee line")
    c = o.report()["crossover"]
    m = sector(float(c["radius"]), float(c["phi"]))
    close(m["diameter"], float(c["diameter"]), 1e-12, "knee diameter")
    expect(1.02 <= float(c["radius"]) <= 1.05 and 0.54 <= float(c["area"]) <= 0.60, "knee range")


def _check_solid(name: str, sides: dict, volume: Optional[float]):
    def check(o: Output) -> None:
        r = o.report()
        expect(r["faces_by_side_count"] == sides, f"{name} faces {r['faces_by_side_count']}")
        expect(r["vertices"] - r["edges"] + r["faces"] == 2, f"{name} Euler characteristic")
        if volume is not None:
            close(float(r["volume"]), volume, 1e-9 * volume, f"{name} volume")
        obj = o.text(f"{name}.obj").splitlines()
        expect(sum(ln.startswith("v ") for ln in obj) == r["vertices"], f"{name}.obj vertices")
        expect(sum(ln.startswith("f ") for ln in obj) == r["faces"], f"{name}.obj faces")
    return check


def _check_compare(same_volume: bool):
    def check(o: Output) -> None:
        r = o.report()
        names = [m["name"] for m in r["meshes"]]
        expect(r["multiset_classes"] == [names], "face multisets differ")
        expect(len(r["congruence_classes"]) == 2, "solids not told apart")
        v1, v2 = (float(m["volume"]) for m in r["meshes"])
        if same_volume:
            close(v1, v2, 1e-9 * max(v1, v2), "volumes")
        else:
            expect(abs(v1 - v2) > 0.01 * max(v1, v2), "volumes should differ")
    return check


def shapes_solids(rng: random.Random, inputs: Path, outputs: Path) -> list:
    sh, po = ["shapes"], ["poly"]
    perimeter = rng.uniform(2.0, 6.0)
    area = rng.uniform(0.2, 0.95) * perimeter * perimeter / (4.0 * math.pi)
    sector_area = rng.uniform(0.30, 0.60)
    cw_area = rng.uniform(0.71, 0.78)
    t = rng.uniform(0.0, 1.0)
    a = rng.uniform(0.5, 2.0)
    h = rng.uniform(0.1, 0.45) * a
    rco_volume = rhombicuboctahedron_volume(2.0)
    cube = {"3": 8, "4": 4}
    jobs = [
        Job("maxdiam-readme", sh + ["maxdiam", "--area", "0.5", "--perimeter", "4", "--svg"],
            (0,), _check_maxdiam(0.5, 4.0, svg=True)),
        Job("maxdiam-seeded", sh + ["maxdiam", "--area", repr(area), "--perimeter", repr(perimeter), "--svg"],
            (0,), _check_maxdiam(area, perimeter, svg=True)),
        Job("mindiam-readme", sh + ["mindiam", "--area", "0.55"], (0,), _check_mindiam(0.55, "sector", False)),
        Job("mindiam-sector", sh + ["mindiam", "--area", repr(sector_area), "--svg"],
            (0,), _check_mindiam(sector_area, "sector", True)),
        Job("mindiam-constant-width", sh + ["mindiam", "--area", repr(cw_area), "--svg"],
            (0,), _check_mindiam(cw_area, "constant-width", True)),
        Job("interp-readme", sh + ["interp", "--t", "0.5"], (0,), _check_interp(0.5, False)),
        Job("interp-seeded", sh + ["interp", "--t", repr(t), "--svg"], (0,), _check_interp(t, True)),
        Job("crossover", sh + ["crossover"], (0,), _check_crossover),
        Job("build-rco", po + ["build", "--solid", "rco", "--obj"], (0,),
            _check_solid("rco", {"3": 8, "4": 18}, rco_volume)),
        Job("build-pseudo-rco", po + ["build", "--solid", "pseudo-rco", "--obj"], (0,),
            _check_solid("pseudo-rco", {"3": 8, "4": 18}, rco_volume)),
        Job("build-icosa-dipyramid", po + ["build", "--solid", "icosa-dipyramid", "--obj"], (0,),
            _check_solid("icosa-dipyramid", {"3": 40}, icosagonal_dipyramid_volume(1.0, 3.5))),
        Job("build-deca-antiprism", po + ["build", "--solid", "deca-antiprism", "--obj"], (0,),
            _check_solid("deca-antiprism", {"3": 40}, None)),
    ]
    for mode in ("opposite", "adjacent"):
        name = f"cube-pyr-{mode}"
        jobs.append(Job(f"build-{name}",
                        po + ["build", "--solid", name, "--a", repr(a), "--h", repr(h), "--obj"],
                        (0,), _check_solid(name, cube, cube_with_pyramids_volume(a, h))))
    jobs += [
        Job("compare-rco", po + ["compare", "--solids", "rco,pseudo-rco"], (0,), _check_compare(True)),
        Job("compare-dipyramid", po + ["compare", "--solids", "icosa-dipyramid,deca-antiprism"],
            (0,), _check_compare(False)),
    ]
    return jobs


BUILDERS = {
    "iso-exact": iso_exact,
    "fair-cuts": fair_cuts,
    "records-layouts": records_layouts,
    "shapes-solids": shapes_solids,
}


def build(workload: str, seed: int, inputs: Path, outputs: Path) -> list:
    """Write the workload's inputs for `seed` under `inputs` and return its
    jobs; job outputs go to `outputs / job.name`."""
    inputs.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), inputs, outputs)
