"""End-to-end runs of the command-line interface.

Everything goes through main(argv) in-process, except the check that no
command imports numpy, which needs a fresh interpreter; each run writes
report.json into a fresh tmp directory and the tests read it back.
"""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from convexkit import cli
from convexkit.cli import main, svg_outlines
from convexkit.extremal import interpolate_constant_width
from convexkit.kernel import ArcPolygon, SupportBody

DATA = os.path.join(os.path.dirname(__file__), "data")
SEVEN_TILES = os.path.join(DATA, "seven.tiles")
SEVEN_LAYOUT = os.path.join(DATA, "seven.json")


def run(tmp_path, *argv, name="out"):
    out = tmp_path / name
    rc = main(list(argv) + ["--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    return rc, report, out


def assert_no_raw_floats(node):
    assert not isinstance(node, float)
    if isinstance(node, dict):
        for v in node.values():
            assert_no_raw_floats(v)
    elif isinstance(node, list):
        for v in node:
            assert_no_raw_floats(v)


def test_tiling_verify_valid(tmp_path, capsys):
    rc, report, out = run(
        tmp_path, "tiling", "verify", "--tiles", SEVEN_TILES,
        "--layout", SEVEN_LAYOUT, "--svg",
    )
    assert rc == 0
    assert report["valid"] is True
    assert "valid: 7 tiles" in capsys.readouterr().out
    svg = (out / "layout.svg").read_text()
    assert svg.count("<rect") == 7
    assert_no_raw_floats(report)


def test_tiling_verify_reports_defect(tmp_path, capsys):
    layout = json.loads(open(SEVEN_LAYOUT).read())
    layout["placements"][0]["x"] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(layout))
    rc, report, _ = run(
        tmp_path, "tiling", "verify", "--tiles", SEVEN_TILES, "--layout", str(bad)
    )
    assert rc == 1
    assert report["valid"] is False
    assert report["defect"]["kind"]
    assert "invalid" in capsys.readouterr().out


def test_tiling_verify_malformed_tile_file(tmp_path, capsys):
    bad = tmp_path / "bad.tiles"
    bad.write_text("1 2\nbogus 4\n")
    rc = main(
        ["tiling", "verify", "--tiles", str(bad), "--layout", SEVEN_LAYOUT,
         "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: line 2" in err
    assert "line 2" in err
    assert str(bad) in err


def test_tiling_verify_malformed_layout_file_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    with open(SEVEN_LAYOUT) as fh:
        bad.write_text(fh.read()[:40])
    rc = main(
        ["tiling", "verify", "--tiles", SEVEN_TILES, "--layout", str(bad),
         "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "line " in err


def test_tiling_verify_missing_file(tmp_path):
    rc = main(
        ["tiling", "verify", "--tiles", str(tmp_path / "nope.tiles"),
         "--layout", SEVEN_LAYOUT, "--out", str(tmp_path / "o")]
    )
    assert rc == 2


def test_tiling_enumerate_seven(tmp_path):
    rc, report, out = run(
        tmp_path, "tiling", "enumerate", "--tiles", SEVEN_TILES, "--svg"
    )
    assert rc == 0
    assert report["count"] == 1
    assert (report["layouts"][0]["width"], report["layouts"][0]["height"]) == ("24", "18")
    assert (out / "layout-0.svg").exists()


def test_tiling_enumerate_empty_is_exit_one(tmp_path):
    tiles = tmp_path / "two.tiles"
    tiles.write_text("2 2\n3 1\n")
    rc, report, _ = run(tmp_path, "tiling", "enumerate", "--tiles", str(tiles))
    assert rc == 1
    assert report["count"] == 0
    rc2 = main(
        ["tiling", "enumerate", "--tiles", str(tiles), "--expect-infeasible",
         "--out", str(tmp_path / "o2")]
    )
    assert rc2 == 0


def test_tiling_search_iso_small_n(tmp_path, capsys):
    rc, report, _ = run(tmp_path, "tiling", "search-iso", "--n", "3")
    assert rc == 1
    assert report["status"] == "exhausted-no-solution"
    assert report["examined_floorplans"] == 6
    assert (
        "(6 floorplans, 0 witness(es), 6 forced-equal, 0 residual, "
        "0 infeasible, 0 certified empty)" in capsys.readouterr().out
    )
    rc2 = main(
        ["tiling", "search-iso", "--n", "3", "--expect-infeasible",
         "--out", str(tmp_path / "o2")]
    )
    assert rc2 == 0


def case_ids(cases):
    """Name each case by the rule its input breaks, so a case keeps its
    name when the wording of the error changes."""
    return [f"argv{i}-{rule}" for i, (rule, _, _) in enumerate(cases)]


# (rule the input breaks, argv, wording on stderr)
PROGRAM_LIMITS = [
    ("floorplan cap of 8 rooms", ["tiling", "search-iso", "--n", "9"], "floorplan cap of 8 rooms"),
    ("exhaustive-search cap of 3", ["tiling", "enumerate", "--cap", "3"],
     "exhaustive-search cap of 3"),
    ("--n must be at least 2", ["tiling", "search-iso", "--n", "1"], "n must be in 2..8, got 1"),
    ("--limit must be at least 1", ["tiling", "search-iso", "--n", "7", "--limit", "0"],
     "limit must be >= 1, got 0"),
    ("--limit must be at least 1", ["tiling", "hcn", "--limit", "0"], "limit must be >= 1"),
    ("--limit excludes a census",
     ["tiling", "hcn", "--limit", "10", "--h", "60", "--i", "5", "--length", "4"], "not both"),
    ("--limit excludes a census", ["tiling", "hcn", "--limit", "10", "--length", "4"], "not both"),
    ("census placement cap",
     ["tiling", "hcn", "--h", "720720", "--i", "1", "--length", "4", "--svg"],
     "census cap of 500,000"),
    ("census placement cap",
     ["tiling", "split", "--h", "720720", "--i", "1", "--length", "4", "--svg"],
     "census cap of 500,000"),
    ("polygon cap of 100,000 vertices",
     ["fairpart", "profile", "--shape", "ngon:100001", "--ratio", "1:3"],
     "polygon cap of 100,000 vertices"),
    ("polygon cap of 100,000 vertices", ["fairpart", "disc", "--ratio", "1:3", "--ngon", "100001"],
     "polygon cap of 100,000 vertices"),
]


@pytest.mark.parametrize(
    "argv,message", [case[1:] for case in PROGRAM_LIMITS], ids=case_ids(PROGRAM_LIMITS)
)
def test_program_limits_exit_two_without_a_report(tmp_path, capsys, argv, message):
    """A program limit or an out-of-range flag is no answer:
    --expect-infeasible must not turn it into exit 0, and no report is
    written."""
    tiles = tmp_path / "four.tiles"
    tiles.write_text("1 1\n1 1\n1 1\n1 1\n")
    if argv[1] == "enumerate":
        argv = argv + ["--tiles", str(tiles)]
    out = tmp_path / "out"
    for extra in ([], ["--expect-infeasible"]):
        assert main(argv + extra + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["tiling", "verify", "--tiles", SEVEN_TILES, "--layout", "TRUNCATED"],
        ["shapes", "maxdiam", "--area", "-1", "--perimeter", "3"],
        ["shapes", "interp", "--t", "2"],
        ["shapes", "interp", "--t", "0.5", "--samples", "7"],
        ["tiling", "hcn", "--h", "61", "--i", "5", "--length", "4"],
        ["tiling", "split", "--h", "60", "--i", "7", "--length", "4"],
        # NaN fails every comparison, so only a check written as
        # "not x > 0" rejects it
        ["shapes", "maxdiam", "--area", "nan", "--perimeter", "3"],
        ["shapes", "mindiam", "--area", "nan"],
        ["shapes", "interp", "--t", "0.5", "--width", "nan"],
        ["shapes", "crossover", "--perimeter", "nan"],
        # an infinite length has no shape either
        ["shapes", "maxdiam", "--area", "1", "--perimeter", "inf"],
        ["shapes", "mindiam", "--area", "0.7", "--perimeter", "inf"],
        ["shapes", "interp", "--t", "0.5", "--width", "inf"],
        # a cross-check body past the sample cap would run for minutes
        ["shapes", "interp", "--t", "0.5", "--samples", "100002"],
    ],
)
def test_inputs_the_library_rejects_exit_two(tmp_path, capsys, argv):
    """A ValueError from the library is a bad input, never a negative
    answer, whichever command raised it."""
    truncated = tmp_path / "truncated.json"
    with open(SEVEN_LAYOUT) as fh:
        truncated.write_text(fh.read()[:40])
    argv = [str(truncated) if a == "TRUNCATED" else a for a in argv]
    out = tmp_path / "out"
    for extra in ([], ["--expect-infeasible"]):
        assert main(argv + extra + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "report.json").exists()


def test_a_fault_in_a_handler_propagates(tmp_path, monkeypatch):
    def broken(args):
        raise RuntimeError("witness does not verify")

    monkeypatch.setitem(cli.HANDLERS, ("shapes", "crossover"), broken)
    with pytest.raises(RuntimeError, match="does not verify"):
        main(["shapes", "crossover", "--expect-infeasible", "--out", str(tmp_path)])
    assert not (tmp_path / "report.json").exists()


def test_tiling_search_iso_witness(tmp_path):
    rc, report, out = run(
        tmp_path, "tiling", "search-iso", "--n", "7", "--limit", "1", "--svg"
    )
    assert rc == 0
    assert report["status"] == "witnesses"
    assert len(report["witnesses"]) == 1
    w = report["witnesses"][0]
    assert len(w["areas"]) == 7
    assert len(set(w["areas"])) == 7
    assert (out / "layout.svg").read_text().count("<rect") == 7


def test_tiling_hcn_records(tmp_path):
    rc, report, _ = run(tmp_path, "tiling", "hcn", "--limit", "100")
    assert rc == 0
    assert report["count"] == 9
    assert [r["n"] for r in report["records"]] == [1, 2, 4, 6, 12, 24, 36, 48, 60]
    assert report["records"][-1]["divisors"] == 12


def test_tiling_hcn_census(tmp_path):
    rc, report, _ = run(
        tmp_path, "tiling", "hcn", "--h", "60", "--i", "5", "--length", "4"
    )
    assert rc == 0
    assert report["count"] == 8
    assert report["feasible_widths"] == [5, 6, 10, 12, 15, 20, 30, 60]
    assert report["tile_count"] == 20


def test_tiling_hcn_needs_arguments(tmp_path, capsys):
    rc = main(["tiling", "hcn", "--h", "60", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command,length,rects", [("hcn", "4", 20), ("split", "118", 21)])
def test_census_drawing_places_every_tile(tmp_path, command, length, rects):
    rc, report, out = run(
        tmp_path, "tiling", command, "--h", "60", "--i", "5", "--length", length, "--svg"
    )
    assert rc == 0
    assert report["tile_count"] == rects
    assert (out / "layout.svg").read_text().count("<rect") == rects


@pytest.mark.parametrize("command", ["hcn", "split"])
def test_census_of_27720_tiles_answers(tmp_path, command):
    rc, report, _ = run(tmp_path, "tiling", command, "--h", "55440", "--i", "3", "--length", "4")
    assert rc == 0
    assert report["count"] == 118
    assert report["feasible_widths"][:2] == [3, 4]


def test_tiling_split_magic_length(tmp_path):
    rc, report, _ = run(
        tmp_path, "tiling", "split", "--h", "60", "--i", "5", "--length", "118"
    )
    assert rc == 0
    assert report["count"] == 9
    assert 59 in report["feasible_widths"]
    assert report["tile_count"] == 21
    assert report["targets"]["59"] == ["59", "120"]


def test_fairpart_profile(tmp_path):
    rc, report, _ = run(
        tmp_path, "fairpart", "profile", "--shape", "rect:4x1", "--ratio", "1:3"
    )
    assert rc == 0
    assert abs(float(report["rho_min"]) - 0.5) <= 1e-9
    assert float(report["rho_max"]) >= 17 / 19 - 1e-9
    assert_no_raw_floats(report)


def test_fairpart_solve_with_svg(tmp_path):
    rc, report, out = run(
        tmp_path, "fairpart", "solve", "--shape", "rect:4x1", "--ratio", "1:3", "--svg"
    )
    assert rc == 0
    assert report["found"] is True
    assert abs(float(report["rho"]) - (1 / 3) ** 0.5) <= 1e-9
    assert (out / "pieces.svg").read_text().count("<polygon") == 2


def test_fairpart_solve_not_found_on_ngon(tmp_path, capsys):
    rc, report, _ = run(
        tmp_path, "fairpart", "solve", "--shape", "ngon:256", "--ratio", "1:3"
    )
    assert rc == 1
    assert report["found"] is False
    # a sampled miss is worded as one: the grid, and the range it sampled
    line = capsys.readouterr().out.strip()
    assert line.startswith("no cut found on the 720-angle grid for rho=0.577350269;")
    assert f"sampled rho range [{float(report['rho_min']):.9f}, " in line
    rc2 = main(
        ["fairpart", "solve", "--shape", "ngon:256", "--ratio", "1:3",
         "--expect-infeasible", "--out", str(tmp_path / "o2")]
    )
    assert rc2 == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["fairpart", "profile", "--shape", "rect:4x1", "--ratio", "1:3", "--svg"],
        ["fairpart", "disc", "--ratio", "1:3", "--seed", "1"],
        ["shapes", "crossover", "--obj"],
        ["poly", "build", "--solid", "rco", "--svg"],
        ["tiling", "enumerate", "--tiles", SEVEN_TILES, "--seed", "1"],
    ],
)
def test_flags_a_subcommand_ignores_are_rejected(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert not (tmp_path / "report.json").exists()


BAD_FAIRPART_NUMBERS = [
    ("--ngon must be 0", ["fairpart", "disc", "--ratio", "1:3", "--ngon", "2"], "need n >= 3"),
    ("--ngon must be 0", ["fairpart", "disc", "--ratio", "1:3", "--ngon", "-5"], "need n >= 3"),
    ("--shape sides must be positive",
     ["fairpart", "band", "--shape", "rect:0x1", "--ratio", "1:3"],
     "rectangle dimensions must be positive"),
    ("--tol must be positive",
     ["fairpart", "solve", "--shape", "rect:4x1", "--ratio", "1:3", "--tol", "-1"],
     "tol must be positive, got -1"),
    ("--tol must be positive", ["fairpart", "disc", "--ratio", "1:3", "--tol", "0"],
     "--tol: must be positive, got 0"),
    ("--tol must be positive",
     ["fairpart", "band", "--shape", "rect:1x1", "--ratio", "1:3", "--tol", "nan"],
     "tol must be positive, got nan"),
    ("--samples must be at least 4",
     ["fairpart", "profile", "--shape", "rect:4x1", "--ratio", "1:3", "--samples", "3"],
     "need at least 4 angle samples, got 3"),
    ("--samples must be at least 4",
     ["fairpart", "solve", "--shape", "rect:4x1", "--ratio", "1:3", "--samples", "3"],
     "need at least 4 angle samples, got 3"),
    ("--samples must be at least 4",
     ["fairpart", "disc", "--ratio", "1:3", "--ngon", "64", "--samples", "3"],
     "--samples: must be at least 4, got 3"),
    # --samples without --ngon reaches no library call
    ("--samples must be at least 4", ["fairpart", "disc", "--ratio", "1:3", "--samples", "3"],
     "--samples: must be at least 4, got 3"),
]


@pytest.mark.parametrize(
    "argv, message",
    [case[1:] for case in BAD_FAIRPART_NUMBERS],
    ids=case_ids(BAD_FAIRPART_NUMBERS),
)
def test_fairpart_bad_numbers_are_usage_errors(tmp_path, capsys, argv, message):
    # exit 2 even under --expect-infeasible: a bad input is no negative answer
    for extra in ([], ["--expect-infeasible"]):
        assert main(argv + extra + ["--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_fairpart_disc(tmp_path):
    rc, report, _ = run(tmp_path, "fairpart", "disc", "--ratio", "1:3")
    assert rc == 1
    assert report["chord_solve"]["achievable"] is False
    rc2, report2, _ = run(tmp_path, "fairpart", "disc", "--ratio", "1:1", name="o2")
    assert rc2 == 0
    assert report2["chord_solve"]["achievable"] is True


def test_fairpart_band_solution(tmp_path):
    rc, report, out = run(
        tmp_path, "fairpart", "band", "--shape", "rect:1x1", "--ratio", "1:3", "--svg"
    )
    assert rc == 0
    assert report["found"] is True
    sol = report["solution"]
    assert abs(float(sol["rho"]) - (1 / 3) ** 0.5) <= 1e-6
    assert (out / "pieces.svg").read_text().count("<polygon") == 2


def test_fairpart_band_finds_a_band_just_inside_its_run(tmp_path):
    rc, report, _ = run(
        tmp_path, "fairpart", "band", "--shape", "rect:2x1/4", "--ratio", "3:4"
    )
    assert rc == 0
    assert abs(float(report["solution"]["rho"]) - math.sqrt(3 / 4)) <= 1e-9


def test_fairpart_band_samples_flag_has_no_effect(tmp_path):
    argv = ["fairpart", "band", "--shape", "rect:1x1", "--ratio", "1:3"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--samples", "200", "--out", str(tmp_path / "b")]) == 0
    a, b = (tmp_path / name / "report.json" for name in "ab")
    assert a.read_bytes() == b.read_bytes()


def test_fairpart_band_gap(tmp_path):
    rc, report, _ = run(
        tmp_path, "fairpart", "band", "--shape", "rect:1x1", "--ratio", "16:25"
    )
    assert rc == 1
    assert report["found"] is False
    assert report["feasible_runs"]
    assert report["infeasible_reasons"]


def test_fairpart_band_rejects_ngon(tmp_path, capsys):
    rc = main(
        ["fairpart", "band", "--shape", "ngon:7", "--ratio", "1:3",
         "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    assert "rect:WxH" in capsys.readouterr().err


def test_bad_shape_is_usage_error(tmp_path, capsys):
    rc = main(
        ["fairpart", "solve", "--shape", "blob:3", "--ratio", "1:3",
         "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    assert "unknown shape" in capsys.readouterr().err


def test_bad_ngon_names_the_flag_and_value(tmp_path, capsys):
    rc = main(
        ["fairpart", "solve", "--shape", "ngon:abc", "--ratio", "1:3",
         "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "--shape" in err and "ngon:abc" in err
    assert "int()" not in err


def test_shapes_maxdiam(tmp_path):
    rc, report, out = run(
        tmp_path, "shapes", "maxdiam", "--area", "0.5", "--perimeter", "4", "--svg"
    )
    assert rc == 0
    assert report["feasible"] is True
    assert (out / "outline.svg").exists()
    rc2, report2, _ = run(
        tmp_path, "shapes", "maxdiam", "--area", "10", "--perimeter", "4", name="o2"
    )
    assert rc2 == 1
    assert report2["feasible"] is False


def test_shapes_mindiam_regimes(tmp_path):
    rc, report, out = run(tmp_path, "shapes", "mindiam", "--area", "0.71", "--svg")
    assert rc == 0
    assert report["best"]["family"] == "constant-width"
    # the outline is drawn from the interpolant at the reported t
    shapes = []
    for c in report["candidates"]:
        if c["family"] == "sector":
            shapes.append(ArcPolygon.sector(float(c["radius"]), float(c["phi"])))
        else:
            shapes.append(interpolate_constant_width(float(c["t"]), float(report["width"])))
    assert (out / "outline.svg").read_text() == svg_outlines(shapes)
    rc2, report2, _ = run(tmp_path, "shapes", "mindiam", "--area", "0.65", name="o2")
    assert rc2 == 1
    assert report2["feasible"] is True
    assert report2["candidates"] == []


def test_shapes_interp(tmp_path):
    rc, report, _ = run(
        tmp_path, "shapes", "interp", "--t", "0.5", "--samples", "720"
    )
    assert rc == 0
    assert float(report["width_spread"]) <= 1e-9
    assert abs(float(report["perimeter"]) - 3.14159265) <= 1e-4
    # --samples adds a sampled cross-check beside the exact answer
    sampled = report["sampled"]
    assert sampled["samples"] == 720
    assert abs(float(sampled["area"]) - float(report["area"])) <= 1e-4
    assert float(sampled["width_spread"]) <= 1e-9
    rc, report, _ = run(tmp_path, "shapes", "interp", "--t", "0.5", name="o2")
    assert rc == 0 and "sampled" not in report


@pytest.mark.parametrize(
    "argv",
    [
        ["shapes", "maxdiam", "--area", "0.5", "--perimeter", "4"],
        ["shapes", "mindiam", "--area", "0.71"],
        ["shapes", "mindiam", "--area", "0.55"],
        ["shapes", "interp", "--t", "0.37"],
    ],
)
def test_shape_outlines_are_a_few_arcs(tmp_path, monkeypatch, argv):
    # nothing is sampled: no support body is built
    def no_sampling(*args):
        raise AssertionError("a shapes command built a SupportBody")

    monkeypatch.setattr(SupportBody, "__init__", no_sampling)
    rc, _, out = run(tmp_path, *argv, "--svg")
    assert rc == 0
    paths = ET.parse(out / "outline.svg").getroot().findall("{http://www.w3.org/2000/svg}path")
    assert len(paths) == 1
    d = paths[0].get("d")
    assert " A " in d and d.count(",") <= 24


def test_shapes_crossover_prints_both_sides(tmp_path, capsys):
    rc, report, _ = run(tmp_path, "shapes", "crossover")
    assert rc == 0
    text = capsys.readouterr().out
    assert "conjectured crossover" in text
    assert "recomputed sector knee" in text
    assert abs(float(report["conjectured"]["diameter"]) - 1.045) <= 1e-12
    assert abs(float(report["crossover"]["radius"]) - 1.0309777) <= 1e-6


def test_poly_build_obj(tmp_path):
    rc, report, out = run(tmp_path, "poly", "build", "--solid", "rco", "--obj")
    assert rc == 0
    obj = (out / "rco.obj").read_text()
    assert sum(1 for ln in obj.splitlines() if ln.startswith("v ")) == 24
    assert sum(1 for ln in obj.splitlines() if ln.startswith("f ")) == 26
    assert report["faces_by_side_count"] == {"3": 8, "4": 18}


def test_poly_build_domain_rejection(tmp_path, capsys):
    rc, report, _ = run(
        tmp_path, "poly", "build", "--solid", "icosa-dipyramid", "--l", "3.0"
    )
    assert rc == 1
    assert report["feasible"] is False
    assert "too short" in report["error"]
    assert "rejected" in capsys.readouterr().out


def test_poly_build_adjacent_pyramids_too_tall(tmp_path, capsys):
    # the adjacent pyramids of height a/2 or more make no convex solid: an
    # answer (exit 1 with its report), not a usage error
    rc, report, _ = run(
        tmp_path, "poly", "build", "--solid", "cube-pyr-adjacent", "--h", "0.6"
    )
    assert rc == 1
    assert report == {
        "command": "poly build",
        "error": "pyramid height must satisfy h < a/2 to keep convexity",
        "feasible": False,
    }
    assert "rejected" in capsys.readouterr().out
    rc, report, _ = run(
        tmp_path, "poly", "build", "--solid", "cube-pyr-opposite", "--h", "0.6", name="o2"
    )
    assert rc == 0 and report["convex"] is True


def test_poly_build_unknown_solid(tmp_path, capsys):
    rc = main(["poly", "build", "--solid", "blob", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown solid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, accepted",
    [
        (["build", "--solid", "rco", "--a", "-1"], False),
        (["build", "--solid", "icosa-dipyramid", "--h", "0.2"], False),
        (["compare", "--solids", "rco,pseudo-rco", "--s", "2"], False),
        (["compare", "--solids", "cube-pyr-opposite,rco", "--a", "1.5"], True),
        (["build", "--solid", "cube-pyr-adjacent", "--a", "1.5", "--h", "0.3"], True),
    ],
)
def test_poly_dimension_flags_must_be_read(tmp_path, capsys, argv, accepted):
    rc = main(["poly"] + argv + ["--out", str(tmp_path)])
    if accepted:
        assert rc == 0
    else:
        assert rc == 2
        assert "read by none of the solids" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


def test_poly_compare(tmp_path):
    rc, report, _ = run(
        tmp_path, "poly", "compare", "--solids", "rco,pseudo-rco"
    )
    assert rc == 0
    assert report["multiset_classes"] == [["rco", "pseudo-rco"]]
    assert report["congruence_classes"] == [["rco"], ["pseudo-rco"]]


def test_json_flag_prints_report(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(
        ["fairpart", "band", "--shape", "rect:1x1", "--ratio", "1:3",
         "--json", "--out", str(out)]
    )
    assert rc == 0
    assert capsys.readouterr().out == (out / "report.json").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["tiling", "enumerate", "--tiles", SEVEN_TILES],
        ["fairpart", "solve", "--shape", "rect:4x1", "--ratio", "1:3"],
        ["shapes", "crossover"],
        ["poly", "compare", "--solids", "cube-pyr-opposite,cube-pyr-adjacent"],
    ],
)
def test_reports_are_byte_identical_across_runs(tmp_path, argv):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == main(argv + ["--out", str(b)])
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_one_command_of_each_family_runs_without_numpy(tmp_path):
    # convexkit has no runtime dependency; a fresh interpreter shows what a
    # command imports, where this test process has numpy loaded already
    runs = [
        (["tiling", "search-iso", "--n", "4"], 1),
        (["fairpart", "solve", "--shape", "rect:4x1", "--ratio", "1:3", "--svg"], 0),
        (["shapes", "interp", "--t", "0.5", "--samples", "720", "--svg"], 0),
        (["poly", "compare", "--solids", "rco,pseudo-rco"], 0),
    ]
    script = "\n".join([
        "import sys",
        "from convexkit.cli import main",
        f"for argv, rc in {runs!r}:",
        f"    assert main(argv + ['--out', {str(tmp_path)!r}]) == rc, argv",
        "assert 'numpy' not in sys.modules, 'a command imported numpy'",
    ])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
