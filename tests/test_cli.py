"""End-to-end runs of the command-line interface.

Everything goes through main(argv) in-process; each run writes report.json
into a fresh tmp directory and the tests read it back.
"""

import json
import os

import pytest

from convexkit.cli import main

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
    assert "tile file error" in err
    assert "line 2" in err


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


def test_tiling_search_iso_small_n(tmp_path):
    rc, report, _ = run(tmp_path, "tiling", "search-iso", "--n", "3")
    assert rc == 1
    assert report["status"] == "exhausted-no-solution"
    assert report["examined_floorplans"] == 6
    rc2 = main(
        ["tiling", "search-iso", "--n", "3", "--expect-infeasible",
         "--out", str(tmp_path / "o2")]
    )
    assert rc2 == 0


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
    rc, report, _ = run(tmp_path, "shapes", "mindiam", "--area", "0.71")
    assert rc == 0
    assert report["best"]["family"] == "constant-width"
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


def test_poly_build_unknown_solid(tmp_path, capsys):
    rc = main(["poly", "build", "--solid", "blob", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown solid" in capsys.readouterr().err


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
