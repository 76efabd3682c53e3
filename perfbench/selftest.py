"""Tests of the benchmark itself, on a tiny input per workload.

    python3 -m pytest perfbench/selftest.py -q

They check that the per-layer wrapping really intercepts calls (every layer
records spans on the workload where it does most of its work, including
calls made through names imported into other modules), that layer self
times plus the benchmark's own overhead account for the traced wall time,
that the output oracles reject wrong answers, and that the speed-scaling
timer samples the machine's speed during a job.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import convexkit.cli as cli  # noqa: E402
import convexkit.kernel.linsolve as linsolve  # noqa: E402
import convexkit.tiling.isoperimetric as isoperimetric  # noqa: E402
from convexkit.kernel.polygon import ConvexPolygon  # noqa: E402
from convexkit.kernel.support import SupportBody  # noqa: E402
from jobs import SEVEN_TILES, write_layout  # noqa: E402
from oracles import CheckFailed, check_tiling, cut_rho, polygon_points, two_tile_targets  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

# The workload where each layer does most of its work.
HOME = {
    "cli": "shapes-solids",
    "fairpart": "fair-cuts",
    "extremal": "shapes-solids",
    "polyhedra": "shapes-solids",
    "tiling.tiles": "records-layouts",
    "tiling.search": "records-layouts",
    "tiling.floorplans": "iso-exact",
    "tiling.isoperimetric": "iso-exact",
    "tiling.hcn": "records-layouts",
    "kernel.linsolve": "iso-exact",
    "kernel.polygon": "fair-cuts",
    "kernel.support": "shapes-solids",
}


def tiny_jobs(workload: str, tmp: Path) -> list:
    """(argv, prepare) pairs: the workload's commands at tiny sizes."""
    if workload == "iso-exact":
        return [(["tiling", "search-iso", "--n", "4"], None)]
    if workload == "fair-cuts":
        return [
            (["fairpart", "solve", "--shape", "rect:4x1", "--ratio", "1:3", "--samples", "16"], None),
            (["fairpart", "disc", "--ratio", "1:3", "--ngon", "64", "--samples", "16",
              "--expect-infeasible"], None),
            (["fairpart", "band", "--shape", "rect:1x1", "--ratio", "1:3", "--samples", "200"], None),
        ]
    if workload == "records-layouts":
        tiles, layout = tmp / "seven.tiles", tmp / "layout.json"
        tiles.write_text(SEVEN_TILES)
        return [
            (["tiling", "hcn", "--limit", "5000"], None),
            (["tiling", "hcn", "--h", "60", "--i", "5", "--length", "4"], None),
            (["tiling", "enumerate", "--tiles", str(tiles)], None),
            (["tiling", "verify", "--tiles", str(tiles), "--layout", str(layout)],
             write_layout(tmp / "out2", layout)),
        ]
    return [
        (["shapes", "mindiam", "--area", "0.75"], None),
        (["shapes", "interp", "--t", "0.5", "--samples", "720", "--svg"], None),
        (["poly", "build", "--solid", "rco", "--obj"], None),
    ]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """For each workload: per-job harness wall times and the spans."""
    out = {}
    for workload in HOME.values():
        if workload in out:
            continue
        tmp = tmp_path_factory.mktemp(workload)
        tracer = Tracer()
        tracer.install()
        try:
            walls = []
            for k, (argv, prepare) in enumerate(tiny_jobs(workload, tmp)):
                if prepare is not None:
                    prepare()
                tracer.job = k
                with contextlib.redirect_stdout(io.StringIO()):
                    t0 = time.perf_counter()
                    rc = cli.main(argv + ["--out", str(tmp / f"out{k}")])
                    walls.append(time.perf_counter() - t0)
                assert rc in (0, 1), argv  # 1 is a valid "not found" answer
            own = tracer.self_times()
            spans = [(tracer.functions[f][0], p, j, e - s, t)
                     for f, p, j, s, e, t in zip(tracer.fid, tracer.parent, tracer.jobs,
                                                 tracer.start, tracer.end, own)]
            metrics = tracer.take()
        finally:
            tracer.uninstall()
        out[workload] = (walls, spans, metrics)
    return out


def test_wrapping_patches_every_name_and_uninstall_restores():
    originals = (linsolve.solve_linear_exact, isoperimetric.solve_linear_exact,
                 isoperimetric.positive_point, cli.HANDLERS[("tiling", "search-iso")],
                 ConvexPolygon.__init__, SupportBody.__dict__["disc"])
    tracer = Tracer()
    tracer.install()
    try:
        # isoperimetric imports the solver by name: that binding is patched too
        assert isoperimetric.solve_linear_exact is linsolve.solve_linear_exact
        assert isoperimetric.solve_linear_exact is not originals[0]
        assert isoperimetric.positive_point is not originals[2]
        assert cli.HANDLERS[("tiling", "search-iso")] is not originals[3]
        assert ConvexPolygon.__init__ is not originals[4]
        assert isinstance(SupportBody.__dict__["disc"], classmethod)
        assert SupportBody.disc(1.0, 8).samples[0] == 0.5
    finally:
        tracer.uninstall()
    assert (linsolve.solve_linear_exact, isoperimetric.solve_linear_exact,
            isoperimetric.positive_point, cli.HANDLERS[("tiling", "search-iso")],
            ConvexPolygon.__init__, SupportBody.__dict__["disc"]) == originals


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_each_layer_records_spans_on_its_workload(traced, layer):
    _, spans, metrics = traced[HOME[layer]]
    assert sum(1 for s in spans if s[0] == layer) > 0
    assert metrics[f"{layer}.self_s"] > 0


@pytest.mark.parametrize("workload", sorted(set(HOME.values())))
def test_self_times_account_for_traced_wall(traced, workload):
    walls, spans, metrics = traced[workload]
    assert all(t >= -1e-9 for *_, t in spans)
    roots = [0.0] * len(walls)
    for layer, parent, job, dur, _ in spans:
        if parent < 0:
            assert layer == "cli"  # every call into the program starts at cli.main
            roots[job] += dur
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert layer_self == pytest.approx(sum(roots), abs=1e-6)
    for wall, root in zip(walls, roots):
        overhead = wall - root  # harness timer outside the root span
        assert 0 <= overhead <= 0.05 * wall + 0.002


def test_metrics_cover_the_declared_list(traced):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    for _, _, metrics in traced.values():
        assert set(metrics) == {m["name"] for m in declared}
    assert traced["iso-exact"][2]["tiling.isoperimetric.floorplans_examined"] == 22
    assert traced["fair-cuts"][2]["fairpart.refine_solves"] > 0


def test_oracles_reject_wrong_answers():
    tiles = {1: (Fraction(1), Fraction(2)), 2: (Fraction(1), Fraction(2))}
    good = [{"id": 1, "x": "0", "y": "0", "rotated": False},
            {"id": 2, "x": "1", "y": "0", "rotated": False}]
    check_tiling(tiles, Fraction(2), Fraction(2), good)
    overlap = [good[0], {"id": 2, "x": "1/2", "y": "0", "rotated": False}]
    with pytest.raises(CheckFailed):
        check_tiling(tiles, Fraction(2), Fraction(2), overlap)
    assert two_tile_targets((Fraction(1, 3), Fraction(1)), (Fraction(1), Fraction(1, 5))) == {
        (Fraction(1), Fraction(8, 15))}
    assert cut_rho(polygon_points("rect:4x1"), 0.0, 0.25) == pytest.approx(17 / 19, abs=1e-12)


def test_only_the_known_defect_may_raise_without_a_wrong_answer(tmp_path):
    from types import SimpleNamespace

    from jobs import Job
    from run import run_job

    def raising(exc):
        def main(argv):
            raise exc
        return SimpleNamespace(main=main)

    known = Job("census", ["tiling"], (0,), lambda o: None, known_defect=RecursionError)
    other = Job("split", ["tiling"], (0,), lambda o: None)
    _, failure, bad = run_job(raising(RecursionError("deep")), known, tmp_path, {})
    assert failure.startswith("raised RecursionError") and not bad
    assert run_job(raising(ValueError("bad")), known, tmp_path, {})[2]
    assert run_job(raising(RecursionError("deep")), other, tmp_path, {})[2]


def test_timer_samples_speed_during_a_job_and_leaves_out_its_handler():
    import signal

    from speed import TICK_S, Timer

    before = signal.getsignal(signal.SIGALRM)
    with Timer() as timer:
        end = time.perf_counter() + 10 * TICK_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    # before, after, and about one sample per tick in between
    assert len(timer.samples) >= 5
    assert timer.handler_s > 0
    assert timer.seconds == pytest.approx(10 * TICK_S - timer.handler_s, abs=0.005)
    with Timer(ticking=False) as quiet:
        time.sleep(2 * TICK_S)
    assert len(quiet.samples) == 2 and quiet.handler_s == 0
