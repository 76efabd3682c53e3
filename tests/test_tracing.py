"""The traced benchmark harness still fits the program.

`perfbench/tracing.py` wraps convexkit functions and methods by name (its
`LAYERS` and `METHODS`) and reads counters off their arguments and results
(its hooks).  A change that deletes or reshapes a name it needs breaks every
traced benchmark run; this test loads the harness file as it is, traces one
small command per family, and restores the program."""

import importlib.util
from pathlib import Path

import convexkit.cli as cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# each run exits 0; search-iso at n = 3 certifies that no tiling exists,
# and at n = 7 builds a witness on the canonical line
COMMANDS = [
    ["tiling", "search-iso", "--n", "3", "--expect-infeasible"],
    ["tiling", "search-iso", "--n", "7", "--limit", "1"],
    ["tiling", "hcn", "--h", "60", "--i", "5", "--length", "4"],
    ["fairpart", "solve", "--shape", "rect:4x1", "--ratio", "1:3", "--samples", "16"],
    ["fairpart", "disc", "--ratio", "1:3", "--ngon", "64", "--expect-infeasible"],
    ["shapes", "interp", "--t", "0.5", "--samples", "64"],
    ["poly", "build", "--solid", "rco"],
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_traces_and_uninstalls(tmp_path):
    tracing = load_tracing()
    main = cli.main
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.main is not main
        for k, argv in enumerate(COMMANDS):
            assert cli.main(argv + ["--out", str(tmp_path / str(k))]) == 0, argv
        metrics = tracer.take()
    finally:
        tracer.uninstall()
    assert cli.main is main
    assert metrics["cli.calls"] == len(COMMANDS)
    for counter in ("tiling.isoperimetric.floorplans_examined", "tiling.isoperimetric.witnesses",
                    "tiling.hcn.census_widths", "kernel.polygon.constructs", "kernel.support.bodies",
                    "polyhedra.meshes", "cli.bytes_written"):
        assert metrics[counter] > 0, counter
