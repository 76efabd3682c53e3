"""Importing one subsystem loads only the modules it uses: the packages
re-export nothing, so every name comes from the module that defines it.
The records are NamedTuples or slotted classes, not dataclasses, so start-up
builds no dataclass; the immutable ones reject assignment and, like frozen
dataclasses, compare, hash, print, copy and pickle by their fields."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from convexkit.extremal import Lens, max_diameter_shape
from convexkit.fairpart import LineCut, RatioTarget, find_scaled_fair_cut, solve_band, split
from convexkit.kernel.polygon import rectangle
from convexkit.polyhedra import build_cube_with_pyramids, build_rhombicuboctahedron
from convexkit.tiling.hcn import HcnContext, construct_width_layout
from convexkit.tiling.isoperimetric import search_isoperimetric
from convexkit.tiling.search import enumerate_layouts
from convexkit.tiling.tiles import Layout, Placement, Tile, TileSet, verify_layout
from reference import enumerate_floorplans

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_modules(module: str) -> set:
    """Every module in sys.modules after a fresh interpreter imports `module`."""
    script = f"import sys, {module}\nprint(*sorted(sys.modules))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def loaded_by(module: str) -> set:
    """The convexkit modules in sys.modules after a fresh interpreter
    imports `module`."""
    return {m for m in fresh_modules(module) if m.split(".")[0] == "convexkit"}


def test_polyhedra_loads_only_itself():
    assert loaded_by("convexkit.polyhedra") == {"convexkit", "convexkit.polyhedra"}


@pytest.mark.parametrize(
    "module, absent",
    [
        ("convexkit.fairpart",
         ["tiling", "polyhedra", "extremal", "kernel.linsolve", "kernel.arcs", "kernel.support"]),
        ("convexkit.tiling.isoperimetric",
         ["fairpart", "polyhedra", "extremal", "kernel.polygon"]),
    ],
    ids=["fairpart", "tiling.isoperimetric"],
)
def test_subsystem_loads_no_unrelated_module(module, absent):
    loaded = loaded_by(module)
    assert module in loaded
    for name in absent:
        prefix = f"convexkit.{name}"
        assert not {m for m in loaded if m == prefix or m.startswith(prefix + ".")}, name


def test_cli_start_up_loads_no_dataclasses():
    """`dataclasses` (which loads `inspect`) cost about 25 ms of each run's
    start-up when 21 records were dataclasses."""
    loaded = fresh_modules("convexkit.cli")
    assert "convexkit.cli" in loaded
    assert not {"dataclasses", "inspect"} & loaded


def _unit_squares(n: int) -> TileSet:
    return TileSet([Tile(k, Fraction(1), Fraction(1)) for k in range(1, n + 1)])


# (record, one of its fields, a builder), for every record that was a
# frozen dataclass
FROZEN_RECORDS = [
    ("RatioTarget", "a", lambda: RatioTarget(1, 3)),
    ("LineCut", "offset", lambda: LineCut(0.5, 0.1)),
    ("SplitResult", "area_a", lambda: split(rectangle(2, 1), LineCut(0.5, 0.1))),
    ("FairCutResult", "found", lambda: find_scaled_fair_cut(rectangle(4, 1), RatioTarget(1, 3))),
    ("BandSolveResult", "found", lambda: solve_band(1.0, 1.0, RatioTarget(1, 3))),
    ("BandSample", "rho", lambda: solve_band(1.0, 1.0, RatioTarget(1, 3)).sample),
    ("BandRun", "s_lo", lambda: solve_band(1.0, 1.0, RatioTarget(1, 3)).runs[0]),
    ("Lens", "alpha", lambda: max_diameter_shape(0.5, 4.0)),
    ("Mesh", "planes", build_rhombicuboctahedron),
    ("HcnContext", "L", lambda: HcnContext(60, 5, 4)),
    ("Tile", "width", lambda: Tile(1, Fraction(1), Fraction(2))),
    ("Placement", "x", lambda: Placement(1, Fraction(0), Fraction(0))),
    ("Layout", "placements", lambda: construct_width_layout(HcnContext(60, 5, 4), 10)),
    ("DefectReport", "kind",
     lambda: verify_layout(_unit_squares(1), Layout(Fraction(2), Fraction(1), ()))),
    ("TilingResult", "width", lambda: enumerate_layouts(_unit_squares(2))[0]),
    ("Floorplan", "rooms", lambda: enumerate_floorplans(3)[0]),
    ("ForcedPair", "relation", lambda: search_isoperimetric(4).forced[0]),
    ("IsoWitness", "areas", lambda: search_isoperimetric(7, 1).witnesses[0]),
    ("IsoSearchResult", "status", lambda: search_isoperimetric(4)),
]


@pytest.mark.parametrize("name, field, build", FROZEN_RECORDS, ids=[r[0] for r in FROZEN_RECORDS])
def test_immutable_records_reject_assignment(name, field, build):
    record = build()
    assert type(record).__name__ == name
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def _fields(record) -> tuple:
    return getattr(record, "_fields", None) or type(record).__slots__


# Records holding a ConvexPolygon or a TileSet, which compare by identity:
# their copies are compared by their pickled bytes instead.
HOLDS_IDENTITY_FIELDS = {"SplitResult", "IsoWitness"}


@pytest.mark.parametrize("name, field, build", FROZEN_RECORDS, ids=[r[0] for r in FROZEN_RECORDS])
def test_records_copy_pickle_hash_and_print_by_their_fields(name, field, build):
    record = build()
    by_value = name not in HOLDS_IDENTITY_FIELDS
    clones = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
    for clone in clones:
        assert type(clone) is type(record)
        if by_value:
            assert clone == record
        else:
            assert pickle.dumps(clone) == pickle.dumps(record)
    try:
        hash(tuple(getattr(record, f) for f in _fields(record)))
    except TypeError:
        pass
    else:
        hashes = {hash(r) for r in [record] + clones}
        assert len(hashes) == 1 or not by_value
    text = repr(record)
    assert text.startswith(f"{name}(")
    assert all(f"{f}=" in text for f in _fields(record))


def test_frozen_records_compare_by_value_and_take_each_field():
    assert LineCut(0.5, 0.1) == LineCut(0.5, 0.1) != LineCut(0.5, 0.2)
    assert max_diameter_shape(0.5, 4.0) == max_diameter_shape(0.5, 4.0) != max_diameter_shape(0.5, 3.0)
    assert build_rhombicuboctahedron() == build_rhombicuboctahedron()
    assert build_cube_with_pyramids(mode="opposite") != build_cube_with_pyramids(mode="adjacent")
    assert len({Tile(1, Fraction(1), Fraction(2)), Tile(1, Fraction(1), Fraction(2))}) == 1
    for make, values in [(Tile, (1, Fraction(1))), (Tile, (1, 1, 2, 3)), (Lens, (1.0,)),
                         (HcnContext, (60, 5))]:
        with pytest.raises(TypeError, match="fields"):
            make(*values)
