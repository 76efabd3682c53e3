"""Importing one subsystem loads only the modules it uses: the packages
re-export nothing, so every name comes from the module that defines it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_by(module: str) -> set:
    """The convexkit modules in sys.modules after a fresh interpreter
    imports `module`."""
    script = (
        f"import sys, {module}\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'convexkit'))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


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
