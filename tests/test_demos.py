"""Every demo script runs to completion against the current public API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    done = run_demo(demo, tmp_path)
    assert done.returncode == 0, done.stderr


def test_lens_demo_prints_how_close_the_polygons_came(tmp_path):
    # every polygon is shorter than its lens, so the worst margin is negative
    done = run_demo(ROOT / "demos" / "shape_extremes_tour.py", tmp_path)
    assert done.returncode == 0, done.stderr
    margin = float(re.search(r"worst margin (\S+)\)", done.stdout).group(1))
    assert margin < 0
