"""No tolerance floor in `src/convexkit`: a tolerance is a ratio to the
size of what it measures, never `tol * max(1.0, size)`.  Such a floor
stops shrinking below unit size, so a small body is judged by a coarser
rule than its scaled-up copy: small solids were refused as degenerate, and
small non-convex support functions were accepted.

The check reads the source with `ast` and flags every `max(...)` call with
a literal 1 or 1.0 among its arguments."""

import ast
import os

import convexkit

SRC = os.path.dirname(convexkit.__file__)


def _floor_lines(tree: ast.AST) -> list:
    """Lines of the `max` calls in the tree with a literal 1 argument."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "max"
        and any(isinstance(a, ast.Constant) and type(a.value) in (int, float) and a.value == 1
                for a in node.args)
    )


def floors() -> list:
    """(path relative to src/convexkit, line) of each floor in the package."""
    found = []
    for root, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as f:
                    tree = ast.parse(f.read(), path)
                found += [(os.path.relpath(path, SRC), line) for line in _floor_lines(tree)]
    return found


def test_no_tolerance_is_floored_at_unit_size():
    assert floors() == []


def test_the_scan_sees_a_floor():
    source = "tol = 1e-9 * max(1.0, size)\nk = max(1, n)\nm = max(0.5, x)\nb = max(True, x)\n"
    assert _floor_lines(ast.parse(source)) == [1, 2]
