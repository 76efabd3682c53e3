"""The value contract of `src/convexkit` (see `convexkit.Frozen`): a class
that keeps its fields in `__slots__` derives from `Frozen`, and only
`Frozen` defines `__eq__`, so every value compares, hashes, copies,
pickles and rejects assignment by the one rule."""

import ast
import os

import convexkit

SRC = os.path.dirname(convexkit.__file__)

# PositivePoint compares by the interval it denotes, not by its stored
# ends, and builds its Fraction views on first use, which needs a __dict__
EXEMPT = {"PositivePoint"}


def source_classes():
    """(path under src/convexkit, class node) for every class defined there."""
    for root, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as f:
                    tree = ast.parse(f.read(), path)
                for node in ast.walk(tree):
                    if isinstance(node, ast.ClassDef):
                        yield os.path.relpath(path, SRC), node


def defined_names(cls: ast.ClassDef) -> set:
    """The names bound in the class body: methods and assignments."""
    names = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return names


def test_only_frozen_defines_equality_and_every_slotted_class_derives_from_it():
    found, seen = [], set()
    for path, cls in source_classes():
        seen.add(cls.name)
        if cls.name == "Frozen" or cls.name in EXEMPT:
            continue
        names = defined_names(cls)
        bases = {b.id for b in cls.bases if isinstance(b, ast.Name)}
        if "__eq__" in names:
            found.append(f"{path}:{cls.lineno}: {cls.name} defines __eq__")
        if "__slots__" in names and "Frozen" not in bases:
            found.append(f"{path}:{cls.lineno}: {cls.name} has __slots__ but does not derive from Frozen")
    assert not found
    assert {"Frozen", "PositivePoint", "ConvexPolygon", "TileSet", "ArcPolygon", "SupportBody",
            "ParamSolution"} <= seen
