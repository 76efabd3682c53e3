"""The value contract of `src/convexkit` (see `convexkit.Frozen`): every
class is a `NamedTuple` result, a `Frozen` value or an exception, and only
`Frozen` defines `__eq__`, so every value compares, hashes, copies,
pickles and rejects assignment by the one rule."""

import ast
import importlib
import os

import convexkit
from convexkit import Frozen

SRC = os.path.dirname(convexkit.__file__)

# the one working object: a fair-cut sweep is built per polygon and ratio
# and answers point(theta) from the events it walked, so it is no value
NOT_VALUES = {"convexkit.fairpart._ChordSweep"}


def source_classes():
    """(module name, class node) for every class defined in src/convexkit."""
    for root, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as f:
                    tree = ast.parse(f.read(), path)
                parts = os.path.relpath(path, SRC)[:-3].split(os.sep)
                module = ".".join(["convexkit", *parts]).removesuffix(".__init__")
                for node in ast.walk(tree):
                    if isinstance(node, ast.ClassDef):
                        yield module, node


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
    for module, cls in source_classes():
        seen.add(cls.name)
        if cls.name == "Frozen":
            continue
        names = defined_names(cls)
        bases = {b.id for b in cls.bases if isinstance(b, ast.Name)}
        if "__eq__" in names:
            found.append(f"{module}:{cls.lineno}: {cls.name} defines __eq__")
        if "__slots__" in names and "Frozen" not in bases:
            found.append(f"{module}:{cls.lineno}: {cls.name} has __slots__ but does not derive from Frozen")
    assert not found
    assert {"Frozen", "PositivePoint", "ConvexPolygon", "TileSet", "ArcPolygon", "SupportBody",
            "ParamSolution"} <= seen


def test_every_class_is_a_named_tuple_a_frozen_value_or_an_exception():
    found = []
    for module, node in source_classes():
        # a nested class is no module attribute: it reads as `object`, and is reported
        cls = getattr(importlib.import_module(module), node.name, object)
        if not (issubclass(cls, tuple) and hasattr(cls, "_fields") or issubclass(cls, (Frozen, Exception))):
            found.append(f"{module}.{node.name}")
    assert sorted(found) == sorted(NOT_VALUES)
