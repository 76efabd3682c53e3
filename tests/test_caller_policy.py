"""Nothing in `src/convexkit` without a caller: every public function,
class, method and module-level UPPERCASE constant is referenced by name
somewhere in `src/` besides its own definition, or is listed in ALLOWED
with the reason it stays.  A name that only the tests use belongs in
`tests/` (as `tests/reference.py` holds the oracles).

The check is by name, not by binding: a reference to `area` counts for
every definition called `area`, so two definitions that share a name both
count as referenced when either one is.  References inside a definition's
own body do not count for it, so recursion alone is no caller."""

import ast
import os
from collections import Counter

import convexkit

SRC = os.path.dirname(convexkit.__file__)

# qualified name -> why it stays without a caller in src/
ALLOWED = {
    "convexkit.kernel.arcs.ArcPolygon.polygon":
        "the exact outline of a polygon: the oracle that arc-kernel and extremal tests "
        "measure polygons with, and the triangle of the planned triangle-to-Reuleaux family",
    "convexkit.kernel.support.SupportBody.boundary_points":
        "wrapped by the benchmark tracer until the sampled support body leaves src/",
    "convexkit.tiling.isoperimetric.solve_isoperimetric":
        "the fresh per-floorplan solve, oracle of the isoperimetric walk, hooked by the "
        "benchmark tracer until the general elimination moves to tests/",
}


def _modules():
    """(module name, parsed tree) for every module of src/convexkit."""
    for root, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as f:
                    tree = ast.parse(f.read(), path)
                parts = os.path.relpath(path, SRC)[:-3].split(os.sep)
                yield ".".join(["convexkit", *parts]).removesuffix(".__init__"), tree


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node) of each public module-level
    function, class and UPPERCASE constant, and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for t in targets:
            if isinstance(t, ast.Name) and t.id.isupper() and not t.id.startswith("_"):
                yield f"{module}.{t.id}", t.id, node


def _references(node: ast.AST) -> Counter:
    """Names read in the subtree: bare names and attribute names."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            refs[sub.attr] += 1
    return refs


def uncalled() -> list:
    """Qualified names of the public definitions no other code in src/ names."""
    trees = list(_modules())
    refs = Counter()
    for _, tree in trees:
        refs += _references(tree)
    found = []
    for module, tree in trees:
        for qualname, name, node in _definitions(module, tree):
            if refs[name] == _references(node)[name]:
                found.append(qualname)
    return found


def test_every_public_name_has_a_caller_in_src():
    assert [q for q in uncalled() if q not in ALLOWED] == []


def test_every_allowed_name_exists_and_still_has_no_caller():
    # an entry that gained a caller, or lost its definition, is stale
    assert sorted(q for q in uncalled() if q in ALLOWED) == sorted(ALLOWED)
