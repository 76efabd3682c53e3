"""Per-layer spans and counters recorded from outside the program.

`Tracer.install()` wraps the public functions and the constructors of each
layer (a convexkit module) and patches every name that refers to them: the
module attribute, every other convexkit module that imported the name, and
module-level dispatch tables such as `cli.HANDLERS`.  So a call is caught
wherever the caller looks the name up.  Each call records a span (function,
start, end, parent span, job id) into flat arrays kept in memory; counters
are computed at the same boundaries from arguments and return values.

A layer's self time is the duration of its spans minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# layer -> modules whose functions count for it.  The kernel.rational
# parse/format helpers count under cli.
LAYERS = {
    "cli": ("convexkit.cli", "convexkit.kernel.rational"),
    "fairpart": ("convexkit.fairpart",),
    "extremal": ("convexkit.extremal",),
    "polyhedra": ("convexkit.polyhedra",),
    "tiling.tiles": ("convexkit.tiling.tiles",),
    "tiling.search": ("convexkit.tiling.search",),
    "tiling.floorplans": ("convexkit.tiling.floorplans",),
    "tiling.isoperimetric": ("convexkit.tiling.isoperimetric",),
    "tiling.hcn": ("convexkit.tiling.hcn",),
    "kernel.linsolve": ("convexkit.kernel.linsolve",),
    "kernel.polygon": ("convexkit.kernel.polygon",),
    "kernel.support": ("convexkit.kernel.support",),
}

# Constructors and methods wrapped besides the module-level functions:
# (module, class, attribute).
METHODS = [
    ("convexkit.kernel.polygon", "ConvexPolygon", "__init__"),
    ("convexkit.kernel.support", "SupportBody", "__init__"),
    ("convexkit.kernel.support", "SupportBody", "from_function"),
    ("convexkit.kernel.support", "SupportBody", "disc"),
    ("convexkit.kernel.support", "SupportBody", "combine"),
    ("convexkit.kernel.support", "SupportBody", "widths"),
    ("convexkit.kernel.support", "SupportBody", "boundary_points"),
    ("convexkit.polyhedra", "Mesh", "__post_init__"),
    ("convexkit.tiling.hcn", "HcnContext", "__post_init__"),
]

PARSERS = ("parse_tileset", "load_tileset", "layout_from_json", "load_layout")


def _lcm_of_denominators(tileset) -> int:
    out = 1
    for t in tileset:
        for v in (t.width, t.height):
            out = math.lcm(out, v.denominator)
    return out


class Tracer:
    """Spans and counters of the calls into every layer."""

    def __init__(self):
        self.functions: list = []  # function id -> (layer, qualified name)
        self._reset()
        self._stack: list = []
        self._patches: list = []
        self.job = -1

    def _reset(self):
        self.fid = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.jobs = array("i")
        self.counters: Counter = Counter()
        self.maxima: Counter = Counter()

    # ------------------------------------------------------------ install

    def install(self) -> None:
        originals = {}
        for layer, modules in LAYERS.items():
            for modname in modules:
                mod = importlib.import_module(modname)
                for attr, fn in vars(mod).items():
                    if inspect.isfunction(fn) and fn.__module__ == modname and not attr.startswith("_"):
                        originals[fn] = self._wrap(fn, layer, f"{modname}.{attr}")
        for modname, cls_name, attr in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            raw = cls.__dict__[attr]
            layer = next(k for k, mods in LAYERS.items() if modname in mods)
            label = f"{modname}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, layer, label)))
            else:
                self._patch(cls, attr, self._wrap(raw, layer, label))
        for name, mod in list(sys.modules.items()):
            if not name.startswith("convexkit"):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in originals:
                    self._patch(mod, attr, originals[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if callable(item) and item in originals:
                            self._patch(value, key, originals[item])

    def _patch(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            # A class attribute is taken from the class dict so that a
            # classmethod is restored as a classmethod.
            old = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            self._patches.append((owner, key, old))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()

    def _wrap(self, fn, layer: str, label: str):
        fid = len(self.functions)
        self.functions.append((layer, label))
        hook = _handler if label.startswith("convexkit.cli.cmd_") else HOOKS.get(label)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.fid)
            self.fid.append(fid)
            self.parent.append(stack[-1] if stack else -1)
            self.jobs.append(self.job)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result, i)
            return result

        return functools.update_wrapper(traced, fn)

    # ------------------------------------------------------------ results

    def label(self, i: int) -> str:
        return self.functions[self.fid[i]][1]

    def self_times(self) -> list:
        """Self time of every span recorded since the last take()."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def take(self) -> dict:
        """Per-layer metrics of the spans recorded since the last take(),
        then drop those spans' counters (the spans are kept by the caller)."""
        own = self.self_times()
        layer_self = defaultdict(float)
        fn_self = defaultdict(float)
        fn_calls = Counter()
        for i, t in enumerate(own):
            layer, label = self.functions[self.fid[i]]
            layer_self[layer] += t
            fn_self[label] += t
            fn_calls[label] += 1
        c, mx = self.counters, self.maxima
        ck = "convexkit."
        solves = fn_calls[ck + "kernel.linsolve.solve_linear_exact"]
        examined = c["iso.examined"]
        certified = c["iso.infeasible"] + c["iso.certified_empty"] + c["iso.forced"] + c["iso.witnesses"]
        offset_solves = fn_calls[ck + "fairpart.solve_offset_for_area"]
        m = {
            "kernel.linsolve.solve_calls": solves,
            "kernel.linsolve.solve_self_s": fn_self[ck + "kernel.linsolve.solve_linear_exact"],
            "kernel.linsolve.system_rows_mean": c["linsolve.rows"] / solves if solves else 0.0,
            "kernel.linsolve.system_vars_mean": c["linsolve.vars"] / solves if solves else 0.0,
            "kernel.linsolve.solution_dim_max": mx["linsolve.dim"],
            "kernel.linsolve.positive_point_calls": fn_calls[ck + "kernel.linsolve.positive_point"],
            "kernel.linsolve.positive_point_self_s": fn_self[ck + "kernel.linsolve.positive_point"],
            "kernel.linsolve.sampled_fallbacks": c["linsolve.fallbacks"],
            "tiling.isoperimetric.floorplans_examined": examined,
            "tiling.isoperimetric.infeasible": c["iso.infeasible"],
            "tiling.isoperimetric.certified_empty": c["iso.certified_empty"],
            "tiling.isoperimetric.forced_equal": c["iso.forced"],
            "tiling.isoperimetric.residual": c["iso.residual"],
            "tiling.isoperimetric.witnesses": c["iso.witnesses"],
            "tiling.isoperimetric.certified_share": certified / examined if examined else 0.0,
            "tiling.floorplans.count": c["floorplans"],
            "fairpart.offset_solves": offset_solves,
            "fairpart.offset_solve_self_s": fn_self[ck + "fairpart.solve_offset_for_area"],
            "fairpart.us_per_offset_solve": (
                1e6 * fn_self[ck + "fairpart.solve_offset_for_area"] / offset_solves if offset_solves else 0.0
            ),
            "fairpart.refine_solves": c["fairpart.refine"],
            "fairpart.vertices_max": mx["fairpart.vertices"],
            "fairpart.split_self_s": fn_self[ck + "fairpart.split"],
            "fairpart.band_self_s": fn_self[ck + "fairpart.solve_band"] + fn_self[ck + "fairpart.nonconvex_band_partition"],
            "kernel.polygon.constructs": c["polygon.constructs"],
            "tiling.hcn.sieve_calls": fn_calls[ck + "tiling.hcn.divisor_sieve"],
            "tiling.hcn.sieved_integers": c["hcn.sieved"],
            "tiling.hcn.census_widths": c["hcn.widths"],
            "tiling.hcn.feasible_widths": c["hcn.feasible"],
            "tiling.search.calls": fn_calls[ck + "tiling.search.enumerate_layouts"],
            "tiling.search.scale_max": mx["search.scale"],
            "tiling.search.targets_found": c["search.targets"],
            "tiling.tiles.verify_calls": fn_calls[ck + "tiling.tiles.verify_layout"],
            "tiling.tiles.verify_self_s": fn_self[ck + "tiling.tiles.verify_layout"],
            "tiling.tiles.parse_self_s": sum(fn_self[ck + "tiling.tiles." + p] for p in PARSERS),
            "extremal.interpolant_solves": fn_calls[ck + "extremal.interpolant_with_area"],
            "extremal.combines": fn_calls[ck + "kernel.support.SupportBody.combine"],
            "kernel.support.bodies": c["support.bodies"],
            "kernel.support.samples_validated": c["support.samples"],
            "kernel.support.metrics_calls": fn_calls[ck + "kernel.support.support_body_metrics"],
            "polyhedra.meshes": c["polyhedra.meshes"],
            "polyhedra.faces_signed": fn_calls[ck + "polyhedra.face_signature"],
            "cli.calls": fn_calls[ck + "cli.main"],
            "cli.bytes_written": c["cli.bytes"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        self.counters, self.maxima = Counter(), Counter()
        return m

    def spans(self):
        """The recorded spans as column arrays, and reset the recorder."""
        cols = {
            "fid": self.fid, "start": self.start, "end": self.end,
            "parent": self.parent, "job": self.jobs,
        }
        self._reset()
        return cols


def write_spans(path: Path, functions: list, passes: list, job_names: list) -> None:
    """Write every span of the run: one JSON header line, then one line per
    span `job fid parent start end` (start and end in seconds from the
    first span)."""
    t0 = min((cols["start"][0] for cols in passes if len(cols["start"])), default=0.0)
    with path.open("w") as fh:
        fh.write(json.dumps({"functions": functions, "jobs": job_names,
                             "columns": ["job", "fid", "parent", "start", "end"]}) + "\n")
        for cols in passes:
            for row in zip(cols["job"], cols["fid"], cols["parent"], cols["start"], cols["end"]):
                fh.write(f"{row[0]} {row[1]} {row[2]} {row[3] - t0:.9f} {row[4] - t0:.9f}\n")


# ------------------------------------------------------------------ hooks
# hook(tracer, args, kwargs, result, span index), run after the call returns.


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _solve_linear_exact(tr, args, kwargs, result, i):
    matrix = _arg(args, kwargs, 0, "matrix")
    tr.counters["linsolve.rows"] += len(matrix)
    tr.counters["linsolve.vars"] += len(matrix[0]) if matrix else 0
    if result is not None:
        tr.maxima["linsolve.dim"] = max(tr.maxima["linsolve.dim"], result.dim)


def _positive_point(tr, args, kwargs, result, i):
    if result.certified_empty:
        tr.counters["iso.certified_empty"] += 1
    elif result.attempts:
        tr.counters["linsolve.fallbacks"] += 1


def _solve_isoperimetric(tr, args, kwargs, result, i):
    if result is None:
        tr.counters["iso.infeasible"] += 1


def _search_isoperimetric(tr, args, kwargs, result, i):
    tr.counters["iso.examined"] += result.examined
    tr.counters["iso.forced"] += len(result.forced)
    tr.counters["iso.residual"] += len(result.residual)
    tr.counters["iso.witnesses"] += len(result.witnesses)


def _enumerate_floorplans(tr, args, kwargs, result, i):
    tr.counters["floorplans"] += len(result)


def _solve_offset_for_area(tr, args, kwargs, result, i):
    poly = _arg(args, kwargs, 0, "c")
    tr.maxima["fairpart.vertices"] = max(tr.maxima["fairpart.vertices"], len(poly.vertices))
    p = tr.parent[i]
    if p < 0 or not tr.label(p).endswith(".perimeter_ratio_profile"):
        tr.counters["fairpart.refine"] += 1


def _polygon_init(tr, args, kwargs, result, i):
    tr.counters["polygon.constructs"] += 1


def _divisor_sieve(tr, args, kwargs, result, i):
    tr.counters["hcn.sieved"] += _arg(args, kwargs, 0, "limit")


def _hcn_layout_census(tr, args, kwargs, result, i):
    tr.counters["hcn.widths"] += len(result)
    tr.counters["hcn.feasible"] += sum(1 for v in result.values() if v is not None)


def _enumerate_layouts(tr, args, kwargs, result, i):
    tileset = _arg(args, kwargs, 0, "ts")
    tr.maxima["search.scale"] = max(tr.maxima["search.scale"], _lcm_of_denominators(tileset))
    tr.counters["search.targets"] += len(result)


def _support_init(tr, args, kwargs, result, i):
    tr.counters["support.bodies"] += 1
    tr.counters["support.samples"] += len(_arg(args, kwargs, 1, "samples"))


def _mesh_post_init(tr, args, kwargs, result, i):
    tr.counters["polyhedra.meshes"] += 1


def _render_report(tr, args, kwargs, result, i):
    tr.counters["cli.bytes"] += len(result)


def _handler(tr, args, kwargs, result, i):
    tr.counters["cli.bytes"] += sum(len(v) for v in result[2].values())


HOOKS = {
    "convexkit.kernel.linsolve.solve_linear_exact": _solve_linear_exact,
    "convexkit.kernel.linsolve.positive_point": _positive_point,
    "convexkit.tiling.isoperimetric.solve_isoperimetric": _solve_isoperimetric,
    "convexkit.tiling.isoperimetric.search_isoperimetric": _search_isoperimetric,
    "convexkit.tiling.floorplans.enumerate_floorplans": _enumerate_floorplans,
    "convexkit.fairpart.solve_offset_for_area": _solve_offset_for_area,
    "convexkit.kernel.polygon.ConvexPolygon.__init__": _polygon_init,
    "convexkit.tiling.hcn.divisor_sieve": _divisor_sieve,
    "convexkit.tiling.hcn.hcn_layout_census": _hcn_layout_census,
    "convexkit.tiling.search.enumerate_layouts": _enumerate_layouts,
    "convexkit.kernel.support.SupportBody.__init__": _support_init,
    "convexkit.polyhedra.Mesh.__post_init__": _mesh_post_init,
    "convexkit.cli.render_report": _render_report,
}


def median_metrics(per_pass: list) -> dict:
    """Median of each per-layer metric over the passes of a run."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
