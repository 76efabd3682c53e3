"""Shared numeric and geometric primitives: exact rationals, exact linear
solving, float convex polygons and point rings, exact arc polygons, sampled
support bodies, and the root finders of the float solves."""

from .arcs import ArcPolygon
from .linsolve import (
    ParamSolution,
    PositivePoint,
    positive_point,
    solve_linear_exact,
)
from .polygon import (
    ConvexPolygon,
    convex_hull,
    diameter,
    min_width,
    random_convex_polygon,
    rectangle,
    regular_ngon,
)
from .rational import Rational, format_rational, parse_rational
from .roots import bisect_root, rising_quadratic_root
from .support import DEFAULT_SAMPLES, SupportBody, support_body_metrics

__all__ = [
    "ArcPolygon",
    "ParamSolution",
    "PositivePoint",
    "positive_point",
    "solve_linear_exact",
    "ConvexPolygon",
    "convex_hull",
    "diameter",
    "min_width",
    "random_convex_polygon",
    "rectangle",
    "regular_ngon",
    "Rational",
    "format_rational",
    "parse_rational",
    "bisect_root",
    "rising_quadratic_root",
    "DEFAULT_SAMPLES",
    "SupportBody",
    "support_body_metrics",
]
