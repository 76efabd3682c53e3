"""Convex bodies given by sampled support functions.

A body is stored as N samples h(theta_k), theta_k = 2*pi*k/N. Minkowski
combination of bodies is pointwise addition of the samples.

Metrics follow the classical support-function integrals:
    perimeter = integral of h
    area      = 1/2 * integral of (h^2 - h'^2)
with h' by centered differences. mean_width is perimeter/pi, so the
p = pi*w relation holds by construction; the sampled widths are exposed
separately for tests that want a non-circular check.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from .. import Frozen

DEFAULT_SAMPLES = 3600


def _derivative(h: Sequence[float]) -> List[float]:
    """h' at every sample by centered differences on the periodic grid."""
    n = len(h)
    step = 2 * (2 * math.pi / n)
    return [(h[(k + 1) % n] - h[k - 1]) / step for k in range(n)]


class SupportBody(Frozen):
    """Sampled support function of a convex planar body.

    Validity is checked at construction: all widths h(t)+h(t+pi) must be
    positive and the discrete convexity condition
        h(k-1) + h(k+1) >= 2 h(k) cos(2*pi/N)
    must hold up to 1e-9 of max |h|, a slack that scales with the body.
    N must be even so antipodal samples pair up exactly.  Immutable: the samples are kept as a tuple, and two
    bodies are equal when they have the same samples.
    """

    __slots__ = ("samples",)

    def __init__(self, samples):
        h = tuple(float(v) for v in samples)
        n = len(h)
        if n < 8 or n % 2 != 0:
            raise ValueError("need an even number (>= 8) of support samples")
        if not all(h[k] + h[(k + n // 2) % n] > 0 for k in range(n)):
            raise ValueError("support samples give a nonpositive width")
        slack = 1e-9 * max(abs(v) for v in h)
        c = math.cos(2 * math.pi / n)
        if not all(h[k - 1] + h[(k + 1) % n] - 2.0 * h[k] * c >= -slack for k in range(n)):
            raise ValueError("support samples fail the discrete convexity check")
        super().__init__(h)

    @classmethod
    def from_function(cls, fn, n: int = DEFAULT_SAMPLES) -> "SupportBody":
        return cls([fn(2 * math.pi * k / n) for k in range(n)])

    @classmethod
    def disc(cls, width: float = 2.0, n: int = DEFAULT_SAMPLES) -> "SupportBody":
        if not width > 0:
            raise ValueError("width must be positive")
        return cls([width / 2.0] * n)

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:
        return f"SupportBody({len(self.samples)} samples)"

    @property
    def thetas(self) -> List[float]:
        n = len(self.samples)
        return [2 * math.pi * k / n for k in range(n)]

    def widths(self) -> List[float]:
        h = self.samples
        n = len(h)
        return [h[k] + h[(k + n // 2) % n] for k in range(n)]

    def combine(self, other: "SupportBody", t: float) -> "SupportBody":
        """(1-t)*self + t*other as a Minkowski combination."""
        if len(other.samples) != len(self.samples):
            raise ValueError("sample grids differ")
        return SupportBody([(1.0 - t) * a + t * b for a, b in zip(self.samples, other.samples)])

    def boundary_points(self) -> List[Tuple[float, float]]:
        """Reconstruct boundary: x(theta) = h*u + h'*u_perp."""
        return [
            (h * math.cos(th) - hp * math.sin(th), h * math.sin(th) + hp * math.cos(th))
            for h, hp, th in zip(self.samples, _derivative(self.samples), self.thetas)
        ]


def support_body_metrics(body: SupportBody) -> dict[str, float]:
    """Area, perimeter, mean width and diameter of a sampled body.

    diameter is taken as the maximum sampled width; that equals the true
    diameter for the centrally symmetric and constant-width families this
    toolkit builds, and is documented as such (exact bodies give their
    widths through `ArcPolygon.widths` instead).
    """
    h = body.samples
    dtheta = 2 * math.pi / len(h)
    perimeter = math.fsum(h) * dtheta
    area = 0.5 * math.fsum(v * v - d * d for v, d in zip(h, _derivative(h))) * dtheta
    return {
        "area": area,
        "perimeter": perimeter,
        "mean_width": perimeter / math.pi,
        "diameter": max(body.widths()),
    }
