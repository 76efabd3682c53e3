"""Convex bodies given by sampled support functions.

A body is stored as N samples h(theta_k), theta_k = 2*pi*k/N. Minkowski
combination of bodies is pointwise addition of the sample arrays, which is
what makes constant-width interpolation a one-liner downstream.

Metrics follow the classical support-function integrals:
    perimeter = integral of h
    area      = 1/2 * integral of (h^2 - h'^2)
with h' by centered differences. mean_width is perimeter/pi, so the
p = pi*w relation holds by construction; the sampled widths are exposed
separately for tests that want a non-circular check.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_SAMPLES = 3600


class SupportBody:
    """Sampled support function of a convex planar body.

    Validity is checked at construction: all widths h(t)+h(t+pi) must be
    positive and the discrete convexity condition
        h(k-1) + h(k+1) >= 2 h(k) cos(2*pi/N)
    must hold (up to float slack). N must be even so antipodal samples
    pair up exactly.
    """

    __slots__ = ("samples",)

    def __init__(self, samples):
        h = np.asarray(samples, dtype=float)
        if h.ndim != 1 or len(h) < 8 or len(h) % 2 != 0:
            raise ValueError("need an even number (>= 8) of support samples")
        n = len(h)
        widths = h + np.roll(h, -(n // 2))
        if widths.min() <= 0:
            raise ValueError("support samples give a nonpositive width")
        slack = 1e-9 * max(1.0, float(np.abs(h).max()))
        bend = np.roll(h, 1) + np.roll(h, -1) - 2.0 * h * math.cos(2 * math.pi / n)
        if bend.min() < -slack:
            raise ValueError("support samples fail the discrete convexity check")
        self.samples = h
        self.samples.setflags(write=False)

    @classmethod
    def from_function(cls, fn, n: int = DEFAULT_SAMPLES) -> "SupportBody":
        thetas = 2 * math.pi * np.arange(n) / n
        return cls(np.array([fn(t) for t in thetas], dtype=float))

    @classmethod
    def disc(cls, width: float = 2.0, n: int = DEFAULT_SAMPLES) -> "SupportBody":
        if not width > 0:
            raise ValueError("width must be positive")
        return cls(np.full(n, width / 2.0))

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:
        return f"SupportBody({len(self.samples)} samples)"

    @property
    def thetas(self) -> np.ndarray:
        n = len(self.samples)
        return 2 * math.pi * np.arange(n) / n

    def widths(self) -> np.ndarray:
        n = len(self.samples)
        return self.samples + np.roll(self.samples, -(n // 2))

    def combine(self, other: "SupportBody", t: float) -> "SupportBody":
        """(1-t)*self + t*other as a Minkowski combination."""
        if len(other.samples) != len(self.samples):
            raise ValueError("sample grids differ")
        return SupportBody((1.0 - t) * self.samples + t * other.samples)

    def boundary_points(self) -> np.ndarray:
        """Reconstruct boundary: x(theta) = h*u + h'*u_perp."""
        h = self.samples
        n = len(h)
        dtheta = 2 * math.pi / n
        hp = (np.roll(h, -1) - np.roll(h, 1)) / (2 * dtheta)
        th = self.thetas
        return np.stack([h * np.cos(th) - hp * np.sin(th),
                         h * np.sin(th) + hp * np.cos(th)], axis=1)


def support_body_metrics(body: SupportBody) -> dict[str, float]:
    """Area, perimeter, mean width and diameter of a sampled body.

    diameter is taken as the maximum sampled width; that equals the true
    diameter for the centrally symmetric and constant-width families this
    toolkit builds, and is documented as such (general polygons go through
    the calipers path instead).
    """
    h = body.samples
    n = len(h)
    dtheta = 2 * math.pi / n
    hp = (np.roll(h, -1) - np.roll(h, 1)) / (2 * dtheta)
    perimeter = float(h.sum() * dtheta)
    area = 0.5 * float(((h * h - hp * hp).sum()) * dtheta)
    return {
        "area": area,
        "perimeter": perimeter,
        "mean_width": perimeter / math.pi,
        "diameter": float(body.widths().max()),
    }
