"""Planar vectors and the similarity normalization of point triples.

A triple (p1, p2, p3) is mapped by translate / scale / rotate into the
canonical frame where p1 lands on the origin and p3 on (1, 0); the image
q2 of p2 is the only remaining degree of freedom and everything downstream
(the cubic solve, the minimizing parameter) depends on it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CoincidentEndpoints, CollinearPoints, DomainError

# Scale-invariant thresholds; see the docstring of normalize_triple.
COLLINEAR_REL_TOL = 1e-9
COINCIDENT_REL_TOL = 1e-12


@dataclass(frozen=True)
class Vec2:
    """Immutable planar vector / point with finite coordinates."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError(f"non-finite coordinates ({self.x}, {self.y})")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "Vec2":
        return Vec2(self.x / s, self.y / s)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def norm2(self) -> float:
        return self.x * self.x + self.y * self.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def cross2(u: Vec2, v: Vec2) -> float:
    """Signed scalar cross product u.x * v.y - u.y * v.x."""
    return u.x * v.y - u.y * v.x


def normalize_triple(p1: Vec2, p2: Vec2, p3: Vec2) -> Vec2:
    """q2, the image of p2 under the similarity taking p1 to (0, 0) and p3 to (1, 0):
    the complex ratio (p2 - p1) / (p3 - p1) of a non-collinear triple.

    Raises CoincidentEndpoints when |p3 - p1| <= 1e-12 times the largest
    coordinate magnitude, and CollinearPoints when
    |cross2(p2 - p1, p3 - p1)| <= 1e-9 * |p3 - p1|^2, tested as |q2.y| <= 1e-9
    on scaled values, which do not overflow.
    """
    s3 = p3 - p1
    scale = s3.norm()
    max_mag = max(abs(v) for p in (p1, p2, p3) for v in (p.x, p.y))
    if scale <= COINCIDENT_REL_TOL * max(max_mag, 1e-300):
        raise CoincidentEndpoints(f"|p3 - p1| = {scale:g} is below tolerance")

    # Rotation built directly from the scaled endpoint, no angle extraction.
    c = s3.x / scale
    s = s3.y / scale
    d = (p2 - p1) / scale
    q2 = Vec2(c * d.x + s * d.y, -s * d.x + c * d.y)
    if abs(q2.y) <= COLLINEAR_REL_TOL:
        raise CollinearPoints(f"triple {p1.as_tuple()}, {p2.as_tuple()}, {p3.as_tuple()} is collinear")
    return q2
