"""Cubic Hermite splines under interchangeable tangent-selection strategies.

Interior tangents come from one of four rules: the chord rule
(Catmull-Rom), the tension-scaled chord (Cardinal), the Kochanek-Bartels
blend, or the tangent of the minimum-energy quadratic through each triple
of consecutive points.  A single tangent per knot is shared by adjoining
segments, so every spline here is C1.  A new tangent method is a
TangentMethod subclass plus a METHOD_SPECS row, both in this module.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import astuple, dataclass, fields
from typing import Optional, Sequence

from .errors import CoincidentEndpoints, CollinearPoints, DomainError, TooFewPoints, ValidationError
from .fairness import PolyCurve
from .geometry import Vec2
from .minquad import MinQuadSolution, build_solution, tangent_at_p2


class TangentMethod:
    """Base of the tangent methods.  Each subclass defines the tangent at p_i
    from its neighbours and their knots: interior(p_prev, p_i, p_next, t_prev, t_next)."""

    def endpoints(self, points: Sequence[Vec2], knots: Sequence[float]) -> tuple[Vec2, Vec2]:
        """First and last tangents: the one-sided chords."""
        return ((points[1] - points[0]) / (knots[1] - knots[0]),
                (points[-1] - points[-2]) / (knots[-1] - knots[-2]))

    @property
    def params(self) -> str:
        """The report's params column: name=value per field, ';'-separated."""
        return ";".join(f"{f.name}={getattr(self, f.name):g}" for f in fields(self))


def _chord(p_prev: Vec2, p_next: Vec2, t_prev: float, t_next: float) -> Vec2:
    return (p_next - p_prev) / (t_next - t_prev)


def _min_energy_quadratic(p1: Vec2, p2: Vec2, p3: Vec2) -> Optional[MinQuadSolution]:
    """The minimum-energy quadratic through a triple, or None where none exists."""
    try:
        return build_solution(p1, p2, p3)
    except (CollinearPoints, CoincidentEndpoints):
        return None


@dataclass(frozen=True)
class MinEnergyQuad(TangentMethod):
    """Tangents from the minimum-energy quadratic through each point triple.

    End tangents are the end velocities of the boundary quadratics over the
    outer knot span.  A collinear or doubling-back triple has no such
    quadratic; its chord tangent, the zero-energy limit, is used instead.
    """

    def interior(self, p_prev, p_i, p_next, t_prev, t_next):
        sol = _min_energy_quadratic(p_prev, p_i, p_next)
        if sol is None:
            return _chord(p_prev, p_next, t_prev, t_next)
        return tangent_at_p2(sol) / (t_next - t_prev)

    def endpoints(self, points, knots):
        first, last = super().endpoints(points, knots)
        if len(points) < 3:
            return first, last
        head, tail = _min_energy_quadratic(*points[:3]), _min_energy_quadratic(*points[-3:])
        return (first if head is None else head.curve.velocity(0.0) / (knots[2] - knots[0]),
                last if tail is None else tail.curve.velocity(1.0) / (knots[-1] - knots[-3]))


@dataclass(frozen=True)
class CatmullRom(TangentMethod):
    """Chord tangents (p_next - p_prev) / (t_next - t_prev)."""

    def interior(self, p_prev, p_i, p_next, t_prev, t_next):
        return _chord(p_prev, p_next, t_prev, t_next)


@dataclass(frozen=True)
class Cardinal(TangentMethod):
    """Chord tangents scaled by (1 - tension)."""

    tension: float = 0.0

    def interior(self, p_prev, p_i, p_next, t_prev, t_next):
        return _chord(p_prev, p_next, t_prev, t_next) * (1.0 - self.tension)


@dataclass(frozen=True)
class KochanekBartels(TangentMethod):
    """Tension / bias / continuity blend of the two adjacent chords.

    Implemented exactly as the comparison tables were produced: no knot-span
    divisor, so knot spacing does not enter.  This differs from some KB
    formulations in the literature.
    """

    tension: float = 0.0
    bias: float = 0.0
    continuity: float = 0.0

    def interior(self, p_prev, p_i, p_next, t_prev, t_next):
        w_in = (1.0 - self.tension) * (1.0 + self.bias) * (1.0 + self.continuity) * 0.5
        w_out = (1.0 - self.tension) * (1.0 - self.bias) * (1.0 - self.continuity) * 0.5
        return (p_i - p_prev) * w_in + (p_next - p_i) * w_out


# Parameter presets matching the published method comparison.
COMPARISON_METHODS: tuple[tuple[str, TangentMethod], ...] = (
    ("min-energy", MinEnergyQuad()),
    ("catmull-rom", CatmullRom()),
    ("cardinal(t=0.1)", Cardinal(tension=0.1)),
    ("cardinal(t=0.5)", Cardinal(tension=0.5)),
    ("kochanek-bartels(b=0.5)", KochanekBartels(bias=0.5)),
    ("kochanek-bartels(b=-0.5)", KochanekBartels(bias=-0.5)),
)

# Method-spec head -> (class, report label formatted with the method's fields).
METHOD_SPECS: dict[str, tuple[type, str]] = {
    "min-energy": (MinEnergyQuad, "min-energy"),
    "ours": (MinEnergyQuad, "min-energy"),
    "catmull-rom": (CatmullRom, "catmull-rom"),
    "cardinal": (Cardinal, "cardinal(t={:g})"),
    "kb": (KochanekBartels, "kochanek-bartels(t={:g},b={:g},g={:g})"),
    "kochanek-bartels": (KochanekBartels, "kochanek-bartels(t={:g},b={:g},g={:g})"),
}


def parse_method(spec: str) -> tuple[str, TangentMethod]:
    """(report label, method) for "head[=v1,v2,...]", a METHOD_SPECS head; omitted values are 0."""
    head, _, args = spec.partition("=")
    head = head.strip().lower()
    if head not in METHOD_SPECS:
        raise ValidationError(f"unknown method {spec!r}")
    cls, label = METHOD_SPECS[head]
    try:
        values = [float(v) for v in args.split(",")] if args else []
    except ValueError:
        values = [math.nan]
    if len(values) > len(fields(cls)) or not all(map(math.isfinite, values)):
        raise ValidationError(f"method {spec!r} takes at most {len(fields(cls))} finite numbers")
    method = cls(*values)
    return label.format(*astuple(method)), method


def hermite_eval(p_a: Vec2, p_b: Vec2, v_a: Vec2, v_b: Vec2, t: float) -> Vec2:
    """Cubic Hermite basis evaluation on the unit interval."""
    t2 = t * t
    t3 = t2 * t
    return (p_a * (2.0 * t3 - 3.0 * t2 + 1.0) + p_b * (-2.0 * t3 + 3.0 * t2)
            + v_a * (t3 - 2.0 * t2 + t) + v_b * (t3 - t2))


def uniform_knots(n: int) -> tuple[float, ...]:
    """Knots t_i = i - 1 in 1-based terms, i.e. 0, 1, ..., n-1."""
    return tuple(float(i) for i in range(n))


def chord_length_knots(points: Sequence[Vec2]) -> tuple[float, ...]:
    """Cumulative chord-length knots starting at 0."""
    knots = [0.0]
    for a, b in zip(points, points[1:]):
        step = (b - a).norm()
        if step == 0.0:
            raise DomainError("repeated point makes chord-length knots non-increasing")
        knots.append(knots[-1] + step)
    if knots[-1] == math.inf:  # the sums only grow, so an overflow anywhere shows here
        raise DomainError("chord-length knots overflow: the summed chord length exceeds the float range")
    return tuple(knots)


def _validate_knots(knots: Sequence[float], n: int) -> tuple[float, ...]:
    knots = tuple(float(t) for t in knots)
    if len(knots) != n:
        raise DomainError(f"knot count {len(knots)} != point count {n}")
    if any(b <= a for a, b in zip(knots, knots[1:])):
        raise DomainError("knot values must be strictly increasing")
    return knots


# The segment evaluator's former class name; bench/tracing.py still looks it up.
HermiteSegmentCurve = PolyCurve


@dataclass(frozen=True)
class HermiteSpline:
    """Interpolating C1 spline: points, knots, and one tangent per point.

    Tangents are derivatives with respect to the global knot parameter.
    """

    points: tuple[Vec2, ...]
    knots: tuple[float, ...]
    tangents: tuple[Vec2, ...]
    method: TangentMethod

    @property
    def segment_count(self) -> int:
        return len(self.points) - 1

    def segment_evaluator(self, i: int) -> PolyCurve:
        """Segment i (0-based) as the cubic c0 + c1 s + c2 s^2 + c3 s^3 over
        [knots[i], knots[i+1]], s the local parameter; its derivatives are in
        the global knot parameter."""
        if not 0 <= i < self.segment_count:
            raise IndexError(f"segment index {i} out of range [0, {self.segment_count})")
        p_a, p_b = self.points[i], self.points[i + 1]
        span = self.knots[i + 1] - self.knots[i]
        # Local tangents m = span * v.
        m_a, m_b = self.tangents[i] * span, self.tangents[i + 1] * span
        return PolyCurve((p_a, m_a, (p_b - p_a) * 3.0 - m_a * 2.0 - m_b, (p_a - p_b) * 2.0 + m_a + m_b),
                         self.knots[i], span)

    def evaluate(self, t: float) -> Vec2:
        if not self.knots[0] <= t <= self.knots[-1]:
            raise DomainError(f"parameter {t} outside [{self.knots[0]}, {self.knots[-1]}]")
        i = bisect.bisect_right(self.knots, t) - 1
        i = min(max(i, 0), self.segment_count - 1)
        span = self.knots[i + 1] - self.knots[i]
        s = (t - self.knots[i]) / span
        return hermite_eval(self.points[i], self.points[i + 1],
                            self.tangents[i] * span, self.tangents[i + 1] * span, s)


def middle_segment_index(n_points: int) -> int:
    """Index of the middle segment, the one metrics are reported over."""
    return (n_points - 2) // 2


def build_spline(points: Sequence[Vec2], knots: Sequence[float],
                 method: TangentMethod) -> HermiteSpline:
    """Assign tangents per the chosen method and assemble the spline.

    Interior tangents come from method.interior over each knot's neighbours,
    the two end tangents from method.endpoints.
    """
    points = tuple(points)
    if len(points) < 2:
        raise TooFewPoints(f"need at least 2 points, got {len(points)}")
    knots = _validate_knots(knots, len(points))

    first, last = method.endpoints(points, knots)
    inner = map(method.interior, points, points[1:], points[2:], knots, knots[2:])
    return HermiteSpline(points=points, knots=knots, tangents=(first, *inner, last), method=method)
