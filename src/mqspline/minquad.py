"""Minimum-energy quadratic through three points.

Given a non-collinear triple, the quadratic r(t) = a1 t^2 + a2 t + a3 with
r(0) = p1, r(1) = p3 is free to meet p2 at any interior parameter T.  The
elastic energy of the quadratic is minimized at the unique root in (0, 1)
of a cubic whose coefficients depend only on the canonical image of p2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DegenerateCurve, DomainError, NoRootInUnitInterval
from .geometry import NormalizedTriple, Point2, Vec2, cross2, normalize_triple

DEGENERATE_CROSS_REL_TOL = 1e-12
# Closed-form arc length breaks down when the two chord vectors are
# (anti)parallel; fall back to quadrature there.
ARC_SIN_GUARD = 1e-7
ARC_COS_GUARD = 1e-12


@dataclass(frozen=True)
class QuadraticCurve:
    """Coefficients of r(t) = a1 t^2 + a2 t + a3."""

    a1: Vec2
    a2: Vec2
    a3: Vec2

    def point(self, t: float) -> Vec2:
        return self.a1 * (t * t) + self.a2 * t + self.a3

    def velocity(self, t: float) -> Vec2:
        return self.a1 * (2.0 * t) + self.a2


@dataclass(frozen=True)
class CubicSolve:
    """All three real roots of the parameter cubic plus its shift coefficients.

    beta and gamma are the radical-form coefficients of the solved cubic:
    beta = 1 - 2 q2.x and gamma = (4 (q2.x - |q2|^2) - 3)^3 / 27.
    """

    beta: float
    gamma: float
    roots: tuple[float, float, float]


@dataclass(frozen=True)
class MinQuadSolution:
    """Solved interior parameter and the recovered curve in original coordinates."""

    T: float
    curve: QuadraticCurve
    frame: NormalizedTriple


def cubic_residual(T, q2: Vec2):
    """Value of the parameter cubic at T; zero at stationary points of the energy.

    Accepts a scalar or a numpy array of T values.
    """
    n2 = q2.norm2()
    return T ** 3 - 1.5 * T ** 2 + (q2.x - n2) * T + 0.5 * n2


def _cubic_residual_deriv(T: float, q2: Vec2) -> float:
    return 3.0 * T * T - 3.0 * T + (q2.x - q2.norm2())


def cubic_roots(q2: Vec2) -> CubicSolve:
    """Solve the parameter cubic, returning all three real roots.

    Uses the trigonometric solution of the depressed cubic (the three-real-
    root case needs complex cube roots in radical form), then polishes each
    root with two Newton steps.
    """
    n2 = q2.norm2()
    c = q2.x - n2
    # Depress with T = u + 1/2: u^3 + p u + qd = 0.
    p = c - 0.75
    qd = -0.25 + 0.5 * c + 0.5 * n2
    beta = 1.0 - 2.0 * q2.x
    gamma = (4.0 * c - 3.0) ** 3 / 27.0

    # p = -(q2.x - 1/2)^2 - q2.y^2 - 1/2 <= -1/2 for every finite q2, so the
    # cubic always has three real roots and the trigonometric form applies.
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * qd / (p * m)
    arg = min(1.0, max(-1.0, arg))
    theta = math.acos(arg)
    roots = [0.5 + m * math.cos(theta / 3.0 - 2.0 * math.pi * k / 3.0) for k in range(3)]

    polished = []
    for r in roots:
        for _ in range(2):
            deriv = _cubic_residual_deriv(r, q2)
            if deriv != 0.0:
                r -= float(cubic_residual(r, q2)) / deriv
        polished.append(r)
    polished.sort()
    return CubicSolve(beta=beta, gamma=gamma, roots=tuple(polished))


def energy_objective(T, q2: Vec2):
    """Scaled energy of the quadratic hitting the canonical middle point at T.

    Equals ((q2.x - T)^2 + q2.y^2)^2 / (T - T^2); strictly positive on (0, 1).
    Accepts a scalar or a numpy array of T values.
    """
    t = np.asarray(T, dtype=float)
    if np.any(t <= 0.0) or np.any(t >= 1.0):
        raise DomainError("energy objective requires 0 < T < 1")
    val = ((q2.x - t) ** 2 + q2.y ** 2) ** 2 / (t - t * t)
    return float(val) if val.ndim == 0 else val


def solve_min_T(q2: Vec2) -> float:
    """Return the unique root of the parameter cubic lying in (0, 1)."""
    solve = cubic_roots(q2)
    inside = [r for r in solve.roots if 0.0 < r < 1.0]
    if not inside:
        raise NoRootInUnitInterval(f"no root of the parameter cubic in (0,1) for q2 = {q2.as_tuple()}")
    if len(inside) > 1:
        # Round-off ties only; pick the candidate of least energy.
        inside.sort(key=lambda r: energy_objective(r, q2))
    return inside[0]


def build_solution(p1: Point2, p2: Point2, p3: Point2) -> MinQuadSolution:
    """Solve for T and recover the minimum-energy quadratic in original coordinates."""
    frame = normalize_triple(p1, p2, p3)
    T = solve_min_T(frame.q2)
    s3 = p3 - p1
    a1 = (p2 - p1 - s3 * T) / (T * T - T)
    a2 = s3 - a1
    curve = QuadraticCurve(a1=a1, a2=a2, a3=p1)
    return MinQuadSolution(T=T, curve=curve, frame=frame)


def tangent_at_p2(sol: MinQuadSolution) -> Vec2:
    """Tangent vector of the quadratic at the middle point, r'(T) = 2 a1 T + a2."""
    return sol.curve.velocity(sol.T)


def arc_length_numeric(sol: MinQuadSolution) -> float:
    """Arc length over [0, 1] by adaptive quadrature of the speed."""
    curve = sol.curve

    def speed(t):
        return curve.velocity(t).norm()

    val, _ = quad(speed, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def arc_length_closed(sol: MinQuadSolution) -> float:
    """Arc length between the endpoints via the closed form.

    Falls back to arc_length_numeric when the chord vectors r1 and r2 are
    numerically parallel (the log term is indeterminate there).
    """
    T = sol.T
    s3 = sol.curve.a1 + sol.curve.a2
    s2 = sol.curve.point(T) - sol.curve.a3
    r1 = s3 * T - s2
    r2 = s3 * (T * T) - s2
    A = r1.norm()
    B = r2.norm()
    if A == 0.0 or B == 0.0:
        return arc_length_numeric(sol)
    cos_t = min(1.0, max(-1.0, r1.dot(r2) / (A * B)))
    sin2_t = max(0.0, 1.0 - cos_t * cos_t)
    if math.sqrt(sin2_t) < ARC_SIN_GUARD or abs(1.0 - cos_t) < ARC_COS_GUARD:
        return arc_length_numeric(sol)
    rho = math.sqrt(4.0 * A * A - 4.0 * A * B * cos_t + B * B)
    log_term = math.log((2.0 * A - B * cos_t + rho) / (B * (1.0 - cos_t)))
    return (B * B * cos_t + (2.0 * A - B * cos_t) * rho + B * B * sin2_t * log_term) / (
        4.0 * A * (T - T * T)
    )


def total_energy_closed(curve: QuadraticCurve) -> float:
    """Whole-real-line elastic energy of a quadratic: (3 pi / 4) |a1|^4 / |a1 x a2|^3."""
    cr = cross2(curve.a1, curve.a2)
    if abs(cr) <= DEGENERATE_CROSS_REL_TOL * curve.a1.norm2() * curve.a2.norm():
        raise DegenerateCurve("a1 and a2 are parallel; the traversal is a straight line")
    return 0.75 * math.pi * curve.a1.norm2() ** 2 / abs(cr) ** 3
