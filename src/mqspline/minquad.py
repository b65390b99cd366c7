"""Minimum-energy quadratic through three points.

Given a non-collinear triple, the quadratic r(t) = a1 t^2 + a2 t + a3 with
r(0) = p1, r(1) = p3 is free to meet p2 at any interior parameter T.  The
elastic energy of the quadratic is minimized at the unique root in (0, 1)
of a cubic whose coefficients depend only on the canonical image of p2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateCurve, DomainError, NoRootInUnitInterval, ZeroSpeed
from .fairness import PolyCurve, QuadratureConfig, _adaptive, _energy, _quadratic_terms
from .geometry import Vec2, cross2, normalize_triple

DEGENERATE_CROSS_REL_TOL = 1e-12


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
    """Solved interior parameter, the canonical middle point q2 it depends on, and the curve
    a1 t^2 + a2 t + a3 as the PolyCurve (a3, a2, a1)."""

    T: float
    curve: PolyCurve
    q2: Vec2


def cubic_residual(T: float, q2: Vec2) -> float:
    """Value of the parameter cubic at T; zero at stationary points of the energy."""
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
                r -= cubic_residual(r, q2) / deriv
        polished.append(r)
    polished.sort()
    return CubicSolve(beta=beta, gamma=gamma, roots=tuple(polished))


def energy_objective(T: float, q2: Vec2) -> float:
    """Scaled energy of the quadratic hitting the canonical middle point at T.

    Equals ((q2.x - T)^2 + q2.y^2)^2 / (T - T^2); strictly positive on (0, 1).
    """
    if not 0.0 < T < 1.0:
        raise DomainError("energy objective requires 0 < T < 1")
    return ((q2.x - T) ** 2 + q2.y ** 2) ** 2 / (T - T * T)


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


def build_solution(p1: Vec2, p2: Vec2, p3: Vec2) -> MinQuadSolution:
    """Solve for T and recover the minimum-energy quadratic in original coordinates."""
    q2 = normalize_triple(p1, p2, p3)
    T = solve_min_T(q2)
    # a1 = (p2 - p1 - s3 T) / (T^2 - T) and a2 = s3 - a1 with s3 = p3 - p1: the operations of
    # Vec2 arithmetic, on floats, so that two Vec2s are made here rather than six.
    sx, sy = p3.x - p1.x, p3.y - p1.y
    d = T * T - T
    a1 = Vec2((p2.x - p1.x - sx * T) / d, (p2.y - p1.y - sy * T) / d)
    a2 = Vec2(sx - a1.x, sy - a1.y)
    return MinQuadSolution(T=T, curve=PolyCurve((p1, a2, a1)), q2=q2)


def tangent_at_p2(sol: MinQuadSolution) -> Vec2:
    """Tangent vector of the quadratic at the middle point, r'(T) = 2 a1 T + a2."""
    return sol.curve.first_derivative(sol.T)


def arc_length_numeric(sol: MinQuadSolution) -> float:
    """Arc length over [0, 1] by adaptive quadrature of the speed; a cross-check."""
    curve = sol.curve
    return _adaptive(lambda t: curve.first_derivative(t).norm(), 0.0, 1.0,
                     QuadratureConfig(rel_tol=1e-12, abs_tol=1e-13, max_depth=50))


def arc_length_closed(sol: MinQuadSolution) -> float:
    """Arc length over [0, 1], the elementary integral of the speed |2 a1 t + a2|.

    With n = |a1|, m = |a1 x a2| / n, u = (2 a1 t + a2) . a1 / n from u0 to u1 = u0 + 2 n
    and r = hypot(u, m): L = [u r + m^2 asinh(u / m)] from u0 to u1, over 4 n, with
    both differences in forms that do not cancel (r1^2 - r0^2 = 2 n (u0 + u1)).
    """
    a1, a2 = sol.curve.a1, sol.curve.a2
    n = a1.norm()
    if n == 0.0:
        return a2.norm()
    unit = a1 / n
    m = abs(cross2(unit, a2))
    u0 = unit.dot(a2)
    u1 = u0 + 2.0 * n
    r0, r1 = math.hypot(u0, m), math.hypot(u1, m)
    rs, us = r0 + r1, u0 + u1
    if m * m == 0.0:  # straight, or the asinh term is below round-off
        d = 0.0
    elif u0 > 0.0 or u1 < 0.0:  # one sign on [u0, u1]: the difference as one asinh
        d = math.asinh(2.0 * n * us / (u1 * r0 + u0 * r1))
    else:
        d = math.asinh(u1 / m) - math.asinh(u0 / m)
    return (rs + us * (us / rs) + m * (m / n * d)) / 4.0


def total_energy_closed(curve: PolyCurve) -> float:
    """Whole-real-line elastic energy of a quadratic: (3 pi / 4) |a1|^4 / |a1 x a2|^3.
    DegenerateCurve when the angle of a1 and a2 has sine |a1 x a2| / (|a1| |a2|) <= 1e-12,
    so for straight and constant curves."""
    try:
        n, m = _quadratic_terms(curve)
    except ZeroSpeed:
        raise DegenerateCurve("a1 and a2 vanish; the curve is a point") from None
    if m <= DEGENERATE_CROSS_REL_TOL * math.hypot(*curve._d1[0]):  # |r'(t0)|: |a2| when span = 1
        raise DegenerateCurve("a1 and a2 are parallel; the traversal is a straight line")
    return _energy(n, m)
