"""Curvature, elastic energy, and curvature-variation functionals.

Energy E integrates squared signed curvature over the curve PARAMETER
(dt, not arc length); curvature variation V integrates the squared
parameter-derivative of curvature.  Whole-line integrals are computed
with the substitution t = tan(u), which turns the decaying tails into a
smooth integrand on a finite interval.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from scipy.integrate import IntegrationWarning, quad

from .errors import DomainError, QuadratureDivergence, ZeroSpeed
from .geometry import Vec2
from .minquad import QuadraticCurve

SPEED2_FLOOR = 1e-300


@runtime_checkable
class CurveEvaluator(Protocol):
    """Evaluation contract: position and first three derivative vectors at t.

    Implementations for polynomial curves must differentiate coefficients
    exactly; no numerical differencing.
    """

    def position(self, t: float) -> Vec2: ...

    def first_derivative(self, t: float) -> Vec2: ...

    def second_derivative(self, t: float) -> Vec2: ...

    def third_derivative(self, t: float) -> Vec2: ...


def _horner(coeffs: tuple[Vec2, ...], s: float) -> Vec2:
    """sum coeffs[k] s^k for a non-empty ascending tuple, from the top coefficient."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * s + c
    return acc


class PolyCurve:
    """Polynomial curve c0 + c1 s + c2 s^2 + ... in the local parameter s = (t - t0) / span.

    The coefficients of the first three derivatives in t are fixed at
    construction and carry the 1 / span^k chain-rule factors, so fairness
    integrals taken in t match the knot convention of a spline segment.
    """

    def __init__(self, coefficients: Sequence[Vec2], t0: float = 0.0, span: float = 1.0):
        self.coefficients = tuple(coefficients)
        self.t0 = t0
        self.span = span
        derivatives = [self.coefficients]
        for _ in range(3):
            coeffs = derivatives[-1]
            derivatives.append(tuple(coeffs[k] * (k / span) for k in range(1, len(coeffs))))
        zero = (Vec2(0.0, 0.0),)
        self._position, self._d1, self._d2, self._d3 = (c or zero for c in derivatives)

    @classmethod
    def from_quadratic(cls, curve: QuadraticCurve) -> "PolyCurve":
        return cls([curve.a3, curve.a2, curve.a1])

    def position(self, t: float) -> Vec2:
        return _horner(self._position, (t - self.t0) / self.span)

    def first_derivative(self, t: float) -> Vec2:
        return _horner(self._d1, (t - self.t0) / self.span)

    def second_derivative(self, t: float) -> Vec2:
        return _horner(self._d2, (t - self.t0) / self.span)

    def third_derivative(self, t: float) -> Vec2:
        return _horner(self._d3, (t - self.t0) / self.span)


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_depth: int = 50

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_depth < 1:
            raise DomainError("max subdivision depth must be >= 1")


DEFAULT_QUADRATURE = QuadratureConfig()


def curvature(c: CurveEvaluator, t: float) -> float:
    """Signed curvature (x'y'' - y'x'') / (x'^2 + y'^2)^(3/2)."""
    v = c.first_derivative(t)
    a = c.second_derivative(t)
    speed2 = v.norm2()
    if speed2 <= SPEED2_FLOOR:
        raise ZeroSpeed(f"vanishing speed at t = {t}")
    return (v.x * a.y - v.y * a.x) / speed2 ** 1.5


def curvature_rate(c: CurveEvaluator, t: float) -> float:
    """Parameter derivative of the signed curvature.

    Full expression retaining third-derivative terms; for quadratics the
    third derivative is zero and this reduces to
    -3 (x'y'' - y'x'')(x'x'' + y'y'') / (x'^2 + y'^2)^(5/2).
    """
    v = c.first_derivative(t)
    a = c.second_derivative(t)
    j = c.third_derivative(t)
    speed2 = v.norm2()
    if speed2 <= SPEED2_FLOOR:
        raise ZeroSpeed(f"vanishing speed at t = {t}")
    num = (v.x * j.y - v.y * j.x) * speed2 - 3.0 * (v.x * a.x + v.y * a.y) * (v.x * a.y - v.y * a.x)
    return num / speed2 ** 2.5


def _adaptive(fn, t0: float, t1: float, cfg: QuadratureConfig) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, _ = quad(fn, t0, t1, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=cfg.max_depth * 4)
        except IntegrationWarning as exc:
            raise QuadratureDivergence(str(exc)) from exc
    return val


def segment_energy(c: CurveEvaluator, t0: float, t1: float,
                   cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Integral of squared curvature over [t0, t1] in the curve parameter."""
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    return _adaptive(lambda t: curvature(c, t) ** 2, t0, t1, cfg)


def segment_variation(c: CurveEvaluator, t0: float, t1: float,
                      cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Integral of squared curvature rate over [t0, t1] in the curve parameter."""
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    return _adaptive(lambda t: curvature_rate(c, t) ** 2, t0, t1, cfg)


def _whole_line(fn, cfg: QuadratureConfig) -> float:
    # t = tan(u); dt = sec^2(u) du.  The integrands decay at least like
    # |t|^-6, so the transformed integrand vanishes at the endpoints.
    def g(u):
        cu = math.cos(u)
        if abs(cu) < 1e-150:
            return 0.0
        t = math.tan(u)
        return fn(t) / (cu * cu)

    return _adaptive(g, -0.5 * math.pi, 0.5 * math.pi, cfg)


def whole_line_energy(c: CurveEvaluator, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Squared-curvature integral over the whole real line."""
    return _whole_line(lambda t: curvature(c, t) ** 2, cfg)


def whole_line_variation(c: CurveEvaluator, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Squared curvature-rate integral over the whole real line."""
    return _whole_line(lambda t: curvature_rate(c, t) ** 2, cfg)
