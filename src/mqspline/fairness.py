"""Curvature, elastic energy, and curvature-variation functionals.

Energy E integrates squared signed curvature over the curve PARAMETER
(dt, not arc length); curvature variation V integrates the squared
parameter-derivative of curvature.  Segment integrals are taken by adaptive
quadrature (scipy, imported on the first one).  The whole-line integrals of
a quadratic are closed forms in its coefficients.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from .errors import DomainError, QuadratureDivergence, ZeroSpeed
from .geometry import Vec2, cross2
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
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    # Imported here, so that the triple path and spline building never load it.
    from scipy.integrate import IntegrationWarning, quad

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
    return _adaptive(lambda t: curvature(c, t) ** 2, t0, t1, cfg)


def segment_variation(c: CurveEvaluator, t0: float, t1: float,
                      cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Integral of squared curvature rate over [t0, t1] in the curve parameter."""
    return _adaptive(lambda t: curvature_rate(c, t) ** 2, t0, t1, cfg)


def _quadratic_terms(c: PolyCurve) -> tuple[float, float]:
    """|a1| and |a1 x a2| / |a1| (0.0 when straight) of a quadratic a1 t^2 + a2 t + a3."""
    if not isinstance(c, PolyCurve) or len(c.coefficients) > 3:
        raise DomainError("whole-line integrals need a PolyCurve of degree 2 or less")
    # a1 = r''/2, and a1 x r'(t) = a1 x a2 for every t: take r'(t0).
    a1, v = c._d2[0] * 0.5, c._d1[0]
    n = a1.norm()
    if n == 0.0 and v.norm() == 0.0:
        raise ZeroSpeed("constant curve: the speed vanishes everywhere")
    cr = cross2(a1, v)
    return n, abs(cr) / n if cr else 0.0


def whole_line_energy(c: PolyCurve) -> float:
    """Squared-curvature integral over the whole real line: (3 pi / 4) |a1|^4 / |a1 x a2|^3."""
    n, m = _quadratic_terms(c)
    return 0.75 * math.pi * (n / m) / m / m if m else 0.0


def whole_line_variation(c: PolyCurve) -> float:
    """Squared curvature-rate integral over the whole real line: (45 pi / 16) |a1|^8 / |a1 x a2|^5."""
    n, m = _quadratic_terms(c)
    return 45.0 * math.pi / 16.0 * (n / m) * (n / m) * (n / m) / m / m if m else 0.0
