"""Curvature, elastic energy, and curvature-variation functionals.

Energy E integrates squared signed curvature over the curve PARAMETER
(dt, not arc length); curvature variation V integrates the squared
parameter-derivative of curvature.  Segment integrals are taken by adaptive
Gauss-Kronrod quadrature (QUADPACK's 21-point rule, in pure Python) over one
float kernel per curve: _curvature_fns unpacks the derivative coefficients
once, and its values are == to the pointwise curvature and curvature_rate,
which call it.  The whole-line integrals of a quadratic are closed forms in
its coefficients.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, QuadratureDivergence, ZeroSpeed
from .geometry import Vec2

SPEED2_FLOOR = 1e-300


def _horner_xy(coeffs: Sequence[tuple[float, float]], s: float) -> tuple[float, float]:
    """sum coeffs[k] s^k for a non-empty ascending sequence of (x, y) pairs, from the top
    coefficient: the operations of Vec2 arithmetic, without a Vec2 per step."""
    x, y = coeffs[-1]
    for cx, cy in coeffs[-2::-1]:
        x = x * s + cx
        y = y * s + cy
    return x, y


def _horner(coeffs: Sequence[tuple[float, float]], s: float) -> Vec2:
    return Vec2(*_horner_xy(coeffs, s))


class PolyCurve:
    """Polynomial curve c0 + c1 s + c2 s^2 + ... in the local parameter s = (t - t0) / span.

    The coefficients of the first three derivatives in t are fixed at
    construction, as (x, y) float pairs, and carry the 1 / span^k chain-rule
    factors, so fairness integrals taken in t match the knot convention of a
    spline segment.  The minimum-energy quadratic a1 t^2 + a2 t + a3 is the
    curve (a3, a2, a1) with t0 = 0 and span = 1.
    """

    def __init__(self, coefficients: Sequence[Vec2], t0: float = 0.0, span: float = 1.0):
        self.coefficients = tuple(coefficients)
        self.t0 = t0
        self.span = span
        derivatives = [tuple((c.x, c.y) for c in self.coefficients)]
        for _ in range(3):
            derivatives.append(tuple((x * (k / span), y * (k / span))
                                     for k, (x, y) in enumerate(derivatives[-1][1:], 1)))
        zero = ((0.0, 0.0),)
        self._position, self._d1, self._d2, self._d3 = (c or zero for c in derivatives)

    @classmethod
    def from_quadratic(cls, curve) -> "PolyCurve":
        """The curve a1 t^2 + a2 t + a3 of anything with those fields, such as the PolyCurve
        of a minimum-energy solution."""
        return cls([curve.a3, curve.a2, curve.a1])

    # The coefficients of s^2, s and 1: a1, a2 and a3 of a quadratic a1 t^2 + a2 t + a3.
    a1 = property(lambda self: self.coefficients[2])
    a2 = property(lambda self: self.coefficients[1])
    a3 = property(lambda self: self.coefficients[0])

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


def _curvature_fns(c: PolyCurve):
    """kappa(t) and kappa-dot(t) of a PolyCurve of degree 3 or less, as two closures over
    its derivative coefficients, unpacked once into floats.

    Each closure does the float operations of _horner_xy on the derivative tables, written
    out: a table is padded to degree 3 with (0.0, 0.0), and 0.0 * s + c == c for finite s,
    so every value is == to Horner's on the unpadded table.  The two closures repeat their
    common lines instead of sharing a helper: a call per quadrature node is the cost saved.
    """
    if len(c._d1) > 3:
        raise DomainError("curvature needs a PolyCurve of degree 3 or less")
    pad = ((0.0, 0.0),) * 3
    (e0x, e0y), (e1x, e1y), (e2x, e2y) = (c._d1 + pad)[:3]
    (f0x, f0y), (f1x, f1y) = (c._d2 + pad)[:2]
    g0x, g0y = c._d3[0]
    t0, span = c.t0, c.span

    def kappa(t: float) -> float:
        s = (t - t0) / span
        vx = (e2x * s + e1x) * s + e0x
        vy = (e2y * s + e1y) * s + e0y
        ax = f1x * s + f0x
        ay = f1y * s + f0y
        speed2 = vx * vx + vy * vy
        if speed2 <= SPEED2_FLOOR:
            raise ZeroSpeed(f"vanishing speed at t = {t}")
        return (vx * ay - vy * ax) / speed2 ** 1.5

    def kappa_rate(t: float) -> float:
        s = (t - t0) / span
        vx = (e2x * s + e1x) * s + e0x
        vy = (e2y * s + e1y) * s + e0y
        ax = f1x * s + f0x
        ay = f1y * s + f0y
        speed2 = vx * vx + vy * vy
        if speed2 <= SPEED2_FLOOR:
            raise ZeroSpeed(f"vanishing speed at t = {t}")
        num = (vx * g0y - vy * g0x) * speed2 - 3.0 * (vx * ax + vy * ay) * (vx * ay - vy * ax)
        return num / speed2 ** 2.5

    return kappa, kappa_rate


def curvature(c: PolyCurve, t: float) -> float:
    """Signed curvature (x'y'' - y'x'') / (x'^2 + y'^2)^(3/2)."""
    return _curvature_fns(c)[0](t)


def curvature_rate(c: PolyCurve, t: float) -> float:
    """Parameter derivative of the signed curvature.

    Full expression retaining third-derivative terms; for quadratics the
    third derivative is zero and this reduces to
    -3 (x'y'' - y'x'')(x'x'' + y'y'') / (x'^2 + y'^2)^(5/2).
    """
    return _curvature_fns(c)[1](t)


# QUADPACK's dqk21 (Piessens et al. 1983): the 21-point Kronrod rule and its embedded
# 10-point Gauss rule on [-1, 1].  Rows are (abscissa, Kronrod weight, Gauss weight) for
# the positive abscissae, outermost first; the Gauss weight is 0.0 at Kronrod-only nodes.
_GK21 = (
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192, 0.0),
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390,
     0.066671344308688137593568809893332),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580, 0.0),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190,
     0.149451349150580593145776339657697),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366, 0.0),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805,
     0.219086362515982043995534934228163),
    (0.562757134668604683339000099272694, 0.123491976262065851077208980223048, 0.0),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707,
     0.269266719309996355091226921569469),
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717, 0.0),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068,
     0.295524224714752870173892994651338),
)
_WK_CENTRE = 0.149445554002916905664936468389821   # Kronrod weight of the centre node
_EPS = sys.float_info.epsilon
_UFLOW = sys.float_info.min


def _gk21(fn, a: float, b: float) -> tuple[float, float]:
    """The 21-point Kronrod value of the integral of fn over [a, b] and QUADPACK's error estimate."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    fc = fn(centre)
    kronrod = _WK_CENTRE * fc
    gauss = 0.0
    resabs = abs(kronrod)
    samples = []
    for x, wk, wg in _GK21:
        f1, f2 = fn(centre - half * x), fn(centre + half * x)
        kronrod += wk * (f1 + f2)
        gauss += wg * (f1 + f2)
        resabs += wk * (abs(f1) + abs(f2))
        samples.append((wk, f1, f2))
    mean = 0.5 * kronrod
    resasc = _WK_CENTRE * abs(fc - mean)
    for wk, f1, f2 in samples:
        resasc += wk * (abs(f1 - mean) + abs(f2 - mean))
    resabs, resasc = resabs * half, resasc * half
    err = abs((kronrod - gauss) * half)
    # QUADPACK's scaling: a Kronrod-Gauss gap that is small against the integrand's spread
    # about its mean (resasc) counts as its 1.5th power, and no estimate is below the
    # round-off floor of 50 eps times the integral of |fn|.
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return kronrod * half, err


def _adaptive(fn, t0: float, t1: float, cfg: QuadratureConfig) -> float:
    """Integral of fn over [t0, t1]: bisect the subinterval of largest error estimate until
    the summed estimate is at most max(abs_tol, rel_tol |I|), over at most 4 max_depth pieces."""
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    value, err = _gk21(fn, t0, t1)
    pieces = [(-err, t0, t1, value)]
    limit = 4 * cfg.max_depth
    while True:
        total = math.fsum(piece[3] for piece in pieces)
        total_err = -math.fsum(piece[0] for piece in pieces)
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            return total
        # A NaN estimate fails the test above on every pass, so it ends here too.
        if len(pieces) >= limit:
            raise QuadratureDivergence(f"no convergence in {limit} subintervals of [{t0:g}, {t1:g}]: "
                                       f"error estimate {total_err:.3g} for the value {total:.6g}")
        _, a, b, _ = heapq.heappop(pieces)
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            value, err = _gk21(fn, lo, hi)
            heapq.heappush(pieces, (-err, lo, hi, value))


def _segment(name: str, which: int, c: PolyCurve, t0: float, t1: float, cfg: QuadratureConfig) -> float:
    """Integral over [t0, t1] of the square of _curvature_fns(c)[which], built once for the
    integral.  A power or a quotient beyond the float range (speed^1.5 underflowing to 0
    below about 1e-108, say) raises DomainError."""
    k = _curvature_fns(c)[which]
    try:
        return _adaptive(lambda t: k(t) ** 2, t0, t1, cfg)
    except (ZeroDivisionError, OverflowError):
        raise DomainError(f"{name} out of the float range on [{t0:g}, {t1:g}]") from None


def segment_energy(c: PolyCurve, t0: float, t1: float,
                   cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Integral of squared curvature over [t0, t1] in the curve parameter."""
    return _segment("curvature", 0, c, t0, t1, cfg)


def segment_variation(c: PolyCurve, t0: float, t1: float,
                      cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Integral of squared curvature rate over [t0, t1] in the curve parameter."""
    return _segment("curvature rate", 1, c, t0, t1, cfg)


def _energy(n: float, m: float) -> float:
    """(3 pi / 4) |a1|^4 / |a1 x a2|^3 = (3 pi / 4) n / m^3 from _quadratic_terms; 0.0 when m = 0."""
    return 0.75 * math.pi * (n / m) / m / m if m else 0.0


def _quadratic_terms(c: PolyCurve) -> tuple[float, float]:
    """n = |a1| and m = |a1 x a2| / |a1| = |a2| sin(angle) of a quadratic PolyCurve
    a1 t^2 + a2 t + a3; m = 0.0 when a1 = 0.  With a1 and n scaled exactly by 2^-k near 1/n,
    m is |a1 x a2| / n to the bit where that is finite, and cannot overflow."""
    if not isinstance(c, PolyCurve) or len(c.coefficients) > 3:
        raise DomainError("whole-line integrals need a PolyCurve of degree 2 or less")
    # a1 = r''/2, and a1 x r'(t) = a1 x a2 for every t: take r'(t0).
    (ax, ay), (vx, vy) = c._d2[0], c._d1[0]
    ax, ay = ax * 0.5, ay * 0.5
    n = math.hypot(ax, ay)
    if n == 0.0:
        if vx == 0.0 and vy == 0.0:
            raise ZeroSpeed("constant curve: the speed vanishes everywhere")
        return 0.0, 0.0
    e = -math.frexp(n)[1]
    return n, abs(math.ldexp(ax, e) * vy - math.ldexp(ay, e) * vx) / math.ldexp(n, e)


def whole_line_energy(c: PolyCurve) -> float:
    """Squared-curvature integral over the whole real line: (3 pi / 4) |a1|^4 / |a1 x a2|^3."""
    return _energy(*_quadratic_terms(c))


def whole_line_variation(c: PolyCurve) -> float:
    """Squared curvature-rate integral over the whole real line: (45 pi / 16) |a1|^8 / |a1 x a2|^5."""
    n, m = _quadratic_terms(c)
    return 45.0 * math.pi / 16.0 * (n / m) * (n / m) * (n / m) / m / m if m else 0.0
