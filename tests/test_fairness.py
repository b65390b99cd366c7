"""Tests for curvature, energy, and curvature-variation functionals.

A note on the whole-line variation of y = a t^2: direct integration of
kappa-dot^2 (checked here against adaptive quadrature, and by the beta-
function identity) gives V = (45 pi / 16) |a|^3, cubic in |a|, so V/E =
(15/4) a^2.  The constants at |a| = 1 are 3 pi / 4 and 45 pi / 16.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from mqspline.errors import DomainError, QuadratureDivergence, ZeroSpeed
from mqspline.fairness import (
    PolyCurve,
    QuadratureConfig,
    _gk21,
    curvature,
    curvature_rate,
    segment_energy,
    segment_variation,
    whole_line_energy,
    whole_line_variation,
)
from mqspline.geometry import Vec2
from mqspline.minquad import QuadraticCurve, total_energy_closed
from mqspline.spline import (
    COMPARISON_METHODS,
    CatmullRom,
    HermiteSpline,
    build_spline,
    chord_length_knots,
    middle_segment_index,
    uniform_knots,
)

from _rand import random_similarity, random_triples


def parabola(a=1.0, b=0.0, c=0.0):
    """PolyCurve for (t, a t^2 + b t + c)."""
    return PolyCurve([Vec2(0.0, c), Vec2(1.0, b), Vec2(0.0, a)])


LINE = PolyCurve([Vec2(0.0, 0.0), Vec2(1.0, 0.0)])


class TestCurvature:
    def test_parabola_vertex(self):
        assert curvature(parabola(), 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_straight_segment(self):
        for t in np.linspace(-3, 3, 11):
            assert curvature(LINE, t) == 0.0

    def test_parabola_off_vertex(self):
        assert curvature(parabola(), 1.0) == pytest.approx(2.0 / 5 ** 1.5, rel=1e-14)

    def test_zero_speed_raises(self):
        stationary = PolyCurve([Vec2(1.0, 2.0)])
        with pytest.raises(ZeroSpeed):
            curvature(stationary, 0.0)


class TestFloatEvaluation:
    def test_equal_to_the_formulas_on_the_derivative_vectors(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            c = PolyCurve([Vec2(*rng.uniform(-2, 2, 2)) for _ in range(4)],
                          t0=rng.uniform(-3, 3), span=10.0 ** rng.uniform(-1, 1))
            t = c.t0 + c.span * rng.uniform(-1.5, 1.5)
            v, a, j = c.first_derivative(t), c.second_derivative(t), c.third_derivative(t)
            speed2 = v.norm2()
            assert curvature(c, t) == (v.x * a.y - v.y * a.x) / speed2 ** 1.5
            num = (v.x * j.y - v.y * j.x) * speed2 - 3.0 * (v.x * a.x + v.y * a.y) * (v.x * a.y - v.y * a.x)
            assert curvature_rate(c, t) == num / speed2 ** 2.5


class TestCurvatureRate:
    def test_parabola_vertex_zero(self):
        assert curvature_rate(parabola(), 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_parabola_off_vertex(self):
        assert curvature_rate(parabola(), 1.0) == pytest.approx(-24.0 / 5 ** 2.5, rel=1e-14)

    def test_cubic_matches_finite_difference(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            coeffs = [Vec2(*rng.uniform(-2, 2, 2)) for _ in range(4)]
            c = PolyCurve(coeffs)
            for t in rng.uniform(-1.5, 1.5, 5):
                v = c.first_derivative(t)
                if v.norm() < 0.3:
                    continue
                h = 1e-6
                fd = (curvature(c, t + h) - curvature(c, t - h)) / (2 * h)
                got = curvature_rate(c, t)
                assert got == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestSegmentIntegrals:
    def test_straight_segment_zero(self):
        assert segment_energy(LINE, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert segment_variation(LINE, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_whole_line_energy_unit_parabola(self):
        assert whole_line_energy(parabola()) == pytest.approx(3 * math.pi / 4, rel=1e-6)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            segment_energy(parabola(), 1.0, 0.0)

    def test_additivity(self):
        c = parabola(1.3, -0.4, 0.2)
        whole = segment_energy(c, -1.0, 2.0)
        parts = segment_energy(c, -1.0, 0.5) + segment_energy(c, 0.5, 2.0)
        assert whole == pytest.approx(parts, rel=1e-9)


def _near_cusp_segment(rng, knots):
    """A Hermite segment from (0, 0) to (1, 0) with local tangents (3 (1 + d), +-b), under a
    random similarity.  d = 0 puts a cusp at the midpoint; here the speed dips to 1.5 |d|
    with |d| log-uniform in [1e-3, 0.3]."""
    d = 10.0 ** rng.uniform(-3.0, math.log10(0.3)) * rng.choice([-1.0, 1.0])
    b = rng.uniform(0.5, 3.0)
    sim = random_similarity(rng)
    origin = sim(Vec2(0.0, 0.0))
    p_a, p_b = origin, sim(Vec2(1.0, 0.0))
    m_a, m_b = sim(Vec2(3.0 * (1.0 + d), b)) - origin, sim(Vec2(3.0 * (1.0 + d), -b)) - origin
    t0 = float(rng.integers(0, 5)) if knots == "uniform" else rng.uniform(0.0, 10.0)
    span = 1.0 if knots == "uniform" else (p_b - p_a).norm()
    spline = HermiteSpline(points=(p_a, p_b), knots=(t0, t0 + span),
                           tangents=(m_a / span, m_b / span), method=CatmullRom())
    return spline.segment_evaluator(0), t0, t0 + span


class TestSegmentQuadratureOracle:
    """The in-house Gauss-Kronrod quadrature against scipy's QUADPACK `quad`."""

    @staticmethod
    def _check(c, t0, t1):
        for integral, integrand in ((segment_energy, curvature), (segment_variation, curvature_rate)):
            oracle, _ = quad(lambda t: integrand(c, t) ** 2, t0, t1, epsabs=0.0, epsrel=1e-13,
                             limit=2000)
            assert integral(c, t0, t1) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("knots", ["uniform", "chord"])
    def test_random_middle_segments(self, knots):
        rng = np.random.default_rng(73)
        for _ in range(8):
            n = int(rng.integers(4, 9))
            points = [Vec2(*p) for p in rng.uniform(-3.0, 3.0, (n, 2))]
            ks = uniform_knots(n) if knots == "uniform" else chord_length_knots(points)
            mid = middle_segment_index(n)
            for _, method in COMPARISON_METHODS:
                self._check(build_spline(points, ks, method).segment_evaluator(mid), ks[mid], ks[mid + 1])

    @pytest.mark.parametrize("knots", ["uniform", "chord"])
    def test_near_cusp_segments(self, knots):
        rng = np.random.default_rng(79)
        for _ in range(12):
            self._check(*_near_cusp_segment(rng, knots))

    def test_kronrod_rule_exact_to_degree_31(self):
        # Pins QUADPACK's dqk21 constants: the Kronrod rule is exact for degree <= 31, and
        # the embedded Gauss rule for degree <= 19, where the error estimate is at its floor.
        for k in range(32):
            value, err = _gk21(lambda x: x ** k, -1.0, 1.0)
            assert value == pytest.approx(2.0 / (k + 1) if k % 2 == 0 else 0.0, abs=1e-15)
            if k <= 19:
                assert err < 1e-13


class TestQuadratureDivergence:
    def test_subinterval_budget_raises_one_line(self):
        c, t0, t1 = _near_cusp_segment(np.random.default_rng(83), "uniform")
        with pytest.raises(QuadratureDivergence) as info:
            segment_energy(c, t0, t1, QuadratureConfig(max_depth=1))
        assert "\n" not in str(info.value)

    def test_unreachable_tolerance_raises_one_line(self):
        with pytest.raises(QuadratureDivergence) as info:
            segment_variation(parabola(), 0.0, 1.0, QuadratureConfig(rel_tol=1e-300, abs_tol=1e-300))
        assert "\n" not in str(info.value)


class TestLemmaConstants:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_whole_line_energy_scales_linearly(self, a):
        assert whole_line_energy(parabola(a)) == pytest.approx(3 * math.pi / 4 * a, rel=1e-6)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_whole_line_variation_scales_cubically(self, a):
        # Independent oracle: direct quadrature of the kappa-dot^2 integrand
        # for (t, a t^2): kappa-dot = -12 a^2 (2 a t) / (1 + (2 a t)^2)^(5/2).
        oracle, _ = quad(lambda t: (12 * a * a * 2 * a * t) ** 2 / (1 + (2 * a * t) ** 2) ** 5,
                         -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12)
        got = whole_line_variation(parabola(a))
        assert got == pytest.approx(oracle, rel=1e-6)
        assert got == pytest.approx(45 * math.pi / 16 * a ** 3, rel=1e-6)

    def test_independent_of_linear_and_constant_terms(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            a = rng.uniform(0.3, 2.0)
            b, c = rng.uniform(-3, 3, 2)
            assert whole_line_energy(parabola(a, b, c)) == pytest.approx(
                3 * math.pi / 4 * a, rel=1e-6)
            assert whole_line_variation(parabola(a, b, c)) == pytest.approx(
                45 * math.pi / 16 * a ** 3, rel=1e-6)

    def test_ratio_law(self):
        # V / E = (15/4) a^2 for curves (t, a t^2 + b t + c).
        rng = np.random.default_rng(61)
        for _ in range(10):
            a = rng.uniform(0.3, 2.0)
            b, c = rng.uniform(-3, 3, 2)
            curve = parabola(a, b, c)
            ratio = whole_line_variation(curve) / whole_line_energy(curve)
            assert ratio == pytest.approx(15.0 / 4.0 * a * a, rel=1e-6)


class TestOracleAgreement:
    def test_closed_energy_vs_quadrature(self):
        rng = np.random.default_rng(67)
        for p1, p2, p3 in random_triples(rng, 30):
            from mqspline.minquad import build_solution
            curve = build_solution(p1, p2, p3).curve
            closed = total_energy_closed(curve)
            numeric = whole_line_energy(PolyCurve.from_quadratic(curve))
            assert closed == pytest.approx(numeric, rel=1e-6)


def _tan_substituted(c, integrand):
    """Whole-line quadrature of integrand(c, t) for a quadratic PolyCurve.

    t = t* + w tan(u), with t* the minimum-speed parameter and w the half
    width of the curvature peak, so the transformed integrand has the same
    shape for every aspect ratio.
    """
    _, c1, c2 = c.coefficients
    n2 = c2.norm2()
    t_star = c.t0 - c.span * c2.dot(c1) / (2.0 * n2)
    w = c.span * abs(c2.x * c1.y - c2.y * c1.x) / (2.0 * n2)

    def g(u):
        cu = math.cos(u)
        if abs(cu) < 1e-150:
            return 0.0
        return integrand(c, t_star + w * math.tan(u)) ** 2 * w / (cu * cu)

    val, _ = quad(g, -0.5 * math.pi, 0.5 * math.pi, epsabs=0.0, epsrel=1e-11, limit=200)
    return val


class TestWholeLineOracle:
    """Closed-form whole-line E and V against quadrature of kappa^2 and kappa-dot^2."""

    def test_random_quadratics_against_quadrature(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            # |a1| |a2| / |a1 x a2| (the aspect ratio) log-uniform in [1, 1e4].
            sin_t = 10.0 ** -rng.uniform(0.0, 4.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            theta = math.asin(sin_t) * rng.choice([-1.0, 1.0]) + rng.choice([0.0, math.pi])
            n1, n2 = 10.0 ** rng.uniform(-1.0, 1.0, 2)
            a1 = Vec2(n1 * math.cos(phi), n1 * math.sin(phi))
            a2 = Vec2(n2 * math.cos(phi + theta), n2 * math.sin(phi + theta))
            a3 = Vec2(*rng.uniform(-3.0, 3.0, 2))
            span = 10.0 ** rng.uniform(-1.0, 1.0)
            c = PolyCurve([a3, a2 * span, a1 * (span * span)], t0=rng.uniform(-5.0, 5.0), span=span)
            assert whole_line_energy(c) == pytest.approx(_tan_substituted(c, curvature), rel=1e-8)
            assert whole_line_variation(c) == pytest.approx(_tan_substituted(c, curvature_rate), rel=1e-8)

    def test_far_shifted_vertex(self):
        # The vertex sits at t = 1000, far outside the unit half-width.
        c = PolyCurve([Vec2(0.0, 0.0), Vec2(1.0, -2000.0), Vec2(0.0, 1.0)])
        assert whole_line_energy(c) == pytest.approx(3 * math.pi / 4, rel=1e-14)
        assert whole_line_variation(c) == pytest.approx(45 * math.pi / 16, rel=1e-14)

    def test_wide_flat_quadratic(self):
        c = PolyCurve([Vec2(0.0, 0.0), Vec2(1e4, 3.0), Vec2(0.0, 1.0)])
        assert whole_line_energy(c) == pytest.approx(3 * math.pi / 4 * 1e-12, rel=1e-14)
        assert whole_line_variation(c) == pytest.approx(45 * math.pi / 16 * 1e-20, rel=1e-14)

    def test_straight_traversals_give_zero(self):
        doubling = PolyCurve([Vec2(1.0, 1.0), Vec2(-2.0, -4.0), Vec2(1.0, 2.0)])
        # a2 = a1 / 2 exactly, though a1 / |a1| has no exact ratio to a2.
        halved = PolyCurve([Vec2(0.0, 0.0), Vec2(-2.5, -1.0), Vec2(-5.0, -2.0)])
        for c in (LINE, doubling, halved):
            assert whole_line_energy(c) == 0.0
            assert whole_line_variation(c) == 0.0

    def test_constant_curve_raises(self):
        for c in (PolyCurve([Vec2(1.0, 2.0)]), PolyCurve([Vec2(1.0, 2.0), Vec2(0.0, 0.0)])):
            with pytest.raises(ZeroSpeed):
                whole_line_energy(c)
            with pytest.raises(ZeroSpeed):
                whole_line_variation(c)

    def test_cubic_raises(self):
        cubic = PolyCurve([Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(0.5, 0.0)])
        with pytest.raises(DomainError):
            whole_line_energy(cubic)
        with pytest.raises(DomainError):
            whole_line_variation(cubic)


class TestSignSymmetry:
    def test_reflection_negates_kappa_preserves_integrals(self):
        curve = PolyCurve([Vec2(0.1, -0.2), Vec2(1.0, 0.7), Vec2(-0.3, 1.4)])
        mirrored = PolyCurve([Vec2(c.x, -c.y) for c in curve.coefficients])
        for t in np.linspace(-2, 2, 9):
            assert curvature(mirrored, t) == pytest.approx(-curvature(curve, t), abs=1e-12)
        assert whole_line_energy(mirrored) == pytest.approx(whole_line_energy(curve), rel=1e-9)
        assert whole_line_variation(mirrored) == pytest.approx(
            whole_line_variation(curve), rel=1e-9)


class TestQuadratureConfig:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_depth=0)
