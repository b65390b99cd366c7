"""Tests for Hermite spline construction under the four tangent methods."""

import numpy as np
import pytest

from mqspline.errors import DomainError, TooFewPoints
from mqspline.fairness import PolyCurve, curvature, curvature_rate, segment_energy, segment_variation
from mqspline.geometry import Vec2
from mqspline.minquad import build_solution
from mqspline.pointsets import POINT_SET_1, POINT_SET_2
from mqspline.spline import (
    Cardinal,
    CatmullRom,
    KochanekBartels,
    MinEnergyQuad,
    build_spline,
    chord_length_knots,
    hermite_eval,
    middle_segment_index,
    uniform_knots,
)

from _rand import random_similarity, random_triples

ALL_METHODS = [MinEnergyQuad(), CatmullRom(), Cardinal(0.3), KochanekBartels(0.2, 0.4, -0.1)]


def random_point_set(rng, n):
    pts = [Vec2(0.0, 0.0)]
    for _ in range(n - 1):
        step = Vec2(rng.uniform(0.5, 1.5), rng.uniform(-1.5, 1.5))
        pts.append(pts[-1] + step)
    return pts


class TestTangentRules:
    """Each method's interior(p_prev, p_i, p_next, t_prev, t_next); p_i is unused by the chord rules."""

    def test_catmull_rom_chord(self):
        v = CatmullRom().interior(Vec2(0, 0), Vec2(1, 5), Vec2(2, 0), 0.0, 2.0)
        assert v.as_tuple() == (1.0, 0.0)

    def test_catmull_rom_interior_of_square_set(self):
        v = CatmullRom().interior(Vec2(0, 0), Vec2(1, 5), Vec2(3, 3), 1.0, 3.0)
        assert v.as_tuple() == (1.5, 1.5)

    def test_cardinal_reduces_to_catmull_rom(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            a, p, b = (Vec2(*rng.uniform(-3, 3, 2)) for _ in range(3))
            t0 = rng.uniform(0, 1)
            t1 = t0 + rng.uniform(0.5, 2)
            assert Cardinal(0.0).interior(a, p, b, t0, t1) == CatmullRom().interior(a, p, b, t0, t1)

    def test_cardinal_full_tension_zero(self):
        assert Cardinal(1.0).interior(Vec2(0, 0), Vec2(1, 5), Vec2(2, 0), 0.0, 2.0).norm() == 0.0

    def test_cardinal_half_tension(self):
        assert Cardinal(0.5).interior(Vec2(0, 0), Vec2(1, 5), Vec2(2, 0), 0.0, 2.0).as_tuple() == (0.5, 0.0)

    def test_kb_neutral_is_mean_chord(self):
        v = KochanekBartels(0.0, 0.0, 0.0).interior(Vec2(0, 0), Vec2(1, 3), Vec2(2, 1), 0.0, 2.0)
        assert v.as_tuple() == (1.0, 0.5)

    def test_kb_full_tension_zero(self):
        v = KochanekBartels(1.0, 0.5, -0.3).interior(Vec2(0, 0), Vec2(1, 3), Vec2(2, 1), 0.0, 2.0)
        assert v.norm() == 0.0

    def test_kb_biased(self):
        v = KochanekBartels(0.0, 0.5, 0.0).interior(Vec2(0, 0), Vec2(1, 3), Vec2(2, 1), 0.0, 2.0)
        assert v.x == pytest.approx(1.0, abs=1e-15)
        assert v.y == pytest.approx(1.75, abs=1e-15)

    def test_min_energy_symmetric_apex(self):
        v = MinEnergyQuad().interior(Vec2(0, 0), Vec2(0.5, 1), Vec2(1, 0), 0.0, 2.0)
        assert v.x == pytest.approx(0.5, abs=1e-12)
        assert v.y == pytest.approx(0.0, abs=1e-12)

    def test_min_energy_symmetric_equals_catmull_rom(self):
        # Mirror-symmetric triple: T = 1/2 and the quadratic term drops out.
        p1, p2, p3 = Vec2(1, 1), Vec2(2, 4), Vec2(3, 1)
        got = MinEnergyQuad().interior(p1, p2, p3, 0.0, 2.0)
        want = CatmullRom().interior(p1, p2, p3, 0.0, 2.0)
        assert (got - want).norm() < 1e-9

    def test_min_energy_consistent_with_solution(self):
        p1, p2, p3 = Vec2(0, 0), Vec2(1, 3), Vec2(2, 1)
        sol = build_solution(p1, p2, p3)
        expect = sol.curve.velocity(sol.T) / 2.0
        got = MinEnergyQuad().interior(p1, p2, p3, 0.0, 2.0)
        assert (got - expect).norm() < 1e-12

    def test_min_energy_collinear_falls_back_to_chord(self):
        # No quadratic through a collinear triple (p2 between, beyond or before the ends):
        # the chord tangent, the zero-energy limit.
        p1, p3 = Vec2(0, 0), Vec2(2, 0)
        for p2 in (Vec2(1, 0), Vec2(3, 0), Vec2(-1, 0)):
            got = MinEnergyQuad().interior(p1, p2, p3, 0.0, 2.0)
            assert got == CatmullRom().interior(p1, p2, p3, 0.0, 2.0) == Vec2(1.0, 0.0)


class TestHermiteEval:
    def test_endpoints(self):
        pa, pb = Vec2(0.2, -1.0), Vec2(3.0, 2.0)
        va, vb = Vec2(1.0, 4.0), Vec2(-2.0, 0.5)
        assert hermite_eval(pa, pb, va, vb, 0.0) == pa
        assert hermite_eval(pa, pb, va, vb, 1.0) == pb

    def test_endpoint_derivatives(self):
        pa, pb = Vec2(0.0, 0.0), Vec2(1.0, 1.0)
        va, vb = Vec2(0.5, 2.0), Vec2(-1.0, 0.25)
        h = 1e-7
        d0 = (hermite_eval(pa, pb, va, vb, h) - hermite_eval(pa, pb, va, vb, 0.0)) / h
        d1 = (hermite_eval(pa, pb, va, vb, 1.0) - hermite_eval(pa, pb, va, vb, 1.0 - h)) / h
        assert (d0 - va).norm() < 1e-5
        assert (d1 - vb).norm() < 1e-5

    def test_line_reproduction(self):
        p = hermite_eval(Vec2(0, 0), Vec2(1, 0), Vec2(1, 0), Vec2(1, 0), 0.5)
        assert p.x == pytest.approx(0.5, abs=1e-15)
        assert p.y == 0.0


class TestBuildSpline:
    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            build_spline([Vec2(0, 0)], [0.0], CatmullRom())

    def test_bad_knots(self):
        with pytest.raises(DomainError):
            build_spline([Vec2(0, 0), Vec2(1, 1)], [0.0, 0.0], CatmullRom())

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_interpolation_at_knots(self, method):
        rng = np.random.default_rng(73)
        pts = random_point_set(rng, 7)
        sp = build_spline(pts, uniform_knots(7), method)
        for p, t in zip(pts, sp.knots):
            assert (sp.evaluate(t) - p).norm() < 1e-12

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_c1_shared_tangents(self, method):
        rng = np.random.default_rng(79)
        pts = random_point_set(rng, 6)
        sp = build_spline(pts, uniform_knots(6), method)
        for i in range(1, sp.segment_count):
            left = sp.segment_evaluator(i - 1).first_derivative(sp.knots[i])
            right = sp.segment_evaluator(i).first_derivative(sp.knots[i])
            # One tangent vector per knot: derivatives agree exactly.
            assert (left - right).norm() < 1e-12

    def test_square_set_matches_catmull_rom(self):
        # Both interior triples of the square set are mirror-symmetric.
        knots = uniform_knots(4)
        ours = build_spline(POINT_SET_2, knots, MinEnergyQuad())
        cr = build_spline(POINT_SET_2, knots, CatmullRom())
        for v_ours, v_cr in zip(ours.tangents[1:-1], cr.tangents[1:-1]):
            assert (v_ours - v_cr).norm() < 1e-9

    def test_collinear_point_set_traces_line(self):
        pts = [Vec2(float(i), 2.0 * i) for i in range(5)]
        for method in ALL_METHODS:
            sp = build_spline(pts, uniform_knots(5), method)
            for i in range(sp.segment_count):
                assert segment_energy(sp.segment_evaluator(i), sp.knots[i], sp.knots[i + 1]) \
                    == pytest.approx(0.0, abs=1e-12)
                assert segment_variation(sp.segment_evaluator(i), sp.knots[i], sp.knots[i + 1]) \
                    == pytest.approx(0.0, abs=1e-12)

    def test_set1_middle_segment_energy(self):
        sp = build_spline(POINT_SET_1, uniform_knots(4), MinEnergyQuad())
        i = middle_segment_index(4)
        e = segment_energy(sp.segment_evaluator(i), sp.knots[i], sp.knots[i + 1])
        assert e == pytest.approx(6.83, rel=0.05)

    def test_reduction_identities_exact(self):
        rng = np.random.default_rng(83)
        pts = random_point_set(rng, 6)
        knots = uniform_knots(6)
        cr = build_spline(pts, knots, CatmullRom())
        card0 = build_spline(pts, knots, Cardinal(0.0))
        assert card0.tangents == cr.tangents
        # KB(0,0,0) with uniform unit spacing: (p_next - p_prev)/2 == chord/2.
        kb0 = build_spline(pts, knots, KochanekBartels(0.0, 0.0, 0.0))
        for v_kb, v_cr in zip(kb0.tangents[1:-1], cr.tangents[1:-1]):
            assert v_kb == v_cr

    @pytest.mark.parametrize("conv", ["uniform", "chord"])
    def test_min_energy_doubling_back_falls_back_to_chord(self, conv):
        # p0 == p2: the first triple has coincident ends, so no quadratic exists.
        pts = [Vec2(0, 0), Vec2(1, 1), Vec2(0, 0), Vec2(1, 0)]
        knots = chord_length_knots(pts) if conv == "chord" else uniform_knots(4)
        ours = build_spline(pts, knots, MinEnergyQuad())
        cr = build_spline(pts, knots, CatmullRom())
        assert ours.tangents[1] == cr.tangents[1] == Vec2(0.0, 0.0)
        assert ours.tangents[0] == cr.tangents[0]
        assert ours.tangents[2] == MinEnergyQuad().interior(pts[1], pts[2], pts[3], knots[1], knots[3])

    def test_similarity_equivariance(self):
        rng = np.random.default_rng(89)
        pts = random_point_set(rng, 5)
        knots = uniform_knots(5)
        s = random_similarity(rng)
        for method in (MinEnergyQuad(), CatmullRom()):
            sp = build_spline(pts, knots, method)
            sps = build_spline([s(p) for p in pts], knots, method)
            for t in np.linspace(knots[0], knots[-1], 33):
                mapped = s(sp.evaluate(t))
                direct = sps.evaluate(t)
                assert (mapped - direct).norm() < 1e-9 * max(1.0, mapped.norm())


class TestSegmentEvaluator:
    def setup_method(self):
        rng = np.random.default_rng(97)
        self.pts = random_point_set(rng, 5)
        self.sp = build_spline(self.pts, uniform_knots(5), MinEnergyQuad())

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            self.sp.segment_evaluator(4)

    def test_position_and_derivative_at_knots(self):
        for i in range(self.sp.segment_count):
            ev = self.sp.segment_evaluator(i)
            t0 = self.sp.knots[i]
            assert (ev.position(t0) - self.pts[i]).norm() < 1e-12
            assert (ev.first_derivative(t0) - self.sp.tangents[i]).norm() < 1e-12

    def test_curvature_matches_finite_difference_positions(self):
        # Oracle: discrete curvature from dense position samples.
        ev = self.sp.segment_evaluator(1)
        t0, t1 = self.sp.knots[1], self.sp.knots[2]
        h = 1e-5
        for t in np.linspace(t0 + 0.1, t1 - 0.1, 7):
            pm, p0, pp = ev.position(t - h), ev.position(t), ev.position(t + h)
            d1 = (pp - pm) / (2 * h)
            d2 = (pp - p0 * 2.0 + pm) / (h * h)
            kappa_fd = (d1.x * d2.y - d1.y * d2.x) / d1.norm() ** 3
            assert curvature(ev, t) == pytest.approx(kappa_fd, rel=1e-4, abs=1e-6)

    def test_chord_length_knots_carry_span_factors(self):
        # Chord-length spans are not 1, so the 1/span^k factors of the derivatives show.
        knots = chord_length_knots(self.pts)
        sp = build_spline(self.pts, knots, MinEnergyQuad())
        h = 1e-5
        for i in range(sp.segment_count):
            ev = sp.segment_evaluator(i)
            t0, t1 = knots[i], knots[i + 1]
            assert isinstance(ev, PolyCurve) and (ev.t0, ev.span) == (t0, t1 - t0)
            for j in (i, i + 1):
                assert (ev.position(knots[j]) - self.pts[j]).norm() < 1e-12
                assert (ev.first_derivative(knots[j]) - sp.tangents[j]).norm() < 1e-12
            for t in np.linspace(t0 + 0.1 * (t1 - t0), t1 - 0.1 * (t1 - t0), 7):
                rate_fd = (curvature(ev, t + h) - curvature(ev, t - h)) / (2 * h)
                assert curvature_rate(ev, t) == pytest.approx(rate_fd, rel=1e-6, abs=1e-8)

    def test_chord_length_knots(self):
        pts = [Vec2(0, 0), Vec2(3, 4), Vec2(6, 8)]
        assert chord_length_knots(pts) == (0.0, 5.0, 10.0)
        with pytest.raises(DomainError):
            chord_length_knots([Vec2(0, 0), Vec2(0, 0)])
