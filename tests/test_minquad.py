"""Tests for the minimum-energy quadratic solve and its derived quantities."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from mqspline.errors import CollinearPoints, DegenerateCurve, DomainError
from mqspline.fairness import PolyCurve
from mqspline.geometry import Vec2, cross2
from mqspline.minquad import (
    arc_length_closed,
    arc_length_numeric,
    build_solution,
    cubic_residual,
    cubic_roots,
    energy_objective,
    solve_min_T,
    tangent_at_p2,
    total_energy_closed,
)

from _rand import random_similarity, random_triples


def quadratic(a1, a2):
    """The curve a1 t^2 + a2 t through the origin."""
    return PolyCurve((Vec2(0, 0), a2, a1))


class TestCubicResidual:
    def test_symmetric_case_root_at_half(self):
        assert cubic_residual(0.5, Vec2(0.5, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_zero_is_half_norm2(self):
        assert cubic_residual(0.0, Vec2(0.3, 0.4)) == pytest.approx(0.125, abs=1e-15)

    def test_value_at_one(self):
        # residual(1) = -((1 - q2.x)^2 + q2.y^2) / 2
        assert cubic_residual(1.0, Vec2(0.5, 1)) == pytest.approx(-0.625, abs=1e-15)


class TestCubicRoots:
    def test_worked_example(self):
        solve = cubic_roots(Vec2(0.5, 1))
        assert solve.beta == pytest.approx(0.0, abs=1e-12)
        assert solve.gamma == pytest.approx(-8.0, abs=1e-12)
        expected = sorted([0.5, 0.5 + math.sqrt(6) / 2, 0.5 - math.sqrt(6) / 2])
        for got, want in zip(solve.roots, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_roots_satisfy_cubic(self):
        rng = np.random.default_rng(3)
        for p1, p2, p3 in random_triples(rng, 100):
            from mqspline.geometry import normalize_triple
            q2 = normalize_triple(p1, p2, p3)
            for r in cubic_roots(q2).roots:
                assert abs(cubic_residual(r, q2)) < 1e-9


class TestSolveMinT:
    def test_symmetric_middle_root(self):
        assert solve_min_T(Vec2(0.5, 1)) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("h", [0.1, 2.0, 10.0])
    def test_mirror_symmetry_forces_half(self, h):
        assert solve_min_T(Vec2(0.5, h)) == pytest.approx(0.5, abs=1e-12)

    def test_matches_grid_argmin(self):
        # Brute-force oracle: scan the energy objective on a dense grid.
        q2 = Vec2(0.25, 0.5)
        grid = np.linspace(1e-6, 1.0 - 1e-6, 100_000)
        # energy_objective's closed form, over the whole grid at once.
        oracle = grid[np.argmin(((q2.x - grid) ** 2 + q2.y ** 2) ** 2 / (grid - grid * grid))]
        assert abs(solve_min_T(q2) - oracle) < grid[1] - grid[0]

    def test_residual_polished(self):
        rng = np.random.default_rng(5)
        for p1, p2, p3 in random_triples(rng, 300):
            from mqspline.geometry import normalize_triple
            q2 = normalize_triple(p1, p2, p3)
            T = solve_min_T(q2)
            assert 0.0 < T < 1.0
            assert abs(cubic_residual(T, q2)) < 1e-10


class TestEnergyObjective:
    def test_symmetric_value(self):
        assert energy_objective(0.5, Vec2(0.5, 1)) == pytest.approx(4.0, abs=1e-12)

    def test_diverges_at_boundaries(self):
        q2 = Vec2(0.3, 0.7)
        assert energy_objective(1e-12, q2) > 1e10
        assert energy_objective(1.0 - 1e-12, q2) > 1e10

    def test_domain_error(self):
        with pytest.raises(DomainError):
            energy_objective(0.0, Vec2(0.5, 1))
        with pytest.raises(DomainError):
            energy_objective(1.5, Vec2(0.5, 1))

    def test_stationary_at_solution(self):
        rng = np.random.default_rng(17)
        for p1, p2, p3 in random_triples(rng, 30):
            from mqspline.geometry import normalize_triple
            q2 = normalize_triple(p1, p2, p3)
            T = solve_min_T(q2)
            h = 1e-6
            h = min(h, T / 2, (1 - T) / 2)
            deriv = (energy_objective(T + h, q2) - energy_objective(T - h, q2)) / (2 * h)
            scale = max(1.0, energy_objective(T, q2))
            assert abs(deriv) < 1e-4 * scale


class TestBuildSolution:
    def test_symmetric_triple_coefficients(self):
        sol = build_solution(Vec2(0, 0), Vec2(0.5, 1), Vec2(1, 0))
        assert sol.T == pytest.approx(0.5, abs=1e-12)
        assert sol.curve.a1.x == pytest.approx(0.0, abs=1e-12)
        assert sol.curve.a1.y == pytest.approx(-4.0, abs=1e-12)
        assert sol.curve.a2.x == pytest.approx(1.0, abs=1e-12)
        assert sol.curve.a2.y == pytest.approx(4.0, abs=1e-12)
        assert sol.curve.a3.x == 0.0 and sol.curve.a3.y == 0.0
        mid = PolyCurve.from_quadratic(sol.curve).position(0.5)
        assert mid.x == pytest.approx(0.5, abs=1e-12)
        assert mid.y == pytest.approx(1.0, abs=1e-12)

    def test_interpolates_all_three_points(self):
        rng = np.random.default_rng(19)
        for p1, p2, p3 in random_triples(rng, 200):
            sol = build_solution(p1, p2, p3)
            tol = 1e-9 * (p3 - p1).norm()
            curve = PolyCurve.from_quadratic(sol.curve)
            assert (curve.position(0.0) - p1).norm() < tol
            assert (curve.position(sol.T) - p2).norm() < tol
            assert (curve.position(1.0) - p3).norm() < tol

    def test_T_similarity_invariant(self):
        rng = np.random.default_rng(23)
        for p1, p2, p3 in random_triples(rng, 50):
            T = build_solution(p1, p2, p3).T
            s = random_similarity(rng)
            Ts = build_solution(s(p1), s(p2), s(p3)).T
            assert abs(T - Ts) < 1e-9

    def test_reversal(self):
        rng = np.random.default_rng(29)
        for p1, p2, p3 in random_triples(rng, 100):
            T = build_solution(p1, p2, p3).T
            Tr = build_solution(p3, p2, p1).T
            assert T + Tr == pytest.approx(1.0, abs=1e-9)

    def test_collinear_propagates(self):
        with pytest.raises(CollinearPoints):
            build_solution(Vec2(0, 0), Vec2(1, 1), Vec2(2, 2))

    def test_huge_coordinates_scale_the_unit_solution(self):
        # cross(p2 - p1, p3 - p1) and |p3 - p1|^2 overflow at this scale;
        # the collinearity test must not see them.
        unit = build_solution(Vec2(0, 0), Vec2(1, 3), Vec2(2, 0))
        huge = build_solution(Vec2(0, 0), Vec2(1e200, 3e200), Vec2(2e200, 0))
        assert unit.T == pytest.approx(0.5, abs=1e-12)
        assert huge.T == pytest.approx(unit.T, abs=1e-12)
        for got, want in ((huge.curve.a1, unit.curve.a1), (tangent_at_p2(huge), tangent_at_p2(unit))):
            assert got.x == pytest.approx(1e200 * want.x, rel=1e-12, abs=1e188)
            assert got.y == pytest.approx(1e200 * want.y, rel=1e-12, abs=1e188)


class TestTangentAtP2:
    def test_symmetric_triple(self):
        sol = build_solution(Vec2(0, 0), Vec2(0.5, 1), Vec2(1, 0))
        tan = tangent_at_p2(sol)
        assert tan.x == pytest.approx(1.0, abs=1e-12)
        assert tan.y == pytest.approx(0.0, abs=1e-12)

    def test_half_T_gives_chord(self):
        # 2T - 1 vanishes, leaving p3 - p1.
        sol = build_solution(Vec2(1, 1), Vec2(2.5, 3), Vec2(4, 1))
        assert sol.T == pytest.approx(0.5, abs=1e-12)
        tan = tangent_at_p2(sol)
        assert tan.x == pytest.approx(3.0, abs=1e-9)
        assert tan.y == pytest.approx(0.0, abs=1e-9)

    def test_matches_printed_formula(self):
        rng = np.random.default_rng(31)
        triples = [(Vec2(0, 0), Vec2(1, 3), Vec2(2, 1))] + random_triples(rng, 50)
        for p1, p2, p3 in triples:
            sol = build_solution(p1, p2, p3)
            T = sol.T
            bracket = (p2 - p1 - (p3 - p1) * T) / (T * T - T)
            expected = bracket * (2 * T - 1) + (p3 - p1)
            got = tangent_at_p2(sol)
            assert (got - expected).norm() < 1e-9 * max(1.0, expected.norm())


class TestArcLength:
    def test_symmetric_triple_vs_quadrature(self):
        sol = build_solution(Vec2(0, 0), Vec2(0.5, 1), Vec2(1, 0))
        closed = arc_length_closed(sol)
        # Independent oracle: the curve is y = 4x(1-x); arc length of the
        # graph by direct quadrature over x.
        oracle, _ = quad(lambda x: math.hypot(1.0, 4.0 - 8.0 * x), 0.0, 1.0,
                         epsabs=1e-13, epsrel=1e-12)
        assert closed == pytest.approx(oracle, rel=1e-8)

    def test_random_triples_vs_quadrature(self):
        rng = np.random.default_rng(37)
        for p1, p2, p3 in random_triples(rng, 200):
            sol = build_solution(p1, p2, p3)
            assert arc_length_closed(sol) == pytest.approx(arc_length_numeric(sol), rel=1e-8)

    @pytest.mark.parametrize("a1, a2", [
        ((0.0, 1.0), (1.0, 0.5)),      # vertex at t = -0.25: u > 0 on [0, 1]
        ((0.0, 1.0), (1.0, -3.0)),     # vertex at t = 1.5: u < 0 on [0, 1]
        ((1.0, 0.0), (0.5, 1e-9)),     # nearly straight, one sign
        ((2.0, -1.0), (-2.0, 1.0)),    # straight, doubling back at t = 0.5
        ((1.0, 0.0), (-1.0, 1e-300)),  # m^2 underflows
        ((0.0, 0.0), (3.0, 4.0)),      # a1 = 0: a line of length |a2|
    ])
    def test_every_branch_vs_quadrature(self, a1, a2):
        sol = build_solution(Vec2(0, 0), Vec2(0.5, 1), Vec2(1, 0))
        curve = quadratic(Vec2(*a1), Vec2(*a2))
        speed = lambda t: curve.first_derivative(t).norm()
        oracle, _ = quad(speed, 0.0, 1.0, points=[0.5], epsabs=0.0, epsrel=1e-13)
        got = arc_length_closed(dataclasses.replace(sol, curve=curve))
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_lower_bound_chord(self):
        rng = np.random.default_rng(41)
        for p1, p2, p3 in random_triples(rng, 100):
            sol = build_solution(p1, p2, p3)
            assert arc_length_closed(sol) >= (p3 - p1).norm() - 1e-12

    def test_homogeneity_under_scaling(self):
        rng = np.random.default_rng(43)
        for p1, p2, p3 in random_triples(rng, 50):
            l1 = arc_length_closed(build_solution(p1, p2, p3))
            l2 = arc_length_closed(build_solution(p1 * 2.0, p2 * 2.0, p3 * 2.0))
            assert l2 == pytest.approx(2.0 * l1, rel=1e-9)


class TestTotalEnergyClosed:
    def test_unit_parabola(self):
        curve = quadratic(Vec2(0, 1), Vec2(1, 0))
        assert total_energy_closed(curve) == pytest.approx(3 * math.pi / 4, rel=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, -3.0])
    def test_scaled_parabola(self, a):
        curve = quadratic(Vec2(0, a), Vec2(1, 0))
        assert total_energy_closed(curve) == pytest.approx(3 * math.pi / 4 * abs(a), rel=1e-12)

    def test_stretched_abscissa(self):
        curve = quadratic(Vec2(0, 1), Vec2(2, 0))
        assert total_energy_closed(curve) == pytest.approx(3 * math.pi / 4 / 8, rel=1e-12)

    def test_power_of_two_scaling_is_exact(self):
        # E of the min-energy quadratic scales as 1/length^2, and scaling by 2^k is exact.
        p1, p2, p3 = Vec2(0, 0), Vec2(1, 3), Vec2(2, 1)
        unscaled = total_energy_closed(build_solution(p1, p2, p3).curve)
        for k in range(-40, 41):
            s = 2.0 ** k
            scaled = total_energy_closed(build_solution(p1 * s, p2 * s, p3 * s).curve)
            assert scaled * 4.0 ** k == unscaled

    def test_huge_triple_underflows_to_zero(self):
        # The true energy, about 1e-400, is below the float range; nothing overflows on the way.
        sol = build_solution(Vec2(0, 0), Vec2(1e200, 3e200), Vec2(2e200, 0))
        assert total_energy_closed(sol.curve) == 0.0

    def test_degenerate_raises(self):
        curve = quadratic(Vec2(1, 1), Vec2(2, 2))
        with pytest.raises(DegenerateCurve):
            total_energy_closed(curve)

    @pytest.mark.parametrize("a2", [Vec2(3, -1), Vec2(0, 0)])
    def test_line_and_point_raise_degenerate(self, a2):
        with pytest.raises(DegenerateCurve):
            total_energy_closed(quadratic(Vec2(0, 0), a2))

    def test_matches_coordinate_form(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            a1 = Vec2(*rng.uniform(-3, 3, 2))
            a2 = Vec2(*rng.uniform(-3, 3, 2))
            if abs(cross2(a1, a2)) < 1e-3:
                continue
            curve = quadratic(a1, a2)
            expected = 0.75 * math.pi * (a1.x ** 2 + a1.y ** 2) ** 2 / abs(
                a1.x * a2.y - a2.x * a1.y) ** 3
            assert total_energy_closed(curve) == pytest.approx(expected, rel=1e-12)
