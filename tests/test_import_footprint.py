"""scipy.integrate loads only when a segment integral runs.

Importing the package, the triple API and min-energy splines stay on
closed forms; a fresh interpreter shows which modules they pulled in.
"""

import os
import subprocess
import sys

SCRIPT = """
import sys
import mqspline, mqspline.cli
from mqspline import (MinEnergyQuad, PolyCurve, Vec2, arc_length_closed, build_solution,
                      build_spline, segment_energy, uniform_knots, whole_line_energy,
                      whole_line_variation)

sol = build_solution(Vec2(0, 0), Vec2(1, 3), Vec2(2, 1))
arc_length_closed(sol)
curve = PolyCurve.from_quadratic(sol.curve)
whole_line_energy(curve)
whole_line_variation(curve)
points = [Vec2(0, 0), Vec2(1, 2), Vec2(3, 3), Vec2(4, 1), Vec2(6, 2)]
spline = build_spline(points, uniform_knots(len(points)), MinEnergyQuad())
print("scipy.integrate" in sys.modules)
segment_energy(spline.segment_evaluator(1), 1.0, 2.0)
print("scipy.integrate" in sys.modules)
"""


def test_scipy_integrate_loads_only_for_segment_integrals():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["False", "True"]
