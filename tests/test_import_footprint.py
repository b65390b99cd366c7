"""No runtime path loads numpy or scipy.

A fresh interpreter imports the CLI, solves a triple, builds a min-energy
spline, integrates a segment, runs `compare --preset table1` and `plot`, and
then shows which modules it pulled in.  numpy and scipy are test
dependencies only: scipy's `quad` is the tests' quadrature oracle.
"""

import os
import subprocess
import sys

SCRIPT = """
import os, sys, tempfile
import mqspline.cli
from mqspline import (MinEnergyQuad, Vec2, arc_length_closed, build_solution, build_spline,
                      segment_energy, uniform_knots)

sol = build_solution(Vec2(0, 0), Vec2(1, 3), Vec2(2, 1))
arc_length_closed(sol)
points = [Vec2(0, 0), Vec2(1, 2), Vec2(3, 3), Vec2(4, 1), Vec2(6, 2)]
spline = build_spline(points, uniform_knots(len(points)), MinEnergyQuad())
segment_energy(spline.segment_evaluator(1), 1.0, 2.0)
assert mqspline.cli.main(["solve", "0,0", "1,3", "2,1"]) == 0
assert mqspline.cli.main(["compare", "--preset", "table1"]) == 0
with tempfile.TemporaryDirectory() as d:
    assert mqspline.cli.main(["plot", "set1", os.path.join(d, "out.svg"), "--tangents"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
"""


def test_no_numpy_or_scipy_at_runtime():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
