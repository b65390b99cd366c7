"""No runtime path loads numpy or scipy.

A fresh interpreter imports the CLI, solves a triple, builds a min-energy
spline, integrates a segment, runs `compare --preset table1` and `plot`, and
then shows which modules it pulled in.  That sees only the paths it runs, so
the source is also searched for an import of either at any depth.  numpy and
scipy are test dependencies only: scipy's `quad` is the tests' quadrature oracle.
"""

import ast
import glob
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_no_numpy_or_scipy_import_in_source():
    paths = sorted(glob.glob(os.path.join(SRC, "mqspline", "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):  # every depth: module level, functions, branches
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{os.path.basename(path)}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in ("numpy", "scipy")]
    assert found == []
