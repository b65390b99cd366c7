"""The four workloads: seeded inputs, one pass of ops, and an oracle check per op.

Every workload is a closed loop with one caller: the runner starts an op only
after the previous one returned.  A pass is a fixed list of ops built from the
seed; the runner repeats whole passes, so a pass's mix is what gets measured
and per-op counts do not depend on how many passes fit in a run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import inputs
import oracles

TRIPLES_PER_DECADE = 20
SPLINE_SIZES = (100, 1000, 10000)
STRAIGHT_RUN_RATE = 0.03
TABLE_RANDOM_SETS = 24
CLI_PLOT_POINTS = 500
CLI_COMPARE_METHODS = "min-energy+catmull-rom+cardinal=0.5"
KNOT_CONVENTIONS = ("uniform", "chord")

# Tolerances of the oracle checks.
SEGMENT_REL = 1e-8       # middle-segment E and V: the table's 1e-8 regression gate
WHOLE_LINE_REL = 1e-6    # whole-line E and V against closed form, as the acceptance suite
ARC_REL = 1e-8           # arc length, as the acceptance suite
TANGENT_REL = 1e-9
PRINTED_REL = 6e-4       # values printed with %.4g
SVG_PX = 1e-3


@dataclass
class Op:
    """One library call or CLI invocation; `check` runs outside the timed region."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str]   # "" when the output is right, else why not
    units: int = 1


class Lib:
    """The mqspline modules, imported from the checkout's src/ by the runner."""

    def __init__(self):
        from mqspline import cli, errors, fairness, geometry, minquad, spline
        self.cli, self.errors, self.fairness = cli, errors, fairness
        self.geometry, self.minquad, self.spline = geometry, minquad, spline
        self.modules = {"cli": cli, "fairness": fairness, "geometry": geometry,
                        "minquad": minquad, "spline": spline}

    def vecs(self, pts):
        Vec2 = self.geometry.Vec2
        return tuple(Vec2(x, y) for x, y in pts)


def _worst_rel(got: np.ndarray, want: np.ndarray, floor: float) -> float:
    return float(np.max(np.abs(got - want) / (np.abs(want) + floor)))


# --------------------------------------------------------------------------
# table: cli.compute_comparison, one (set, method, knots) cell per op


def table_ops(lib: Lib, seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    sets = list(oracles.BUILTIN_SETS.items())
    sets += [(f"walk{k}", inputs.smooth_walk(rng, int(rng.integers(4, 10))))
             for k in range(TABLE_RANDOM_SETS)]
    quadrature = lib.fairness.QuadratureConfig()
    ops = []
    for (name, pts), (mname, method), conv in itertools.product(
            sets, lib.spline.COMPARISON_METHODS, KNOT_CONVENTIONS):
        ps = lib.cli.PointSetFile(name=name, points=lib.vecs(pts))
        run = (lambda ps=ps, m=(mname, method), conv=conv:
               lib.cli.compute_comparison([ps], [m], conv, quadrature))
        ops.append(Op("cell", run, _cell_check(oracles.as_complex(pts), conv, mname)))
    return ops


def _cell_check(P, conv, mname):
    expected = []

    def check(cells) -> str:
        if not expected:
            expected.append(oracles.middle_segment_metrics(P, conv, mname))
        E, V = expected[0]
        (cell,) = cells
        if cell.status != "ok":
            return cell.status
        if not (oracles.close(cell.energy, E, SEGMENT_REL) and oracles.close(cell.variation, V, SEGMENT_REL)):
            return f"E, V = {cell.energy!r}, {cell.variation!r}; oracle {E!r}, {V!r}"
        return ""

    return check


# --------------------------------------------------------------------------
# spline: knots plus build_spline, one build per op


def spline_ops(lib: Lib, seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for n in SPLINE_SIZES:
        pts = inputs.smooth_walk(rng, n, STRAIGHT_RUN_RATE)
        vecs = lib.vecs(pts)
        P = oracles.as_complex(pts)
        for (mname, method), conv in itertools.product(lib.spline.COMPARISON_METHODS, KNOT_CONVENTIONS):
            run = lambda vecs=vecs, method=method, conv=conv: _build(lib, vecs, method, conv)
            ops.append(Op("build", run, _spline_check(P, conv, mname), units=n))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _build(lib: Lib, points, method, conv):
    sp = lib.spline
    knots = sp.chord_length_knots(points) if conv == "chord" else sp.uniform_knots(len(points))
    return sp.build_spline(points, knots, method)


def _spline_check(P, conv, mname):
    expected = []

    def check(spline) -> str:
        if not expected:
            knots = oracles.knots_for(P, conv)
            expected.append((knots, oracles.spline_tangents(P, knots, mname)))
        knots, tan = expected[0]
        got_knots = np.asarray(spline.knots)
        if got_knots.shape != knots.shape or _worst_rel(got_knots, knots, 1.0) > 1e-12:
            return "knots differ from the oracle"
        worst = _worst_rel(oracles.as_complex(spline.tangents), tan, 1.0)
        if not worst <= TANGENT_REL:
            return f"tangent off by {worst:.3g} relative"
        return ""

    return check


# --------------------------------------------------------------------------
# triples: the public triple API, one triple per op


def triples_ops(lib: Lib, seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    return [Op("triple", lambda v=lib.vecs(t): _triple(lib, *v), _triple_check(oracles.as_complex(t)))
            for t in inputs.stratified_triples(rng, TRIPLES_PER_DECADE)]


def _triple(lib: Lib, p1, p2, p3):
    mq, fa = lib.minquad, lib.fairness
    sol = mq.build_solution(p1, p2, p3)
    tangent = mq.tangent_at_p2(sol)
    length = mq.arc_length_closed(sol)
    energy_closed = mq.total_energy_closed(sol.curve)
    poly = fa.PolyCurve.from_quadratic(sol.curve)
    return sol, tangent, length, energy_closed, fa.whole_line_energy(poly), fa.whole_line_variation(poly)


def _triple_check(P):
    T, a1, a2 = (v[0] for v in oracles.min_energy_quadratics(P[0:1], P[1:2], P[2:3]))
    scale = abs(P[2] - P[0])
    want_E = oracles.whole_line_energy(a1, a2)
    want_V = oracles.whole_line_variation(a1, a2)

    def check(out) -> str:
        sol, tangent, length, energy_closed, E, V = out
        c = sol.curve
        got_a1, got_a2 = complex(c.a1.x, c.a1.y), complex(c.a2.x, c.a2.y)
        if abs(sol.T - T) > 1e-9:
            return f"T = {sol.T!r}, oracle {T!r}"
        if abs(got_a1 - a1) > 1e-8 * abs(a1) + 1e-12 * scale or abs(got_a2 - a2) > 1e-8 * abs(a2) + 1e-12 * scale:
            return "curve coefficients differ from the oracle"
        want_tangent = 2.0 * a1 * T + a2
        if abs(complex(tangent.x, tangent.y) - want_tangent) > TANGENT_REL * abs(want_tangent) + 1e-12 * scale:
            return "tangent differs from the oracle"
        if not oracles.close(length, oracles.quadratic_arc_length(a1, a2), ARC_REL):
            return f"arc length {length!r} off"
        if not oracles.close(energy_closed, want_E, 1e-10):
            return f"closed-form energy {energy_closed!r}, oracle {want_E!r}"
        if not oracles.close(E, want_E, WHOLE_LINE_REL):
            return f"whole-line E {E!r}, closed form {float(want_E)!r}"
        if not oracles.close(V, want_V, WHOLE_LINE_REL):
            return f"whole-line V {V!r}, closed form {float(want_V)!r}"
        return ""

    return check


# --------------------------------------------------------------------------
# cli: one `python -m mqspline.cli` invocation per op


class CliRunner:
    """Runs the CLI as a subprocess with `env`, or in-process through cli.main when env is None."""

    def __init__(self, lib: Lib, env: dict | None):
        self.lib = lib
        self.env = env

    def __call__(self, argv: list[str]) -> tuple[int, str, str]:
        if self.env is None:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.lib.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "mqspline.cli", *argv], env=self.env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr


def cli_ops(lib: Lib, seed: int, workdir: str, runner: CliRunner) -> list[Op]:
    rng = np.random.default_rng(seed)
    triple = inputs.stratified_triples(rng, 1, decades=(int(rng.integers(0, 4)),))[0]
    walk = inputs.smooth_walk(rng, int(rng.integers(4, 10)))
    plot_pts = inputs.smooth_walk(rng, CLI_PLOT_POINTS, STRAIGHT_RUN_RATE)
    walk_csv = os.path.join(workdir, "walk.csv")
    plot_csv = os.path.join(workdir, "plot.csv")
    svg_path = os.path.join(workdir, "plot.svg")
    inputs.write_csv(walk_csv, walk)
    inputs.write_csv(plot_csv, plot_pts)
    solve_argv = ["solve", "--"] + [f"{x!r},{y!r}" for x, y in triple]
    return [
        Op("solve", lambda: runner(solve_argv), _solve_check(oracles.as_complex(triple))),
        Op("compare", lambda: runner(["compare", "--preset", "table1", "--format", "csv"]), _preset_check()),
        Op("compare", lambda: runner(["compare", walk_csv, "--methods", CLI_COMPARE_METHODS]),
           _walk_compare_check(oracles.as_complex(walk))),
        Op("plot", lambda: runner(["plot", plot_csv, svg_path, "--tangents"]),
           _plot_check(oracles.as_complex(plot_pts), svg_path)),
    ]


def _printed_close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= PRINTED_REL * abs(want) + 1e-9 * scale


def _solve_check(P):
    T, a1, a2 = (v[0] for v in oracles.min_energy_quadratics(P[0:1], P[1:2], P[2:3]))
    tangent = 2.0 * a1 * T + a2
    scale = max(abs(P[2] - P[0]), float(np.max(np.abs(P))))
    want = {"T": [T], "cubic roots": oracles.cubic_roots_all((P[1] - P[0]) / (P[2] - P[0])),
            "a1": [a1.real, a1.imag], "a2": [a2.real, a2.imag], "a3": [P[0].real, P[0].imag],
            "tangent at p2": [tangent.real, tangent.imag],
            "arc length": [oracles.quadratic_arc_length(a1, a2)]}

    def check(res) -> str:
        code, out, err = res
        if code != 0:
            return f"exit {code}: {err.strip()}"
        got = {}
        for line in out.splitlines():
            key, _, value = line.partition(" = ")
            got[key] = [float(v) for v in value.strip("()").split(",")]
        if got.keys() != want.keys():
            return f"unexpected solve output {out!r}"
        for key, values in want.items():
            if len(got[key]) != len(values) or not all(
                    _printed_close(g, w, scale) for g, w in zip(got[key], values)):
                return f"{key} = {got[key]}, oracle {values}"
        return ""

    return check


def _expected_cells(sets: dict, methods, conv: str) -> dict:
    return {(name, m): oracles.middle_segment_metrics(P, conv, m)
            for name, P in sets.items() for m in methods}


def _preset_check():
    expected = {}

    def check(res) -> str:
        code, out, err = res
        if code != 0:
            return f"exit {code}: {err.strip()}"
        if not expected:
            sets = {n: oracles.as_complex(p) for n, p in oracles.BUILTIN_SETS.items()}
            expected.update(_expected_cells(sets, oracles.COMPARISON_RULES, "uniform"))
        rows = list(csv.DictReader(io.StringIO(out)))
        if [(r["set"], r["method"]) for r in rows] != list(expected):
            return "table1 rows differ from the four sets x six methods"
        for r in rows:
            E, V = expected[(r["set"], r["method"])]
            if r["status"] != "ok" or not (oracles.close(float(r["E"]), E, SEGMENT_REL)
                                           and oracles.close(float(r["V"]), V, SEGMENT_REL)):
                return f"{r['set']}/{r['method']}: {r['E']}, {r['V']} ({r['status']}); oracle {E!r}, {V!r}"
        return ""

    return check


def parse_text_table(out: str) -> list[dict]:
    """Rows of `compare`'s text table, split at the header's column starts."""
    lines = out.splitlines()[1:]   # the first line is a comment
    header = lines[0]
    names = header.split()
    starts = [header.index(n) for n in names] + [None]
    return [{n: line[starts[i]:starts[i + 1]].strip() for i, n in enumerate(names)} for line in lines[1:]]


def _walk_compare_check(P):
    # cardinal=0.5 is named cardinal(t=0.5), as in the published comparison.
    methods = ("min-energy", "catmull-rom", "cardinal(t=0.5)")
    expected = {}

    def check(res) -> str:
        code, out, err = res
        if code != 0:
            return f"exit {code}: {err.strip()}"
        if not expected:
            expected.update(_expected_cells({"walk": P}, methods, "uniform"))
        rows = parse_text_table(out)
        if [(r["set"], r["method"]) for r in rows] != list(expected):
            return f"unexpected rows in {out!r}"
        for r in rows:
            E, V = expected[(r["set"], r["method"])]
            if r["status"] != "ok" or not (_printed_close(float(r["E"]), E, 0.0)
                                           and _printed_close(float(r["V"]), V, 0.0)):
                return f"{r['method']}: {r['E']}, {r['V']} ({r['status']}); oracle {E:.6g}, {V:.6g}"
        return ""

    return check


def _plot_check(P, svg_path):
    knots = oracles.knots_for(P, "uniform")
    tan = oracles.spline_tangents(P, knots, "min-energy")

    def check(res) -> str:
        code, out, err = res
        if code != 0:
            return f"exit {code}: {err.strip()}"
        with open(svg_path, encoding="utf-8") as fh:
            return check_svg(fh.read(), P, knots, tan)

    return check


def check_svg(doc: str, P, knots, tan, samples: int = 64) -> str:
    """Compare a rendered spline with the oracle's Hermite samples, in pixels."""
    ns = "{http://www.w3.org/2000/svg}"
    root = ET.fromstring(doc)
    S = oracles.hermite_samples(P, knots, tan, samples)
    every = np.concatenate([S.ravel(), P])
    x0, y0 = every.real.min(), every.imag.min()
    span = max(every.real.max() - x0, every.imag.max() - y0, 1e-12)
    scale = 400.0 / span
    height = (every.imag.max() - y0) * scale + 80.0

    def px(z):
        return np.stack([40.0 + (z.real - x0) * scale, height - 40.0 - (z.imag - y0) * scale], axis=-1)

    if abs(float(root.get("height")) - height) > SVG_PX:
        return "svg height differs"
    polylines = root.findall(ns + "polyline")
    if len(polylines) != len(P) - 1:
        return f"{len(polylines)} polylines for {len(P) - 1} segments"
    for i, pl in enumerate(polylines):
        got = np.array([[float(v) for v in pair.split(",")] for pair in pl.get("points").split()])
        if got.shape != (samples + 1, 2) or np.max(np.abs(got - px(S[i]))) > SVG_PX:
            return f"segment {i} polyline differs from the oracle"
    circles = root.findall(ns + "circle")
    got = np.array([[float(c.get("cx")), float(c.get("cy"))] for c in circles])
    if got.shape != (len(P), 2) or np.max(np.abs(got - px(P))) > SVG_PX:
        return "point markers differ from the oracle"
    inner = [i for i in range(1, len(P) - 1) if tan[i] != 0]
    lines = root.findall(ns + "line")
    if len(lines) != len(inner):
        return f"{len(lines)} tangent arrows for {len(inner)} interior points"
    for i, ln in zip(inner, lines):
        tip = P[i] + tan[i] * (0.5 / abs(tan[i]) * (knots[i + 1] - knots[i - 1]) / 2)
        want = np.concatenate([px(P[i]), px(tip)])
        got = np.array([float(ln.get(a)) for a in ("x1", "y1", "x2", "y2")])
        if np.max(np.abs(got - want)) > SVG_PX:
            return f"tangent arrow at point {i} differs from the oracle"
    return ""


# --------------------------------------------------------------------------


WORKLOADS = {
    "table": (table_ops, "cells", "one (set, method, knots) cell of cli.compute_comparison"),
    "spline": (spline_ops, "points", "one build_spline, with its knots, at n = 10^2, 10^3 or 10^4"),
    "triples": (triples_ops, "triples", "one triple through the public triple API"),
    "cli": (cli_ops, "invocations", "one CLI invocation of the solve/compare/compare/plot mix"),
}


def make_ops(name: str, lib: Lib, seed: int, workdir: str, cli_env: dict | None) -> list[Op]:
    """The workload's pass; `cli` runs subprocesses with cli_env, or in-process when it is None."""
    build = WORKLOADS[name][0]
    if name == "cli":
        return build(lib, seed, workdir, CliRunner(lib, cli_env))
    return build(lib, seed, workdir)


def warmup_op(name: str, lib: Lib, seed: int) -> Op:
    """A small op of the workload's kind, for set-up."""
    if name == "table":
        return table_ops(lib, seed, "")[0]
    if name == "spline":
        pts = lib.vecs(inputs.smooth_walk(np.random.default_rng(seed), SPLINE_SIZES[0], STRAIGHT_RUN_RATE))
        method = lib.spline.COMPARISON_METHODS[0][1]
        return Op("build", lambda: _build(lib, pts, method, "uniform"), lambda _: "")
    if name == "triples":
        t = lib.vecs(inputs.triple_with_ratio(np.random.default_rng(seed), 0.5))
        return Op("triple", lambda: _triple(lib, *t), lambda _: "")
    raise ValueError(f"no warm-up op for {name}")
