"""Command-line front end: solve triples, compare spline methods, plot splines.

Configuration precedence is flags > MQS_-prefixed environment variables >
built-in defaults.  Exit status: 0 success, 1 internal or quadrature
failure, 2 invalid input.

Note on metrics: energy and curvature variation are integrated in the
curve parameter (dt), not in arc length; the published comparison table
is only reproducible under that convention.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    CoincidentEndpoints,
    CollinearPoints,
    DomainError,
    MqsError,
    ParseError,
    QuadratureDivergence,
    TooFewPoints,
    ValidationError,
)
from .fairness import QuadratureConfig, segment_energy, segment_variation
from .geometry import Vec2
from .minquad import arc_length_closed, build_solution, cubic_roots, tangent_at_p2
from .pointsets import BENCHMARK_SETS
from .spline import (
    COMPARISON_METHODS,
    TangentMethod,
    build_spline,
    chord_length_knots,
    middle_segment_index,
    parse_method,
    uniform_knots,
)
from .svg import render_spline_svg

MACHINE_FMT = "%.17g"
HUMAN_FMT = "%.4g"

REPORT_COLUMNS = ("set", "method", "params", "E", "V", "knot_convention", "status")


@dataclass(frozen=True)
class PointSetFile:
    """Named ordered point list with optional explicit knots."""

    name: str
    points: tuple[Vec2, ...]
    knots: Optional[tuple[float, ...]] = None


@dataclass(frozen=True)
class ReportCell:
    set_name: str
    method: str
    params: str
    energy: Optional[float]
    variation: Optional[float]
    knot_convention: str
    status: str


def _parse_number(token: str, line_no: int, col: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"expected a number, got {token!r}", line=line_no, column=col) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {token!r}", line=line_no, column=col)
    return value


def _validate_point_set(name, points, knots):
    if len(points) < 2:
        raise ValidationError(f"point set {name!r} needs at least 2 points, got {len(points)}")
    if knots is not None:
        if len(knots) != len(points):
            raise ValidationError(f"point set {name!r}: knot count does not match point count")
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise ValidationError(f"point set {name!r}: knots must be strictly increasing")
    return PointSetFile(name=name, points=tuple(points), knots=knots)


def load_point_set(path: str, fmt: Optional[str] = None) -> PointSetFile:
    """Load a CSV ("x,y" per line, optional header) or JSON point-set file."""
    if fmt is None:
        fmt = "json" if path.lower().endswith(".json") else "csv"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path!r}: {exc}") from None
    name = os.path.splitext(os.path.basename(path))[0]
    if fmt == "json":
        return _load_json(text, name)
    return _load_csv(text, name)


def _load_csv(text: str, name: str) -> PointSetFile:
    points = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise ParseError(f"expected 'x,y', got {raw!r}", line=line_no, column=1)
        if line_no == 1 and not points:
            # Optional header: skip a first line whose cells are not numeric.
            try:
                float(cells[0]), float(cells[1])
            except ValueError:
                continue
        x = _parse_number(cells[0], line_no, 1)
        y = _parse_number(cells[1], line_no, len(cells[0]) + 2)
        points.append(Vec2(x, y))
    return _validate_point_set(name, points, None)


def _is_finite_number(value) -> bool:
    """A JSON number within the float range; true and false are not numbers."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _load_json(text: str, fallback_name: str) -> PointSetFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except ValueError as exc:  # e.g. an integer beyond the int-string conversion limit
        raise ParseError(str(exc)) from None
    if not isinstance(doc, dict):
        raise ValidationError("structured point set must be a JSON object")
    name = doc.get("name", fallback_name)
    raw_points = doc.get("points")
    if not isinstance(raw_points, list):
        raise ValidationError("missing or invalid 'points' array")
    points = []
    for i, entry in enumerate(raw_points):
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not all(_is_finite_number(v) for v in entry)):
            raise ValidationError(f"points[{i}] is not a numeric [x, y] pair")
        points.append(Vec2(float(entry[0]), float(entry[1])))
    knots = doc.get("knots")
    if knots is not None:
        if not isinstance(knots, list) or not all(_is_finite_number(v) for v in knots):
            raise ValidationError("'knots' must be an array of numbers")
        knots = tuple(float(v) for v in knots)
    return _validate_point_set(name, points, knots)


def _knots_for(points, convention: str, explicit=None):
    if explicit is not None:
        return explicit
    if convention == "chord":
        return chord_length_knots(points)
    return uniform_knots(len(points))


def _parse_point_arg(text: str) -> Vec2:
    cells = text.split(",")
    if len(cells) != 2:
        raise ValidationError(f"expected 'x,y', got {text!r}")
    try:
        return Vec2(float(cells[0]), float(cells[1]))
    except ValueError as exc:
        raise ValidationError(f"bad point {text!r}: {exc}") from None


def cmd_solve(args) -> int:
    p1, p2, p3 = (_parse_point_arg(t) for t in (args.p1, args.p2, args.p3))
    sol = build_solution(p1, p2, p3)
    roots = cubic_roots(sol.frame.q2)
    tangent = tangent_at_p2(sol)
    length = arc_length_closed(sol)
    if args.format == "csv":
        f = MACHINE_FMT
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["T", "root1", "root2", "root3",
                         "a1x", "a1y", "a2x", "a2y", "a3x", "a3y",
                         "tangent_x", "tangent_y", "arc_length"])
        writer.writerow([f % v for v in (sol.T, *roots.roots,
                                         sol.curve.a1.x, sol.curve.a1.y,
                                         sol.curve.a2.x, sol.curve.a2.y,
                                         sol.curve.a3.x, sol.curve.a3.y,
                                         tangent.x, tangent.y, length)])
    else:
        f = HUMAN_FMT
        print(f"T = {f % sol.T}")
        print("cubic roots =", ", ".join(f % r for r in roots.roots))
        print(f"a1 = ({f % sol.curve.a1.x}, {f % sol.curve.a1.y})")
        print(f"a2 = ({f % sol.curve.a2.x}, {f % sol.curve.a2.y})")
        print(f"a3 = ({f % sol.curve.a3.x}, {f % sol.curve.a3.y})")
        print(f"tangent at p2 = ({f % tangent.x}, {f % tangent.y})")
        print(f"arc length = {f % length}")
    return 0


def compute_comparison(point_sets: Sequence[PointSetFile],
                       methods: Sequence[tuple[str, TangentMethod]],
                       knot_convention: str,
                       quadrature: QuadratureConfig) -> list[ReportCell]:
    """Middle-segment E and V per (set, method); failures recorded per cell."""
    cells = []
    for ps in point_sets:
        if len(ps.points) < 4:
            raise ValidationError(f"point set {ps.name!r} needs at least 4 points for comparison")
        knots = _knots_for(ps.points, knot_convention, ps.knots)
        convention = "explicit" if ps.knots is not None else knot_convention
        mid = middle_segment_index(len(ps.points))
        for mname, method in methods:
            try:
                ev = build_spline(ps.points, knots, method).segment_evaluator(mid)
                energy = segment_energy(ev, knots[mid], knots[mid + 1], quadrature)
                variation = segment_variation(ev, knots[mid], knots[mid + 1], quadrature)
                status = "ok"
            except MqsError as exc:
                energy = variation = None
                status = f"failed: {exc}"
            cells.append(ReportCell(ps.name, mname, method.params,
                                    energy, variation, convention, status))
    return cells


def render_report_csv(cells: Sequence[ReportCell]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for c in cells:
        writer.writerow([c.set_name, c.method, c.params,
                         MACHINE_FMT % c.energy if c.energy is not None else "",
                         MACHINE_FMT % c.variation if c.variation is not None else "",
                         c.knot_convention, c.status])
    return buf.getvalue()


def render_report_text(cells: Sequence[ReportCell]) -> str:
    rows = [list(REPORT_COLUMNS)]
    for c in cells:
        rows.append([c.set_name, c.method, c.params,
                     HUMAN_FMT % c.energy if c.energy is not None else "-",
                     HUMAN_FMT % c.variation if c.variation is not None else "-",
                     c.knot_convention, c.status])
    widths = [max(len(r[i]) for r in rows) for i in range(len(REPORT_COLUMNS))]
    out = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    header = ("# middle-segment metrics; E and V integrate in the curve parameter (dt), "
              "not arc length")
    return header + "\n" + "\n".join(out) + "\n"


def cmd_compare(args) -> int:
    if args.preset == "table1" and args.paths:
        raise ValidationError("give point-set files or --preset table1, not both")
    if args.preset == "table1":
        point_sets = [PointSetFile(name=name, points=pts) for name, pts in BENCHMARK_SETS.items()]
    elif args.paths:
        point_sets = [load_point_set(p) for p in args.paths]
    else:
        raise ValidationError("no point-set files given (or use --preset table1)")
    methods = [parse_method(m) for m in args.methods.split("+")] if args.methods \
        else COMPARISON_METHODS
    quadrature = QuadratureConfig(rel_tol=args.tol_rel, abs_tol=args.tol_abs)
    cells = compute_comparison(point_sets, methods, args.knots, quadrature)
    render = render_report_csv if args.format == "csv" else render_report_text
    sys.stdout.write(render(cells))
    return 1 if any(c.status != "ok" for c in cells) else 0


def cmd_plot(args) -> int:
    if args.path in BENCHMARK_SETS:
        ps = PointSetFile(name=args.path, points=BENCHMARK_SETS[args.path])
    else:
        ps = load_point_set(args.path)
    _, method = parse_method(args.method)
    knots = _knots_for(ps.points, args.knots, ps.knots)
    sp = build_spline(ps.points, knots, method)
    doc = render_spline_svg(sp, samples_per_segment=args.samples, tangent_arrows=args.tangents)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(doc)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.output!r}: {exc}") from None
    return 0


def _env(name: str, default, cast=str):
    raw = os.environ.get("MQS_" + name)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError:
        raise ValidationError(f"bad value for MQS_{name}: {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqspline",
        description="Minimum-energy quadratic solver and Hermite spline comparison tool")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--knots", choices=("uniform", "chord"),
                        default=_env("KNOTS", "uniform"),
                        help="knot parameterization (default uniform, t_i = i-1)")
    common.add_argument("--format", choices=("text", "csv"),
                        default=_env("FORMAT", "text"))
    common.add_argument("--tol-rel", type=float, default=_env("TOL_REL", 1e-10, float))
    common.add_argument("--tol-abs", type=float, default=_env("TOL_ABS", 1e-12, float))

    p_solve = sub.add_parser("solve", parents=[common],
                             help="solve the minimum-energy quadratic through a triple")
    p_solve.add_argument("p1")
    p_solve.add_argument("p2")
    p_solve.add_argument("p3")
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="compare tangent methods on point sets")
    p_cmp.add_argument("paths", nargs="*", help="point-set files (CSV or JSON)")
    p_cmp.add_argument("--preset", choices=("table1",),
                       help="built-in benchmark sets; the six published methods unless --methods")
    p_cmp.add_argument("--methods",
                       help="'+'-separated methods, e.g. min-energy+catmull-rom+cardinal=0.5")
    p_cmp.set_defaults(func=cmd_compare)

    p_plot = sub.add_parser("plot", parents=[common],
                            help="render a point set and its spline as SVG")
    p_plot.add_argument("path", help="point-set file or built-in set name (set1..set4)")
    p_plot.add_argument("output", help="output SVG path")
    p_plot.add_argument("--method", default="min-energy")
    p_plot.add_argument("--samples", type=int, default=_env("SAMPLES", 64, int))
    p_plot.add_argument("--tangents", action="store_true",
                        help="draw tangent-vector arrows at interior points")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ParseError, ValidationError, CollinearPoints, CoincidentEndpoints,
            DomainError, TooFewPoints) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureDivergence, MqsError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
