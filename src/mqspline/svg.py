"""Deterministic SVG rendering of point sets and their splines."""

from __future__ import annotations

from typing import Sequence

from .geometry import Vec2
from .spline import HermiteSpline, middle_segment_index

PADDING = 40.0
VIEW_SIZE = 480.0


def _fmt(v: float) -> str:
    return f"{v:.4f}"


class _Mapper:
    """Data -> pixel mapping with flipped y axis and fixed padding."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        self.x0, self.x1 = min(xs), max(xs)
        self.y0, self.y1 = min(ys), max(ys)
        span = max(self.x1 - self.x0, self.y1 - self.y0, 1e-12)
        self.scale = (VIEW_SIZE - 2 * PADDING) / span
        self.width = (self.x1 - self.x0) * self.scale + 2 * PADDING
        self.height = (self.y1 - self.y0) * self.scale + 2 * PADDING

    def __call__(self, p: Vec2) -> tuple[float, float]:
        return (PADDING + (p.x - self.x0) * self.scale,
                self.height - PADDING - (p.y - self.y0) * self.scale)


def render_spline_svg(spline: HermiteSpline, samples_per_segment: int = 64,
                      tangent_arrows: bool = False) -> str:
    """SVG document: point markers, per-segment polylines, middle segment in red."""
    samples_per_segment = max(samples_per_segment, 64)
    segment_points: list[list[Vec2]] = []
    for i in range(spline.segment_count):
        t0, t1 = spline.knots[i], spline.knots[i + 1]
        curve = spline.segment_evaluator(i)
        segment_points.append([curve.position(t0 + (t1 - t0) * k / samples_per_segment)
                               for k in range(samples_per_segment + 1)])

    all_pts = [p for seg in segment_points for p in seg] + list(spline.points)
    mapper = _Mapper([p.x for p in all_pts], [p.y for p in all_pts])
    mid = middle_segment_index(len(spline.points))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(mapper.width)}" height="{_fmt(mapper.height)}" '
        f'viewBox="0 0 {_fmt(mapper.width)} {_fmt(mapper.height)}">',
    ]
    for i, seg in enumerate(segment_points):
        color = "#cc0000" if i == mid else "#1f4e9c"
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (mapper(p) for p in seg))
        lines.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{coords}"/>')
    if tangent_arrows:
        for i in range(1, len(spline.points) - 1):
            p = spline.points[i]
            v = spline.tangents[i]
            vn = v.norm()
            if vn == 0.0:
                continue
            tip = p + v * (0.5 / vn * (spline.knots[i + 1] - spline.knots[i - 1]) / 2)
            x0, y0 = mapper(p)
            x1, y1 = mapper(tip)
            lines.append(f'<line stroke="#2a8c2a" stroke-width="1.5" '
                         f'x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}"/>')
    for p in spline.points:
        x, y = mapper(p)
        lines.append(f'<circle fill="#000000" r="4" cx="{_fmt(x)}" cy="{_fmt(y)}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
