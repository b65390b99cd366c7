"""In-memory spans around calls into mqspline, recorded from the benchmark's side.

The library is not edited.  `Tracer.install()` replaces the names that the
calling modules bind (for example `mqspline.spline.build_solution`, which
`tangent_min_energy` looks up at call time) with wrappers that record a span:
name, start, end, parent span and op id.  Spans are kept in flat arrays while
the run goes on and aggregated, or written out, when it ends.  A layer's self
time is its spans' duration minus the time covered by their child spans.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# (module, attribute, span name).  Every module that binds a traced function
# under its own name is listed, so calls are caught whichever path makes them.
FUNCTION_SPANS = (
    ("minquad", "normalize_triple", "geometry.normalize_triple"),
    ("minquad", "cubic_roots", "minquad.cubic_roots"),
    ("cli", "cubic_roots", "minquad.cubic_roots"),
    ("minquad", "build_solution", "minquad.build_solution"),
    ("spline", "build_solution", "minquad.build_solution"),
    ("cli", "build_solution", "minquad.build_solution"),
    ("minquad", "arc_length_closed", "minquad.arc_length_closed"),
    ("cli", "arc_length_closed", "minquad.arc_length_closed"),
    ("minquad", "arc_length_numeric", "minquad.arc_length_numeric"),
    ("minquad", "total_energy_closed", "minquad.total_energy_closed"),
    ("fairness", "segment_energy", "fairness.segment"),
    ("fairness", "segment_variation", "fairness.segment"),
    ("cli", "segment_energy", "fairness.segment"),
    ("cli", "segment_variation", "fairness.segment"),
    ("fairness", "whole_line_energy", "fairness.whole_line"),
    ("fairness", "whole_line_variation", "fairness.whole_line"),
    ("fairness", "curvature", "fairness.integrand"),
    ("fairness", "curvature_rate", "fairness.integrand"),
    ("spline", "build_spline", "spline.build_spline"),
    ("cli", "build_spline", "spline.build_spline"),
    ("spline", "chord_length_knots", "spline.chord_length_knots"),
    ("cli", "chord_length_knots", "spline.chord_length_knots"),
    ("cli", "render_spline_svg", "svg.render_spline_svg"),
    ("cli", "load_point_set", "cli.load_point_set"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name): methods looked up on the instance.
METHOD_SPANS = tuple(
    [("fairness", "PolyCurve", m, "fairness.poly_curve")
     for m in ("position", "first_derivative", "second_derivative", "third_derivative")]
    + [("spline", "HermiteSegmentCurve", m, "spline.segment_curve")
       for m in ("position", "first_derivative", "second_derivative", "third_derivative")]
    + [("spline", "HermiteSpline", "evaluate", "spline.evaluate")]
)

# Spans whose raised MqsError is counted as `<name>.raised`.
RAISE_COUNTED = {"minquad.build_solution": "minquad.build_solution.raised",
                 "fairness.segment": "fairness.raised",
                 "fairness.whole_line": "fairness.raised"}


class Tracer:
    def __init__(self, modules: dict, mqs_error: type):
        self._modules = modules
        self._mqs_error = mqs_error
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack = [-1]
        self.op = -1
        self.counters = {"geometry.vec2_new": 0, "svg.bytes_out": 0,
                         "minquad.build_solution.raised": 0, "fairness.raised": 0}
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """fn with a span named `name` around every call."""
        nid = self._id(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, stack = self.span_parent, self.span_op, self._stack
        clock = time.perf_counter_ns
        counters = self.counters
        raised_key = RAISE_COUNTED.get(name)
        mqs_error = self._mqs_error
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except mqs_error:
                if raised_key is not None:
                    counters[raised_key] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        m = self._modules
        for mod, attr, name in FUNCTION_SPANS:
            self._patch(m[mod], attr, self.wrap(name, getattr(m[mod], attr)))
        for mod, cls, meth, name in METHOD_SPANS:
            owner = getattr(m[mod], cls)
            self._patch(owner, meth, self.wrap(name, owner.__dict__[meth]))

        counters = self.counters
        svg_render = m["cli"].render_spline_svg

        def counted_render(*args, **kwargs):
            doc = svg_render(*args, **kwargs)
            counters["svg.bytes_out"] += len(doc.encode("utf-8"))
            return doc

        self._patch(m["cli"], "render_spline_svg", counted_render)

        vec2 = m["geometry"].Vec2
        post_init = vec2.__dict__["__post_init__"]

        def counted_post_init(self_):
            counters["geometry.vec2_new"] += 1
            post_init(self_)

        self._patch(vec2, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self time in ns)."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.int64)
               - np.frombuffer(self.span_start, dtype=np.int64)).astype(float)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        own = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(own, parent[has_parent], dur[has_parent])
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(total[i])) for i, n in enumerate(self.names)}

    def write(self, path: str) -> None:
        """All spans as numpy arrays: name id, start and end ns, parent index, op id."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32))
