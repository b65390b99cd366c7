"""Independent reference numerics for the benchmark's correctness checks.

Nothing here imports mqspline.  Every expected value is recomputed from the
benchmark's own formulas so that a defect in the library cannot hide in its
own check:

- points are complex numbers, so the similarity normalization of a triple is
  one complex division, q = (p2 - p1) / (p3 - p1);
- the minimizing parameter T is found by bisection on the parameter cubic,
  not by the library's trigonometric root formula;
- segment and arc-length integrals use composite Gauss-Legendre, not
  adaptive QUADPACK;
- whole-line integrals of a quadratic use their closed forms.
"""

from __future__ import annotations

import math

import numpy as np

# The library's collinearity rule: |cross(p2 - p1, p3 - p1)| <= 1e-9 |p3 - p1|^2
# selects the chord fallback.  The oracle must classify triples the same way.
COLLINEAR_REL_TOL = 1e-9

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

# The published comparison methods by the names mqspline.spline.COMPARISON_METHODS
# gives them, as (rule, tension, bias, continuity).
COMPARISON_RULES = {
    "min-energy": ("min-energy", 0.0, 0.0, 0.0),
    "catmull-rom": ("cardinal", 0.0, 0.0, 0.0),
    "cardinal(t=0.1)": ("cardinal", 0.1, 0.0, 0.0),
    "cardinal(t=0.5)": ("cardinal", 0.5, 0.0, 0.0),
    "kochanek-bartels(b=0.5)": ("kb", 0.0, 0.5, 0.0),
    "kochanek-bartels(b=-0.5)": ("kb", 0.0, -0.5, 0.0),
}

# The paper's four point sets, kept here so the oracle does not read them
# from the library under test.
BUILTIN_SETS = {
    "set1": [(0, 0), (1, 3), (2, 1), (3, 2)],
    "set2": [(0, 0), (0, 3), (3, 3), (3, 0)],
    "set3": [(0, 0), (1, 0), (2, 0), (3, 3)],
    "set4": [(0, 0), (1, 0), (2, 1), (3, 3)],
}


def as_complex(points) -> np.ndarray:
    """(x, y) pairs, or objects with .x and .y, as a complex array."""
    pts = [(p.x, p.y) if hasattr(p, "x") else p for p in points]
    arr = np.asarray(pts, dtype=float).reshape(-1, 2)
    return arr[:, 0] + 1j * arr[:, 1]


def cross(u, v):
    return (np.conj(u) * v).imag


def gauss_legendre(f, a: float, b: float, panels: int = 64) -> float:
    """Composite 16-point Gauss-Legendre rule over `panels` equal panels."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    w = (half[:, None] * _GL_W[None, :]).ravel()
    return float(np.dot(w, f(t)))


def close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want) + abs_tol


# --------------------------------------------------------------------------
# Minimum-energy quadratic through a triple


def solve_T(q: np.ndarray) -> np.ndarray:
    """Root in (0, 1) of T^3 - 1.5 T^2 + (x - |q|^2) T + |q|^2 / 2 for each q.

    The cubic is positive at 0 and negative at 1 for every q off the chord,
    so bisection brackets the root; two Newton steps finish it.
    """
    n2 = np.abs(q) ** 2
    c = q.real - n2
    d = 0.5 * n2
    lo = np.zeros_like(n2)
    hi = np.ones_like(n2)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        pos = ((mid - 1.5) * mid + c) * mid + d > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    T = 0.5 * (lo + hi)
    for _ in range(2):
        deriv = (3.0 * T - 3.0) * T + c
        T = T - (((T - 1.5) * T + c) * T + d) / np.where(deriv == 0.0, 1.0, deriv)
    return T


def cubic_roots_all(q: complex) -> list[float]:
    """All three real roots of the parameter cubic, ascending (numpy companion matrix)."""
    n2 = abs(q) ** 2
    roots = np.roots([1.0, -1.5, q.real - n2, 0.5 * n2])
    return sorted(float(r.real) for r in roots)


def min_energy_quadratics(p1, p2, p3):
    """T, a1, a2 (complex) of the minimum-energy quadratics through each triple."""
    s3 = p3 - p1
    q = (p2 - p1) / s3
    T = solve_T(q)
    a1 = (p2 - p1 - s3 * T) / (T * T - T)
    return T, a1, s3 - a1


def is_collinear(p1, p2, p3):
    s3 = p3 - p1
    return np.abs(cross(p2 - p1, s3)) <= COLLINEAR_REL_TOL * np.abs(s3) ** 2


def whole_line_energy(a1: complex, a2: complex) -> float:
    """(3 pi / 4) |a1|^4 / |a1 x a2|^3."""
    return 0.75 * math.pi * abs(a1) ** 4 / abs(float(cross(a1, a2))) ** 3


def whole_line_variation(a1: complex, a2: complex) -> float:
    """(45 pi / 16) |a1|^8 / |a1 x a2|^5; (45 pi / 16) |a|^3 in canonical form."""
    return 45.0 * math.pi / 16.0 * abs(a1) ** 8 / abs(float(cross(a1, a2))) ** 5


def quadratic_arc_length(a1: complex, a2: complex) -> float:
    return gauss_legendre(lambda t: np.abs(2.0 * a1 * t + a2), 0.0, 1.0)


# --------------------------------------------------------------------------
# Spline tangents and Hermite segments


def knots_for(P: np.ndarray, convention: str) -> np.ndarray:
    if convention == "chord":
        return np.concatenate(([0.0], np.cumsum(np.abs(np.diff(P)))))
    return np.arange(len(P), dtype=float)


def spline_tangents(P: np.ndarray, knots: np.ndarray, method: str) -> np.ndarray:
    """One tangent per knot under the named comparison method (complex array)."""
    rule, tension, bias, cont = COMPARISON_RULES[method]
    n = len(P)
    tan = np.empty(n, dtype=complex)
    tan[0] = (P[1] - P[0]) / (knots[1] - knots[0])
    tan[-1] = (P[-1] - P[-2]) / (knots[-1] - knots[-2])
    if n < 3:
        return tan
    prev, mid, nxt = P[:-2], P[1:-1], P[2:]
    span = knots[2:] - knots[:-2]
    chord = (nxt - prev) / span
    if rule == "cardinal":
        tan[1:-1] = chord * (1.0 - tension)
    elif rule == "kb":
        w_in = (1.0 - tension) * (1.0 + bias) * (1.0 + cont) * 0.5
        w_out = (1.0 - tension) * (1.0 - bias) * (1.0 - cont) * 0.5
        tan[1:-1] = (mid - prev) * w_in + (nxt - mid) * w_out
    else:
        straight = is_collinear(prev, mid, nxt)
        safe_mid = np.where(straight, 0.5 * (prev + nxt) + 1j * (nxt - prev), mid)
        T, a1, a2 = min_energy_quadratics(prev, safe_mid, nxt)
        tan[1:-1] = np.where(straight, chord, (2.0 * a1 * T + a2) / span)
        # Ends: the boundary quadratics' end velocities over the outer knot span.
        if not straight[0]:
            tan[0] = a2[0] / span[0]
        if not straight[-1]:
            tan[-1] = (2.0 * a1[-1] + a2[-1]) / span[-1]
    return tan


def hermite_energy_variation(pa: complex, pb: complex, va: complex, vb: complex,
                             ta: float, tb: float) -> tuple[float, float]:
    """E = int kappa^2 dt and V = int kappa_dot^2 dt over one Hermite segment."""
    h = tb - ta
    c1 = h * va
    c2 = 3.0 * (pb - pa) - 2.0 * h * va - h * vb
    c3 = 2.0 * (pa - pb) + h * va + h * vb

    def derivatives(t):
        s = (t - ta) / h
        d1 = (c1 + 2.0 * c2 * s + 3.0 * c3 * s * s) / h
        d2 = (2.0 * c2 + 6.0 * c3 * s) / h ** 2
        return d1, d2, 6.0 * c3 / h ** 3

    def kappa2(t):
        d1, d2, _ = derivatives(t)
        return (cross(d1, d2) / np.abs(d1) ** 3) ** 2

    def kappa_dot2(t):
        d1, d2, d3 = derivatives(t)
        sp2 = np.abs(d1) ** 2
        num = cross(d1, d3) * sp2 - 3.0 * (np.conj(d1) * d2).real * cross(d1, d2)
        return (num / sp2 ** 2.5) ** 2

    return gauss_legendre(kappa2, ta, tb), gauss_legendre(kappa_dot2, ta, tb)


def middle_segment_metrics(P: np.ndarray, convention: str, method: str) -> tuple[float, float]:
    """Middle-segment (E, V) of the spline, as the comparison table reports them."""
    knots = knots_for(P, convention)
    tan = spline_tangents(P, knots, method)
    i = (len(P) - 2) // 2
    return hermite_energy_variation(P[i], P[i + 1], tan[i], tan[i + 1], knots[i], knots[i + 1])


def hermite_samples(P: np.ndarray, knots: np.ndarray, tan: np.ndarray, per_segment: int) -> np.ndarray:
    """Points at per_segment + 1 equally spaced parameters on every segment, shape (n-1, k+1)."""
    s = np.arange(per_segment + 1) / per_segment
    h = (knots[1:] - knots[:-1])[:, None]
    pa, pb = P[:-1, None], P[1:, None]
    ma, mb = tan[:-1, None] * h, tan[1:, None] * h
    s2, s3 = s * s, s * s * s
    return (pa * (2 * s3 - 3 * s2 + 1) + pb * (-2 * s3 + 3 * s2)
            + ma * (s3 - 2 * s2 + s) + mb * (s3 - s2))
