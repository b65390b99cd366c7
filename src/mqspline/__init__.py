"""Minimum-energy quadratic curves and the Hermite splines built from them."""

from .errors import (
    CoincidentEndpoints,
    CollinearPoints,
    DegenerateCurve,
    DomainError,
    MqsError,
    NoRootInUnitInterval,
    ParseError,
    QuadratureDivergence,
    TooFewPoints,
    ValidationError,
    ZeroSpeed,
)
from .geometry import Vec2, cross2, normalize_triple
from .minquad import (
    CubicSolve,
    MinQuadSolution,
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
from .fairness import (
    PolyCurve,
    QuadratureConfig,
    curvature,
    curvature_rate,
    segment_energy,
    segment_variation,
    whole_line_energy,
    whole_line_variation,
)
from .spline import (
    Cardinal,
    CatmullRom,
    HermiteSpline,
    KochanekBartels,
    MinEnergyQuad,
    TangentMethod,
    build_spline,
    chord_length_knots,
    middle_segment_index,
    uniform_knots,
)

__version__ = "0.1.0"
