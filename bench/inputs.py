"""Seeded input generators.  Only numpy is used; the library sees plain points."""

from __future__ import annotations

import numpy as np

# Coordinates live on a 1/256 grid, so a straight run p, p + d, p + 2d, ...
# is exact in floating point and its triples have cross product exactly 0,
# as in the paper's set3.
GRID = 256.0


def _snap(z: complex) -> complex:
    return complex(round(z.real * GRID) / GRID, round(z.imag * GRID) / GRID)


def smooth_walk(rng: np.random.Generator, n: int, straight_run_rate: float = 0.0) -> list[tuple[float, float]]:
    """Random walk with bounded turns and unit-ish steps.

    With probability straight_run_rate per step the walk instead takes 3 to 6
    identical steps, an exactly straight run whose interior triples are
    collinear and take the min-energy method's chord fallback.
    """
    heading = rng.uniform(0.0, 2.0 * np.pi)
    p = _snap(complex(*rng.uniform(-10.0, 10.0, size=2)))
    pts = [p]
    while len(pts) < n:
        heading += float(np.clip(rng.normal(0.0, 0.35), -1.0, 1.0))
        step = _snap(rng.uniform(0.6, 1.4) * np.exp(1j * heading))
        repeats = int(rng.integers(3, 7)) if rng.random() < straight_run_rate else 1
        for _ in range(min(repeats, n - len(pts))):
            p = p + step
            pts.append(p)
    return [(z.real, z.imag) for z in pts]


def triple_with_ratio(rng: np.random.Generator, ratio: float) -> list[tuple[float, float]]:
    """Triple with |cross(p2 - p1, p3 - p1)| / |p3 - p1|^2 equal to `ratio`.

    p2 sits at a random fraction of the chord, offset sideways by ratio * |p3 - p1|.
    The chord length is log-uniform in [0.5, 25]: the quadrature's absolute
    tolerance makes whole-line accuracy depend on scale, so scale must vary.
    """
    p1 = complex(*rng.uniform(-10.0, 10.0, size=2))
    s3 = np.exp(rng.uniform(np.log(0.5), np.log(25.0)) + 1j * rng.uniform(0.0, 2.0 * np.pi))
    side = 1.0 if rng.random() < 0.5 else -1.0
    p2 = p1 + s3 * complex(rng.uniform(0.0, 1.0), side * ratio)
    return [(float(z.real), float(z.imag)) for z in (p1, p2, p1 + s3)]


def stratified_triples(rng: np.random.Generator, per_decade: int,
                       decades: tuple[int, ...] = (0, 1, 2, 3)) -> list[list[tuple[float, float]]]:
    """per_decade triples with ratio log-uniform in each [10^-(k+1), 10^-k), shuffled."""
    triples = []
    for k in decades:
        for _ in range(per_decade):
            triples.append(triple_with_ratio(rng, 10.0 ** -(k + rng.uniform(0.0, 1.0))))
    order = rng.permutation(len(triples))
    return [triples[i] for i in order]


def write_csv(path: str, points) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for x, y in points:
            fh.write(f"{x!r},{y!r}\n")
