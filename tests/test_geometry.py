"""Tests for planar primitives and triple normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mqspline.errors import CoincidentEndpoints, CollinearPoints
from mqspline.geometry import Vec2, cross2, normalize_triple

from _rand import random_similarity, random_triples

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def test_cross2_unit_basis():
    assert cross2(Vec2(1, 0), Vec2(0, 1)) == 1.0


def test_cross2_parallel():
    assert cross2(Vec2(2, 3), Vec2(4, 6)) == 0.0


def test_cross2_direct():
    assert cross2(Vec2(0.5, 1), Vec2(1, 0)) == -1.0


def test_vec2_rejects_non_finite():
    with pytest.raises(ValueError):
        Vec2(math.nan, 0.0)
    with pytest.raises(ValueError):
        Vec2(0.0, math.inf)


def test_normalize_already_canonical():
    q2 = normalize_triple(Vec2(0, 0), Vec2(0.5, 1), Vec2(1, 0))
    assert q2.x == pytest.approx(0.5, abs=1e-15)
    assert q2.y == pytest.approx(1.0, abs=1e-15)


def test_normalize_rotated_triple():
    # Hand-applied composition: translate by -p1 (identity here), scale by
    # 1/|p3-p1| = 1, rotate so (0,1) -> (1,0), i.e. by -90 degrees.
    # p2 = (-1, 0.5) -> (0.5, 1).
    q2 = normalize_triple(Vec2(0, 0), Vec2(-1, 0.5), Vec2(0, 1))
    assert q2.x == pytest.approx(0.5, abs=1e-15)
    assert q2.y == pytest.approx(1.0, abs=1e-15)


def test_normalize_collinear_raises():
    with pytest.raises(CollinearPoints):
        normalize_triple(Vec2(0, 0), Vec2(1, 0), Vec2(2, 0))


def test_normalize_coincident_endpoints_raises():
    with pytest.raises(CoincidentEndpoints):
        normalize_triple(Vec2(1, 1), Vec2(2, 3), Vec2(1, 1))


def test_q2_is_complex_ratio():
    # The similarity p -> (p - p1) / (p3 - p1) in complex arithmetic takes p1 to 0 and p3 to 1.
    rng = np.random.default_rng(11)
    for p1, p2, p3 in random_triples(rng, 200):
        z1, z2, z3 = (complex(p.x, p.y) for p in (p1, p2, p3))
        want = (z2 - z1) / (z3 - z1)
        q2 = normalize_triple(p1, p2, p3)
        assert abs(complex(q2.x, q2.y) - want) <= 1e-15 * abs(want)


def test_q2_invariant_under_similarity():
    rng = np.random.default_rng(13)
    triples = random_triples(rng, 50)
    for p1, p2, p3 in triples:
        q2 = normalize_triple(p1, p2, p3)
        s = random_similarity(rng)
        q2s = normalize_triple(s(p1), s(p2), s(p3))
        assert (q2s - q2).norm() < 1e-9


@given(coord, coord, coord, coord, coord, coord)
def test_cross2_antisymmetry(ux, uy, vx, vy, wx, wy):
    u, v, w = Vec2(ux, uy), Vec2(vx, vy), Vec2(wx, wy)
    assert cross2(u, v) == -cross2(v, u)
    assert cross2(u + w, v) == pytest.approx(cross2(u, v) + cross2(w, v), abs=1e-6)
