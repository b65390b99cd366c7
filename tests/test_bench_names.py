"""The benchmark's view of the library: every name bench/tracing.py patches exists, and one
seed-1 pass of the `triples` workload passes its oracle checks.

The benchmark is usually run untraced, so a renamed or deleted function would break only
`bench/run.py --trace 1`; these tests catch it in the ordinary suite.
"""

import os
import sys

import pytest

from mqspline import cli, fairness, geometry, minquad, spline

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
MODULES = {"cli": cli, "fairness": fairness, "geometry": geometry, "minquad": minquad, "spline": spline}


@pytest.fixture(scope="module")
def bench():
    """bench/tracing.py and bench/workloads.py, imported as the runner imports them."""
    sys.path.insert(0, BENCH)
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(BENCH)
    return tracing, workloads


def test_traced_names_exist(bench):
    tracing, _ = bench
    for mod, attr, _name in tracing.FUNCTION_SPANS:
        assert attr in vars(MODULES[mod]), f"{mod}.{attr}"
    for mod, cls, meth, _name in tracing.METHOD_SPANS:
        assert meth in vars(getattr(MODULES[mod], cls)), f"{mod}.{cls}.{meth}"
    # Patched by Tracer.install outside the two tables.
    assert "render_spline_svg" in vars(cli)
    assert "__post_init__" in vars(geometry.Vec2)


def test_triples_pass_their_checks(bench, tmp_path):
    _, workloads = bench
    ops = workloads.triples_ops(workloads.Lib(), 1, str(tmp_path))
    assert ops
    failures = [why for why in (op.check(op.run()) for op in ops) if why]
    assert failures == []
