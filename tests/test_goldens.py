"""The CLI's golden outputs (bench/golden/) in the ordinary suite.

`bench/golden.py --check` runs every golden case in-process and compares it with
the captured output: text byte for byte, CSV numbers within 1e-8 relative, SVG
numbers within 1e-3 px.  These outputs are the behaviour contract of a change
that should not move the numbers.
"""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_golden_outputs_match(tmp_path):
    sys.path.insert(0, BENCH)
    try:
        import golden
        import workloads
    finally:
        sys.path.remove(BENCH)
    assert golden.check(workloads.Lib(), str(tmp_path)) == []
