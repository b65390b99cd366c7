"""Golden CLI outputs for fixed inputs, captured from the library as first benchmarked.

    python3 bench/golden.py --check      # compare the checkout's CLI with bench/golden/
    python3 bench/golden.py --capture    # rewrite bench/golden/ (only for a deliberate format change)

Comparison rules: text stdout byte-identical; CSV numeric fields within 1e-8
relative and every other field identical; SVG the same elements and
attributes in the same order, with numbers within 1e-3 px.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import xml.etree.ElementTree as ET

import numpy as np

import inputs

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
MANIFEST = os.path.join(GOLDEN_DIR, "manifest.json")
CSV_REL = 1e-8
SVG_PX = 1e-3
GOLDEN_SEED = 20101

# name, argv ({golden} is the golden directory, {out} the SVG output path), comparison
CASES = (
    ("solve_text", ["solve", "0,0", "1,2", "3,0"], "text"),
    ("solve_csv", ["solve", "0,0", "1,2", "3,0", "--format", "csv"], "csv"),
    ("solve_near_collinear", ["solve", "0,0", "1.5,0.001", "3,0"], "text"),
    ("table1_text", ["compare", "--preset", "table1"], "text"),
    ("table1_csv", ["compare", "--preset", "table1", "--format", "csv"], "csv"),
    ("table1_chord_csv", ["compare", "--preset", "table1", "--knots", "chord", "--format", "csv"], "csv"),
    ("walk7_compare", ["compare", "{golden}/walk7.csv", "--methods", "min-energy+catmull-rom+cardinal=0.5"],
     "text"),
    ("walk60_plot", ["plot", "{golden}/walk60.csv", "{out}", "--tangents"], "svg"),
    ("set3_plot", ["plot", "set3", "{out}", "--method", "catmull-rom"], "svg"),
)


def _argv(argv: list[str], out_path: str) -> list[str]:
    return [a.replace("{golden}", GOLDEN_DIR).replace("{out}", out_path) for a in argv]


def _run_case(runner, argv, mode, out_path) -> tuple[int, str]:
    code, stdout, _ = runner(_argv(argv, out_path))
    if mode == "svg" and code == 0:
        with open(out_path, encoding="utf-8") as fh:
            return code, fh.read()
    return code, stdout


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _numbers_close(a: str, b: str, rel: float, absolute: float) -> bool:
    x, y = float(a), float(b)
    return abs(x - y) <= rel * max(abs(x), abs(y)) + absolute


def compare_csv(got: str, want: str) -> str:
    got_rows, want_rows = list(csv.reader(io.StringIO(got))), list(csv.reader(io.StringIO(want)))
    if [len(r) for r in got_rows] != [len(r) for r in want_rows]:
        return "row or column count differs"
    for i, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        for g, w in zip(g_row, w_row):
            if _is_number(g) and _is_number(w):
                if not _numbers_close(g, w, CSV_REL, 0.0):
                    return f"row {i}: {g} vs golden {w}"
            elif g != w:
                return f"row {i}: {g!r} vs golden {w!r}"
    return ""


def compare_svg(got: str, want: str) -> str:
    got_elems, want_elems = list(ET.fromstring(got).iter()), list(ET.fromstring(want).iter())
    if [e.tag for e in got_elems] != [e.tag for e in want_elems]:
        return "element structure differs"
    for i, (g, w) in enumerate(zip(got_elems, want_elems)):
        if sorted(g.attrib) != sorted(w.attrib):
            return f"element {i}: attribute names differ"
        for key, w_value in w.attrib.items():
            g_tokens, w_tokens = re.split(r"[\s,]+", g.attrib[key]), re.split(r"[\s,]+", w_value)
            if len(g_tokens) != len(w_tokens):
                return f"element {i} {key}: value count differs"
            for gt, wt in zip(g_tokens, w_tokens):
                numeric = _is_number(gt) and _is_number(wt)
                if (numeric and not _numbers_close(gt, wt, 0.0, SVG_PX)) or (not numeric and gt != wt):
                    return f"element {i} {key}: {gt} vs golden {wt}"
    return ""


COMPARE = {"text": lambda got, want: "" if got == want else "stdout is not byte-identical",
           "csv": compare_csv, "svg": compare_svg}


def check(lib, workdir: str) -> list[str]:
    """Run every golden case in-process; one line per mismatch."""
    from workloads import CliRunner
    runner = CliRunner(lib, env=None)
    with open(MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    problems = []
    for name, argv, mode in CASES:
        code, output = _run_case(runner, argv, mode, os.path.join(workdir, f"golden-{name}.svg"))
        want = manifest[name]
        if code != want["exit"]:
            problems.append(f"{name}: exit {code}, golden {want['exit']}")
            continue
        with open(os.path.join(GOLDEN_DIR, want["file"]), encoding="utf-8", newline="") as fh:
            why = COMPARE[mode](output, fh.read())
        if why:
            problems.append(f"{name}: {why}")
    return problems


def capture(lib, workdir: str) -> None:
    from workloads import CliRunner
    runner = CliRunner(lib, env=None)
    rng = np.random.default_rng(GOLDEN_SEED)
    inputs.write_csv(os.path.join(GOLDEN_DIR, "walk7.csv"), inputs.smooth_walk(rng, 7))
    inputs.write_csv(os.path.join(GOLDEN_DIR, "walk60.csv"), inputs.smooth_walk(rng, 60, 0.03))
    manifest = {}
    for name, argv, mode in CASES:
        code, output = _run_case(runner, argv, mode, os.path.join(workdir, f"golden-{name}.svg"))
        filename = f"{name}.{ 'txt' if mode == 'text' else mode}"
        with open(os.path.join(GOLDEN_DIR, filename), "w", encoding="utf-8", newline="") as fh:
            fh.write(output)
        manifest[name] = {"argv": argv, "mode": mode, "exit": code, "file": filename}
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--capture", action="store_true")
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mqspline", "__init__.py")):
        print(f"golden: no mqspline package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import Lib
    workdir = os.path.join(root, ".bench_work", "golden")
    os.makedirs(workdir, exist_ok=True)
    if args.capture:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        capture(Lib(), workdir)
        return 0
    problems = check(Lib(), workdir)
    for p in problems:
        print(p)
    print(f"golden: {len(CASES) - len(problems)} of {len(CASES)} cases match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
