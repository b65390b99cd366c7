"""Compare two result files written by `run.py --out`, workload by workload.

    python3 bench/diff.py base.jsonl new.jsonl
    python3 bench/diff.py runs.jsonl          # one side: spread of each metric

End-to-end metrics (untraced records): each side's median and quartiles over
its runs, the change of the medians as a share of the base median, and a mark:

- worse-than-bound: the new median is worse than the base median by more
  than the metric's bound (BENCHMARK.json; 0.1 for metrics it does not list);
- unresolved: not worse than the bound, but a side's run-to-run spread
  (quartile distance over median) is wider than the bound, and not every new
  run beats every base run;
- better: every new run beats every base run;
- unchanged: otherwise.

Per-layer metrics (traced records): the median per side, the delta and the
ratio new / base, each ratio printed with its base value.

Determinism: traced records of the same workload and seed, in either file,
must carry exactly equal counts (`*.calls`, `*.raised`, `geometry.vec2_new`,
`fairness.integrand_evals`).  A mismatch is listed and the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

DEFAULT_BOUND = 0.1
HIGHER_IS_BETTER_DEFAULT = {"throughput_per_s"}


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spec_bounds() -> tuple[dict, dict]:
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    return bounds, better


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def is_count(name: str) -> bool:
    return (name.endswith(".calls") or name.endswith(".raised")
            or name in ("geometry.vec2_new", "fairness.integrand_evals"))


def group(records: list[dict], trace: int) -> dict:
    """workload -> metric -> (values, unit)."""
    out: dict = defaultdict(lambda: defaultdict(lambda: ([], "")))
    for r in records:
        if r["trace"] != trace:
            continue
        for name, m in r["metrics"].items():
            values, _ = out[r["workload"]][name]
            values.append(m["value"])
            out[r["workload"]][name] = (values, m["unit"])
    return out


def mark(base: list[float], new: list[float], bound: float, higher_better: bool) -> tuple[str, str]:
    (b1, bm, b3), (n1, nm, n3) = quartiles(base), quartiles(new)
    sign = -1.0 if higher_better else 1.0
    if bm == 0.0:
        worse = sign * (nm - bm) > 0.0
        change = f"{nm - bm:+.4g} abs"
    else:
        rel = (nm - bm) / abs(bm)
        worse = sign * rel > bound
        change = f"{rel:+.1%}"
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (n3 - n1) / abs(nm) if nm else 0.0)
    all_better = (min(new) > max(base)) if higher_better else (max(new) < min(base))
    if worse:
        return "worse-than-bound", change
    if all_better and nm != bm:
        return "better", change
    if spread > bound:
        return "unresolved", change
    return "unchanged", change


def end_to_end(base_recs, new_recs, bounds, better) -> None:
    base, new = group(base_recs, 0), group(new_recs, 0)
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}: end to end (median [q1, q3], runs)")
        for name in base[workload]:
            if name not in new[workload]:
                continue
            (bv, unit), (nv, _) = base[workload][name], new[workload][name]
            bound = bounds.get(name, DEFAULT_BOUND)
            higher = better.get(name, "higher" if name in HIGHER_IS_BETTER_DEFAULT else "lower") == "higher"
            verdict, change = mark(bv, nv, bound, higher)
            (b1, bm, b3), (n1, nm, n3) = quartiles(bv), quartiles(nv)
            print(f"  {name:22s} base {bm:.5g} [{b1:.5g}, {b3:.5g}] n={len(bv)}  "
                  f"new {nm:.5g} [{n1:.5g}, {n3:.5g}] n={len(nv)} {unit}  {change}  "
                  f"bound {bound:.0%}  {verdict}")


def spreads(records, bounds) -> None:
    """Run-to-run spread of each end-to-end metric: quartile distance over median."""
    for workload, metrics in sorted(group(records, 0).items()):
        print(f"== {workload}: spread over runs (median [q1, q3]; (q3 - q1) / median against the bound)")
        for name, (values, unit) in metrics.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name, DEFAULT_BOUND)
            print(f"  {name:22s} {med:.5g} [{q1:.5g}, {q3:.5g}] {unit} n={len(values)}  "
                  f"spread {spread:.1%} of bound {bound:.0%}")


def per_layer(base_recs, new_recs) -> None:
    base, new = group(base_recs, 1), group(new_recs, 1)
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}: per layer (median of traced runs; ratio = new / base)")
        for name in base[workload]:
            if name not in new[workload]:
                continue
            (bv, unit), (nv, _) = base[workload][name], new[workload][name]
            bm, nm = statistics.median(bv), statistics.median(nv)
            ratio = f"x{nm / bm:.3f} of base {bm:.5g} {unit}" if bm else f"base 0 {unit}"
            print(f"  {name:36s} {bm:12.5g} -> {nm:12.5g}  delta {nm - bm:+.5g}  {ratio}")


def count_mismatches(records: list[dict]) -> list[str]:
    first: dict = {}
    problems = []
    for r in records:
        if r["trace"] != 1:
            continue
        counts = {k: m["value"] for k, m in r["metrics"].items() if is_count(k)}
        key = (r["workload"], r["seed"])
        if key not in first:
            first[key] = counts
            continue
        for name, value in counts.items():
            if first[key].get(name) != value:
                problems.append(f"{key[0]} seed {key[1]}: {name} {first[key].get(name)!r} vs {value!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    args = parser.parse_args(argv)
    bounds, better = spec_bounds()
    base = load(args.base)
    new = load(args.new) if args.new else []
    if args.new:
        end_to_end(base, new, bounds, better)
        per_layer(base, new)
    else:
        spreads(base, bounds)
    problems = count_mismatches(base + new)
    pairs = len({(r["workload"], r["seed"]) for r in base + new if r["trace"] == 1})
    for p in problems:
        print(f"count mismatch: {p}")
    print(f"determinism: {'FAILED' if problems else 'counts identical'} "
          f"over traced records of {pairs} (workload, seed) keys")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
