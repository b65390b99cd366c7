"""mqspline benchmark: one workload per run, end-to-end or traced per layer.

    python3 bench/run.py --workload table --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # all four, full report

The run builds its inputs from --seed, repeats whole passes of the workload's
ops for --seconds of op time (at least three passes), checks every op against
the benchmark's own oracles outside the timed region, prints a report, and ends
with one JSON line: correct, attempted, failed and the metrics that
BENCHMARK.json names (end-to-end with --trace 0, per-layer with --trace 1).
--out FILE appends the full record, environment included, as a JSON line.

It uses the library from the checkout's src/ only, and writes only under the
checkout's .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("table", "spline", "triples", "cli")
SETUP_PROBES = 3
MIN_PASSES = 3   # repeats of each op, at least
IMPORTTIME_PROBES = 3
CALIBRATION_LOOPS = 3


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: host speed context, never a scale factor."""
    times = []
    for _ in range(CALIBRATION_LOOPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MQS_")}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import mqspline and finish one warm-up op."""
    if workload == "cli":
        cmd = [sys.executable, "-c", "import mqspline"]
    else:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child_env(), stdin=subprocess.DEVNULL, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def import_split_ms() -> tuple[float, float]:
    """(import of mqspline.cli, self time of scipy modules) from `python -X importtime`, ms."""
    totals, scipy_self = [], []
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mqspline.cli"],
                              env=child_env(), stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, check=True, timeout=120)
        total = scipy_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative, name = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue
            if name.strip() == "mqspline.cli":
                total = int(cumulative)
            if name.strip().split(".")[0] == "scipy":
                scipy_us += int(self_us)
        totals.append(total / 1e3)
        scipy_self.append(scipy_us / 1e3)
    return statistics.median(totals), statistics.median(scipy_self)


class Loop:
    """Runs passes of ops, times each op, and checks it afterwards."""

    def __init__(self, ops, mqs_error):
        self.ops = ops
        self.mqs_error = mqs_error
        self.latencies: list[list[float]] = [[] for _ in ops]   # seconds, per op of the pass
        self.ok = [True] * len(ops)
        self.passed_once = [False] * len(ops)
        self.calls = 0
        self.failures: dict[str, tuple[int, str]] = {}   # kind and cause -> (failed calls, example)

    @property
    def attempted(self) -> int:
        """Distinct ops of the pass; each is run and checked on every repeat."""
        return len(self.ops)

    @property
    def failed(self) -> int:
        """Ops that failed on any repeat.  An op's inputs are fixed, so this
        depends on the seed only, not on how many repeats a run fits in."""
        return self.ok.count(False)

    def flaky(self) -> int:
        """Ops that failed on some repeats and passed on others."""
        return sum(not ok and passed for ok, passed in zip(self.ok, self.passed_once))

    def run_op(self, i: int, wrap=None) -> float:
        op = self.ops[i]
        call = wrap(op.run) if wrap else op.run
        error = ""
        t0 = time.perf_counter()
        try:
            out = call()
        except self.mqs_error as exc:
            dt = time.perf_counter() - t0
            error = f"{type(exc).__name__}"
        except Exception as exc:   # a defect outside the typed errors still counts, as a failure
            dt = time.perf_counter() - t0
            error = f"untyped {type(exc).__name__}"
        else:
            dt = time.perf_counter() - t0
            try:
                why = op.check(out)
            except Exception as exc:   # output the oracle cannot even parse
                why = f"unreadable output ({type(exc).__name__}: {exc})"
            if why:
                error = f"oracle: {why[:200]}"
        self.latencies[i].append(dt)
        self.calls += 1
        if not error:
            self.passed_once[i] = True
        else:
            self.ok[i] = False
            key = f"{op.kind}: {error.split(':')[0]}"
            count, example = self.failures.get(key, (0, error))
            self.failures[key] = (count + 1, example)
        return dt

    def run(self, seconds: float, min_passes: int = MIN_PASSES, wrap=None, on_op=None) -> float:
        """Whole passes of ops until the op time reaches `seconds` and at least
        `min_passes` passes ran.

        Every op then ran equally often, so counts per op are exact and each
        op's latency is the slowest of at least `min_passes` repeats.
        Returns the op time.
        """
        spent = 0.0
        passes = 0
        while passes < min_passes or spent < seconds:
            for i in range(len(self.ops)):
                if on_op:
                    on_op()
                spent += self.run_op(i, wrap)
            passes += 1
        return spent

    def op_latencies(self) -> list[float]:
        """Each op's slowest latency over its repeats, in seconds.

        The shared host switches between speeds up to 2x apart, in stretches
        of a fraction of a second to half a minute, and the share of time it
        spends fast changes from hour to hour.  Mid and low quantiles of an
        op's repeats follow that share.  The slowest repeat reads the same in
        every run that meets a slow stretch at all, and short passes give
        each op many chances to.
        """
        return [max(t) for t in self.latencies]

    def throughput(self) -> float:
        """Successful units of one pass over the summed per-op latencies."""
        units = sum(op.units for op, good in zip(self.ops, self.ok) if good)
        return units / sum(self.op_latencies())

    def percentile_ms(self, q: float, kind: str | None = None) -> float:
        """Nearest-rank percentile over the ops of a pass, in ms.

        A failed op ranks as slower than every successful one.
        """
        ranked = sorted((0 if good else 1, t) for t, good, op in zip(self.op_latencies(), self.ok, self.ops)
                        if kind is None or op.kind == kind)
        return ranked[max(0, math.ceil(q * len(ranked)) - 1)][1] * 1e3


def warm_up(ops) -> None:
    """Run the first op of each kind once, untimed, so lazy set-up is not measured."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            op.run()


def run_untraced(name: str, seed: int, seconds: float, lib, W, workdir: str) -> tuple[dict, dict]:
    setup = setup_seconds(name, seed)
    ops = W.make_ops(name, lib, seed, workdir, cli_env=child_env())
    if name != "cli":   # each CLI invocation starts cold, as a user's does
        warm_up(ops)
    cal_before = calibration_ms()
    loop = Loop(ops, lib.errors.MqsError)
    spent = loop.run(seconds)
    cal_after = calibration_ms()
    metrics = {
        "throughput_per_s": (loop.throughput(), "1/s"),
        "latency_p50_ms": (loop.percentile_ms(0.5), "ms"),
        "setup_s": (statistics.median(setup), "s"),
    }
    rusage = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = (resource.getrusage(rusage).ru_maxrss / 1024.0, "MB")
    if len(ops) >= 100:
        metrics["latency_p90_ms"] = (loop.percentile_ms(0.9), "ms")
    if name == "cli":
        for kind in ("solve", "compare", "plot"):
            metrics[f"cli_{kind}_p50_ms"] = (loop.percentile_ms(0.5, kind), "ms")
    metrics["fail_ratio"] = (loop.failed / loop.attempted, "ratio")
    info = {"attempted": loop.attempted, "failed": loop.failed, "failures": loop.failures,
            "calls": loop.calls, "flaky": loop.flaky(), "ops_per_pass": len(ops),
            "op_time_s": spent, "setup_runs_s": setup,
            "calibration_ms": {"before": cal_before, "after": cal_after}}
    return metrics, info


PER_OP_TIMES = ("geometry.normalize_triple", "minquad.build_solution", "minquad.cubic_roots",
                "minquad.arc_length_closed", "minquad.total_energy_closed", "fairness.segment",
                "fairness.integrand", "fairness.whole_line", "fairness.poly_curve",
                "spline.build_spline", "spline.chord_length_knots", "spline.segment_curve",
                "spline.evaluate", "svg.render_spline_svg", "cli.main", "cli.load_point_set", "op")
PER_OP_CALLS = ("geometry.normalize_triple", "minquad.build_solution", "minquad.arc_length_numeric",
                "spline.build_spline", "spline.evaluate")


def run_traced(name: str, seed: int, seconds: float, lib, W, workdir: str) -> tuple[dict, dict]:
    import tracing
    ops = W.make_ops(name, lib, seed, workdir, cli_env=None)
    warm_up(ops)
    cal_before = calibration_ms()
    plain = Loop(ops, lib.errors.MqsError)
    plain_time = plain.run(seconds / 2, min_passes=1)

    tracer = tracing.Tracer(lib.modules, lib.errors.MqsError)
    traced = Loop(ops, lib.errors.MqsError)
    stdout_bytes = [0]
    if name == "cli":
        for op in ops:
            op.run = _count_stdout(op.run, stdout_bytes)

    def next_op():
        tracer.op += 1

    tracer.install()
    try:
        traced_time = traced.run(seconds / 2, min_passes=1,
                                 wrap=lambda fn: tracer.wrap("op", fn), on_op=next_op)
    finally:
        tracer.uninstall()
    cal_after = calibration_ms()
    n_ops = traced.calls
    spans = tracer.self_times()
    import_ms, import_scipy_ms = import_split_ms()
    tracer.write(os.path.join(workdir, "spans.npz"))

    metrics = {}
    for key in PER_OP_CALLS:
        metrics[f"{key}.calls"] = (spans.get(key, (0, 0.0))[0] / n_ops, "count/op")
    for key in PER_OP_TIMES:
        metrics[f"{key}.self_us"] = (spans.get(key, (0, 0.0))[1] / 1e3 / n_ops, "us/op")
    for key in ("geometry.vec2_new", "minquad.build_solution.raised", "fairness.raised"):
        metrics[key] = (tracer.counters[key] / n_ops, "count/op")
    evals = spans.get("fairness.integrand", (0, 0.0))[0]
    integrals = spans.get("fairness.segment", (0, 0.0))[0] + spans.get("fairness.whole_line", (0, 0.0))[0]
    metrics["fairness.integrand_evals"] = (evals / n_ops, "count/op")
    metrics["fairness.evals_per_integral"] = (evals / integrals if integrals else 0.0, "count")
    metrics["svg.bytes_out"] = (tracer.counters["svg.bytes_out"] / n_ops, "B/op")
    metrics["cli.stdout_bytes"] = (stdout_bytes[0] / n_ops, "B/op")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.import_scipy_ms"] = (import_scipy_ms, "ms")
    plain_rate = plain.calls / plain_time
    traced_rate = n_ops / traced_time
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.throughput_ratio"] = (traced_rate / plain_rate, "ratio")
    failed = sum(not (a and b) for a, b in zip(plain.ok, traced.ok))
    failures = dict(plain.failures)
    for key, (count, example) in traced.failures.items():
        failures[key] = (failures.get(key, (0, example))[0] + count, example)
    info = {"attempted": len(ops), "failed": failed, "failures": failures,
            "calls": plain.calls + traced.calls, "flaky": plain.flaky() + traced.flaky(),
            "traced_ops": n_ops,
            "spans": len(tracer.span_name), "op_time_s": plain_time + traced_time,
            "calibration_ms": {"before": cal_before, "after": cal_after}}
    return metrics, info


def _count_stdout(run, counter):
    def counted():
        res = run()
        counter[0] += len(res[1].encode("utf-8"))
        return res
    return counted


def run_one(args) -> int:
    import workloads as W
    spec = load_spec()
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(workdir, exist_ok=True)
    lib = W.Lib()
    env = environment(args.seed)
    runner = run_traced if args.trace else run_untraced
    metrics, info = runner(args.workload, args.seed, args.seconds, lib, W, workdir)
    correct = True
    golden_problems = []
    if args.workload == "cli" and not args.trace:
        import golden
        golden_problems = golden.check(lib, workdir)
        correct = not golden_problems

    _, op_unit, op_doc = W.WORKLOADS[args.workload]
    report(args, metrics, info, env, op_unit, op_doc, golden_problems)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "correct": correct, "op_unit": op_unit,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "env": env, **info}
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    line = {"correct": correct, "attempted": info["attempted"], "failed": info["failed"],
            "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in listed}}
    print(json.dumps(line))
    return 0


def report(args, metrics, info, env, op_unit, op_doc, golden_problems) -> None:
    mode = "traced, per layer" if args.trace else "end to end"
    print(f"== {args.workload} ({mode}); seed {args.seed}; op = {op_doc}")
    for key, (value, unit) in metrics.items():
        shown = f"{op_unit}/s" if key == "throughput_per_s" else unit
        note = ""
        if key == "fail_ratio":
            note = (f"  ({info['failed']} of the {info['attempted']} ops failed, on any of their "
                    f"{info['calls']} calls in all; {info['flaky']} failed on some repeats only)")
        elif key == "setup_s":
            note = f"  (median of {SETUP_PROBES} fresh interpreters)"
        elif key.startswith("latency_"):
            repeats = info["calls"] // info["ops_per_pass"]
            note = f"  (over the {info['ops_per_pass']} ops of a pass, each at its slowest of {repeats} repeats)"
        print(f"  {key:34s} {value:14.6g} {shown}{note}")
    for key, (count, example) in sorted(info["failures"].items()):
        print(f"  failed calls x{count} {key}; first: {example}")
    for problem in golden_problems:
        print(f"  golden mismatch: {problem}")
    cal = info.get("calibration_ms")
    cal_text = f"; calibration loop {cal['before']:.1f} / {cal['after']:.1f} ms before / after" if cal else ""
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, cpu {env['cpu']}, seed {env['seed']}{cal_text}")


def setup_probe(args) -> int:
    import workloads as W
    W.warmup_op(args.workload, W.Lib(), args.seed).run()
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="op time to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record to this JSON-lines file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mqspline", "__init__.py")):
        return fail(f"no mqspline package under {SRC}; run from a full checkout")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        return fail("BENCHMARK.json is missing")
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    import mqspline
    if os.path.dirname(os.path.abspath(mqspline.__file__)) != os.path.join(SRC, "mqspline"):
        return fail(f"mqspline imported from {mqspline.__file__}, not from {SRC}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
