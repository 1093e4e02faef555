#!/usr/bin/env python3
"""csgnash benchmark: closed loop, one client, threads=1.

Run from the repository root:

    python3 perfbench/run.py --workload nfg-mixed --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every benchmark workload

Each op starts when the previous one ends. The run repeats whole passes
of the workload (see workloads.py), as many as bring the elapsed time
nearest to --seconds, then checks every output. Times are scaled by a machine-speed
probe run between ops (see `probe`), so that a shared host's drift in speed
does not read as a change in the program. With --trace 0 it reports the end-to-end
metrics; with --trace 1 it runs half the time untraced, replays the same
ops with spans around each layer, and reports the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
BENCH_WORKLOADS = ("nfg-mixed", "bi-window", "vi-sweep")

# The end-to-end metrics bounded in BENCHMARK.json. The tail latency, the
# failed and the unproven ratios are printed in the report above the last
# line: the tail moves between kinds of op as the pass count changes, and
# the two ratios are 0 on healthy runs.
BOUNDED = ("setup_s", "ops_per_s", "latency_p50_s", "peak_rss_mb")
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "failed_ratio": "ratio",
    "unproven_ratio": "ratio",
    "peak_rss_mb": "MB",
}


# The probe's time on the 2-core x86-64 machine where the benchmark was
# written, in its faster phases. Scaled times are seconds at the machine
# speed at which one probe takes this long.
PROBE_REF_S = 0.0037
PROBE_TABLE = np.arange(9.0).reshape(3, 3)


def probe() -> float:
    """Seconds that measure the machine's current speed: the geometric mean
    of the times of two fixed loops: pure interpreter arithmetic, and calls of numpy on
    3x3 arrays. Each is the median of three runs of about 3 ms, so that
    one preempted run does not count. Runs of all three workloads on a
    shared 2-core host, logged against five candidate loops, showed op
    times following this mean most closely (rate ∝ probe^-0.7..-0.9)."""

    def median_run(loop) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            loop()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def interpreter():
        acc = 0
        for i in range(40_000):
            acc += i * i % 7

    def small_arrays():
        acc = 0.0
        for i in range(1_000):
            acc += float(np.dot(PROBE_TABLE, PROBE_TABLE[i % 3]).max())

    return (median_run(interpreter) * median_run(small_arrays)) ** 0.5


def scaled(seconds: float, before: float, after: float) -> float:
    """Wall seconds converted to seconds at the reference speed, taking
    the machine's speed as the mean of the probes either side."""
    return seconds * PROBE_REF_S / (0.5 * (before + after))


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


@dataclass
class Record:
    op: object
    latency: float  # wall seconds
    cost: float  # seconds at the reference speed (see `scaled`)
    out: dict | None
    error: str | None


def measure(pass_fn, seed, small, budget_s=None, passes=None, tracer=None):
    """Run whole passes back to back, as many as bring the elapsed time
    (ops and probes) nearest to budget_s (at least one), or exactly
    `passes` passes. Returns the records and the number of passes."""
    records: list[Record] = []
    index = 0
    began = time.perf_counter()

    def more() -> bool:
        if passes is not None:
            return index < passes
        elapsed = time.perf_counter() - began
        return index == 0 or elapsed + 0.5 * elapsed / index < budget_s

    speed = probe()
    while more():
        for op in pass_fn(seed, index, small):
            game = workloads.prepare(op)
            if tracer is not None:
                tracer.begin_op(len(records))
            start = time.perf_counter()
            out, error = None, None
            try:
                out = workloads.run(op, game)
            except engine.NotConverged:
                error = "not_converged"
            except Exception as exc:  # an op that raises is a failed op
                traceback.print_exc(file=sys.stderr)
                error = f"raised_{type(exc).__name__}"
            latency = time.perf_counter() - start
            after = probe()
            records.append(
                Record(op, latency, scaled(latency, speed, after), out, error)
            )
            speed = after
        index += 1
    return records, index


def failure_reasons(records, reference) -> list[str | None]:
    return [
        r.error or workloads.check(r.op, r.out, reference) for r in records
    ]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Op time at the highest percentile with at least 10 samples beyond
    it (the largest sample when there are fewer than 11)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def median_time(fn, repeats: int) -> float:
    """The median of `repeats` scaled times of fn()."""
    times = []
    for _ in range(repeats):
        before = probe()
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
        times.append(scaled(wall, before, probe()))
    return statistics.median(times)


def setup_seconds(pass_fn, seed, small) -> float:
    """Interpreter start plus imports (a fresh process each time), then
    input generation and model reading; each the median of 5, scaled."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import csgnash, csgnash.cli"]
    imports = median_time(
        lambda: subprocess.run(cmd, cwd=ROOT, env=env, check=True), 5
    )

    def generate_and_read():
        for op in pass_fn(seed, 0, small):
            workloads.prepare(op)
            if op.kind == "csg":
                modelio.load_model(workloads.MODELS / op.spec["model"], op.spec["params"])

    return imports + median_time(generate_and_read, 5)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def metadata(seed: int, cpu: int) -> dict:
    import scipy

    return {
        "seed": seed,
        "default_seed": workloads.DEFAULT_SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "threads": 1,
        "loop": "closed, 1 client",
        "cpu": cpu,
    }


def print_metrics(metrics: dict, notes: dict | None = None) -> None:
    for name, entry in metrics.items():
        note = f"  ({notes[name]})" if notes and name in notes else ""
        print(f"{name} {entry['value']:.6g} {entry['unit']}{note}")


def pin_to_one_cpu() -> int:
    """Keep this process, and the processes it starts, on one CPU, so
    that the probes measure the CPU the ops run on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(args) -> dict:
    cpu = pin_to_one_cpu()
    pass_fn = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference(args.seed)
    setup = setup_seconds(pass_fn, args.seed, args.smoke)
    print(f"workload {args.workload}  seconds {args.seconds}  trace {args.trace}")
    print("meta " + json.dumps(metadata(args.seed, cpu)))

    if not args.trace:
        records, passes = measure(pass_fn, args.seed, args.smoke, budget_s=args.seconds)
        reasons = failure_reasons(records, reference)
        costs = [r.cost for r in records]
        wall = sum(r.latency for r in records)
        n = len(records)
        tail_s, tail_pct, beyond = tail(costs)
        unproven = sum(1 for r in records if r.out and r.out["inconclusive"])
        values = {
            "setup_s": setup,
            "ops_per_s": n / sum(costs),
            "latency_p50_s": statistics.median(costs),
            "latency_tail_s": tail_s,
            "failed_ratio": sum(1 for x in reasons if x) / n,
            "unproven_ratio": unproven / n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        print(
            f"passes {passes}  ops {n}  wall_op_time_s {wall:.3f}  "
            f"wall_ops_per_s {n / wall:.6g}  speed_scale {sum(costs) / wall:.4f}"
        )
        print_metrics(report, {
            "latency_tail_s": f"p{tail_pct:.1f}, {beyond} of {n} ops beyond",
            "unproven_ratio": "ops reporting inconclusive supports; nfg ops only",
        })
        metrics = {k: report[k] for k in BOUNDED}
    else:
        records_u, passes = measure(pass_fn, args.seed, args.smoke, budget_s=args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            records_t, _ = measure(pass_fn, args.seed, args.smoke, passes=passes, tracer=tracer)
        finally:
            tracer.uninstall()
        records = records_u + records_t
        reasons = failure_reasons(records, reference)
        for i, (u, t) in enumerate(zip(records_u, records_t)):
            if (t.out, t.error) != (u.out, u.error):
                reasons[len(records_u) + i] = "trace_changed_output"
        values = tracer.layer_metrics(passes, sum(r.latency for r in records_t))
        values["engine.vi_iterations"] = (
            sum(r.out["iterations"] for r in records_t if r.out and "iterations" in r.out)
            / passes
        )
        values["trace.overhead_ratio"] = (
            sum(r.cost for r in records_t) / sum(r.cost for r in records_u) - 1.0
        )
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.tsv"
        tracer.write(spans_path)
        print(f"passes {passes}  ops {len(records_u)} untraced + {len(records_t)} traced")
        print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        metrics = {
            k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())
        }
        print_metrics(metrics)

    failed = Counter(x for x in reasons if x)
    for reason, count in sorted(failed.items()):
        print(f"failed {count} {reason}")
    compared = 0 if reference is None else sum(1 for r in records if r.op.key in reference)
    print(f"reference compared {compared} of {len(records)} ops")
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": sum(failed.values()),
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Each benchmark workload in its own process, so that peak memory and
    set-up time are per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in BENCH_WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        print(proc.stdout, end="", flush=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def record_reference(args) -> dict:
    """Store the values of every op the default seed runs in --seconds per
    workload; later runs of the default seed are compared with them."""
    values = {}
    for name in BENCH_WORKLOADS:
        records, _ = measure(
            workloads.WORKLOADS[name], workloads.DEFAULT_SEED, False, budget_s=args.seconds
        )
        for r in records:
            if r.out is None or workloads.check(r.op, r.out, None):
                raise SystemExit(f"not recording a failed op: {r.op.key}")
            values[r.op.key] = r.out["values"]
    doc = {"commit": git_commit(), "values": values}
    workloads.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return {"correct": True, "attempted": len(values), "failed": 0, "metrics": {}}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + tuple(sorted(workloads.WORKLOADS)))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs, for the benchmark's own tests")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the default seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record_reference:
        result = record_reference(args)
    elif args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if not (SRC / "csgnash" / "__init__.py").is_file():
    if __name__ == "__main__":
        print(f"error: no csgnash sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    raise ImportError(f"no csgnash sources under {SRC}")

sys.path.insert(0, str(SRC))
from csgnash import engine, modelio  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
