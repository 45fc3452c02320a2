"""chflow benchmark: run one workload from a seed, check it, print metrics.

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout: the package is imported from the
checkout's ``src`` directory and nowhere else.  One process, one thread,
closed loop: each operation starts when the previous one has returned.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` rounds alternate between untraced
and traced, and the object holds the per-layer metrics of the traced rounds
plus the tracing overhead.  Spans of the traced rounds are written to
``.bench_out/trace_<workload>.jsonl`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# the p90 needs at least ten samples above it
MIN_OPS = 100


def process_age() -> float:
    """Seconds since this process started, read from the kernel's start time."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("roundtrip", "trajectory", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_rounds(workload, seconds, tracer=None):
    """Run whole rounds until `seconds` of operations are done and, untraced,
    the faster half of the rounds holds MIN_OPS operations.

    Outputs are checked after each round, outside the timed region.  With a
    tracer, odd rounds run traced and even rounds untraced.
    """
    from workloads import FAILURES

    stats = {"attempted": 0, "failed": 0, "timed_s": 0.0, "problems": [],
             "plain": [], "traced": []}
    r = 0
    while True:
        ops = workload.round(r)
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        outputs, op_s = [], []
        start = time.perf_counter()
        for op in ops:
            if traced:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                out = op.run()
            except FAILURES as exc:
                out = exc
            dt = time.perf_counter() - t0
            outputs.append(out)
            if not isinstance(out, Exception):
                op_s.append(dt)
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        stats["traced" if traced else "plain"].append((elapsed, op_s))
        stats["timed_s"] += elapsed
        stats["attempted"] += len(ops)
        for op, out in zip(ops, outputs):
            if isinstance(out, Exception):
                stats["failed"] += 1
                print(f"failed: {op.label}: {type(out).__name__}: {out}",
                      file=sys.stderr)
            else:
                stats["problems"] += workload.check(op, out)
        r += 1
        if stats["timed_s"] < seconds:
            continue
        if tracer is not None:
            if stats["traced"]:
                return stats
        elif (len(stats["plain"]) + 1) // 2 * len(ops) >= MIN_OPS:
            return stats


def faster_half(rounds):
    """Rounds at or below the median round time.

    Every round holds the same mix of operations, so rounds differ by their
    inputs and by how fast the machine ran.  Shared machines slow down by up
    to half for seconds at a time; the faster half of the rounds leaves those
    stretches out, so runs agree with each other.
    """
    cut = np.median([elapsed for elapsed, _ in rounds])
    return [rnd for rnd in rounds if rnd[0] <= cut]


def end_to_end(stats, setup_s):
    """Timings come from the faster half of the rounds; see `faster_half`."""
    fast = faster_half(stats["plain"])
    times_ms = [1e3 * t for _, op_s in fast for t in op_s]
    p50, p90 = np.percentile(times_ms, [50, 90]) if times_ms else (0.0, 0.0)
    completed = len(times_ms) / len(fast)
    round_s = np.median([elapsed for elapsed, _ in fast])
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (completed / round_s, "ops/s"),
        "op_ms_p50": (float(p50), "ms"),
        "op_ms_p90": (float(p90), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chflow" / "__init__.py").is_file():
        print(f"error: no chflow sources under {ROOT / 'src'}; run the "
              "benchmark from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import chflow
    if Path(chflow.__file__).resolve().parent != ROOT / "src" / "chflow":
        print(f"error: imported chflow from {chflow.__file__}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    # files of this run only, so that runs in one checkout cannot collide
    work = OUT_DIR / f"work_{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        workloads.warm_up()
        setup_s = process_age()
        tracer = Tracer() if args.trace else None
        stats = run_rounds(workload, args.seconds, tracer)
        stats["problems"] += workload.final_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in stats["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(stats, setup_s)
    else:
        tracer.write(OUT_DIR / f"trace_{args.workload}.jsonl")
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ratio"] = (
            float(np.median([e for e, _ in stats["traced"]])
                  / np.median([e for e, _ in stats["plain"]])), "ratio")
    correct = not stats["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
