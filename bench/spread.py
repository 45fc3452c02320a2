"""Run every workload repeatedly and report each metric's spread against its bound.

    python3 bench/spread.py                      # 10 seeds per workload
    python3 bench/spread.py --runs 5 --workloads audit --first-seed 100

The spread of a metric is the distance between the first and third quartile
of its values over the runs (``statistics.quantiles(values, n=4)``) as a
share of their median.  A benchmark is steady when every spread, except that
of ``setup_s``, stays below a third of the metric's bound in BENCHMARK.json.
Runs go one at a time, with the run length set in BENCHMARK.json; the raw
results are kept in ``.bench_out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, trace=0):
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed no result:\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = parser.parse_args(argv)

    results = {}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(spec, workload, seed))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1])}",
                  file=sys.stderr, flush=True)
        results[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, correct {correct}, "
              f"failed shares {sorted(shares)}")
        print(f"  {'metric':<14} {'median':>12} {'spread':>8} {'bound/3':>8}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            median, share = spread([r["metrics"][name]["value"] for r in runs])
            limit = metric["bound"] / 3
            ok = name == "setup_s" or share < limit
            steady = steady and ok and correct and len(shares) == 1
            print(f"  {name:<14} {median:>12.5g} {share:>8.2%} {limit:>8.2%}"
                  f"{'' if ok else '  TOO WIDE'}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(results, indent=1))
    print(f"\n{'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
