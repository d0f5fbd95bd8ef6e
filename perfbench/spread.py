#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload serve-scan --seeds 1-10

For every end-to-end metric it prints the median of the per-run values and
the distance between their first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of that median, next to the
metric's bound from BENCHMARK.json. A benchmark is steady when every spread,
setup_s included, is below a third of its bound; the exit status is 1 when
one is not. Each run's fingerprint (with its CPU steal) and result line are
appended to $CARGO_TARGET_DIR/perfbench/spread-<workload>.jsonl (default
.bench_build/perfbench).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import build_dir  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    log_dir = build_dir()
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / f"spread-{args.workload}.jsonl", "a") as log:
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"spread.py: seed {seed} failed with {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            fingerprint = next(json.loads(line)["fingerprint"] for line in lines
                               if line.startswith('{"fingerprint"'))
            detail = next(json.loads(line)["detail"] for line in lines
                          if line.startswith('{"detail"'))
            log.write(json.dumps({"seed": seed, "fingerprint": fingerprint,
                                  "detail": detail, "result": result}) + "\n")
            print(f"seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"steal={fingerprint['steal_pct']:.1f}% " +
                  " ".join(f"{name}={result['metrics'][name]['value']:.4g}"
                           for name in bounds), flush=True)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])

    steady = True
    print(f"{'metric':<16}{'median':>14}{'spread':>9}{'bound/3':>9}")
    for name, bound in bounds.items():
        median = statistics.median(values[name])
        q1, _, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / median
        ok = spread < bound / 3
        steady &= ok
        print(f"{name:<16}{median:>14.6g}{spread:>9.3f}{bound / 3:>9.3f}"
              f"{'' if ok else '  NOT STEADY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
