#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the program's libraries from ../src. The build tree lives in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), relative to
the current directory. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; build logs go to
standard error. Exits non-zero, without a result line, when the build or
the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: program sources not found next to perfbench/ "
                 "(expected src/CMakeLists.txt)")
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", *targets])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))
    return out


def self_test():
    out = build(["perfbench_test", "perfbench_sarn_cli"])
    test = out / "perfbench_test"
    if not test.is_file():
        sys.exit("run.py: perfbench_test was not built (GoogleTest missing?)")
    return subprocess.run([str(test)], cwd=str(out)).returncode


def run_once(out, args, trace, rev):
    """One sarn_perfbench process; returns (its stdout, end-to-end, result)."""
    command = [str(out / "sarn_perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(trace),
               "--workdir", str(out / f"run-{os.getpid()}"),
               "--results-dir", str(out / "results"),
               "--revision", rev]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"run.py: benchmark exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        end_to_end = json.loads(lines[-2])["end_to_end"]
    except (IndexError, KeyError, ValueError):
        sys.exit("run.py: benchmark printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("run.py: malformed result line")
    return proc.stdout, end_to_end, result


def overhead_percent(name, traced, untraced):
    """Tracing overhead on one end-to-end metric; positive = traced worse."""
    if untraced == 0:
        return 0.0
    change = (traced - untraced) / untraced * 100.0
    return -change if name == "throughput_qps" else change


def run(args):
    out = build(["sarn_perfbench"])
    rev = revision()
    if args.trace == 0:
        stdout, _, _ = run_once(out, args, 0, rev)
        sys.stdout.write(stdout)
        return 0
    # The traced run gives the per-layer metrics; an untraced run of the
    # same inputs, in its own process, gives the tracing overhead on every
    # end-to-end metric (peak RSS included, which one process could not
    # compare).
    stdout, traced, result = run_once(out, args, 1, rev)
    _, untraced, plain = run_once(out, args, 0, rev)
    for name, metric in traced.items():
        result["metrics"]["obs.trace_overhead_pct." + name] = {
            "value": overhead_percent(name, metric["value"],
                                      untraced[name]["value"]),
            "unit": "%"}
    result["correct"] = result["correct"] and plain["correct"]
    result["attempted"] += plain["attempted"]
    result["failed"] += plain["failed"]
    sys.stdout.write("".join(stdout.splitlines(keepends=True)[:-1]))
    print(json.dumps(result))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
