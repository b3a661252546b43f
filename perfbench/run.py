#!/usr/bin/env python3
"""End-to-end GC benchmark: builds perfbench/gcbench from source and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-serial --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/perfbench (CMake, Release). gcbench's JSON
result line is checked for shape and printed as the last line of stdout;
build output goes to stderr. Any build or run failure exits non-zero
without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# The single-threaded configurations are pinned to one CPU, so gcbench's
# reference job is timed on the CPU the passes ran on. The two-mutator one
# is left to the scheduler: pinned to two CPUs, its cross-thread wakeups
# got slower and noisier.
WORKLOADS = {"paper-serial": True, "compact-budget": True, "mutators2": False}
RUN_TIMEOUT_S = 170


def build(root: Path) -> Path:
    src = root / "perfbench"
    out = root / ".bench_build" / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", str(src), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "gcbench"


def pin_to_one_cpu() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, [max(os.sched_getaffinity(0))])


def check_result(line: str, trace: int) -> dict:
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys: %s" % sorted(result))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        raise ValueError("attempted must be a positive integer")
    if not isinstance(result["failed"], int):
        raise ValueError("failed must be an integer")
    wanted = "pass_ms" if trace else "pass_ref"
    if wanted not in result["metrics"]:
        raise ValueError("metric %s missing" % wanted)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    try:
        exe = build(root)
        if WORKLOADS[args.workload]:
            pin_to_one_cpu()
        proc = subprocess.run(
            [str(exe), args.workload, str(args.seed), str(args.seconds),
             str(args.trace)],
            stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, check=True,
            text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise ValueError("gcbench printed no result")
        result = check_result(lines[-1], args.trace)
    except (OSError, subprocess.SubprocessError, ValueError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
