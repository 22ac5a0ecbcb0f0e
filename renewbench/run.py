#!/usr/bin/env python3
"""Build and run the wall-clock renewal benchmark (README.md in this directory).

    python3 renewbench/run.py --workload renew-hot --seed 1 --seconds 10 --trace 0
    python3 renewbench/run.py --workload all --seconds 10

The first run configures and builds .bench_build/ at the repository root
(Release); later runs rebuild only what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("renew-hot", "renew-wide", "renew-durable")


def fail(message):
    print(f"renewbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "lease" / "wire.hpp").is_file():
        fail(f"the SecureLease sources are not under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "--target", "renewbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return BUILD / "renewbench"


def git_commit():
    # Only this tree's own repository: in an exported tree, git would
    # otherwise answer for whatever repository encloses it.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def main():
    parser = argparse.ArgumentParser(
        description="Wall-clock renewal benchmark of the sharded lease service.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    commit = git_commit()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
               "--commit", commit, "--out", str(BUILD / "results")]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    if len(workloads) > 1 and status == 0:
        print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
