#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default: .bench_build at the repository root), runs the workload in its
own process, and relays its output. The last line of standard output is
the workload's JSON result; the exit code is the workload's (non-zero when
an output check failed or the build failed). See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite_warm", "edit_local", "edit_live")
# A run must end within 180 s; the workload gets what the build left.
RUN_LIMIT_S = 175


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64 or args.seconds < 1:
        ap.error("--seed must fit in 64 bits and --seconds must be at least 1")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(os.path.join(ROOT, target))
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    started = time.monotonic()
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", os.path.join(HERE, "work"),
        "--out", os.path.join(HERE, "results"),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: workload exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines))
    print("perfbench: %s ran %.1f s" % (args.workload, time.monotonic() - started),
          file=sys.stderr)
    if proc.returncode != 0:
        return proc.returncode
    result = json.loads(lines[-1])
    expected = metric_names(args.trace == 1)
    if sorted(result["metrics"]) != sorted(expected):
        print("perfbench: metrics %s do not match BENCHMARK.json %s"
              % (sorted(result["metrics"]), sorted(expected)), file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
