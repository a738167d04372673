#!/usr/bin/env python3
"""Builds pfbench from source and runs one workload.

Usage (from the repository root):

    python3 pfbench/run.py --workload web_hot --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/pfbench (default .bench_build/pfbench)
as a Release build of pfbench/CMakeLists.txt. The benchmark's output is passed
through unchanged; its last line is the JSON result. The exit status is the
benchmark's (nonzero when the build fails or an oracle check fails).
"""

import argparse
import ctypes
import os
import subprocess
import sys

WORKLOADS = ("web_hot", "build_fork", "attack_churn", "hooks_mt")
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 870


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "pfbench")


def build(out):
    """Configures (once) and builds the pfbench target; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "pfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout carries only results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("pfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, "pfbench")


ADDR_NO_RANDOMIZE = 0x0040000


def no_aslr():
    """Runs in the child before exec: turns off address-space randomization,
    so every run gets the same memory layout (layout luck otherwise moves the
    results by several percent from process to process)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(out, "spans-%s.tsv" % args.workload)]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False,
                              preexec_fn=no_aslr)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.exit("pfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
