#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs it.

    python3 perfbench/run.py --workload paper32 --seed 42 --seconds 30 --trace 0

Run it from the root of a checkout. The first call configures and builds a
Release tree in .bench_build (a few minutes); later calls rebuild only what
changed. Build output goes to stderr. Every argument is passed on to the
rasc_perfbench binary (see README.md); this script adds the git revision and,
for traced runs, a span file under .bench_build/spans/. The binary's exit
code is returned; a failed build exits 1 without printing a result.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")


def build(targets):
    """Configures (once) and builds `targets`; returns True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run {step[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def revision():
    """Git revision of the checkout, or a note when it is not a git tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if head.returncode != 0:
        return "unknown"
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def main(argv):
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", default="42")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--spans")
    known, _ = parser.parse_known_args(argv)

    if not build(["rasc_perfbench"]):
        return 1
    args = list(argv) + ["--revision", revision()]
    if known.trace == "1" and known.spans is None:
        args += ["--spans", os.path.join(
            BUILD, "spans", f"{known.workload}-seed{known.seed}.jsonl")]
    binary = os.path.join(BUILD, "rasc_perfbench")
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
