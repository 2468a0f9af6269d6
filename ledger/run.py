#!/usr/bin/env python3
"""Builds the ledger benchmark from source and runs one workload.

    python3 ledger/run.py --workload figures --seed 1 --seconds 20 --trace 0
    python3 ledger/run.py --selftest

The build goes to .bench_build/ledger under the repository root
(Release, configured once, rebuilt incrementally). The benchmark's
result is the last line of standard output; build logs go to standard
error. Exit status: the benchmark's (0 all verdicts correct, 1 a wrong
verdict, 2 usage or build error).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
RUN_TIMEOUT_S = 170


def fail(message):
    print("ledger: " + message, file=sys.stderr)
    sys.exit(2)


def quiet(command, timeout):
    """Runs `command`; on failure echoes its output to stderr and exits."""
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout,
                              check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail("%s: %s" % (" ".join(command), error))
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode("utf-8", "replace")[-4000:])
        fail("command failed: " + " ".join(command))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to the benchmark")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        quiet(["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    quiet(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
          timeout=840)
    return os.path.join(BUILD, target)


def git_sha():
    """The commit of a git checkout at ROOT; empty elsewhere.

    The ceiling keeps git from searching the directories above ROOT.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, env=env, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return head.stdout.decode().strip() if head.returncode == 0 else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["figures", "serve_hot", "serve_cold"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("ledger_selftest")
        benchmark_json = os.path.join(ROOT, "BENCHMARK.json")
        sys.exit(subprocess.run([binary, benchmark_json],
                                timeout=RUN_TIMEOUT_S).returncode)
    if args.workload is None:
        fail("--workload is required")

    binary = build("ledger")
    env = dict(os.environ, LEDGER_GIT_SHA=git_sha())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", BUILD]
    try:
        done = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
