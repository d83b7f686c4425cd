#!/usr/bin/env python3
"""Build the rtcc benchmark from source and run one workload.

Usage (from the repository root):

    python3 rtccbench/run.py --workload corpus|capture|service \
        --seed N --seconds S --trace 0|1 [--tiny]
    python3 rtccbench/run.py --test

The first call configures and builds rtccbench/ (which compiles ../src)
in Release under .bench_build/; later calls rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Working files live in .bench_build/work/ and
are cleared before every run. --test builds the benchmark's own tests
and runs them with ctest.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "rtccbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def check(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("command failed: " + " ".join(cmd))


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("rtcc sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        check(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(len(os.sched_getaffinity(0)))
    for target in targets:
        check(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs])


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """sha256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["corpus", "capture", "service"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes")
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.test:
        build(["rtccbench", "rtccbench_tests"])
        return subprocess.run(["ctest", "--output-on-failure"],
                              cwd=BUILD_DIR).returncode
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    build(["rtccbench"])
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    cmd = [os.path.join(BUILD_DIR, "rtccbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", WORK_DIR, "--commit", commit(),
           "--source-digest", source_digest()]
    if args.tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
