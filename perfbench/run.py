#!/usr/bin/env python3
"""Build the perfbench program from this checkout and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep|interval|serve \
        --seed N --seconds S --trace 0|1

It is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench, relative to the repository root); an up-to-date
build costs one no-op `cmake --build`. Build output goes to stderr, so
the last line of stdout is always the program's JSON result. Exits
nonzero without a result when the repository sources are missing or
the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOBS = "4"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    cmake = shutil.which("cmake")
    if cmake is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        rc = subprocess.run(
            [cmake, "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            return None
    rc = subprocess.run(
        [cmake, "--build", out, "--target", "perfbench", "-j", JOBS],
        stdout=sys.stderr, stderr=sys.stderr).returncode
    if rc != 0:
        return None
    return os.path.join(out, "perfbench")


def main():
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print("perfbench: %s is missing; run from a full checkout"
                  % need, file=sys.stderr)
            return 2
    exe = build(build_dir())
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
