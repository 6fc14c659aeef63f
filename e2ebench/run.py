#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload outsource_cold --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The repository's own CMakeLists.txt is
configured as a Release build with tests, benches and examples off, plus
this directory's hook.cmake, into .bench_build/; only the e2ebench target
and the libraries it links are built. Spans of a traced run and the
checkpoints of the stateful workloads go under .bench_out/ (removed again
when the run ends, except the span file).

The binary prints a host record, every metric with its unit and sample
count, and as its last line the JSON result object; its exit code is
passed through. Any other extra argument (--smoke, --inject-mismatch)
goes to the binary unchanged.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2ebench", "e2ebench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.stderr.write("e2ebench: no repository sources next to %s\n" % HERE)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = [
            "cmake", "-S", ROOT, "-B", BUILD,
            "-DCMAKE_BUILD_TYPE=Release",
            "-DDPE_BUILD_TESTS=OFF",
            "-DDPE_BUILD_BENCHES=OFF",
            "-DDPE_BUILD_EXAMPLES=OFF",
            "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "hook.cmake"),
        ]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        sys.stderr.write("e2ebench: build failed\n")
        return 2
    result = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
