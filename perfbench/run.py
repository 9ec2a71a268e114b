#!/usr/bin/env python3
"""Builds and runs the emulator benchmark.

    python3 perfbench/run.py --workload eft-backlog --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
emulator libraries plus the perfbench binary (Release) under
.bench_build/perfbench/build; later runs only rebuild what changed. The
binary's stdout is passed through unchanged: its last line is the JSON
result. The exit code is the binary's (0 = every check passed), or 2 when
the build fails, in which case no result is printed.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_DIR = BENCH_DIR / "build"
BUILD_LOG = BENCH_DIR / "build.log"
PINS = Path(__file__).resolve().parent / "pins.txt"


def build() -> Path:
    BENCH_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(BUILD_LOG, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                if "-S" in step:
                    # Configure again next time instead of building a
                    # half-configured tree.
                    (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
                sys.stderr.write(BUILD_LOG.read_text()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % BUILD_LOG)
                sys.exit(2)
    return BUILD_DIR / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--pins", str(PINS),
               "--out-dir", str(BENCH_DIR / "out")]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
