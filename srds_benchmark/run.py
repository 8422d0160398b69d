#!/usr/bin/env python3
"""Build srds_benchmark from source, then run it once.

Usage, from the root of the repository:

    python3 srds_benchmark/run.py --workload ba_snark --seed 1 --seconds 20 --trace 0

The first call configures srds_benchmark/ into .bench_build/ (RelWithDebInfo)
and compiles the protocol libraries from src/; later calls only rebuild what
changed. Every argument is passed on to the binary (see README.md). Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. The exit code is the binary's, or 1 when the build fails.
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    os.makedirs(BUILD, exist_ok=True)
    # Concurrent runs in one checkout share the build directory.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = any(
            os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")
        )
        if not configured:
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                + generator,
                stdout=sys.stderr,
                check=True,
            )
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", "srds_benchmark", "-j", jobs],
            stdout=sys.stderr,
            check=True,
        )


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "srds_benchmark")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
