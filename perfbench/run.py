#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs it.

Usage (from the repository root):

    python3 perfbench/run.py
        [--workload paper_warm|paper_refresh|stream_slide|all]
        [--seed 2015] [--seconds 30] [--trace 0|1]

The build goes to .bench_build/perfbench (CMake, Release, the repository's
own top-level project); later runs only rebuild what changed. The last line
of standard output is the benchmark's JSON result. Exit codes: 0 success,
1 a result was wrong, 2 bad arguments or the run could not report, 3 the
build failed or the sources are missing, 4 timeout.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cloudjoin_perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

_child = None


def _stop_child(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def _run(cmd, timeout, capture):
    """Runs `cmd`, killing it (and waiting for it) on timeout."""
    global _child
    _child = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else None,
        stderr=subprocess.STDOUT if capture else None,
        text=True,
    )
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _child.kill()
        _child.communicate()
        return None, ""
    finally:
        code = _child.returncode
        _child = None
    return code, out or ""


def build():
    for required in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, required)):
            print(f"perfbench: {required} missing from {ROOT}", file=sys.stderr)
            return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target",
                  "cloudjoin_perfbench", "-j", "4"])
    for step in steps:
        code, out = _run(step, BUILD_TIMEOUT_S, capture=True)
        if code != 0:
            sys.stderr.write(out[-4000:])
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)
    if not build():
        return 3
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace_dir", BUILD]
    sys.stdout.flush()
    code, _ = _run(cmd, RUN_TIMEOUT_S, capture=False)
    if code is None:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
