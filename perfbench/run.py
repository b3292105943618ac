#!/usr/bin/env python3
"""Builds the mapping server and the load generator from this checkout's
sources, runs one workload and relays its report; the last line of standard
output is the run's JSON result.

    python3 perfbench/run.py --workload warm_map --seed 1 --seconds 10 --trace 0

The build lives in $CARGO_TARGET_DIR (default .bench_build) under the
checkout, and is reused by later runs. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm_map", "cold_layout", "failover", "stateless_requery")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The commit when the checkout is a git work tree, else a digest of
    the program's sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def build(build_dir):
    for var in ("CXXFLAGS", "CFLAGS", "LDFLAGS", "CMAKE_CXX_FLAGS"):
        if "-fsanitize" in os.environ.get(var, ""):
            fail("refusing to report from a sanitizer build (%s)" % var, 3)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.exists(os.path.join(ROOT, "tools", "lamactl.cpp")):
        fail("no program sources next to the benchmark in " + ROOT, 2)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "perfbench", "lamactl"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step), 2)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seconds > 60:
        fail("--seconds must be 1..60", 2)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    build(build_dir)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--lamactl", os.path.join(build_dir, "lamactl"),
               "--workdir", os.path.join(build_dir, "run-%d" % os.getpid()),
               "--commit", source_id()]
    # Own process group, so a timeout also stops the server it spawned.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.rstrip("\n").split("\n")
    if child.returncode != 0:
        sys.stderr.write(out)
        fail("benchmark exited with %d" % child.returncode, child.returncode or 1)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line", 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
