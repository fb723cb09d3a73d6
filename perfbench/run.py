#!/usr/bin/env python3
"""Build dashsim's end-to-end benchmark from source and run one workload.

Run from the root of a dashsim checkout:

    python3 perfbench/run.py --workload paper16 --seed 0 --seconds 30 --trace 0

The benchmark is a CMake project of its own (perfbench/CMakeLists.txt)
that compiles the library from src/ in Release mode into .bench_build/.
Build output goes to stderr; the last line of stdout is the benchmark's
JSON result. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("paper16", "mesh256", "quick_checked")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dashsim_perfbench")
# The whole run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env,
                          stdout=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def src_digest():
    """sha256 over src/, so results stay attributable without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    for needed in ("src/CMakeLists.txt", "bench/data/scaling"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full dashsim checkout")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out", os.path.join(BUILD, "out"),
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
    if r.returncode:
        fail(f"benchmark exited with code {r.returncode}")


if __name__ == "__main__":
    main()
