#!/usr/bin/env python3
"""Build and run the pipeline benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep_paper --seed 1 --seconds 15 --trace 0

Run from the root of a loopspec checkout. The script configures and
builds perfbench/ (which compiles the library from src/) into the
directory named by CARGO_TARGET_DIR, or .bench_build, then runs the
perfbench binary with the given arguments. Build output goes to stderr;
the binary's standard output passes through unchanged, so its last line
is the JSON result. Extra arguments (--scale, --inject) are forwarded.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over every file under src/ (path and bytes), sorted."""
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


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "speculation",
                                       "sweep.hh")):
        fail("no loopspec src/ tree next to perfbench/; run from a checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    cmd = [binary] + sys.argv[1:] + [
        "--work-dir", os.path.join(build_dir, "perfbench_work"),
        "--git-commit", git_commit(),
        "--source-digest", source_digest(),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
