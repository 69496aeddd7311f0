#!/usr/bin/env python3
"""Build and run the wdag benchmark for one workload.

    python3 wdagbench/run.py --workload upp-batch --seed 1 --seconds 10 --trace 0

Run from the root of a wdag checkout. Builds the library and the
benchmark binary from the checkout's sources into .bench_build/ (or
$CARGO_TARGET_DIR when set), then runs it; its last stdout line is the
JSON result. Exits non-zero without a result when the sources are
missing or the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    sys.stderr.write("wdagbench: %s\n" % msg)
    sys.exit(2)


def source_identity():
    """The git commit when the checkout is a git work tree of its own,
    else a hash of the source tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no wdag sources next to %s" % HERE)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "wdagbench", "wdag_cli",
         "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: %s" % " ".join(cmd))


def main():
    argv = sys.argv[1:]
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    build(build_dir)
    binary = os.path.join(build_dir, "wdagbench")
    cmd = [binary] + argv + [
        "--commit", source_identity(),
        "--wdag-bin", os.path.join(build_dir, "wdag", "wdag"),
        "--work-dir", os.path.join(build_dir, "work"),
    ]
    done = subprocess.run(cmd, cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
