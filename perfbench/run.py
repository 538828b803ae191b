#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The simulator and the benchmark are built with dune into .bench_build/
(release profile, dune cache off, so nothing is written outside the
checkout), then perfbench/main.exe runs the workload.  Its last line of
standard output is the JSON result; its exit code is passed through.
Outside a full checkout the script exits with code 2 and prints no
result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Identify the code under test: git HEAD when there is one, else a
    digest of every tracked-looking source file."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench", "dune-project"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if f.endswith((".ml", ".mli", "dune", "dune-project")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    for need in ("dune-project", os.path.join("lib", "core"), os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found under %s: run from a full checkout of the repository" % (need, ROOT))
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % build.returncode)
    env["PERFBENCH_COMMIT"] = source_digest()
    sys.stdout.flush()
    run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, env=env, check=False)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
