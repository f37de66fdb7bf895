#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is built from source in
release mode into _perfbench_build/ (the first run builds, later runs
reuse it), then run with the given arguments; its standard output, whose
last line is the JSON result, is passed through and its exit code
returned. Build output goes to standard error. Exits nonzero without a
result when the tree cannot be built.
"""

import os
import subprocess
import sys

BUILD_DIR = "_perfbench_build"
TARGET = "./perfbench/perfbench.exe"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def main():
    root = os.getcwd()
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of a checkout: %s is missing" % needed)
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(root, BUILD_DIR, "xdg-cache")
    env["XDG_CONFIG_HOME"] = os.path.join(root, BUILD_DIR, "xdg-config")
    build = [
        "dune", "build", "--root", ".", "--profile", "release",
        "--build-dir", BUILD_DIR, "-j", "2", "--display", "quiet", TARGET,
    ]
    try:
        result = subprocess.run(build, env=env, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if result.returncode != 0:
        fail("build failed with code %d" % result.returncode)
    exe = os.path.join(root, BUILD_DIR, "default", "perfbench", "perfbench.exe")
    sys.stdout.flush()
    try:
        result = subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
