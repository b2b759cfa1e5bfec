#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The OCaml benchmark (perfbench/main.ml)
is built with dune into the checkout's own _build directory; its stdout,
whose last line is the JSON result, is passed through unchanged, and its
exit code becomes this script's exit code.  A failed build exits nonzero
without printing a result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")) or not os.path.isdir(
        os.path.join(root, "lib")
    ):
        print("perfbench: run from the root of a checkout with its sources", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/main.exe"],
        cwd=root,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(root, EXE)] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
