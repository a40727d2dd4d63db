#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run it.

    python3 e2e/run.py --workload gzip-full --seed 1 --seconds 10 --trace 0

All arguments go to e2e.exe (see e2e/README.md). The build runs with the
shared dune cache disabled, so it reads and writes only inside the
checkout (under _build/). Build output goes to stderr; the last line of
stdout is the benchmark's JSON result. A failed build exits 1 without a
result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "e2e", "e2e.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./e2e/e2e.exe"],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
    except FileNotFoundError:
        print("e2e: dune not found", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("e2e: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
