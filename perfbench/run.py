#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fleet-dense --seed 1 --seconds 30 --trace 0

Builds perfbench/perfbench.exe with dune (release profile, build cache
off, output under _build/), then runs it with the same arguments.  The
program's last line of standard output is the JSON result; build output
goes to standard error.  Exits non-zero, without a result, when the
checkout has no sources to build or the build fails.
"""

import argparse
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ("identify-paper", "fleet-dense", "fleet-sparse")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the root of a full checkout",
                  file=sys.stderr)
            return 2

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "--cache", "disabled",
         "--display", "quiet", "./perfbench/perfbench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
