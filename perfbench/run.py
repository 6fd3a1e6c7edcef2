#!/usr/bin/env python3
"""Build the server and the load generator from this checkout, then run
one benchmark workload (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload assembly-build --seed 1 --seconds 10 --trace 0

The last line on stdout is the result object {"correct", "attempted",
"failed", "metrics"}; every metric with its unit and the oracle verdicts
go to stderr.  `--workload all` runs every workload untraced and then
traced, printing each table, and exits non-zero if any run fails.
"""

import os
import subprocess
import sys

WORKLOADS = ["assembly-build", "assembly-contend", "snapshot-browse"]
ORION = "_build/default/bin/orion.exe"
LOADGEN = "_build/default/perfbench/loadgen.exe"
SOURCES = ["dune-project", "bin/orion.ml", "lib/client/orion_client.mli", "perfbench/loadgen.ml"]


def build():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        print("perfbench: not the root of an orion-composite checkout (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return False
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "--cache=disabled",
           "./bin/orion.exe", "./perfbench/loadgen.exe"]
    # Build output goes to stderr: stdout carries only the result.
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def option(args, key):
    return args[args.index(key) + 1] if key in args and args.index(key) + 1 < len(args) else None


def main(args):
    if not build():
        return 2
    loadgen = [LOADGEN, "--orion", ORION]
    if option(args, "--workload") != "all":
        os.execv(LOADGEN, loadgen + args)
    picked = ("--workload", "--trace")
    rest = [a for i, a in enumerate(args)
            if a not in picked and (i == 0 or args[i - 1] not in picked)]
    status = 0
    for trace in ("0", "1"):
        for w in WORKLOADS:
            run = subprocess.run(loadgen + rest + ["--workload", w, "--trace", trace])
            status = status or run.returncode
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
