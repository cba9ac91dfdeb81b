#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 bench/e2e/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds bench/e2e/nrlbench.exe with dune in the release profile (build
output goes to stderr), then replaces itself with the benchmark process,
whose last line of standard output is the result JSON.  A traced run
writes its nrl-trace/1 stream to bench/e2e/traces/.  See README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXE = os.path.join(os.path.relpath(HERE, ROOT), "nrlbench.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    dune = [shutil.which("dune")] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ".", "--profile", "release", "--cache", "disabled",
                "--display", "quiet", "./" + EXE],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(f"run.py: building {EXE} failed")

    exe = os.path.join(ROOT, "_build", "default", EXE)
    args = [exe, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    if a.trace:
        traces = os.path.join(HERE, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace", os.path.join(traces, f"{a.workload}-seed{a.seed}.ndjson")]
    os.execv(exe, args)


if __name__ == "__main__":
    main()
