#!/usr/bin/env python3
"""Runtest smoke for nrlbench (run by `dune runtest` from the build tree).

Runs every workload of BENCHMARK.json at tiny sizes (--smoke), untraced
and traced, through the same code path as the timed runs, two at a time.
Each run must exit 0 with a correct result whose last output line is the
result JSON; every metric BENCHMARK.json names for the mode must be
printed as a "name value unit" line and in the JSON, with its unit and a
number; the trace must hold the root bench.workload span.
"""

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = json.load(open(os.path.join(HERE, "..", "..", "BENCHMARK.json")))
EXE = os.path.join(HERE, "nrlbench.exe")


def run(workload, trace_dir, traced):
    args = [EXE, "--workload", workload, "--seed", "1", "--seconds", "0.2", "--smoke"]
    trace = os.path.join(trace_dir, workload + ".ndjson")
    if traced:
        args += ["--trace", trace]
    p = subprocess.run(args, capture_output=True, text=True, timeout=120)
    where = f"{workload} ({'traced' if traced else 'untraced'})"
    if p.returncode != 0:
        return [f"{where}: exit {p.returncode}\n{p.stderr}"]
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        errors.append(f"{where}: not a clean result: {lines[-1]}")
    printed = {tuple(l.split()[0::2]): l for l in lines[:-1] if len(l.split()) == 3}
    for m in BENCH["per_layer" if traced else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if not got or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            errors.append(f"{where}: metric {m['name']} missing or malformed: {got}")
        line = printed.get((m["name"], m["unit"]))
        if line is None:
            errors.append(f"{where}: no '{m['name']} <value> {m['unit']}' line")
        else:
            float(line.split()[1])
    if traced:
        spans = [json.loads(l) for l in open(trace)]
        if not any(s.get("name") == "bench.workload" for s in spans):
            errors.append(f"{where}: trace has no bench.workload span")
    return errors


def main():
    names = [w["name"] for w in BENCH["workloads"]]
    with tempfile.TemporaryDirectory() as d, ThreadPoolExecutor(2) as pool:
        jobs = [pool.submit(run, w, d, t) for w in names for t in (False, True)]
        errors = [e for j in jobs for e in j.result()]
    for e in errors:
        print(e, file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
