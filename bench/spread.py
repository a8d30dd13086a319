#!/usr/bin/env python3
"""Runs the benchmark ten times per workload, each time on another seed, and
prints for every end-to-end metric the median and the spread the driver judges:
the distance between the first and third quartile as a share of the median.

    python3 bench/spread.py [first-seed [out.json [workload ...]]]     (from the checkout)

out.json holds the medians in the layout of the benchmark's own -out files, so
two sets of runs can be compared with `bench -check set-a.json set-b.json`.
"""
import json
import statistics
import subprocess
import sys

first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
spec = json.load(open("BENCHMARK.json"))
out = {"seed": first, "seconds": spec["run_seconds"], "runs_per_workload": 10, "workloads": {}}
for load in spec["workloads"]:
    if sys.argv[3:] and load["name"] not in sys.argv[3:]:
        continue
    runs = []
    for seed in range(first, first + 10):
        cmd = spec["command"] + ["--workload", load["name"], "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        last = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()[-1]
        runs.append(json.loads(last))
    summary = {"correct": all(r["correct"] for r in runs), "attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs), "metrics": {}}
    out["workloads"][load["name"]] = summary
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        summary["metrics"][m["name"]] = {"value": med, "unit": m["unit"], "spread": spread, "values": values}
        steady = "" if spread < m["bound"] / 3 or m["name"] == "setup_s" else "  above a third of the bound"
        print(f'{load["name"]:13} {m["name"]:16} median {med:12.6g}  spread {spread:7.2%}  bound {m["bound"]:4.0%}{steady}',
              flush=True)
    assert summary["correct"] and summary["failed"] == 0, (load["name"], summary)
if len(sys.argv) > 2:
    with open(sys.argv[2], "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
