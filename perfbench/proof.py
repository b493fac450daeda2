#!/usr/bin/env python3
"""Run the benchmark on several seeds and report the spread of each metric.

    python3 perfbench/proof.py [--workloads a,b] [--seeds N] [--first-seed S]
                               [--seconds S] [--out FILE] [--records FILE]

Runs `perfbench/run.py --trace 0` once per seed and workload, one after
the other, from the root of a checkout. For every end-to-end metric it
prints each seed's value, the median, and the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to a third of the metric's bound in BENCHMARK.json. With
--out the same table is appended to FILE as Markdown; with --records
each run's metrics and run record are appended to FILE as one JSON line.
Exits non-zero when a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, records):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
    if out.returncode != 0:
        sys.exit("%s seed %d failed with exit %d" % (workload, seed, out.returncode))
    lines = out.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("%s seed %d: outputs wrong" % (workload, seed))
    if records:
        record = next(l for l in lines if l.startswith("record "))[len("record "):]
        with open(records, "a") as f:
            f.write(json.dumps({"workload": workload, "seed": seed, "metrics": result["metrics"],
                                "record": json.loads(record)}) + "\n")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    ap.add_argument("--records")
    args = ap.parse_args()
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    lines = []
    for w in args.workloads.split(","):
        rows = [run(w, s, args.seconds, args.records) for s in seeds]
        start = len(lines)
        lines.append("%s, seeds %d-%d, --seconds %d" % (w, seeds[0], seeds[-1], args.seconds))
        lines.append("")
        lines.append("| metric | " + " | ".join(str(s) for s in seeds)
                     + " | median | IQR/median | bound/3 |")
        lines.append("|---" * (len(seeds) + 4) + "|")
        for m in spec["end_to_end"]:
            vs = [r[m["name"]] for r in rows]
            q = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            lines.append("| %s | %s | %.4g | %.3f | %.3f |" % (
                m["name"], " | ".join("%.4g" % v for v in vs), med, (q[2] - q[0]) / med,
                m["bound"] / 3))
        lines.append("")
        print("\n".join(lines[start:]), flush=True)
    if args.out:
        with open(args.out, "a") as f:
            f.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
