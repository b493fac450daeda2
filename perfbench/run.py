#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune into .bench_build (or the directory
named by CARGO_TARGET_DIR), runs it with the same arguments and relays
its output. The last line of standard output is the result object. The
metric names it prints are checked against BENCHMARK.json. Exits non-zero
when the sources are missing, the build fails, an output check fails or
the run overruns its time limit.
"""

import json
import os
import subprocess
import sys

RUN_LIMIT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    root = os.getcwd()
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of a source checkout (%s is missing)" % need)
    args = sys.argv[1:]
    if "--trace" not in args:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    trace = args[args.index("--trace") + 1] if args.index("--trace") + 1 < len(args) else ""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir, "--profile", "release",
         "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed", 1)
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + args, stdout=subprocess.PIPE, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_LIMIT_S, 1)
    out = run.stdout.decode()
    sys.stdout.write(out)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode if run.returncode > 0 else 1)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    got = set(json.loads(out.strip().splitlines()[-1])["metrics"])
    if want != got:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(want ^ got), 1)


if __name__ == "__main__":
    main()
