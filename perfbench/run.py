#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload compile|serve|simulate \
        --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune, runs it, and prints its
result as the last line of standard output: one JSON object with the
keys correct, attempted, failed and metrics.  The executable reports
metric values by name; the units come from BENCHMARK.json (end_to_end
with --trace 0, per_layer with --trace 1).  With --trace 0 the names
must match end_to_end exactly.  With --trace 1 every name must be a
per_layer metric, and a layer the workload never reaches reports 0.
Any mismatch, build failure or crash exits non-zero without printing
a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

TARGET = "./perfbench/perfbench.exe"
EXE = "./_build/default/perfbench/perfbench.exe"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    for path in ("BENCHMARK.json", "dune-project", "lib"):
        if not os.path.exists(path):
            fail("run from the repository root: %s is missing" % path)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", "--cache=disabled", TARGET],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail("run exited with code %d" % run.returncode)
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    result = json.loads(lines[-1])

    trace = args.trace == "1"
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    values = result["metrics"]
    extra = sorted(set(values) - set(units))
    missing = sorted(set(units) - set(values))
    if extra or (missing and not trace):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra))
    if not all(isinstance(v, (int, float)) for v in values.values()):
        fail("a metric is not a number")
    result["metrics"] = {
        name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
