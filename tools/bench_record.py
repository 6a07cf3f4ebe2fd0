"""Record one benchmark run per workload as BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N

Run from anywhere inside a checkout. Each workload named in
BENCHMARK.json runs once through ``perfbench/run.py`` with tracing off,
seed 0, for the file's ``run_seconds``. The record
keeps each run's result line (``correct``, attempted and failed ops,
the end-to-end metrics), its environment line (commit, source hash,
interpreter, numpy and CPU) and ``src_status``, the lines of
``git status --porcelain -- src`` when it ran, so a run on a tree that
differs from its commit says so. It is written to the root of the
checkout.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
ENV_PREFIX = "environment: "


def parse_run(stdout):
    """The environment record and the result line that end a ``run.py`` output."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith(ENV_PREFIX):
        raise ValueError("run.py output does not end in its environment and result lines")
    return json.loads(lines[-2][len(ENV_PREFIX):]), json.loads(lines[-1])


def src_status(root):
    """``git status --porcelain -- src`` of the checkout at ``root``, one entry a line."""
    return subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                          capture_output=True, text=True, check=True).stdout.splitlines()


def run_workload(name, seconds):
    proc = subprocess.run([sys.executable, RUN, "--workload", name, "--seed", "0",
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}")
    environment, result = parse_run(proc.stdout)
    return {"environment": environment, "src_status": src_status(ROOT), **result}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    args = parser.parse_args()
    record = {"pr": args.pr, "workloads": {}}
    for workload in bench["workloads"]:
        name = workload["name"]
        run = run_workload(name, bench["run_seconds"])
        record["workloads"][name] = run
        print(f"{name}: {run['failed']}/{run['attempted']} failed, correct {run['correct']}",
              file=sys.stderr)
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)


if __name__ == "__main__":
    main()
