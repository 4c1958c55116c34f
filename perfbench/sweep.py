"""Run the benchmark over several seeds and collect one result set.

    python3 perfbench/sweep.py --out .perfbench-results/a --seeds 1-10
    python3 perfbench/sweep.py --out .perfbench-results/b --seeds 1-10 --workloads witness-search

Each run is untraced and in its own process, one after another,
appending to OUT/results.jsonl; compare two sets with
perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default="all", help="comma-separated names, or all")
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = ap.parse_args(argv)
    names = ([w["name"] for w in SPEC["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    failures = 0
    for name in names:
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0", "--out", args.out]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print(f"{name} seed {seed}: exit {proc.returncode} {last[:160]}", flush=True)
            if proc.returncode != 0:
                failures += 1
                print(proc.stderr[-2000:], file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
