"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload battery-ladder --seed 1 --seconds 50 --trace 0

Runs from the root of a checkout and imports the library from its
`src/`.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The lines before it
state every metric by name with its unit, the wrong-verdict share, and
the tail percentile with its sample count.

--trace 1 spends the first half of the run untraced and the second half
traced, reports the drop in cases per second between the halves as the
tracing overhead, and writes the spans to .perfbench-out/.

--smoke runs each named workload (default: all) for one cycle and exits
non-zero on any wrong verdict.  --out DIR appends a record of the run to
DIR/results.jsonl for perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin BLAS threads before numpy loads: single-process, single-thread runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    "battery-ladder": "battery",
    "quantum-completion": "quantum",
    "witness-search": "search",
    "cli-files": "clifiles",
}
SETUP_REPS = 7
# Run in a fresh interpreter: the time to import numpy and the package.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t0 = time.perf_counter(); "
    "import numpy, subentity_lab.cli; print(time.perf_counter() - t0)"
)


def _import_library():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import subentity_lab.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"cannot import the library from {ROOT / 'src'}: {exc}")
    import subentity_lab
    if Path(subentity_lab.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"imported subentity_lab from {subentity_lab.__file__}, not from this checkout")


def set_up(module, seed):
    """Build the workload: seeded inputs, scratch files, the warm-up cases."""
    workload = module.build(seed)
    for case in workload.warmup:
        case.run()
    return workload


def time_set_up(module, seed):
    """Seconds for one whole set-up, thrown away afterwards.

    The imports are timed in a fresh interpreter (this process has them
    already), the rest here.
    """
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    t0 = time.perf_counter()
    set_up(module, seed).cleanup()
    return float(out) + time.perf_counter() - t0


class SetUpClock:
    """SETUP_REPS timed set-ups spread evenly over the run; reports their median.

    The host's speed drifts over seconds to minutes, so set-ups timed
    back to back at the start would all catch the same moment.
    """

    def __init__(self, module, seed, seconds):
        self.module, self.seed, self.seconds = module, seed, seconds
        self.times = [time_set_up(module, seed)]

    def between(self, elapsed):
        if (len(self.times) < SETUP_REPS
                and elapsed >= len(self.times) * self.seconds / SETUP_REPS):
            self.times.append(time_set_up(self.module, self.seed))

    def median(self):
        while len(self.times) < SETUP_REPS:
            self.times.append(time_set_up(self.module, self.seed))
        return statistics.median(self.times)


def _emit(report, metrics, lines):
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<40} {value:>14.6g} {unit}")
    for line in lines:
        print(line)
    print(json.dumps(report))


def run(args):
    from harness import end_to_end, measure

    _import_library()
    module = __import__(WORKLOADS[args.workload])
    workload = set_up(module, args.seed)
    try:
        if not args.trace:
            clock = SetUpClock(module, args.seed, args.seconds)
            tally = measure(workload, args.seconds, between=clock.between)
            metrics, facts = end_to_end(tally, workload.cycle + workload.once, clock.median())
            attempted, wrong = tally.attempted, tally.wrong
        else:
            metrics, facts, attempted, wrong = traced(workload, args)
    finally:
        workload.cleanup()
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    lines += [f"  wrong: {msg}" for msg in wrong[:20]]
    if not args.trace:
        lines.append(f"{'wrong_share':<40} {facts['wrong_share']:>14.6g} ratio")
        lines.append(f"case_tail_ms is p{facts['tail_pct']:.1f} of the {facts['cycle_cases']} "
                     f"cases of a cycle, each at its median ({facts['tail_beyond']} beyond it); "
                     f"{facts['attempted']} cases in {facts['cycles']} cycles, "
                     f"{facts['elapsed_s']:.2f} s; undecided {facts['undecided']}")
    report = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, **report, "facts": facts}
        with open(out / "results.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")
    _emit(report, metrics, lines)


def traced(workload, args):
    from harness import cases_per_s, measure
    from tracing import Tracer

    half = args.seconds / 2.0
    plain = measure(workload, half)
    tracer = Tracer()

    def on_case(case, index):
        tracer.case = f"{case.kind}#{index}"

    tracer.install()
    try:
        traced_tally = measure(workload, half, on_case)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(traced_tally.timeouts)
    cps_plain = cases_per_s(plain, workload.cycle)
    cps_traced = cases_per_s(traced_tally, workload.cycle)
    metrics["trace.cases_per_s_untraced"] = (cps_plain, "1/s")
    metrics["trace.cases_per_s_traced"] = (cps_traced, "1/s")
    metrics["trace.overhead_share"] = ((cps_plain - cps_traced) / cps_plain, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.tsv")
    facts = {"attempted": plain.attempted + traced_tally.attempted}
    return metrics, facts, plain.attempted + traced_tally.attempted, plain.wrong + traced_tally.wrong


def smoke(names):
    """One cycle of each workload; returns the number of wrong verdicts.

    The run-once cases are left out: at the seed their only outcome is a
    timeout.
    """
    from harness import Tally, run_case

    _import_library()
    wrong = 0
    for name in names:
        module = __import__(WORKLOADS[name])
        workload = module.build(0)
        try:
            tally = Tally()
            for case in dict.fromkeys(workload.warmup + workload.cycle):  # each input once
                run_case(case, workload.time_limit, tally)
        finally:
            workload.cleanup()
        print(f"{name}: {tally.attempted} cases, {len(tally.wrong)} wrong, "
              f"undecided {dict(tally.undecided)}")
        for msg in tally.wrong:
            print(f"  wrong: {msg}")
        wrong += len(tally.wrong)
    return wrong


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="append a record of the run to OUT/results.jsonl")
    ap.add_argument("--smoke", action="store_true", help="one cycle per workload, check verdicts")
    args = ap.parse_args(argv)
    if args.smoke:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return 1 if smoke(names) else 0
    if args.workload is None:
        ap.error("--workload is required")
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
