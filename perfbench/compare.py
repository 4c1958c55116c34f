"""Compare two result sets, one row per workload x end-to-end metric.

    python3 perfbench/compare.py .perfbench-results/a .perfbench-results/b

A and B are directories written by sweep.py (or run.py --out).  Each row
shows the median and quartiles of both sets, the spread (quartile
distance over the median) of each, the change of B against A, and a
verdict against the metric's bound from BENCHMARK.json:

- unresolved:   a set's spread is wider than the bound, and B's runs do
                not all read better (or all worse) than A's;
- regressed:    B's median is worse than A's by more than the bound;
- improved:     B's median is better by more than A's spread, and B wins
                at least nine tenths of the seed-paired runs;
- within bound: otherwise.

Exits 1 if any row regressed or is unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(directory):
    """workload -> metric -> {seed: value}, from the untraced runs."""
    out = defaultdict(lambda: defaultdict(dict))
    for line in (Path(directory) / "results.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"]:
            continue
        for name, m in rec["metrics"].items():
            out[rec["workload"]][name][rec["seed"]] = m["value"]
    return out


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / abs(med) if med else 0.0
    return q1, med, q3, spread


def verdict(a, b, better, bound):
    """Verdict for B against A on one metric; a and b map seed -> value."""
    sign = 1.0 if better == "lower" else -1.0  # > 0 means worse
    qa, qb = summary(list(a.values())), summary(list(b.values()))
    worse = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    all_better = max(sign * v for v in b.values()) < min(sign * v for v in a.values())
    all_worse = min(sign * v for v in b.values()) > max(sign * v for v in a.values())
    if max(qa[3], qb[3]) > bound and not (all_better or all_worse):
        return "unresolved", worse, qa, qb
    if worse > bound:
        return "regressed", worse, qa, qb
    paired = [s for s in a if s in b]
    wins = sum(1 for s in paired if sign * b[s] < sign * a[s])
    if -worse > qa[3] and paired and wins >= 0.9 * len(paired):
        return "improved", worse, qa, qb
    return "within bound", worse, qa, qb


def main(argv):
    if len(argv) != 2:
        print(__doc__)
        return 2
    sets = [load(d) for d in argv]
    bad = 0
    print(f"{'workload':<19} {'metric':<14} {'A q1/median/q3':>30} {'B q1/median/q3':>30} "
          f"{'spreadA':>8} {'spreadB':>8} {'change':>8} {'bound':>6}  verdict")
    for w in SPEC["workloads"]:
        for m in SPEC["end_to_end"]:
            a, b = (s[w["name"]][m["name"]] for s in sets)
            if not a or not b:
                print(f"{w['name']:<19} {m['name']:<14} missing in one set")
                bad += 1
                continue
            v, worse, qa, qb = verdict(a, b, m["better"], m["bound"])
            bad += v in ("regressed", "unresolved")
            fa = "/".join(f"{x:.4g}" for x in qa[:3])
            fb = "/".join(f"{x:.4g}" for x in qb[:3])
            print(f"{w['name']:<19} {m['name']:<14} {fa:>30} {fb:>30} {qa[3]:>8.3f} "
                  f"{qb[3]:>8.3f} {worse:>+8.3f} {m['bound']:>6}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
