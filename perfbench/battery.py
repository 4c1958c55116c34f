"""battery-ladder: order pairs -> build_lattice -> atomic_sps -> run_battery.

Covers `lattice` and `axioms`.  Most rungs are drawn as fresh seeded
presentations of a fixed lattice, so the verdict string is pinned per
rung.  MO5 is out of reach at the seed (plane transitivity alone takes
minutes): it runs once per run, after the cycles, under the per-case
time limit.
"""

from __future__ import annotations

import random
from functools import partial

from subentity_lab import axioms, lattice, sps

from harness import Case, Workload, expect, load_answers
from lattices import NAMED, relabel

# (rung, presentations, copies of each per cycle).  Many presentations
# average out labeling-dependent costs; copies give cheap inputs more
# repetitions for their median.  Slowest first, each case at its median:
# MO5, MO4, B5 twice, then the 14 MO3 inputs, so the tail (the
# 11th-slowest) is the middle MO3 input, whose cost is mostly
# automorphisms() and plane transitivity.  The median falls among the
# overlapping B3, MO2 and C3xC3 inputs of about a millisecond.
RUNGS = (
    ("B2", 6, 2), ("B3", 6, 2), ("B4", 8, 2), ("MO2", 6, 2), ("MO3", 14, 1),
    ("C2xC4", 6, 2), ("C3xC3", 6, 2), ("C3xC4", 6, 2),
    ("O6", 6, 2), ("N5", 6, 2), ("COV", 6, 2),
    ("B5", 1, 2), ("MO4", 1, 1), ("MO5", 1, 0),
)
# One input each, so they keep their built labeling: across labelings
# B5 takes 49 to 187 ms and MO4 1.3 to 1.8 s, which would make the
# throughput of a run depend on its seed.
BUILT = {"B5", "MO4", "MO5"}
ONCE = {"MO5"}

# At the seed MO4 takes about 1.5 s and MO5 at least 155 s, so no
# case runs between a third of the limit and three times it.
TIME_LIMIT_S = 6.0


def verdict_string(passed):
    """One letter per axiom in AXIOM_ORDER: T pass, F fail, ? witness-dependent."""
    return "".join({True: "T", False: "F", None: "?"}[p] for p in passed)


def battery_case(size, pairs, expected):
    L = lattice.build_lattice(size, pairs)
    S = sps.atomic_sps(L)
    got = verdict_string(v.passed for v in axioms.run_battery(S))
    expect(got == expected, f"verdicts {got}, pinned {expected}")


def build(seed):
    rng = random.Random(seed)
    answers = load_answers()["battery-ladder"]
    cycle, once = [], []
    for rung, presentations, copies in RUNGS:
        for _ in range(presentations):
            size, pairs = NAMED[rung]() if rung in BUILT else relabel(NAMED[rung](), rng)
            case = Case(rung, partial(battery_case, size, pairs, answers[rung]))
            if rung in ONCE:
                once.append(case)
            else:
                cycle += [case] * copies
    rng.shuffle(cycle)
    size, pairs = relabel(NAMED["B3"](), rng)
    warmup = [Case("B3", partial(battery_case, size, pairs, answers["B3"]))]
    return Workload(cycle, warmup, time_limit=TIME_LIMIT_S, once=once)
