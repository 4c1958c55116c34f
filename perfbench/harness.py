"""Closed-loop case runner and the end-to-end metrics computed from it.

A workload is a fixed cycle of cases.  The runner repeats whole cycles,
starting a new one only while the run has time left; the next case
starts only when the previous one has finished.  Cases that can only
end at the time limit run once, after the cycles.

Timings are taken per input: each distinct case keeps the median wall
time of its repetitions in the run (once per cycle, or more where the
cycle repeats it).  The machines this runs on are shared, and their
speed swings by up to 1.7x within a second, in stretches from
milliseconds to minutes long.  The fastest repetition of a case depends
on whether a fast stretch as long as the case came by, which for cases
of ten milliseconds and more it does in some runs and not in others;
the median of a few dozen repetitions moves far less from run to run.
The median and the tail are then taken over one cycle, each case at its
median time, so every run weighs each rung the same.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent


class Undecided(Exception):
    """The case hit its time limit or node budget: no verdict, not a wrong one."""


class Mismatch(Exception):
    """A verdict differs from its pinned answer."""


class TimeLimit(Undecided):
    pass


def expect(ok, what):
    if not ok:
        raise Mismatch(what)


def load_answers():
    return json.loads((HERE / "answers.json").read_text())


@contextmanager
def time_limit(seconds):
    """Interrupt the main thread after `seconds` with TimeLimit (0 = no limit)."""
    if not seconds:
        yield
        return

    def on_alarm(signum, frame):
        raise TimeLimit(f"time limit of {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Case:
    kind: str  # the rung, e.g. "MO4" or "check-axioms/machine"
    run: Callable[[], None]  # raw description to verdict; raises Mismatch or Undecided


@dataclass
class Workload:
    cycle: list  # Cases, repeated whole
    warmup: list  # untimed Cases run during set-up
    time_limit: float = 0.0  # per case, seconds; 0 = none
    once: list = field(default_factory=list)  # Cases run once per run, after the cycles
    cleanup: Callable[[], None] = lambda: None


@dataclass
class Tally:
    samples: dict = field(default_factory=dict)  # Case -> list of seconds
    attempted: int = 0
    undecided: Counter = field(default_factory=Counter)
    wrong: list = field(default_factory=list)  # messages
    timeouts: int = 0  # undecided cases stopped by the time limit
    cut: set = field(default_factory=set)  # Cases the time limit stopped
    rss_before_timeout_mb: float | None = None
    elapsed: float = 0.0
    cycles: int = 0

    def cycle_ms(self, cases):
        """The case times of one cycle, each case at its median, ascending."""
        return sorted(statistics.median(self.samples[case]) * 1000.0 for case in cases)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def run_case(case, limit, tally):
    rss = peak_rss_mb()
    t0 = time.perf_counter()
    try:
        with time_limit(limit):
            case.run()
    except TimeLimit:
        tally.timeouts += 1
        tally.cut.add(case)
        tally.undecided[case.kind] += 1
        if tally.rss_before_timeout_mb is None:
            tally.rss_before_timeout_mb = rss
    except Undecided:
        tally.undecided[case.kind] += 1
    except Mismatch as exc:
        tally.wrong.append(f"{case.kind}: {exc}")
    except Exception as exc:  # an unexpected exception is a wrong verdict, not a crash
        tally.wrong.append(f"{case.kind}: unexpected {type(exc).__name__}: {exc}")
    dt = time.perf_counter() - t0
    tally.attempted += 1
    tally.samples.setdefault(case, []).append(dt)


def measure(workload, seconds, on_case=None, between=None):
    """Run whole cycles, then the run-once cases, in about `seconds`.

    The cycles stop early enough to leave each run-once case its time
    limit.  `between(elapsed)` is called after each cycle, outside case
    timing.
    """
    tally = Tally()
    cycles_end = seconds - workload.time_limit * len(workload.once)
    start = time.perf_counter()

    def run_all(cases):
        for case in cases:
            if on_case is not None:
                on_case(case, tally.attempted)
            run_case(case, workload.time_limit, tally)

    while tally.cycles == 0 or time.perf_counter() - start < cycles_end:
        run_all(workload.cycle)
        tally.cycles += 1
        if between is not None:
            between(time.perf_counter() - start)
    run_all(workload.once)
    tally.elapsed = time.perf_counter() - start
    return tally


def cases_per_s(tally, cases):
    """Cases per second of one cycle, each case at its median time.

    Cases the time limit stopped are left out: their time is the limit,
    a constant of the harness, not work the program did.
    """
    ms = tally.cycle_ms([case for case in cases if case not in tally.cut])
    return len(ms) / (sum(ms) / 1000.0)


def end_to_end(tally, cases, setup_s):
    """The end-to-end metrics, plus the facts the human summary states.

    `cases` is one cycle plus the run-once cases.  The tail is the
    highest percentile of these with ten cases beyond it.  Peak RSS stops
    at the first case cut by the time limit: how far that case got, and
    so what it allocated, depends on the host's speed.
    """
    ms = tally.cycle_ms(cases)
    n = len(ms)
    k = max(0, n - 11)  # 0-based rank with ten values above it
    metrics = {
        "case_p50_ms": (statistics.median(ms), "ms"),
        "case_tail_ms": (ms[k], "ms"),
        "cases_per_s": (cases_per_s(tally, cases), "1/s"),
        "decided_share": (1.0 - sum(tally.undecided.values()) / tally.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (tally.rss_before_timeout_mb or peak_rss_mb(), "MB"),
    }
    facts = {
        "wrong_share": len(tally.wrong) / tally.attempted,
        "tail_pct": 100.0 * (k + 1) / n,
        "tail_beyond": n - k - 1,
        "cycle_cases": n,
        "attempted": tally.attempted,
        "cycles": tally.cycles,
        "elapsed_s": tally.elapsed,
        "undecided": dict(tally.undecided),
    }
    return metrics, facts
