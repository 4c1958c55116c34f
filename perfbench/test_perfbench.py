"""The benchmark's own tests, apart from the library's suite.

    python3 -m pytest perfbench -q

The smoke test runs one cycle of each workload (the run-once MO5 left
out: at the seed its only outcome is a timeout) and requires every
pinned answer to match.
"""

from __future__ import annotations

import time

import pytest

import run

run._import_library()

import compare  # noqa: E402
from harness import Case, Tally, TimeLimit, Workload, cases_per_s, measure, time_limit  # noqa: E402


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_pinned_answers_match(workload):
    assert run.smoke([workload]) == 0


def test_time_limit_interrupts_and_disarms():
    with pytest.raises(TimeLimit):
        with time_limit(0.05):
            while True:
                pass
    with time_limit(0.05):
        pass
    time.sleep(0.1)  # a stale timer would fire here



def test_cases_per_s_leaves_out_cases_the_time_limit_stopped():
    fast, cut = Case("fast", lambda: None), Case("cut", lambda: None)
    tally = Tally(samples={fast: [0.03, 0.01, 0.01], cut: [6.0]}, cut={cut})
    assert cases_per_s(tally, [fast, fast, cut]) == pytest.approx(100.0)


def test_measure_runs_the_run_once_cases_after_the_cycles():
    order = []
    cycle = [Case("a", lambda: order.append("a"))]
    once = [Case("once", lambda: order.append("once"))]
    tally = measure(Workload(cycle, [], time_limit=0.05, once=once), 0.02)
    assert order[-1] == "once" and order.count("once") == 1
    assert tally.attempted == len(order) and tally.cycles == len(order) - 1


def test_tracer_patches_names_where_they_are_called():
    from subentity_lab import axioms, lattice, sps, subentity
    from tracing import Tracer

    originals = (sps.meet_projection, axioms.automorphisms, axioms.meet,
                 subentity.close_projections, lattice.build_lattice)
    tracer = Tracer()
    tracer.install()
    try:
        patched = (sps.meet_projection, axioms.automorphisms, axioms.meet,
                   subentity.close_projections, lattice.build_lattice)
        assert all(p is not o for p, o in zip(patched, originals))
        sps.atomic_sps(lattice.build_lattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
    finally:
        tracer.uninstall()
    assert (sps.meet_projection, axioms.automorphisms, axioms.meet,
            subentity.close_projections, lattice.build_lattice) == originals
    m = tracer.layer_metrics(0)
    assert m["lattice.build_lattice.calls"][0] == 1
    assert m["lattice.build_lattice.elements"][0] == 4
    assert m["sps.build_sps.calls"][0] == 1
    assert m["lattice.meet.calls"][0] == 2  # one per state in build_sps
    # self time excludes the child span: atomic_sps calls build_sps
    total = {name: end - start for name, start, end, _, _ in tracer.spans}
    assert m["sps.atomic_sps.busy_s"][0] == pytest.approx(
        total["sps.atomic_sps"] - total["sps.build_sps"])


def test_benchmark_json_lists_every_traced_metric():
    from tracing import per_layer_names

    listed = [m["name"] for m in compare.SPEC["per_layer"]]
    traced = [name for name, _ in per_layer_names()]
    assert listed[:len(traced)] == traced
    assert all(name.startswith("trace.") for name in listed[len(traced):])


def test_compare_verdicts():
    a = {s: 100.0 + s for s in range(10)}
    assert compare.verdict(a, {s: v * 0.7 for s, v in a.items()}, "lower", 0.1)[0] == "improved"
    assert compare.verdict(a, {s: v * 1.3 for s, v in a.items()}, "lower", 0.1)[0] == "regressed"
    assert compare.verdict(a, {s: v * 1.01 for s, v in a.items()}, "lower", 0.1)[0] == "within bound"
    wide = {s: 100.0 * (1 + s % 2) for s in range(10)}
    assert compare.verdict(wide, a, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(a, {s: v * 1.3 for s, v in a.items()}, "higher", 0.1)[0] == "improved"
