"""Pin the expected answer of every benchmark rung and cross-check it.

    python3 perfbench/pin.py           # recompute at seed 0, compare with answers.json
    python3 perfbench/pin.py --write   # recompute and rewrite answers.json

The answers come from one run of the code under test at seed 0.  Each is
then checked against a reference that code does not supply:

- battery-ladder: lattices of at most 10 elements against the literal
  quantified oracles of tests/test_axioms.py, each axiom evaluated over
  all permutations.  MO5 times out at the seed; its string is the one
  every MO_n, n = 2..4, gets, and the plane-transitivity F follows
  because s1 v s2 is the top for any two distinct atoms of MO_n, so only
  the identity fixes that interval.
- witness-search: every pair by one search with no node budget ("none"
  included), and by the double enumeration of all injections and
  surjections in tests/test_subentity.py where that stays below a few
  million candidates.
- quantum-completion and cli-files: against the sizes the constructions
  imply (a Boolean 2^dA lattice from coatoms, k + 2 elements from k
  rank-1 projections, one part state per whole state, the lab-world
  lattice of the chosen certainly-yes domains).  The numerical checks
  (eigvalsh, reconstructions, purities) run inside every case.
Takes about half a minute: the 10-element permutation scans dominate.
"""

from __future__ import annotations

import io
import json
import math
import random
import shutil
import sys

import run  # noqa: F401  (pins BLAS threads)

run._import_library()
# The brute-force oracles of the library's own tests: read-only use.
sys.path.insert(0, str(run.ROOT / "tests"))

import numpy as np  # noqa: E402
from subentity_lab import cli, lattice, sps, subentity  # noqa: E402
from subentity_lab.axioms import run_battery  # noqa: E402
from test_axioms import (  # noqa: E402
    oracle_atomicity,
    oracle_covering_law,
    oracle_irreducibility,
    oracle_orthocomplementations,
    oracle_plane_transitivity,
    oracle_state_determination,
    oracle_weak_modularity,
)
from test_subentity import oracle_witnesses  # noqa: E402

import battery  # noqa: E402
import clifiles  # noqa: E402
import quantum  # noqa: E402
import search  # noqa: E402
from harness import HERE  # noqa: E402
from lattices import NAMED  # noqa: E402

ORACLE_MAX = 10


def oracle_battery(L):
    """The battery's verdict string, axiom by axiom from the test oracles."""
    S = sps.atomic_sps(L)
    comps = oracle_orthocomplementations(L)

    def over_comps(oracle):
        if not comps:
            return False
        seen = {oracle(L, c) for c in comps}
        return None if len(seen) > 1 else seen.pop()

    return battery.verdict_string([
        oracle_state_determination(S),
        oracle_atomicity(S),
        bool(comps),
        oracle_covering_law(L),
        over_comps(oracle_weak_modularity),
        oracle_plane_transitivity(L),
        over_comps(oracle_irreducibility),
        False,
    ])


def _enumeration_size(part, whole):
    return (math.perm(whole.lattice.size, part.lattice.size)
            * part.num_states ** whole.num_states)


# --- pinning ----------------------------------------------------------------


def pin_battery(problems):
    out = {}
    for rung, _, _ in battery.RUNGS:
        L = lattice.build_lattice(*NAMED[rung]())
        if rung == "MO5":
            out[rung] = out["MO4"]  # see the module docstring
            continue
        got = battery.verdict_string(v.passed for v in run_battery(sps.atomic_sps(L)))
        if L.size <= ORACLE_MAX:
            ref = oracle_battery(L)
            if ref != got:
                problems.append(f"battery {rung}: code {got}, oracle {ref}")
        out[rung] = got
        print(f"battery {rung:<6} {got}", flush=True)
    return out


def pin_search(problems):
    out = {}
    for name, part, whole, _ in search.systems(random.Random(0)):
        w = subentity.search_witness(part, whole, budget=10 ** 12)
        got = "none" if w is None else "found"
        if w is not None and not search.covariant(part, whole, w):
            problems.append(f"search {name}: returned witness is not covariant")
        if _enumeration_size(part, whole) <= 3_000_000:
            ref = "found" if oracle_witnesses(part, whole) else "none"
            if ref != got:
                problems.append(f"search {name}: code {got}, oracle {ref}")
        out[name] = got
        print(f"search {name:<12} {got}", flush=True)
    return out


def pin_quantum(problems):
    out = {}
    rng = np.random.default_rng(0)
    for dims in quantum.DIMS:
        for parts in quantum.PARTS:
            name = quantum.rung_name(dims, parts)
            inp = quantum.make_inputs(rng, dims, parts)
            model = subentity.build_completed_model(dims, inp["wholes"], inp["props"])
            got = {
                "part_lattice": model.part.sps.lattice.size,
                "whole_lattice": model.whole.sps.lattice.size,
                "part_states": len(model.part.state_ops),
                "covariance": subentity.canonical_witness_check(model),
                "verified": subentity.verify_witness(model.part.sps, model.whole.sps,
                                                     model.witness).ok,
            }
            size = 2 ** dims[0] if parts == "coatoms" else len(inp["props"]) + 2
            ref = {"part_lattice": size, "whole_lattice": size,
                   "part_states": len(inp["wholes"]), "covariance": True, "verified": True}
            if got != ref:
                problems.append(f"quantum {name}: code {got}, construction {ref}")
            out[name] = got
            print(f"quantum {name:<12} {got}", flush=True)
    return out


def pin_cli(problems):
    out = {}
    work = clifiles.WORK_ROOT / "pin"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths, _, _ = clifiles.write_files(random.Random(0), np.random.default_rng(0), work)
        for key, cmd in (("lecce-build", ["lecce-build", str(paths["world-4x128"])]),
                         ("subentity-quantum", ["subentity-quantum", str(paths["model-2x2"])])):
            buf = io.StringIO()
            cli.run_cli(cmd + ["--format", "machine"], stdout=buf)
            v = json.loads(buf.getvalue())["verdicts"][0]
            keep = (("built", "num_states", "num_properties", "lattice_size")
                    if key == "lecce-build" else
                    ("canonical_covariance", "witness_verified", "part_states"))
            out[key] = {k: v[k] for k in keep}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    refs = {"lecce-build": {"built": True, "num_states": len(clifiles.PREPARERS),
                            "num_properties": len(clifiles.IDEAL_DOMAINS),
                            "lattice_size": len(clifiles.IDEAL_DOMAINS) + 1},
            "subentity-quantum": {"canonical_covariance": True, "witness_verified": True,
                                  "part_states": 5}}
    for key, ref in refs.items():
        if out[key] != ref:
            problems.append(f"cli {key}: code {out[key]}, construction {ref}")
    print(f"cli {out}", flush=True)
    return out


def main(argv):
    problems = []
    answers = {
        "battery-ladder": pin_battery(problems),
        "quantum-completion": pin_quantum(problems),
        "cli-files": pin_cli(problems),
        "witness-search": pin_search(problems),
    }
    path = HERE / "answers.json"
    if "--write" in argv and not problems:
        path.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    elif path.exists() and json.loads(path.read_text()) != answers:
        problems.append("answers.json differs from this run")
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
