"""witness-search: two systems -> search_witness, under one fixed node budget.

Covers `subentity`.  Injection enumeration is the whole cost.  Whether a
witness exists is pinned per pair; a found witness is checked for
covariance here, not with the library's verify_witness.

Pairs without a witness are drawn as seeded presentations: the search
enumerates every injection, so their node counts do not depend on the
labeling (B3 -> C3xC3 takes 986 409 nodes under any of them).  Pairs
with a witness keep the constructors' labeling, because relabeling moves
the least witness in lexicographic order and the node count with it
(MO2 -> B4: 401 nodes as built, 0.8e6 to 1.1e7 relabeled), which would
make exhaustion depend on the seed.  The budget sits 20% above the
largest decided pair; B3 -> MO4 and MO3 -> MO4 need 4.4e6 nodes for a
full enumeration, so they exhaust it on every seed and count as
undecided.  One unlimited run decided both "none".
"""

from __future__ import annotations

import random
from functools import partial

import numpy as np

from subentity_lab import lattice, sps, subentity

from harness import Case, Undecided, Workload, expect, load_answers
from lattices import NAMED, relabel
from quantum import make_inputs, proj

BUDGET = 1_200_000

# (part, whole, copies per cycle, seeded relabeling).  The copies place the
# median inside B2 -> MO3 and the tail (11th-slowest of 34) inside B2 -> MO4.
PAIRS = (
    ("B3", "B3", 2, False), ("MO2", "MO2", 2, False), ("O6", "O6", 2, False),
    ("B2", "B4", 2, False), ("MO2", "B4", 2, False),
    ("pure", "bell", 2, False), ("B2", "MO3", 2, True), ("B2", "MO4", 12, True),
    ("MO2", "MO4", 1, True), ("B3", "C3xC3", 1, True),
    ("B3", "MO4", 1, True), ("MO3", "MO4", 1, True),
)
MODELS = ("model-2x2", "model-2x3")  # completed-model pairs, two copies each per cycle
# Each pair is one seeded input, repeated `copies` times per cycle.


def _ket(*amps):
    v = np.array(amps, dtype=complex)
    return v / np.linalg.norm(v)


def pure_and_bell():
    """Pure-state qubit part and a compound with a Bell state: no witness exists."""
    z0, z1, plus, minus = _ket(1, 0), _ket(0, 1), _ket(1, 1), _ket(1, -1)
    basis = [proj(v) for v in (z0, z1, plus, minus)]
    part = sps.quantum_sps(basis, basis).sps
    lifted = [np.kron(P, np.eye(2)) for P in basis]
    states = [proj(np.kron(v, z0)) for v in (z0, z1, plus, minus)]
    states.append(proj(_ket(1, 0, 0, 1)))
    whole = sps.quantum_sps(states, lifted).sps
    return part, whole


def completed_pair(rng, dims):
    """Part and whole of a seeded completed model; the canonical witness exists."""
    inp = make_inputs(rng, dims, "coatoms")
    model = subentity.build_completed_model(dims, inp["wholes"], inp["props"])
    return model.part.sps, model.whole.sps


def _atomic(name, rng=None):
    presentation = NAMED[name]()
    if rng is not None:
        presentation = relabel(presentation, rng)
    return sps.atomic_sps(lattice.build_lattice(*presentation))


def covariant(part, whole, w):
    m_onto = sorted(set(w.m)) == list(range(part.num_states))
    n_into = len(set(w.n)) == len(w.n)
    return m_onto and n_into and all(
        (a in part.xi[w.m[q]]) == (w.n[a] in whole.xi[q])
        for q in range(whole.num_states) for a in range(part.lattice.size))


def search_case(part, whole, expected):
    try:
        w = subentity.search_witness(part, whole, budget=BUDGET)
    except subentity.BudgetExhausted:
        raise Undecided(f"budget of {BUDGET} nodes exhausted")
    got = "none" if w is None else "found"
    expect(got == expected, f"search says {got}, pinned {expected}")
    if w is not None:
        expect(covariant(part, whole, w), "returned witness is not covariant")


def systems(rng):
    """(pair name, part, whole, copies) for every pair, then the models."""
    out = []
    for part, whole, copies, relabeled in PAIRS:
        if part == "pure":
            p, w = pure_and_bell()
        else:
            draw = rng if relabeled else None
            p, w = _atomic(part, draw), _atomic(whole, draw)
        out.append((f"{part}->{whole}", p, w, copies))
    nrng = np.random.default_rng(rng.randrange(2 ** 32))
    for name, dims in zip(MODELS, ((2, 2), (2, 3))):
        out.append((name, *completed_pair(nrng, dims), 2))
    return out


def build(seed):
    rng = random.Random(seed)
    answers = load_answers()["witness-search"]
    cycle = []
    for name, p, w, copies in systems(rng):
        cycle += [Case(name, partial(search_case, p, w, answers[name]))] * copies
    rng.shuffle(cycle)
    p, w = _atomic("B2"), _atomic("B4")
    warmup = [Case("B2->B4", partial(search_case, p, w, answers["B2->B4"]))]
    return Workload(cycle, warmup)
