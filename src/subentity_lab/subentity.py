"""Subentity witnesses: verification, exhaustive search, and the quantum models.

A subentity witness is a pair (m, n): a surjective state map from the
compound system onto the part and an injective property map from the part
into the compound, covariant in the sense that a property is actual in
m(p') exactly when its image is actual in p'.  The search exploits that
covariance fully determines the actual-set of m(p'): candidate images are
the part states p with xi(p) = n^{-1}(xi'(p')).

The quantum constructions reproduce both halves of the story: with
pure-only part states an entangled compound state has no witness; with
density-operator part states the canonical pair (partial trace, tensoring
with the identity) verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .hilbert import EPS, DensityOperator, Projection, born, operators_equal, partial_trace, tensor
from .sps import QuantumSPS, StatePropertySystem, close_projections, quantum_sps


class SubentityError(Exception):
    pass


class DomainMismatch(SubentityError):
    pass


class BudgetExhausted(SubentityError):
    """Search hit the node limit before completing; distinct from 'no witness'."""

    def __init__(self, budget):
        self.budget = budget
        super().__init__(f"witness search exhausted its budget of {budget} nodes")


@dataclass(frozen=True)
class SubentityWitness:
    m: tuple  # compound state index -> part state index
    n: tuple  # part property index -> compound property index


@dataclass(frozen=True)
class WitnessReport:
    ok: bool
    clause: str | None = None  # "m_surjective" | "n_injective" | "covariance"
    detail: str = ""


@dataclass(frozen=True)
class CompletedQuantumModel:
    part_dims: tuple  # (dA, dB); the part lives on the dA factor
    whole_states: tuple  # DensityOperator on the full space
    part_props: tuple  # Projection on the part space (meet-closed)
    part: QuantumSPS
    whole: QuantumSPS
    witness: SubentityWitness


def verify_witness(part, whole, w):
    """Check surjectivity, injectivity, and covariance of a candidate witness.

    Returns a WitnessReport naming the first violated clause.
    """
    if len(w.m) != whole.num_states:
        raise DomainMismatch("m must assign every compound state")
    if len(w.n) != part.lattice.size:
        raise DomainMismatch("n must assign every part property")
    if any(not (0 <= x < part.num_states) for x in w.m):
        raise DomainMismatch("m image out of range")
    if any(not (0 <= x < whole.lattice.size) for x in w.n):
        raise DomainMismatch("n image out of range")
    if set(w.m) != set(range(part.num_states)):
        missing = sorted(set(range(part.num_states)) - set(w.m))
        return WitnessReport(False, "m_surjective", f"part states {missing} not covered")
    if len(set(w.n)) != len(w.n):
        return WitnessReport(False, "n_injective", "two part properties share an image")
    for pw in range(whole.num_states):
        for a in range(part.lattice.size):
            if (a in part.xi[w.m[pw]]) != (w.n[a] in whole.xi[pw]):
                return WitnessReport(
                    False, "covariance",
                    f"compound state {pw}, part property {a}: "
                    f"actual in m(p')={w.m[pw]} is {a in part.xi[w.m[pw]]} "
                    f"but image actual in p' is {w.n[a] in whole.xi[pw]}")
    return WitnessReport(True)


def search_witness(part, whole, budget=10_000_000):
    """Exhaustive deterministic search for a subentity witness.

    Enumerates injections n in lexicographic order over property indices;
    for each, the candidate images of a compound state p' are exactly the
    part states whose actual-set equals the n-preimage of xi'(p'), and a
    backtracking pass looks for a surjective assignment.  Returns the
    lexicographically least witness, or None after a completed exhaustive
    search.  Raises BudgetExhausted when the node limit is hit.
    """
    nprops = part.lattice.size
    nprops_w = whole.lattice.size
    nstates = part.num_states
    nstates_w = whole.num_states
    if nprops > nprops_w:
        return None
    xi_mask = [sum(1 << a for a in part.xi[p]) for p in range(nstates)]
    nodes = 0

    def spend(k=1):
        nonlocal nodes
        nodes += k
        if nodes > budget:
            raise BudgetExhausted(budget)

    n_assign = [-1] * nprops
    used = [False] * nprops_w

    def assign_m(candidates):
        m = [-1] * nstates_w
        needed = set(range(nstates))

        def go(i, remaining):
            spend()
            if i == nstates_w:
                return not remaining
            slots_left = nstates_w - i
            if len(remaining) > slots_left:
                return False
            for p in candidates[i]:
                m[i] = p
                if go(i + 1, remaining - {p}):
                    return True
            m[i] = -1
            return False

        if go(0, needed):
            return tuple(m)
        return None

    def try_n():
        # preimage mask per compound state under the current injection
        candidates = []
        for pw in range(nstates_w):
            inv = 0
            for a in range(nprops):
                if n_assign[a] in whole.xi[pw]:
                    inv |= 1 << a
            cand = [p for p in range(nstates) if xi_mask[p] == inv]
            if not cand:
                return None
            candidates.append(cand)
        return assign_m(candidates)

    result = None

    def enum_n(a):
        nonlocal result
        if result is not None:
            return
        if a == nprops:
            spend()
            m = try_n()
            if m is not None:
                result = SubentityWitness(m=m, n=tuple(n_assign))
            return
        for y in range(nprops_w):
            if not used[y]:
                spend()
                n_assign[a] = y
                used[y] = True
                enum_n(a + 1)
                used[y] = False
                n_assign[a] = -1
                if result is not None:
                    return

    enum_n(0)
    return result


def _find_op(ops, M):
    for i, O in enumerate(ops):
        if operators_equal(O.matrix, M):
            return i
    return None


def build_completed_model(dims, whole_states, part_props, eps=EPS):
    """Quantum subentity model with the canonical (partial trace, tensor) witness.

    Part states are the deduplicated partial traces of the whole states;
    part and whole state property systems are built through the Born-rule
    construction; the returned witness maps each whole state to its
    reduction and each part property P to P tensor identity.
    """
    dA, dB = dims
    wholes = [W if isinstance(W, DensityOperator) else DensityOperator(W) for W in whole_states]
    if any(W.dim != dA * dB for W in wholes):
        raise hilbert.DimensionMismatch("whole states must live on the dA*dB space")
    part_projs = close_projections(part_props, dA)
    reductions = [partial_trace(W, dA, dB, keep="A") for W in wholes]
    part_states = []
    for R in reductions:
        if _find_op(part_states, R.matrix) is None:
            part_states.append(R)
    part_q = quantum_sps(part_states, part_projs, eps)
    whole_projs = [Projection(tensor(P.matrix, np.eye(dB))) for P in part_q.prop_ops]
    whole_q = quantum_sps(wholes, whole_projs, eps)
    m = tuple(_find_op(part_q.state_ops, R.matrix) for R in reductions)
    n = []
    for P in part_q.prop_ops:
        idx = _find_op(whole_q.prop_ops, tensor(P.matrix, np.eye(dB)))
        if idx is None:
            raise SubentityError("tensor image of a part property missing from the whole lattice")
        n.append(idx)
    witness = SubentityWitness(m=m, n=tuple(n))
    model = CompletedQuantumModel(
        part_dims=(dA, dB),
        whole_states=tuple(wholes),
        part_props=tuple(part_q.prop_ops),
        part=part_q,
        whole=whole_q,
        witness=witness,
    )
    return model


def canonical_witness_check(model, eps=EPS):
    """Covariance of the canonical witness, stated directly on Born values:

    Tr(W' (P x I)) reaches certainty exactly when Tr(Tr_G(W') P) does.
    """
    dA, dB = model.part_dims
    for W in model.whole_states:
        R = partial_trace(W, dA, dB, keep="A")
        for P in model.part_props:
            lifted = tensor(P.matrix, np.eye(dB))
            if (born(W.matrix, lifted) >= 1.0 - eps) != (born(R, P) >= 1.0 - eps):
                return False
    return True
