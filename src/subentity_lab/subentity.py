"""Subentity witnesses: verification, exhaustive search, and the quantum models.

A subentity witness is a pair (m, n): a surjective state map from the
compound system onto the part and an injective property map from the part
into the compound, covariant in the sense that a property is actual in
m(p') exactly when its image is actual in p'.  The search exploits that
covariance fully determines the actual-set of m(p'): candidate images are
the part states p with xi(p) = n^{-1}(xi'(p')).  Both sides are read as
bit rows, xi(p) = up[strongest[p]], so a candidate lookup is one dict
probe on the preimage mask, and the least onto m for a given injection n
follows from counting candidates, without search.

The quantum constructions reproduce both halves of the story: with
pure-only part states an entangled compound state has no witness; with
density-operator part states the canonical pair (partial trace, tensoring
with the identity) verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import hilbert
from .hilbert import EPS, DensityOperator, Projection, born, find_operator, partial_trace, tensor
# close_projections is not called here; it is imported because
# perfbench/test_perfbench.py::test_tracer_patches_names_where_they_are_called
# reads subentity.close_projections
from .sps import QuantumSPS, _born_sps, close_projections, quantum_sps  # noqa: F401


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
    part: QuantumSPS  # prop_ops: the meet-closed projections on the part space
    whole: QuantumSPS  # state_ops: the density operators on the full space
    witness: SubentityWitness
    eps: float  # the actuality tolerance the model was built with


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
    for pw, s in enumerate(whole.strongest):
        row, image_row = part.lattice.up[part.strongest[w.m[pw]]], whole.lattice.up[s]
        differ = row ^ _preimage(image_row, w.n)
        if differ:
            a = (differ & -differ).bit_length() - 1
            return WitnessReport(
                False, "covariance",
                f"compound state {pw}, part property {a}: "
                f"actual in m(p')={w.m[pw]} is {bool(row >> a & 1)} "
                f"but image actual in p' is {bool(image_row >> w.n[a] & 1)}")
    return WitnessReport(True)


def _preimage(row, n):
    """The mask of the properties a whose image n[a] is in the bit row `row`."""
    out = 0
    for a, y in enumerate(n):
        if row >> y & 1:
            out |= 1 << a
    return out


DEFAULT_BUDGET = 10_000_000  # injections search_witness tries unless told otherwise


def search_witness(part, whole, budget=DEFAULT_BUDGET):
    """Exhaustive deterministic search for a subentity witness.

    Tries the injections n in lexicographic order over property indices;
    each injection tried spends one node.  Covariance fixes the actual-set
    row of m(p') as the n-preimage of p''s row, so the compound states fall
    into classes by that preimage, and n fails at the first preimage that
    no part state has.  Otherwise m is read off without search: it can be
    onto exactly when each class is at least as large as the set of part
    states with its row, and within a class of k compound states and j such
    part states, the least onto m maps the first k - j + 1 to the least
    part state and the rest, in order, to the others.  Classes are
    independent, so that m is lexicographically least.  Returns the least
    witness in (n, m) order, or None after a completed exhaustive search.
    Raises BudgetExhausted when the node limit is hit.
    """
    by_row = {}  # actual-set row -> the part states with it, ascending
    for p, s in enumerate(part.strongest):
        by_row.setdefault(part.lattice.up[s], []).append(p)
    rows_w = [whole.lattice.up[s] for s in whole.strongest]
    injections = permutations(range(whole.lattice.size), part.lattice.size)
    for nodes, n in enumerate(injections, 1):
        if nodes > budget:
            raise BudgetExhausted(budget)
        classes = {}  # preimage row -> the compound states with it, ascending
        for pw, row in enumerate(rows_w):
            inv = _preimage(row, n)
            if inv not in by_row:
                break
            classes.setdefault(inv, []).append(pw)
        else:
            if all(len(classes.get(row, ())) >= len(ps) for row, ps in by_row.items()):
                m = [0] * len(rows_w)
                for row, members in classes.items():
                    ps = by_row[row]
                    surplus = len(members) - len(ps)
                    for k, pw in enumerate(members):
                        m[pw] = ps[max(k - surplus, 0)]
                return SubentityWitness(m=tuple(m), n=n)
    return None


def build_completed_model(dims, whole_states, part_props, eps=EPS):
    """Quantum subentity model with the canonical (partial trace, tensor) witness.

    Part states are the deduplicated partial traces of the whole states.
    P -> P tensor identity preserves meets, order and the sort key, so the
    whole inherits the part's lattice and labels, and the returned witness
    maps each whole state to its reduction and each property to itself.
    """
    dA, dB = dims
    wholes = [hilbert._carrier(DensityOperator, W) for W in whole_states]
    if any(W.dim != dA * dB for W in wholes):
        raise hilbert.DimensionMismatch("whole states must live on the dA*dB space")
    part_states, m = [], []
    for W in wholes:
        R = partial_trace(W, dA, dB, keep="A")
        i = find_operator([S.matrix for S in part_states], R.matrix)
        if i is None:
            i = len(part_states)
            part_states.append(R)
        m.append(i)
    part_q = quantum_sps(part_states, part_props, eps)
    whole_projs = [Projection(tensor(P.matrix, np.eye(dB))) for P in part_q.prop_ops]
    whole_q = _born_sps(wholes, whole_projs, part_q.sps.lattice, eps)
    return CompletedQuantumModel(
        part_dims=(dA, dB),
        part=part_q,
        whole=whole_q,
        witness=SubentityWitness(m=tuple(m), n=tuple(range(len(whole_projs)))),
        eps=eps,
    )


def canonical_witness_check(model):
    """Covariance of the canonical witness, stated directly on Born values:

    Tr(W' (P x I)) reaches certainty exactly when Tr(Tr_G(W') P) does,
    certainty read under the tolerance the model was built with.  The
    partial trace of each whole state is taken here again, on purpose:
    the model keeps, for each reduction, the first part state within
    EPS_MATCH of it, so reading that state would repeat verify_witness's
    covariance check instead of testing the reduction itself.
    """
    dA, dB = model.part_dims
    eps = model.eps
    for W in model.whole.state_ops:
        R = partial_trace(W, dA, dB, keep="A")
        for P, PI in zip(model.part.prop_ops, model.whole.prop_ops):
            if (born(W, PI) >= 1.0 - eps) != (born(R, P) >= 1.0 - eps):
                return False
    return True
