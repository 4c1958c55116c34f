"""Finite state property systems.

A state property system couples a finite state set with a complete
property lattice through dual actuality maps xi (properties actual in a
state) and kappa (states making a property actual), subject to the
top/bottom condition and meet closure.  The quantum construction derives
such a system from density operators and projections via the Born rule;
it closes the projections under meets once, meeting each pair once, and
reads the order off those meets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .hilbert import EPS, DensityOperator, Projection, born, find_operator, meet_projection
from .lattice import FiniteLattice, build_lattice, meet


class SPSError(Exception):
    pass


class Def1TopBottomViolation(SPSError):
    """Some state misses the top property or contains the bottom one."""

    def __init__(self, state, reason):
        self.state = state
        self.reason = reason
        super().__init__(f"state {state}: {reason}")


class Def1MeetClosureViolation(SPSError):
    """Meet closure of the actual-property sets fails for some state."""

    def __init__(self, state, family):
        self.state = state
        self.family = tuple(family)
        super().__init__(f"state {state}: meet closure fails on family {self.family}")


@dataclass(frozen=True)
class StatePropertySystem:
    num_states: int
    lattice: FiniteLattice
    xi: tuple  # per state, frozenset of actual property indices
    kappa: tuple  # per property, frozenset of state indices


def build_sps(lattice, num_states, actuality):
    """Construct and verify a state property system from a boolean table.

    actuality[p][a] says whether property a is actual in state p.  The
    kappa columns are derived from the rows, so duality holds by
    construction; the top/bottom condition and meet closure are verified
    and violations raised.  Meet closure (a meet is actual iff every
    member is) holds for a finite actual-property set exactly when the set
    is the principal filter of its own meet m, so a violation names either
    the whole set (m is not actual) or the pair (m, x) for the first x
    above m that is not actual.
    """
    if len(actuality) != num_states or any(len(row) != lattice.size for row in actuality):
        raise SPSError("actuality table dimensions do not match")
    xi = tuple(frozenset(a for a in range(lattice.size) if row[a]) for row in actuality)
    for p in range(num_states):
        if lattice.top not in xi[p]:
            raise Def1TopBottomViolation(p, "top property is not actual")
        if lattice.bottom in xi[p]:
            raise Def1TopBottomViolation(p, "bottom property is actual")
        m = meet(lattice, xi[p])
        if m not in xi[p]:
            raise Def1MeetClosureViolation(p, sorted(xi[p]))
        for x in range(lattice.size):
            if lattice.leq[m][x] and x not in xi[p]:
                raise Def1MeetClosureViolation(p, (m, x))
    kappa = tuple(
        frozenset(p for p in range(num_states) if a in xi[p]) for a in range(lattice.size)
    )
    return StatePropertySystem(num_states=num_states, lattice=lattice, xi=xi, kappa=kappa)


def state_preorder(S, p, q):
    """p < q iff every property actual in q is actual in p."""
    return S.xi[q] <= S.xi[p]


def property_preorder(S, a, b):
    """a < b iff every state making a actual makes b actual."""
    return S.kappa[a] <= S.kappa[b]


def atomic_sps(lattice):
    """Canonical system over a lattice: one state per atom, actual-set its up-set.

    Up-sets are filters, so the construction always satisfies the
    defining conditions; used for exercising the axiom battery on bare
    lattices.
    """
    if not lattice.atoms:
        raise SPSError("lattice has no atoms")
    actuality = [
        [bool(lattice.leq[atom][a]) for a in range(lattice.size)] for atom in lattice.atoms
    ]
    return build_sps(lattice, len(lattice.atoms), actuality)


# ---------------------------------------------------------------------------
# quantum construction


@dataclass(frozen=True)
class QuantumSPS:
    """A state property system plus the operators its indices stand for."""

    sps: StatePropertySystem
    state_ops: tuple  # DensityOperator per state index
    prop_ops: tuple  # Projection per lattice element index
    duplicate_states: tuple = ()  # pairs of state indices with identical xi rows


def _closure(prop_ops, dim):
    """Meet closure of prop_ops with zero and identity, and its order pairs.

    A worklist meets each projection kept once with every one kept before
    it; i <= j exactly when meet(i, j) = i.  Sorted by (rank, entries), which
    fixes the labeling the pairs are given on.
    """
    kept = np.array([np.zeros((dim, dim)), np.eye(dim)], dtype=complex)

    def index(M):
        nonlocal kept
        i = find_operator(kept, M)
        if i is None:
            i, kept = len(kept), np.concatenate([kept, [M]])
        return i

    for k, P in enumerate(prop_ops):
        M = P.matrix if isinstance(P, Projection) else np.asarray(P, dtype=complex)
        if M.shape != (dim, dim):
            raise hilbert.DimensionMismatch(f"property {k} has shape {M.shape}, not {(dim, dim)}")
        index(M)
    meets, k = {}, 1
    while k < len(kept):  # kept grows while the meets with k are taken
        for j in range(k):
            meets[j, k] = index(meet_projection(kept[j], kept[k]).matrix)
        k += 1
    projs = [Projection(M) for M in kept]
    rounded = [np.round(P.matrix, 6) for P in projs]
    order = sorted(range(len(projs)), key=lambda i: (
        projs[i].rank, tuple(rounded[i].real.ravel()), tuple(rounded[i].imag.ravel())))
    label = {i: pos for pos, i in enumerate(order)}
    pairs = [(label[j], label[k]) if m == j else (label[k], label[j])
             for (j, k), m in meets.items() if m in (j, k)]
    return [projs[i] for i in order], pairs


def close_projections(prop_ops, dim):
    """Meet closure of a projection list, augmented with zero and identity.

    Returns deduplicated Projection values sorted by (rank, entries) so
    the induced lattice labeling is deterministic.
    """
    return _closure(prop_ops, dim)[0]


def quantum_sps(state_ops, prop_ops, eps=EPS):
    """State property system induced by density operators and projections.

    The property list is meet-closed and augmented with zero and identity;
    the order is range inclusion, read off the meets (P <= Q iff P ^ Q = P);
    a property is actual in a state when the Born value reaches 1 - eps.
    Distinct state operators with identical actuality rows are reported as
    duplicates, not rejected.
    """
    states = [W if isinstance(W, DensityOperator) else DensityOperator(W) for W in state_ops]
    if not states:
        raise SPSError("at least one state operator required")
    dim = states[0].dim
    if any(W.dim != dim for W in states):
        raise hilbert.DimensionMismatch("state operators on different spaces")
    projs, pairs = _closure(prop_ops, dim)
    return _born_sps(states, projs, build_lattice(len(projs), pairs), eps)


def _born_sps(states, projs, lattice, eps):
    """The Born-rule half of quantum_sps, on a lattice already labeled like projs."""
    actuality = [[born(W, P) >= 1.0 - eps for P in projs] for W in states]
    sps = build_sps(lattice, len(states), actuality)
    dupes = tuple(
        (p, q)
        for p in range(len(states))
        for q in range(p + 1, len(states))
        if sps.xi[p] == sps.xi[q]
    )
    return QuantumSPS(sps=sps, state_ops=tuple(states), prop_ops=tuple(projs),
                      duplicate_states=dupes)
