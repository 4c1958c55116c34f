"""Finite state property systems.

A state property system couples a finite state set with a complete
property lattice through dual actuality maps xi (properties actual in a
state) and kappa (states making a property actual), subject to the
top/bottom condition and meet closure.  Those conditions make xi(p) the
principal filter of its meet s(p), the strongest actual property, so a
system stores only s: p's actual set is the bit row `up[s(p)]` of the
lattice, and `xi` and `kappa` are frozenset views built on first use.
The quantum construction derives
such a system from density operators and projections via the Born rule;
it closes the projections under meets once, meeting each pair once, and
reads the order off those meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import hilbert
from .hilbert import EPS, DensityOperator, Projection, born, find_operator, meet_projection
from .lattice import FiniteLattice, _bits, build_lattice, meet


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
    strongest: tuple  # per state, the meet of its actual properties

    @cached_property
    def xi(self):
        """Per state, the frozenset of its actual properties: the up-set of its strongest."""
        return tuple(frozenset(_bits(self.lattice.up[s])) for s in self.strongest)

    @cached_property
    def kappa(self):
        """Per property, the frozenset of the states that make it actual."""
        up = self.lattice.up
        return tuple(frozenset(p for p, s in enumerate(self.strongest) if up[s] >> a & 1)
                     for a in range(self.lattice.size))


def build_sps(lattice, num_states, actuality):
    """Construct and verify a state property system from an actuality table.

    actuality[p][a] says whether property a is actual in state p; each row
    is read as a bit mask, and a row given as an int is that mask (bit a
    set iff a is actual).  The top/bottom condition and meet closure are
    verified and violations raised.  Meet closure (a meet is actual iff
    every member is) holds for a finite actual-property set exactly when
    the set is the principal filter of its own meet m, so a violation
    names either the whole set (m is not actual) or the pair (m, x) for
    the least x above m that is not actual.  The system keeps m per state.
    """
    size = lattice.size
    if len(actuality) != num_states or any(
            row >> size != 0 if isinstance(row, int) else len(row) != size
            for row in actuality):
        raise SPSError("actuality table dimensions do not match")
    up, top, bottom = lattice.up, lattice.top, lattice.bottom
    strongest = []
    for p, row in enumerate(actuality):
        mask = row if isinstance(row, int) else sum(1 << a for a, actual in enumerate(row) if actual)
        if not mask >> top & 1:
            raise Def1TopBottomViolation(p, "top property is not actual")
        if mask >> bottom & 1:
            raise Def1TopBottomViolation(p, "bottom property is actual")
        m = meet(lattice, _bits(mask))
        if not mask >> m & 1:
            raise Def1MeetClosureViolation(p, list(_bits(mask)))
        if mask != up[m]:
            missing = up[m] & ~mask
            raise Def1MeetClosureViolation(p, (m, (missing & -missing).bit_length() - 1))
        strongest.append(m)
    return StatePropertySystem(num_states=num_states, lattice=lattice, strongest=tuple(strongest))


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
    return build_sps(lattice, len(lattice.atoms), [lattice.up[atom] for atom in lattice.atoms])


# ---------------------------------------------------------------------------
# quantum construction


@dataclass(frozen=True)
class QuantumSPS:
    """A state property system plus the operators its indices stand for."""

    sps: StatePropertySystem
    state_ops: tuple  # DensityOperator per state index
    prop_ops: tuple  # Projection per lattice element index
    duplicate_states: tuple = ()  # pairs of state indices with identical actual sets


def _closure(prop_ops, dim):
    """Meet closure of prop_ops with zero and identity, and its order pairs.

    Every property is a Projection before any meet.  A worklist meets each
    projection kept once with every one kept before it; i <= j exactly when
    meet(i, j) = i.  Sorted by (rank, entries), which fixes the labeling the
    pairs are given on.
    """
    kept = [Projection(np.zeros((dim, dim))), Projection(np.eye(dim))]
    mats = np.array([P.matrix for P in kept])  # kept's matrices, stacked for find_operator

    def index(P):
        nonlocal mats
        i = find_operator(mats, P.matrix)
        if i is None:
            i, mats = len(kept), np.concatenate([mats, [P.matrix]])
            kept.append(P)
        return i

    for k, P in enumerate(prop_ops):
        P = hilbert._carrier(Projection, P)
        if P.dim != dim:
            raise hilbert.DimensionMismatch(f"property {k} has dim {P.dim}, not {dim}")
        index(P)
    meets, k = {}, 1
    while k < len(kept):  # kept grows while the meets with k are taken
        for j in range(k):
            meets[j, k] = index(meet_projection(kept[j], kept[k]))
        k += 1
    rounded = np.round(mats, 6)
    order = sorted(range(len(kept)), key=lambda i: (
        kept[i].rank, tuple(rounded[i].real.ravel()), tuple(rounded[i].imag.ravel())))
    label = {i: pos for pos, i in enumerate(order)}
    pairs = [(label[j], label[k]) if m == j else (label[k], label[j])
             for (j, k), m in meets.items() if m in (j, k)]
    return [kept[i] for i in order], pairs


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
    states = [hilbert._carrier(DensityOperator, W) for W in state_ops]
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
        if sps.strongest[p] == sps.strongest[q]
    )
    return QuantumSPS(sps=sps, state_ops=tuple(states), prop_ops=tuple(projs),
                      duplicate_states=dupes)
