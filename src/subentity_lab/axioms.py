"""Checkers for the eight quantum-structure axioms on a state property system.

Each checker returns an AxiomVerdict carrying either a witness (for
existence-flavored axioms, e.g. an orthocomplementation map) or a
counterexample (for universal ones).  `run_battery` evaluates all eight
in the fixed order of AXIOM_ORDER.

Strictness convention for the covering law: "a < x < a v b" is read with
strict inequalities and the conclusion disjunction non-strict (the
standard lattice-theoretic reading).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lattice import FiniteLattice, automorphisms, interval, meet
from .sps import StatePropertySystem


class AxiomError(Exception):
    pass


class NoOrthocomplementation(AxiomError):
    """A checker requiring an orthocomplementation found none."""


AXIOM_ORDER = (
    "state_determination",
    "atomicity",
    "orthocomplementation",
    "covering_law",
    "weak_modularity",
    "plane_transitivity",
    "irreducibility",
    "infinite_length",
)


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    passed: bool | None  # None = witness-dependent discrepancy, no verdict
    witness: object = None
    counterexample: object = None
    note: str = ""


def check_state_determination(S):
    """Distinct states must have distinct meets of their actual-property sets."""
    L = S.lattice
    meets = [meet(L, S.xi[p]) for p in range(S.num_states)]
    for p in range(S.num_states):
        for q in range(p + 1, S.num_states):
            if meets[p] == meets[q]:
                return AxiomVerdict("state_determination", False, counterexample=(p, q),
                                    note=f"both states have actual-set meet {meets[p]}")
    return AxiomVerdict("state_determination", True)


def check_atomicity(S):
    """The meet of every state's actual-property set must be an atom."""
    L = S.lattice
    for p in range(S.num_states):
        m = meet(L, S.xi[p])
        if m not in L.atoms:
            return AxiomVerdict("atomicity", False, counterexample=(p, m),
                                note=f"meet of xi({p}) is {m}, not an atom")
    return AxiomVerdict("atomicity", True)


def orthocomplementations(L):
    """All maps ' with (a')'=a, order reversal, a^a'=0, a v a'=I, lexicographic."""
    n = L.size
    found = []
    comp = [-1] * n

    def ok(x, y):
        if L.meet_table[x][y] != L.bottom or L.join_table[x][y] != L.top:
            return False
        for x2 in range(n):
            y2 = comp[x2]
            if y2 < 0:
                continue
            if L.leq[x][x2] and not L.leq[y2][y]:
                return False
            if L.leq[x2][x] and not L.leq[y][y2]:
                return False
        return True

    def backtrack(x):
        if x == n:
            found.append(tuple(comp))
            return
        if comp[x] >= 0:
            backtrack(x + 1)
            return
        for y in range(n):
            if comp[y] >= 0 and comp[y] != x:
                continue
            if y == x and x != L.bottom and x != L.top:
                continue  # a ^ a = a != 0 for proper elements
            if ok(x, y):
                comp[x], comp[y] = y, x
                backtrack(x + 1)
                comp[x] = -1
                if y != x:
                    comp[y] = -1
        return

    backtrack(0)
    return sorted(set(found))


def check_orthocomplementation(S):
    """Exhaustive search for an orthocomplementation on the property lattice."""
    return _orthocomplementation_verdict(orthocomplementations(S.lattice))


def _orthocomplementation_verdict(witnesses):
    if witnesses:
        return AxiomVerdict("orthocomplementation", True, witness=witnesses[0],
                            note=f"{len(witnesses)} orthocomplementation(s) exist")
    return AxiomVerdict("orthocomplementation", False,
                        note="no orthocomplementation exists (exhaustive search)")


def check_covering_law(S):
    """No element may sit strictly between a and a v b for an atom b."""
    L = S.lattice
    for a in range(L.size):
        for b in L.atoms:
            ab = L.join_table[a][b]
            for x in range(L.size):
                if L.lt(a, x) and L.lt(x, ab):
                    return AxiomVerdict("covering_law", False, counterexample=(a, b, x),
                                        note=f"{x} lies strictly between {a} and {a} v {b} = {ab}")
    return AxiomVerdict("covering_law", True)


def _weak_modularity(L, comp):
    for a in range(L.size):
        for b in range(L.size):
            if L.leq[a][b]:
                if L.join_table[L.meet_table[b][comp[a]]][a] != b:
                    return (a, b)
    return None


def check_weak_modularity(S, comp=None):
    """(b ^ a') v a = b for every a <= b, under an orthocomplementation."""
    comp = comp if comp is not None else _require_comp(S)
    ce = _weak_modularity(S.lattice, comp)
    if ce is None:
        return AxiomVerdict("weak_modularity", True, witness=comp)
    a, b = ce
    got = S.lattice.join_table[S.lattice.meet_table[b][comp[a]]][a]
    return AxiomVerdict("weak_modularity", False, counterexample=ce,
                        note=f"a={a} <= b={b} but (b ^ a') v a = {got}")


def check_plane_transitivity(S):
    """Every ordered atom pair needs an automorphism fixing some [0, s1 v s2]."""
    L = S.lattice
    atom_pairs = [(s1, s2) for s1 in L.atoms for s2 in L.atoms if s1 != s2]
    planes = {interval(L, L.bottom, L.join_table[s1][s2]) for s1, s2 in atom_pairs}
    # (s, t) such that some automorphism maps s to t and fixes a plane pointwise
    witnessed = {(s, f(s)) for plane in planes for f in automorphisms(L, fixed=plane)
                 for s in L.atoms}
    for s in L.atoms:
        for t in L.atoms:
            if (s, t) not in witnessed:
                return AxiomVerdict(
                    "plane_transitivity", False, counterexample=(s, t),
                    note=f"no automorphism maps atom {s} to {t} while fixing an atom-pair interval")
    return AxiomVerdict("plane_transitivity", True,
                        note="every ordered atom pair witnessed" if atom_pairs
                        else "vacuous: no ordered atom pairs")


def _irreducibility(L, comp):
    for b in range(L.size):
        if b == L.bottom or b == L.top:
            continue
        if all(
            L.join_table[L.meet_table[b][a]][L.meet_table[b][comp[a]]] == b
            for a in range(L.size)
        ):
            return b
    return None


def check_irreducibility(S, comp=None):
    """Only 0 and I may decompose as (b^a) v (b^a') against every a."""
    comp = comp if comp is not None else _require_comp(S)
    ce = _irreducibility(S.lattice, comp)
    if ce is None:
        return AxiomVerdict("irreducibility", True, witness=comp)
    return AxiomVerdict("irreducibility", False, counterexample=ce,
                        note=f"b={ce} reduces against every a")


def _max_orthogonal_family(L, comp):
    """Largest set of nonzero, pairwise orthogonal elements, via clique search.

    b and c are orthogonal iff some a has b <= a and c <= a'.
    """
    elems = [x for x in range(L.size) if x != L.bottom]
    ortho = {
        (b, c)
        for b in elems
        for c in elems
        if any(L.leq[b][a] and L.leq[c][comp[a]] for a in range(L.size))
    }
    best = []

    def extend(current, candidates):
        nonlocal best
        if len(current) > len(best):
            best = list(current)
        for i, c in enumerate(candidates):
            rest = [d for d in candidates[i + 1:] if (c, d) in ortho and (d, c) in ortho]
            if len(current) + 1 + len(rest) > len(best):
                current.append(c)
                extend(current, rest)
                current.pop()

    extend([], elems)
    return best


def check_infinite_length(S, comp=None):
    """Always fails on a finite lattice; reports the maximal orthogonal family."""
    comp = comp if comp is not None else _require_comp(S)
    fam = _max_orthogonal_family(S.lattice, comp)
    return AxiomVerdict("infinite_length", False, counterexample=tuple(fam),
                        note=f"finite lattice; maximal mutually orthogonal family has size {len(fam)}")


def _require_comp(S):
    witnesses = orthocomplementations(S.lattice)
    if not witnesses:
        raise NoOrthocomplementation("the property lattice admits no orthocomplementation")
    return witnesses[0]


def run_battery(S):
    """All eight checks in AXIOM_ORDER, deterministic.

    Axioms that presuppose an orthocomplementation are evaluated under the
    lexicographically first witness and cross-validated against every
    witness; a disagreement is reported as a verdict with passed=None
    instead of picking a side.
    """
    verdicts = [check_state_determination(S), check_atomicity(S)]
    witnesses = orthocomplementations(S.lattice)
    verdicts += [_orthocomplementation_verdict(witnesses), check_covering_law(S)]

    def comp_dependent(name, checker, decider):
        if not witnesses:
            return AxiomVerdict(name, False, note="lattice is not orthocomplemented")
        outcomes = {decider(S.lattice, w) is None for w in witnesses}
        if len(outcomes) > 1:
            return AxiomVerdict(name, None,
                                note="verdict depends on the orthocomplementation witness")
        return checker(S, comp=witnesses[0])

    verdicts.append(comp_dependent("weak_modularity", check_weak_modularity, _weak_modularity))
    verdicts.append(check_plane_transitivity(S))
    verdicts.append(comp_dependent("irreducibility", check_irreducibility, _irreducibility))
    if witnesses:
        verdicts.append(check_infinite_length(S, comp=witnesses[0]))
    else:
        verdicts.append(AxiomVerdict("infinite_length", False,
                                     note="lattice is not orthocomplemented"))
    return verdicts
