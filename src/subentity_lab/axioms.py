"""Checkers for the eight quantum-structure axioms on a state property system.

Each checker returns an AxiomVerdict carrying either a witness (for
existence-flavored axioms, e.g. an orthocomplementation map) or a
counterexample (for universal ones).  `run_battery` evaluates all eight
in the fixed order of AXIOM_ORDER.

Weak modularity and infinite length are read under an orthocomplementation
', which a caller's comp must be; it is not checked.  Both are decided from
the bit rows: the first by the orthomodular criterion, a <= b and
a' ^ b = 0 force a = b (Kalmbach, Orthomodular Lattices, 1983), the second
by the rule that b and c are orthogonal iff c <= b'.

Strictness convention for the covering law: "a < x < a v b" is read with
strict inequalities and the conclusion disjunction non-strict (the
standard lattice-theoretic reading).
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

# automorphisms and meet are not called here; they are imported because
# perfbench/test_perfbench.py::test_tracer_patches_names_where_they_are_called
# reads axioms.automorphisms and axioms.meet
from .lattice import FiniteLattice, _bits, _orbits, _swap, automorphisms, meet  # noqa: F401
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


class AxiomVerdict(NamedTuple):
    """One axiom's verdict; a named tuple, so it also equals the plain tuple of its fields."""

    axiom: str
    passed: bool | None  # None = witness-dependent discrepancy, no verdict
    witness: object = None
    counterexample: object = None
    note: str = ""


def check_state_determination(S):
    """Distinct states must have distinct meets of their actual-property sets."""
    meets = S.strongest
    for p in range(S.num_states):
        for q in range(p + 1, S.num_states):
            if meets[p] == meets[q]:
                return AxiomVerdict("state_determination", False, counterexample=(p, q),
                                    note=f"both states have actual-set meet {meets[p]}")
    return AxiomVerdict("state_determination", True)


def check_atomicity(S):
    """The meet of every state's actual-property set must be an atom."""
    L = S.lattice
    for p, m in enumerate(S.strongest):
        if m not in L.atoms:
            return AxiomVerdict("atomicity", False, counterexample=(p, m),
                                note=f"meet of xi({p}) is {m}, not an atom")
    return AxiomVerdict("atomicity", True)


def orthocomplementations(L):
    """All maps ' with (a')'=a, order reversal, a^a'=0, a v a'=I, lexicographic.

    Lists every witness.  The checkers count and decide them one per orbit
    instead, with the same backtracking (`_orthocomplement_search`).
    """
    return [w for w, _ in _orthocomplement_search(L, by_orbit=False)]


def _orthocomplement_search(L, by_orbit):
    """Orthocomplementations as a list of (witness, weight) leaves, lexicographically.

    The search pairs the least unpaired element x with each valid image y:
    unpaired, a complement of x, and order-reversing against the pairs
    placed so far.  y is a complement of x when their down-sets meet in 0
    and their up-sets in I.  Since ' is an involution, b <= x iff x' <= b' and
    x <= b iff b' <= x', so the placed elements below (above) y must be
    exactly the images of those above (below) x: two mask comparisons on
    the bit rows, as in the isomorphism search.

    Listed (by_orbit false), every image is tried and each witness weighs 1.
    Per orbit (by_orbit true), the images are split into the orbits of the
    automorphisms fixing x and every placed element; conjugation w -> g w g^-1
    by such a g maps the completions through y onto those through g(y), so
    the search descends into each orbit's least image only and multiplies
    the weight by the orbit's size.  The weights then sum to the number of
    orthocomplementations, the first leaf is the least witness, and every
    conjugation-invariant property takes the same set of values over the
    leaves as over all witnesses.
    """
    n, up, down = L.size, L.up, L.down
    everything = (1 << n) - 1
    zero, one = 1 << L.bottom, 1 << L.top  # the down-set of 0 and the up-set of I
    comp = [-1] * n

    def frame(placed, weight):
        """The least unpaired x and its valid images, split into the classes to descend into."""
        free = everything ^ placed
        x = (free & -free).bit_length() - 1
        want_up = want_down = 0  # images of the placed elements below / above x
        rest = placed & (up[x] | down[x])
        while rest:
            low = rest & -rest
            rest ^= low
            if down[x] & low:
                want_up |= 1 << comp[low.bit_length() - 1]
            else:
                want_down |= 1 << comp[low.bit_length() - 1]
        images, up_x, down_x = [], up[x], down[x]
        for y in range(x, n):  # every y < x is placed
            if (down_x & down[y] == zero and up_x & up[y] == one and free >> y & 1
                    and up[y] & placed == want_up and down[y] & placed == want_down):
                images.append(y)
        if by_orbit and len(images) > 1:
            classes = iter(_orbits(L, placed | 1 << x, images))
        else:
            classes = zip(images)  # each image a class of one
        return x, classes, placed, weight

    # an explicit stack of frames, one per placed pair, so depth costs no Python frames
    leaves, stack = [], [frame(0, 1)]
    while stack:
        x, classes, placed, weight = stack[-1]
        for members in classes:
            y = members[0]
            comp[x], comp[y] = y, x
            below = placed | 1 << x | 1 << y
            if below == everything:
                leaves.append((tuple(comp), weight * len(members)))
            else:
                stack.append(frame(below, weight * len(members)))
                break
        else:
            stack.pop()
    return leaves


def check_orthocomplementation(S):
    """Exhaustive search for an orthocomplementation on the property lattice."""
    return _orthocomplementation_verdict(_orthocomplement_search(S.lattice, by_orbit=True))


def _orthocomplementation_verdict(leaves):
    if leaves:
        return AxiomVerdict("orthocomplementation", True, witness=leaves[0][0],
                            note=f"{sum(weight for _, weight in leaves)} "
                                 "orthocomplementation(s) exist")
    return AxiomVerdict("orthocomplementation", False,
                        note="no orthocomplementation exists (exhaustive search)")


def check_covering_law(S):
    """No element may sit strictly between a and a v b for an atom b."""
    L = S.lattice
    up, down, by_up = L.up, L.down, L.by_up
    atoms = sum(1 << b for b in L.atoms)
    for a in range(L.size):
        for b in _bits(atoms & ~down[a]):  # an atom b <= a has a v b = a
            ab = by_up[up[a] & up[b]]
            between = up[a] & down[ab] & ~(1 << a | 1 << ab)
            if between:
                x = (between & -between).bit_length() - 1
                return AxiomVerdict("covering_law", False, counterexample=(a, b, x),
                                    note=f"{x} lies strictly between {a} and {a} v {b} = {ab}")
    return AxiomVerdict("covering_law", True)


def _weak_modularity(L, comp):
    """The first (a, b) with a <= b and (b ^ a') v a != b, or None; comp must be
    an orthocomplementation.

    The law then holds iff a <= b and a' ^ b = 0 force a = b (Kalmbach 1983):
    b' must be the only c >= b' with c ^ b = 0, that is, above no atom below
    b.  Only a failure is named by the pair scan.
    """
    up, down, by_down = L.up, L.down, L.by_down
    atoms = sum(1 << s for s in L.atoms)
    for b in range(L.size):
        hit, rest = 0, down[b] & atoms
        while rest:
            low = rest & -rest
            rest ^= low
            hit |= up[low.bit_length() - 1]
        if up[comp[b]] & ~hit != 1 << comp[b]:
            break
    else:
        return None
    # (b ^ a') v a = b iff the up-sets of b ^ a' and a meet in b's up-set
    for a in range(L.size):
        above, down_ca = up[a], down[comp[a]]
        for b in _bits(above):
            if up[by_down[down[b] & down_ca]] & above != up[b]:
                return (a, b)
    return None


def check_weak_modularity(S, comp=None):
    """(b ^ a') v a = b for every a <= b; a given comp must be an orthocomplementation."""
    comp = comp if comp is not None else _require_comp(S)
    ce = _weak_modularity(S.lattice, comp)
    if ce is None:
        return AxiomVerdict("weak_modularity", True, witness=comp)
    a, b = ce
    L = S.lattice
    got = L.by_up[L.up[L.by_down[L.down[b] & L.down[comp[a]]]] & L.up[a]]
    return AxiomVerdict("weak_modularity", False, counterexample=ce,
                        note=f"a={a} <= b={b} but (b ^ a') v a = {got}")


def check_plane_transitivity(S):
    """Every ordered atom pair needs an automorphism fixing some [0, s1 v s2].

    For each plane, the atoms fall into the orbits of the plane's pointwise
    stabilizer.  A pair is witnessed iff it lies in one orbit of some plane.
    If h fixes the plane P and maps s to t, then g h g^-1 fixes g(P) and maps
    g(s) to g(t), so the witnessed pairs are closed under every automorphism
    g.  The planes come from unordered atom pairs, since the join is
    symmetric.

    Swaps come first.  The `_swap` of two atoms s and t, where it is an
    automorphism, moves only the elements above exactly one of them, so it
    fixes a plane iff no such element lies in it; one that fixes some plane
    witnesses (s, t) and (t, s).  On the atoms it is the transposition
    (s t), so by the conjugation above any two atoms joined by a path of
    such swaps are witnessed too.  The swapped atoms are therefore kept as
    components, and a pair's swap is tried only while its atoms lie in
    different ones.  Once one component holds every atom, every pair is
    witnessed.

    Otherwise the planes are walked in ascending mask order.  A plane is
    skipped when every pair of atoms outside it is witnessed already (its
    stabilizer fixes its own atoms).  Any other plane's atoms are split
    into orbits by `_orbits`; the check keeps each map found, by a swap or
    a query, and closes the witnessed pairs under all of them.  The walk
    stops once every pair is witnessed; on a failing lattice every plane is
    processed, so it has the same witnessed pairs, and the same
    counterexample, as the union over all planes.
    """
    L = S.lattice
    atoms = L.atoms
    everything = sum(1 << s for s in atoms)
    up, down, by_up = L.up, L.down, L.by_up
    planes = sorted({down[by_up[up[s1] & up[s2]]] for s1, s2 in combinations(atoms, 2)})
    # reach[s]: mask of the atoms t with (s, t) witnessed, before the walk
    # s's component; under any plane's stabilizer each atom is its own orbit,
    # so (s, s) is witnessed
    reach = {s: 1 << s if planes else 0 for s in atoms}
    maps = []
    # a swap of s and t can fix only a plane that both lie outside; a plane
    # holds two atoms, and a lone plane holds them all
    roomy = ([plane for plane in planes if (everything & ~plane).bit_count() > 1]
             if len(atoms) > 3 and len(planes) > 1 else [])
    for s, t in combinations(atoms, 2) if roomy else ():
        if not reach[s] >> t & 1:  # s and t lie in different components
            moved = up[s] ^ up[t]
            f = _swap(L, 0, s, t) if any(not moved & plane for plane in roomy) else None
            if f is not None:
                maps.append(f)
                merged = reach[s] | reach[t]
                for x in _bits(merged):
                    reach[x] = merged
    closed = 0  # reach is closed under maps[:closed]
    # one component holding every atom witnesses every pair
    for plane in () if planes and reach[atoms[0]] == everything else planes:
        outside = everything & ~plane
        if all(reach[s] & outside == outside for s in _bits(outside)):
            continue
        orbits = _orbits(L, plane, atoms, maps)
        todo = [(g[s], g[t]) for g in maps[closed:] for s in atoms for t in _bits(reach[s])]
        closed = len(maps)
        todo += ((s, t) for orbit in orbits if len(orbit) > 1 for s in orbit for t in orbit)
        while todo:
            s, t = todo.pop()
            if not reach[s] >> t & 1:
                reach[s] |= 1 << t
                todo += ((g[s], g[t]) for g in maps)
        if all(row == everything for row in reach.values()):
            break
    for s in atoms:
        missing = everything & ~reach[s]
        if missing:  # atoms ascend, so the first pair (s, t) unwitnessed has the least t
            t = (missing & -missing).bit_length() - 1
            return AxiomVerdict(
                "plane_transitivity", False, counterexample=(s, t),
                note=f"no automorphism maps atom {s} to {t} while fixing an atom-pair interval")
    return AxiomVerdict("plane_transitivity", True,
                        note="every ordered atom pair witnessed" if planes
                        else "vacuous: no ordered atom pairs")


def _irreducibility(L, comp):
    # (b ^ a) v (b ^ a') = b iff the up-sets of the two meets meet in b's up-set
    up, down, by_down = L.up, L.down, L.by_down
    for b in range(L.size):
        if b == L.bottom or b == L.top:
            continue
        below, above = down[b], up[b]
        if all(up[by_down[below & down[a]]] & up[by_down[below & down[comp[a]]]] == above
               for a in range(L.size)):
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


def _max_orthogonal_family(L, rows):
    """Largest set of nonzero, pairwise orthogonal elements, via clique search.

    rows[b] masks the elements orthogonal to b, a symmetric relation.  Only
    under an orthocomplementation ' are the rows down[b']: b and c are
    orthogonal (some a has b <= a and c <= a') iff c <= b'.  Candidates are
    masks searched in ascending element order, and the first family of the
    largest size is returned.

    If no atom is orthogonal to itself, no family is larger than the
    number of atoms: every nonzero element lies above an atom, and two
    members above one atom x would make x orthogonal to x.  The search then
    stops at the first family of that size.
    """
    n = L.size
    bound = n if any(rows[x] >> x & 1 for x in L.atoms) else len(L.atoms)
    # the candidates left at each depth of current, so depth costs no Python frames
    best, current, stack = [], [], [((1 << n) - 1) & ~(1 << L.bottom)]
    while stack:
        candidates = stack[-1]
        if not candidates:
            stack.pop()
            del current[-1:]  # the member whose candidates ran out; none at the root
            continue
        low = candidates & -candidates
        c = low.bit_length() - 1
        stack[-1] = candidates = candidates ^ low  # leaves the candidates after c
        rest = candidates & rows[c]
        if len(current) + 1 + rest.bit_count() > len(best):
            current.append(c)
            if len(current) > len(best):
                best = list(current)
                if len(best) == bound:
                    break
            stack.append(rest)
    return best


def check_infinite_length(S, comp=None):
    """Always fails on a finite lattice; reports the maximal orthogonal family.

    A given comp must be an orthocomplementation; it is not checked.  The
    family is the first of the largest size in `_max_orthogonal_family`'s
    search order, on the rows down[b'].  No atom is orthogonal to itself
    (x <= x' would put x below x ^ x' = 0), so the family has at most as
    many members as the lattice has atoms, and the search stops at the
    first family that reaches that count.
    """
    comp = comp if comp is not None else _require_comp(S)
    down = S.lattice.down
    fam = _max_orthogonal_family(S.lattice, [down[c] for c in comp])
    return AxiomVerdict("infinite_length", False, counterexample=tuple(fam),
                        note=f"finite lattice; maximal mutually orthogonal family has size {len(fam)}")


def _require_comp(S):
    leaves = _orthocomplement_search(S.lattice, by_orbit=True)
    if not leaves:
        raise NoOrthocomplementation("the property lattice admits no orthocomplementation")
    return leaves[0][0]


def run_battery(S):
    """All eight checks in AXIOM_ORDER, deterministic.

    Axioms that presuppose an orthocomplementation are evaluated under the
    lexicographically first witness.  Weak modularity and irreducibility
    are decided on one witness per orbit of the orthocomplementations
    under conjugation by automorphisms, which is enough: conjugating by an
    automorphism g maps each witness w to g w g^-1 and keeps both
    verdicts, since g preserves meets, joins and order.  A verdict that
    differs between witnesses is reported with passed=None instead of
    picking a side.  Each leaf is decided once: the first by the checker,
    whose verdict is reported when every leaf agrees with it, the others by
    the checker's decider alone.
    """
    verdicts = [check_state_determination(S), check_atomicity(S)]
    leaves = _orthocomplement_search(S.lattice, by_orbit=True)
    verdicts += [_orthocomplementation_verdict(leaves), check_covering_law(S)]

    def comp_dependent(name, checker, decider):
        if not leaves:
            return AxiomVerdict(name, False, note="lattice is not orthocomplemented")
        verdict = checker(S, comp=leaves[0][0])
        for w, _ in leaves[1:]:
            if (decider(S.lattice, w) is None) != verdict.passed:
                return AxiomVerdict(name, None,
                                    note="verdict depends on the orthocomplementation witness")
        return verdict

    verdicts.append(comp_dependent("weak_modularity", check_weak_modularity, _weak_modularity))
    verdicts.append(check_plane_transitivity(S))
    verdicts.append(comp_dependent("irreducibility", check_irreducibility, _irreducibility))
    if leaves:
        verdicts.append(check_infinite_length(S, comp=leaves[0][0]))
    else:
        verdicts.append(AxiomVerdict("infinite_length", False,
                                     note="lattice is not orthocomplemented"))
    return verdicts
