"""Axiom checkers against naive quantified brute-force evaluation.

The oracles below evaluate each axiom as a literal quantified formula,
with no pruning; the checkers must agree with them on every lattice in
the corpus.
"""

import math
import random
import sys
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subentity_lab import axioms, lattice
from subentity_lab.axioms import (
    AXIOM_ORDER,
    NoOrthocomplementation,
    _irreducibility,
    _max_orthogonal_family,
    _orthocomplement_search,
    _weak_modularity,
    check_atomicity,
    check_covering_law,
    check_infinite_length,
    check_irreducibility,
    check_orthocomplementation,
    check_plane_transitivity,
    check_state_determination,
    check_weak_modularity,
    orthocomplementations,
    run_battery,
)
from subentity_lab.lattice import (
    _isomorphisms, _orbits, automorphisms, build_lattice, interval, join, meet,
)
from subentity_lab.sps import atomic_sps, build_sps

from conftest import (
    CORPUS, boolean, boolean_square, chain, chain_product, covering_fail, horizontal_sum, mo, mo2,
    n5, o6, product,
)


# --- oracles --------------------------------------------------------------


def oracle_orthocomplementations(L):
    out = []
    for p in permutations(range(L.size)):
        if all(p[p[a]] == a for a in range(L.size)) and all(
            (not L.leq[a][b] or L.leq[p[b]][p[a]])
            and meet(L, (a, p[a])) == L.bottom
            and join(L, (a, p[a])) == L.top
            for a in range(L.size)
            for b in range(L.size)
        ):
            out.append(p)
    return sorted(set(out))


def oracle_state_determination(S):
    L = S.lattice
    return all(
        meet(L, S.xi[p]) != meet(L, S.xi[q]) or p == q
        for p in range(S.num_states)
        for q in range(S.num_states)
    )


def oracle_atomicity(S):
    return all(meet(S.lattice, S.xi[p]) in S.lattice.atoms for p in range(S.num_states))


def oracle_covering_law(L):
    return all(
        x == a or x == join(L, (a, b))
        for a in range(L.size)
        for b in L.atoms
        for x in range(L.size)
        if L.leq[a][x] and a != x and L.leq[x][join(L, (a, b))] and x != join(L, (a, b))
    )


def oracle_weak_modularity(L, comp):
    return all(
        join(L, (meet(L, (b, comp[a])), a)) == b
        for a in range(L.size)
        for b in range(L.size)
        if L.leq[a][b]
    )


def oracle_plane_transitivity(L):
    return oracle_plane_transitivity_counterexample(L) is None


def oracle_plane_transitivity_counterexample(L):
    """The first ordered atom pair, in atom order, that no automorphism witnesses, or None."""
    autos = [
        p for p in permutations(range(L.size))
        if all(L.leq[x][y] == L.leq[p[x]][p[y]] for x in range(L.size) for y in range(L.size))
    ]
    def witnessed(s, t):
        for p in autos:
            if p[s] != t:
                continue
            for s1 in L.atoms:
                for s2 in L.atoms:
                    if s1 != s2 and all(
                        p[a] == a for a in interval(L, L.bottom, join(L, (s1, s2)))
                    ):
                        return True
        return False
    return next(((s, t) for s in L.atoms for t in L.atoms if not witnessed(s, t)), None)


def oracle_irreducibility(L, comp):
    return all(
        b == L.bottom or b == L.top
        for b in range(L.size)
        if all(
            join(L, (meet(L, (b, a)), meet(L, (b, comp[a])))) == b
            for a in range(L.size)
        )
    )


def oracle_max_orthogonal(L, comp):
    elems = [x for x in range(L.size) if x != L.bottom]
    def orthogonal(b, c):
        return any(L.leq[b][a] and L.leq[c][comp[a]] for a in range(L.size))
    best = 0
    # exhaustive subset scan (corpus lattices are small)
    for mask in range(1 << len(elems)):
        fam = [elems[i] for i in range(len(elems)) if mask >> i & 1]
        if all(orthogonal(b, c) and orthogonal(c, b) for i, b in enumerate(fam) for c in fam[i + 1:]):
            best = max(best, len(fam))
    return best


def assert_orbit_search_matches_listing(L):
    """One witness per orbit, weighted, against the listing of every witness."""
    listed = orthocomplementations(L)
    leaves = _orthocomplement_search(L, by_orbit=True)
    assert sum(weight for _, weight in leaves) == len(listed)
    assert [w for w, _ in leaves[:1]] == listed[:1]
    for decider in (_weak_modularity, _irreducibility):
        assert ({decider(L, w) is None for w, _ in leaves}
                == {decider(L, w) is None for w in listed})


# --- agreement with the oracles ------------------------------------------


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_checkers_agree_with_bruteforce(name):
    L = CORPUS[name]
    S = atomic_sps(L)
    assert check_state_determination(S).passed == oracle_state_determination(S)
    assert check_atomicity(S).passed == oracle_atomicity(S)
    comps = oracle_orthocomplementations(L)
    assert orthocomplementations(L) == comps
    assert check_orthocomplementation(S).passed == bool(comps)
    assert_orbit_search_matches_listing(L)
    assert check_covering_law(S).passed == oracle_covering_law(L)
    pt = check_plane_transitivity(S)
    ce = oracle_plane_transitivity_counterexample(L)
    assert (pt.passed, pt.counterexample) == (ce is None, ce)
    if comps:
        assert check_weak_modularity(S).passed == oracle_weak_modularity(L, comps[0])
        assert check_irreducibility(S).passed == oracle_irreducibility(L, comps[0])
        v = check_infinite_length(S)
        assert v.passed is False
        assert len(v.counterexample) == oracle_max_orthogonal(L, comps[0])


# --- pinned verdicts from hand analysis -----------------------------------


def test_state_determination_examples():
    L = boolean_square()
    assert check_state_determination(atomic_sps(chain(2))).passed
    dup = build_sps(L, 2, [[False, True, False, True], [False, True, False, True]])
    v = check_state_determination(dup)
    assert not v.passed and v.counterexample == (0, 1)


def test_atomicity_examples():
    v = check_atomicity(build_sps(chain(3), 1, [[False, False, True]]))
    assert not v.passed and v.counterexample == (0, 2)
    assert check_atomicity(build_sps(chain(2), 1, [[False, True]])).passed


def test_orthocomplementation_examples():
    v = check_orthocomplementation(atomic_sps(boolean_square()))
    assert v.passed and v.witness == (3, 2, 1, 0)
    assert not check_orthocomplementation(atomic_sps(n5())).passed
    hexv = check_orthocomplementation(atomic_sps(o6()))
    assert hexv.passed and hexv.witness == (5, 4, 3, 2, 1, 0)


def test_covering_law_counterexample_lattice():
    v = check_covering_law(atomic_sps(covering_fail()))
    assert not v.passed
    a, b, x = v.counterexample
    L = covering_fail()
    assert L.lt(a, x) and L.lt(x, join(L, (a, b))) and b in L.atoms


def test_weak_modularity_hexagon_fails():
    S = atomic_sps(o6())
    v = check_weak_modularity(S)
    assert not v.passed
    a, b = v.counterexample
    L = S.lattice
    comp = orthocomplementations(L)[0]
    assert L.leq[a][b]
    assert join(L, (meet(L, (b, comp[a])), a)) == a != b


def test_weak_modularity_needs_an_orthocomplementation():
    with pytest.raises(NoOrthocomplementation):
        check_weak_modularity(atomic_sps(n5()))


def test_orthocomplement_search_has_no_depth_limit():
    # MO_600 pairs 601 elements, one search level each, past a lowered limit
    L = mo(600)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(400)
    try:
        leaves = _orthocomplement_search(L, by_orbit=True)
    finally:
        sys.setrecursionlimit(limit)
    # the 1 200 atoms are twins, so one leaf weighs every pairing of them
    [(comp, weight)] = leaves
    assert comp == (L.top,) + sum(((a + 1, a) for a in range(1, L.top, 2)), ()) + (0,)
    assert weight == math.prod(range(1, 1200, 2))


def test_orthogonal_family_search_has_no_depth_limit():
    # under the constant map to the top every two elements are orthogonal, so
    # the family is every nonzero element of the chain, one search level each
    L = chain(1200)
    verdict = check_infinite_length(atomic_sps(L), comp=[L.top] * L.size)
    assert verdict.counterexample == tuple(range(1, 1200))


def test_irreducibility_examples():
    v = check_irreducibility(atomic_sps(boolean_square()))
    assert not v.passed and v.counterexample in (1, 2)  # any proper element reduces
    assert check_irreducibility(atomic_sps(mo2())).passed
    assert check_irreducibility(atomic_sps(chain(2))).passed


def test_infinite_length_reports_family_size():
    assert len(check_infinite_length(atomic_sps(boolean_square())).counterexample) == 2
    assert len(check_infinite_length(atomic_sps(mo2())).counterexample) == 2
    assert len(check_infinite_length(atomic_sps(chain(2))).counterexample) == 1


def test_plane_transitivity_examples():
    v = check_plane_transitivity(atomic_sps(boolean_square()))
    assert not v.passed and v.counterexample == (1, 2)
    assert v.note == "no automorphism maps atom 1 to 2 while fixing an atom-pair interval"
    assert not check_plane_transitivity(atomic_sps(mo2())).passed


def test_plane_transitivity_passes_on_boolean_2_4():
    # the transposition (s t) fixes the plane of the other two atoms pointwise
    v = check_plane_transitivity(atomic_sps(boolean(4)))
    assert v.passed and v.counterexample is None
    assert v.note == "every ordered atom pair witnessed"


NAMED = {
    "B2": boolean(2), "B3": boolean(3), "B4": boolean(4), "MO2": mo(2), "MO3": mo(3),
    "C2xC4": chain_product(2, 4), "C3xC3": chain_product(3, 3), "C3xC4": chain_product(3, 4),
    "O6": o6(), "N5": n5(), "COV": covering_fail(),
}


@st.composite
def bounded_lattices(draw):
    """A relabeled presentation of a named lattice (its whole order) or of a random one.

    A random lattice is a Moore family: drawn subsets of {0, 1, 2, 3} closed
    under intersection, with the empty and the whole set, ordered by inclusion.
    """
    if draw(st.booleans()):
        L = NAMED[draw(st.sampled_from(sorted(NAMED)))]
        size = L.size
        pairs = [(a, b) for a in range(size) for b in range(size) if a != b and L.leq[a][b]]
    else:
        family = {0, 15} | set(draw(st.lists(st.integers(0, 15), max_size=6)))
        while more := {a & b for a in family for b in family} - family:
            family |= more
        sets = sorted(family)
        size = len(sets)
        pairs = [(i, j) for i, a in enumerate(sets) for j, b in enumerate(sets)
                 if a != b and a & b == a]
    perm = draw(st.permutations(range(size)))
    return size, [(perm[a], perm[b]) for a, b in pairs]


def filtered_plane_transitivity(L):
    """(passed, counterexample, note) from the whole automorphism group, kept
    where an automorphism fixes some plane pointwise."""
    atom_pairs = [(s1, s2) for s1 in L.atoms for s2 in L.atoms if s1 != s2]
    planes = {interval(L, L.bottom, join(L, (s1, s2))) for s1, s2 in atom_pairs}
    witnessed = set()
    for f in automorphisms(L):
        fixed = {a for a in range(L.size) if f[a] == a}
        if any(plane <= fixed for plane in planes):
            witnessed.update((s, f[s]) for s in L.atoms)
    return plane_verdict(L, witnessed, atom_pairs)


def plane_verdict(L, witnessed, atom_pairs):
    """(passed, counterexample, note) for a set of witnessed ordered atom pairs."""
    for s in L.atoms:
        for t in L.atoms:
            if (s, t) not in witnessed:
                return False, (s, t), (f"no automorphism maps atom {s} to {t} "
                                       "while fixing an atom-pair interval")
    return True, None, ("every ordered atom pair witnessed" if atom_pairs
                        else "vacuous: no ordered atom pairs")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(bounded_lattices())
def test_plane_transitivity_against_filtered_group(presentation):
    L = build_lattice(*presentation)
    v = check_plane_transitivity(atomic_sps(L))
    assert (v.passed, v.counterexample, v.note) == filtered_plane_transitivity(L)


def stabilizer_plane_transitivity(L):
    """(passed, counterexample, note) from listing each plane's whole pointwise stabilizer."""
    atom_pairs = [(s1, s2) for s1 in L.atoms for s2 in L.atoms if s1 != s2]
    planes = {interval(L, L.bottom, join(L, (s1, s2))) for s1, s2 in atom_pairs}
    witnessed = {(s, f[s]) for plane in planes for f in automorphisms(L, fixed=plane)
                 for s in L.atoms}
    return plane_verdict(L, witnessed, atom_pairs)


def query_only_orbits(L, fixed, points):
    """`_orbits` with no swaps: the twin classes of each tied group merged by
    existence queries alone, one per pair of classes not yet merged."""
    up, down = L.up, L.down
    groups = {}
    for p in points:
        key = (up[p].bit_count(), down[p].bit_count(), up[p] & fixed, down[p] & fixed)
        groups.setdefault(key, []).append(p)
    orbits = []
    for group in groups.values():
        twins = {}
        for p in sorted(group):
            twins.setdefault((up[p] ^ 1 << p, down[p] ^ 1 << p), []).append(p)
        classes = list(twins.values())
        pins = {x: x for x in range(L.size) if fixed >> x & 1}
        index = {p: i for i, members in enumerate(classes) for p in members}
        parent = list(range(len(classes)))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i, j in combinations(range(len(classes)), 2):
            if find(i) != find(j):
                f = next(_isomorphisms(L, L, {**pins, classes[i][0]: classes[j][0]}), None)
                if f is not None:
                    for k, members in enumerate(classes):
                        parent[find(k)] = find(index[f[members[0]]])
        merged = {}
        for i, members in enumerate(classes):
            merged.setdefault(find(i), []).extend(members)
        orbits += (sorted(members) for members in merged.values())
    return sorted(orbits)


def planes_of(L):
    """The down-set masks of the planes [0, s1 v s2], ascending."""
    return sorted({L.down[join(L, (s1, s2))] for s1 in L.atoms for s2 in L.atoms if s1 != s2})


def per_plane_plane_transitivity(L):
    """(passed, counterexample, note) from one query-only union-find per plane, keeping no maps."""
    atom_pairs = [(s1, s2) for s1 in L.atoms for s2 in L.atoms if s1 != s2]
    witnessed = set()
    for plane in planes_of(L):
        for orbit in query_only_orbits(L, plane, L.atoms):
            witnessed.update((s, t) for s in orbit for t in orbit)
    return plane_verdict(L, witnessed, atom_pairs)


def relabeled(L, seed):
    perm = list(range(L.size))
    random.Random(seed).shuffle(perm)
    return build_lattice(L.size, [(perm[a], perm[b]) for a in range(L.size)
                                  for b in range(L.size) if a != b and L.leq[a][b]])


@pytest.mark.parametrize("L", [relabeled(boolean(5), 1), relabeled(boolean(5), 2), boolean(6),
                               relabeled(mo(4), 3)],
                         ids=["B5-relabeled-1", "B5-relabeled-2", "B6", "MO4-relabeled"])
def test_plane_transitivity_against_stabilizer_listing(L):
    v = check_plane_transitivity(atomic_sps(L))
    assert (v.passed, v.counterexample, v.note) == stabilizer_plane_transitivity(L)


# the products and the horizontal sum fail plane transitivity, so every
# plane not skipped is processed and nothing stops early
PLANE_FAILURES = {
    "MO2xB1": product(mo(2), boolean(1)), "MO2xMO2": product(mo(2), mo(2)),
    "O6xO6": product(o6(), o6()), "B3+B3": horizontal_sum(boolean(3), boolean(3)),
}
# the failures whose tied atoms no swap exchanges, with the queries they ask;
# MO2xB1 is decided by swaps alone
PLANE_FAILURE_QUERIES = {"MO2xMO2": 144, "O6xO6": 6, "B3+B3": 18}
PLANE_DIFFERENTIAL = {
    **CORPUS,
    **{f"B{k}-relabeled": relabeled(boolean(k), k) for k in (4, 5, 6)},
    **{f"MO{n}-relabeled": relabeled(mo(n), n) for n in (3, 4, 5, 6)},
    **PLANE_FAILURES,
    "MO2xB2": product(mo(2), boolean(2)),
    # two atoms of the B3 swap, but every plane with two atoms outside it
    # holds one of them: that swap witnesses nothing
    "B3+MO2": horizontal_sum(boolean(3), mo(2)),
}


@pytest.mark.parametrize("name", sorted(PLANE_DIFFERENTIAL))
def test_plane_transitivity_against_per_plane_reference(name, monkeypatch):
    queries, isomorphisms = [], lattice._isomorphisms
    monkeypatch.setattr(lattice, "_isomorphisms",
                        lambda *args: queries.append(args) or isomorphisms(*args))
    L = PLANE_DIFFERENTIAL[name]
    v = check_plane_transitivity(atomic_sps(L))
    if name in PLANE_FAILURE_QUERIES:
        assert not v.passed and len(queries) == PLANE_FAILURE_QUERIES[name]
    assert (v.passed, v.counterexample, v.note) == per_plane_plane_transitivity(L)


@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_plane_transitivity_on_boolean_needs_no_orbits(k, monkeypatch):
    # any two atoms of B_k, k >= 4, swap while fixing the plane of two others
    calls, orbits = [], axioms._orbits
    monkeypatch.setattr(axioms, "_orbits", lambda *args: calls.append(args) or orbits(*args))
    v = check_plane_transitivity(atomic_sps(relabeled(boolean(k), k)))
    assert v.passed and calls == []


SWAP_CORPUS = {
    **CORPUS,
    **{f"B{k}-relabeled": relabeled(boolean(k), k) for k in (3, 4, 5, 6)},
    **{f"MO{n}-relabeled": relabeled(mo(n), n) for n in (2, 3, 4, 5, 6)},
    **PLANE_FAILURES,
}


def is_automorphism(L, f):
    """f maps each up-set row onto the up-set row of the image."""
    return sorted(f) == list(range(L.size)) and all(
        sum(1 << f[y] for y in range(L.size) if L.up[x] >> y & 1) == L.up[f[x]]
        for x in range(L.size))


# lattices with no swap at all; in O6, for instance, atom 1 lies below the
# join-irreducible 3 and atom 2 does not
NO_SWAPS = {"two_chain", "three_chain", "o6", "no_orthocomplement8", "O6xO6"}


@pytest.mark.parametrize("name", sorted(SWAP_CORPUS))
def test_swaps_are_automorphisms(name):
    L = SWAP_CORPUS[name]
    swaps = 0
    for fixed in [0] + planes_of(L):
        for s in range(L.size):
            for t in range(L.size):
                f = lattice._swap(L, fixed, s, t) if s != t else None
                if f is not None:
                    swaps += not fixed
                    assert is_automorphism(L, f) and f[s] == t
                    assert all(f[x] == x for x in range(L.size) if fixed >> x & 1)
    assert (swaps == 0) == (name in NO_SWAPS)


@pytest.mark.parametrize("name", sorted(SWAP_CORPUS))
def test_orbits_against_query_only_union_find(name):
    L = SWAP_CORPUS[name]
    atoms, elements = list(L.atoms), list(range(L.size))
    # on B6 the query-only reference takes about 20 s over all elements under
    # one fixed element, so there a fixed element's points are the atoms
    around_one = elements if L.size <= 36 else atoms
    for fixed, points in ([(plane, atoms) for plane in planes_of(L)]
                          + [(1 << x, around_one) for x in elements]):
        found = []
        assert _orbits(L, fixed, points, found) == query_only_orbits(L, fixed, points)
        for f in found:
            assert is_automorphism(L, f)
            assert all(f[x] == x for x in range(L.size) if fixed >> x & 1)


def battery_vector(L):
    return "".join({True: "T", False: "F", None: "?"}[v.passed] for v in run_battery(atomic_sps(L)))


def test_battery_b6_vector():
    assert battery_vector(boolean(6)) == "TTTTTTFF"


def test_battery_b7_vector():
    assert battery_vector(boolean(7)) == "TTTTTTFF"


def test_battery_b10_vector(monkeypatch):
    # 1 024 elements: swaps decide plane transitivity with no isomorphism
    # search, whose recursion once per element would pass Python's limit
    queries, isomorphisms = [], lattice._isomorphisms
    monkeypatch.setattr(lattice, "_isomorphisms",
                        lambda *args: queries.append(args) or isomorphisms(*args))
    assert battery_vector(boolean(10)) == "TTTTTTFF"
    assert queries == []


def loop_max_orthogonal_family(L, comp):
    """Largest orthogonal family from the pair set and the list-based clique search."""
    elems = [x for x in range(L.size) if x != L.bottom]
    ortho = {(b, c) for b in elems for c in elems
             if any(L.leq[b][a] and L.leq[c][comp[a]] for a in range(L.size))}
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


def loop_covering_law(L):
    """The first (a, b, x) with a < x < a v b, scanning x upward, or None."""
    for a in range(L.size):
        for b in L.atoms:
            ab = join(L, (a, b))
            for x in range(L.size):
                if L.lt(a, x) and L.lt(x, ab):
                    return a, b, x
    return None


@settings(max_examples=300, derandomize=True, deadline=None)
@given(bounded_lattices(), st.data())
def test_orthogonal_family_and_covering_law_against_loops(presentation, data):
    L = build_lattice(*presentation)
    # any map, not only an orthocomplementation: the relation is defined for every comp
    comp = data.draw(st.lists(st.integers(0, L.size - 1), min_size=L.size, max_size=L.size))
    assert _max_orthogonal_family(L, comp) == loop_max_orthogonal_family(L, comp)
    ce = loop_covering_law(L)
    assert check_covering_law(atomic_sps(L)).counterexample == ce
    comps = orthocomplementations(L)
    if comps:
        assert _max_orthogonal_family(L, comps[0]) == loop_max_orthogonal_family(L, comps[0])
    assert_orbit_search_matches_listing(L)


def atom_disjoint_map(L, rng):
    """A seeded map sending each a to an element that shares no atom with a,
    so no atom is orthogonal to itself; mostly not an orthocomplementation."""
    atoms = sum(1 << x for x in L.atoms)
    return [rng.choice([c for c in range(L.size) if not L.down[c] & L.down[a] & atoms])
            for a in range(L.size)]


@pytest.mark.parametrize("k", [5, 6])
def test_orthogonal_family_against_loops_on_boolean(k):
    # 32 and 64 elements, past the drawn lattices: the search stops at the atom
    # bound on the orthocomplementation and on some atom-disjoint maps
    L = relabeled(boolean(k), k)
    comps = [orthocomplementations(L)[0]]
    comps += [atom_disjoint_map(L, random.Random(seed)) for seed in range(6)]
    for seed in range(3):
        rng = random.Random(seed)
        comps.append([rng.randrange(L.size) for _ in range(L.size)])
    sizes = []
    for comp in comps:
        family = _max_orthogonal_family(L, comp)
        assert family == loop_max_orthogonal_family(L, comp)
        sizes.append(len(family))
    assert sizes[0] == k and k in sizes[1:7]


BOUND_CORPUS = {**CORPUS, **PLANE_FAILURES}


@pytest.mark.parametrize("name", sorted(BOUND_CORPUS))
def test_orthogonal_family_within_atom_bound(name):
    # two members above one atom x would make x orthogonal to itself
    L = BOUND_CORPUS[name]
    rng = random.Random(name)
    comps = orthocomplementations(L)[:3] + [atom_disjoint_map(L, rng) for _ in range(3)]
    comps += [[rng.randrange(L.size) for _ in range(L.size)] for _ in range(3)]
    for comp in comps:
        family = loop_max_orthogonal_family(L, comp)
        assert _max_orthogonal_family(L, comp) == family
        if not any(L.leq[x][a] and L.leq[x][comp[a]] for x in L.atoms for a in range(L.size)):
            assert len(family) <= len(L.atoms)


@pytest.mark.parametrize("L", [relabeled(mo(n), n) for n in (3, 4, 5, 6)]
                         + [product(mo(2), boolean(1)), product(mo(3), boolean(1)),
                            product(mo(2), mo(2)), product(o6(), o6()),
                            horizontal_sum(boolean(3), boolean(3))],
                         ids=["MO3-relabeled", "MO4-relabeled", "MO5-relabeled", "MO6-relabeled",
                              "MO2xB1", "MO3xB1", "MO2xMO2", "O6xO6", "B3+B3"])
def test_orbit_search_against_listing(L):
    # in the products the symmetric images are not twins, so orbits need queries;
    # B3+B3 is weakly modular under some of its seven witnesses and not others
    assert_orbit_search_matches_listing(L)
    listed = orthocomplementations(L)
    battery = {v.axiom: v.passed for v in run_battery(atomic_sps(L))}
    for name, decider in (("weak_modularity", _weak_modularity),
                          ("irreducibility", _irreducibility)):
        outcomes = {decider(L, w) is None for w in listed}
        assert battery[name] == (outcomes.pop() if len(outcomes) == 1 else None)


@pytest.mark.parametrize("n", [5, 6])
def test_plane_transitivity_fails_on_mo5_and_mo6(n):
    # every plane of MO_n is the whole lattice, so only the identity fixes one
    v = check_plane_transitivity(atomic_sps(mo(n)))
    assert (v.passed, v.counterexample) == (False, (1, 2))
    assert v.note == "no automorphism maps atom 1 to 2 while fixing an atom-pair interval"


@pytest.mark.parametrize("n, count", [(5, 945), (6, 10395), (7, 135135), (8, 2027025)],
                         ids=["MO5", "MO6", "MO7", "MO8"])
def test_battery_mo_n_vector(n, count, monkeypatch):
    # the 2n atoms are twins, so the orbit search descends once, asking nothing
    queries, isomorphisms = [], lattice._isomorphisms
    monkeypatch.setattr(lattice, "_isomorphisms",
                        lambda *args: queries.append(args) or isomorphisms(*args))
    L = mo(n)
    assert len(_orthocomplement_search(L, by_orbit=True)) == 1
    verdicts = run_battery(atomic_sps(L))
    assert "".join({True: "T", False: "F", None: "?"}[v.passed] for v in verdicts) == "TTTTTFTF"
    ortho = verdicts[AXIOM_ORDER.index("orthocomplementation")]
    top = 2 * n + 1
    assert ortho.witness == (top, *(a + 1 if a % 2 else a - 1 for a in range(1, top)), 0)
    assert ortho.note == f"{count} orthocomplementation(s) exist"
    assert queries == []


def test_battery_order_and_boolean_square_vector():
    verdicts = run_battery(atomic_sps(boolean_square()))
    assert [v.axiom for v in verdicts] == list(AXIOM_ORDER)
    assert [v.passed for v in verdicts] == [True, True, True, True, True, False, False, False]


def test_battery_mo2_vector():
    got = {v.axiom: v.passed for v in run_battery(atomic_sps(mo2()))}
    assert got["irreducibility"] is True
    assert got["weak_modularity"] is True
    assert got["plane_transitivity"] is False
    assert got["infinite_length"] is False


def test_battery_two_chain():
    got = {v.axiom: v.passed for v in run_battery(atomic_sps(chain(2)))}
    assert got["state_determination"] is True
    assert got["atomicity"] is True


def test_comp_dependent_verdicts_stable_across_witnesses():
    # wherever several orthocomplementations exist, the dependent verdicts
    # must not depend on the choice (or the battery must flag it)
    for L in CORPUS.values():
        comps = orthocomplementations(L)
        if len(comps) < 2:
            continue
        S = atomic_sps(L)
        wm = {check_weak_modularity(S, comp=c).passed for c in comps}
        irr = {check_irreducibility(S, comp=c).passed for c in comps}
        battery = {v.axiom: v.passed for v in run_battery(S)}
        assert (len(wm) == 1) == (battery["weak_modularity"] is not None)
        assert (len(irr) == 1) == (battery["irreducibility"] is not None)


# B3+B3 leaves two leaves in the orbit search, which disagree on weak modularity
ONE_DECISION = {**CORPUS, "B3+B3": horizontal_sum(boolean(3), boolean(3)),
                "MO2xMO2": product(mo(2), mo(2))}


@pytest.mark.parametrize("name", sorted(ONE_DECISION))
def test_battery_decides_each_leaf_once(name, monkeypatch):
    L = ONE_DECISION[name]
    S = atomic_sps(L)
    leaves = [w for w, _ in _orthocomplement_search(L, by_orbit=True)]
    deciders = {"weak_modularity": (_weak_modularity, check_weak_modularity),
                "irreducibility": (_irreducibility, check_irreducibility)}
    calls = {axiom: [] for axiom in deciders}
    for axiom, (decider, _) in deciders.items():
        def counted(L, comp, decider=decider, seen=calls[axiom]):
            seen.append(comp)
            return decider(L, comp)
        monkeypatch.setattr(axioms, f"_{axiom}", counted)
    verdicts = {v.axiom: v for v in run_battery(S)}
    monkeypatch.undo()
    for axiom, (decider, checker) in deciders.items():
        seen, v = calls[axiom], verdicts[axiom]
        if not leaves:
            assert seen == [] and v == (axiom, False, None, None, "lattice is not orthocomplemented")
        elif v.passed is None:
            # the leaves are decided in order up to the first that disagrees with the first
            assert len(seen) > 1 and seen == leaves[:len(seen)]
            first, *agreeing, last = [decider(L, w) is None for w in seen]
            assert agreeing == [first] * len(agreeing) and last != first
        else:
            assert seen == leaves
            assert v == checker(S, comp=leaves[0])
