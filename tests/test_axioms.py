"""Axiom checkers against naive quantified brute-force evaluation.

The oracles below evaluate each axiom as a literal quantified formula,
with no pruning; the checkers must agree with them on every lattice in
the corpus.
"""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subentity_lab.axioms import (
    AXIOM_ORDER,
    _max_orthogonal_family,
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
from subentity_lab.lattice import automorphisms, build_lattice, interval, join, meet
from subentity_lab.sps import atomic_sps, build_sps

from conftest import (
    CORPUS, boolean, boolean_square, chain, chain_product, covering_fail, mo, mo2, n5, o6,
)


# --- oracles --------------------------------------------------------------


def oracle_orthocomplementations(L):
    out = []
    for p in permutations(range(L.size)):
        if all(p[p[a]] == a for a in range(L.size)) and all(
            (not L.leq[a][b] or L.leq[p[b]][p[a]])
            and L.meet_table[a][p[a]] == L.bottom
            and L.join_table[a][p[a]] == L.top
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
        x == a or x == L.join_table[a][b]
        for a in range(L.size)
        for b in L.atoms
        for x in range(L.size)
        if L.leq[a][x] and a != x and L.leq[x][L.join_table[a][b]] and x != L.join_table[a][b]
    )


def oracle_weak_modularity(L, comp):
    return all(
        L.join_table[L.meet_table[b][comp[a]]][a] == b
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
                        p[a] == a for a in interval(L, L.bottom, L.join_table[s1][s2])
                    ):
                        return True
        return False
    return next(((s, t) for s in L.atoms for t in L.atoms if not witnessed(s, t)), None)


def oracle_irreducibility(L, comp):
    return all(
        b == L.bottom or b == L.top
        for b in range(L.size)
        if all(
            L.join_table[L.meet_table[b][a]][L.meet_table[b][comp[a]]] == b
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
    assert L.lt(a, x) and L.lt(x, L.join_table[a][b]) and b in L.atoms


def test_weak_modularity_hexagon_fails():
    S = atomic_sps(o6())
    v = check_weak_modularity(S)
    assert not v.passed
    a, b = v.counterexample
    L = S.lattice
    comp = orthocomplementations(L)[0]
    assert L.leq[a][b]
    assert L.join_table[L.meet_table[b][comp[a]]][a] == a != b


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
    planes = {interval(L, L.bottom, L.join_table[s1][s2]) for s1, s2 in atom_pairs}
    witnessed = set()
    for f in automorphisms(L):
        fixed = {a for a in range(L.size) if f(a) == a}
        if any(plane <= fixed for plane in planes):
            witnessed.update((s, f(s)) for s in L.atoms)
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
    planes = {interval(L, L.bottom, L.join_table[s1][s2]) for s1, s2 in atom_pairs}
    witnessed = {(s, f(s)) for plane in planes for f in automorphisms(L, fixed=plane)
                 for s in L.atoms}
    for s in L.atoms:
        for t in L.atoms:
            if (s, t) not in witnessed:
                return False, (s, t), (f"no automorphism maps atom {s} to {t} "
                                       "while fixing an atom-pair interval")
    return True, None, ("every ordered atom pair witnessed" if atom_pairs
                        else "vacuous: no ordered atom pairs")


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


def test_battery_b6_vector():
    verdicts = run_battery(atomic_sps(boolean(6)))
    assert "".join({True: "T", False: "F", None: "?"}[v.passed] for v in verdicts) == "TTTTTTFF"


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
            ab = L.join_table[a][b]
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


@pytest.mark.parametrize("n", [5, 6])
def test_plane_transitivity_fails_on_mo5_and_mo6(n):
    # every plane of MO_n is the whole lattice, so only the identity fixes one
    v = check_plane_transitivity(atomic_sps(mo(n)))
    assert (v.passed, v.counterexample) == (False, (1, 2))
    assert v.note == "no automorphism maps atom 1 to 2 while fixing an atom-pair interval"


def test_battery_mo5_vector():
    verdicts = run_battery(atomic_sps(mo(5)))
    assert "".join({True: "T", False: "F", None: "?"}[v.passed] for v in verdicts) == "TTTTTFTF"


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
