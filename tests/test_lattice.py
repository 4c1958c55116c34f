from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subentity_lab import axioms
from subentity_lab.lattice import (
    EmptyInterval,
    NotALattice,
    NotAPartialOrder,
    _isomorphisms,
    automorphisms,
    build_lattice,
    find_isomorphism,
    interval,
    join,
    meet,
)
from subentity_lab.sps import atomic_sps

from conftest import CORPUS, boolean, boolean_square, chain, mo2, n5, o6


def brute_meet(L, subset):
    lower = [x for x in range(L.size) if all(L.leq[x][a] for a in subset)]
    top = [x for x in lower if all(L.leq[y][x] for y in lower)]
    assert len(top) == 1
    return top[0]


def brute_join(L, subset):
    upper = [x for x in range(L.size) if all(L.leq[a][x] for a in subset)]
    bot = [x for x in upper if all(L.leq[x][y] for y in upper)]
    assert len(bot) == 1
    return bot[0]


def test_two_chain():
    L = chain(2)
    assert (L.bottom, L.top, L.atoms) == (0, 1, (1,))


def test_boolean_square_tables():
    L = boolean_square()
    assert L.meet_table[1][2] == 0
    assert L.join_table[1][2] == 3
    assert L.atoms == (1, 2)


def test_pentagon_is_lattice_and_two_minimal_upper_bounds_is_not():
    n5()  # must not raise
    # 1 and 2 incomparable with both 3 and 4 as minimal upper bounds
    with pytest.raises(NotALattice) as exc:
        build_lattice(6, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)])
    assert exc.value.pair in {(1, 2), (2, 1)}


def test_cycle_rejected():
    with pytest.raises(NotAPartialOrder):
        build_lattice(3, [(0, 1), (1, 2), (2, 0)])


@st.composite
def presentations(draw):
    """Random (size, pairs); some acyclic, some with a forced bottom and top."""
    size = draw(st.integers(1, 7))
    node = st.integers(0, size - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=12))
    if draw(st.booleans()):
        pairs = [(a, b) for a, b in pairs if a < b]
    if draw(st.booleans()):
        pairs += [(0, x) for x in range(size)] + [(x, size - 1) for x in range(size)]
    return size, pairs


def brute_lattice(size, pairs):
    """Expected tables, or the exception build_lattice must raise.

    Closes the pairs by repeated composition, looks for the first
    row-major cycle, then for the first row-major pair whose lower (upper)
    bounds have no greatest (least) element, meet before join.
    """
    leq = {(a, a) for a in range(size)} | set(pairs)
    while True:
        more = {(a, c) for a, b in leq for b2, c in leq if b == b2} - leq
        if not more:
            break
        leq |= more
    for a in range(size):
        for b in range(a + 1, size):
            if (a, b) in leq and (b, a) in leq:
                return NotAPartialOrder(f"cycle through elements {a} and {b}")

    def greatest(xs, le):
        best = [x for x in xs if all(le(y, x) for y in xs)]
        return best[0] if len(best) == 1 else None

    def le(x, y):
        return (x, y) in leq

    def ge(x, y):
        return (y, x) in leq

    meets, joins = {}, {}
    for a in range(size):
        for b in range(size):
            meets[a, b] = greatest([x for x in range(size) if le(x, a) and le(x, b)], le)
            if meets[a, b] is None:
                return NotALattice((a, b), "meet")
            joins[a, b] = greatest([x for x in range(size) if ge(x, a) and ge(x, b)], ge)
            if joins[a, b] is None:
                return NotALattice((a, b), "join")
    bottom = greatest(range(size), ge)
    atoms = tuple(x for x in range(size)
                  if x != bottom and all(y in (bottom, x) for y in range(size) if le(y, x)))
    return {
        "leq": tuple(tuple(le(a, b) for b in range(size)) for a in range(size)),
        "meet_table": tuple(tuple(meets[a, b] for b in range(size)) for a in range(size)),
        "join_table": tuple(tuple(joins[a, b] for b in range(size)) for a in range(size)),
        "bottom": bottom,
        "top": greatest(range(size), le),
        "atoms": atoms,
    }


@settings(max_examples=400, derandomize=True, deadline=None)
@given(presentations())
def test_build_lattice_against_bruteforce(presentation):
    expected = brute_lattice(*presentation)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as exc:
            build_lattice(*presentation)
        assert str(exc.value) == str(expected)
        return
    L = build_lattice(*presentation)
    assert {key: getattr(L, key) for key in expected} == expected


def test_meet_join_examples():
    L = boolean_square()
    assert meet(L, {1, 2}) == 0
    assert meet(L, set()) == L.top
    assert join(L, {1, 2}) == 3
    assert join(L, set()) == L.bottom
    H = o6()
    assert meet(H, {3, 2}) == 0  # chain element against the other side's atom
    M = mo2()
    assert join(M, {1, 2}) == 5


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_meet_join_against_bruteforce_subsets(name):
    L = CORPUS[name]
    elems = range(L.size)
    for r in range(0, min(L.size, 4) + 1):
        for subset in combinations(elems, r):
            assert meet(L, subset) == brute_meet(L, subset)
            assert join(L, subset) == brute_join(L, subset)


def test_absorption_idempotence_commutativity(corpus_lattice):
    L = corpus_lattice
    for a in range(L.size):
        assert L.meet_table[a][a] == a
        assert L.join_table[a][a] == a
        for b in range(L.size):
            assert L.meet_table[a][b] == L.meet_table[b][a]
            assert L.join_table[a][b] == L.join_table[b][a]
            assert L.meet_table[a][L.join_table[a][b]] == a
            assert L.join_table[a][L.meet_table[a][b]] == a


def test_interval():
    L = boolean_square()
    assert interval(L, L.bottom, L.top) == frozenset(range(4))
    assert interval(L, 0, 1) == frozenset({0, 1})
    H = o6()
    assert interval(H, 0, 3) == frozenset({0, 1, 3})
    with pytest.raises(EmptyInterval):
        interval(L, 1, 2)


def test_isomorphism_identity_and_size_mismatch():
    L = chain(3)
    f = find_isomorphism(L, L)
    assert f.assignment == (0, 1, 2)
    assert find_isomorphism(boolean_square(), mo2()) is None


def test_isomorphism_between_relabelings():
    # hexagon entered with a different labeling
    A = o6()
    B = build_lattice(6, [(5, 4), (4, 2), (2, 0), (5, 3), (3, 1), (1, 0)])
    f = find_isomorphism(A, B)
    assert f is not None
    for x in range(6):
        for y in range(6):
            assert A.leq[x][y] == B.leq[f(x)][f(y)]
    # oracle: some permutation works, and the found one is the lex-least such
    valid = [
        p for p in permutations(range(6))
        if all(A.leq[x][y] == B.leq[p[x]][p[y]] for x in range(6) for y in range(6))
    ]
    assert f.assignment == min(valid)
    assert find_isomorphism(B, A) is not None  # symmetry


def brute_automorphisms(L):
    out = []
    for p in permutations(range(L.size)):
        if all(L.leq[x][y] == L.leq[p[x]][p[y]] for x in range(L.size) for y in range(L.size)):
            out.append(p)
    return sorted(out)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_automorphisms_against_enumeration(name):
    L = CORPUS[name]
    brute = brute_automorphisms(L)
    got = [f.assignment for f in automorphisms(L)]
    assert got == brute
    # the stabilizer of each plane [0, s1 v s2] and of each single element
    planes = [interval(L, L.bottom, L.join_table[s1][s2]) for s1 in L.atoms for s2 in L.atoms
              if s1 != s2]
    for fixed in planes + [{x} for x in range(L.size)]:
        got = [f.assignment for f in automorphisms(L, fixed=fixed)]
        assert got == [p for p in brute if all(p[x] == x for x in fixed)]
    # one pinned pair x -> y, which need not be a fixed point
    for x in range(L.size):
        for y in range(L.size):
            assert list(_isomorphisms(L, L, {x: y})) == [p for p in brute if p[x] == y]


def test_plane_transitivity_on_b6_asks_a_few_questions_per_plane(monkeypatch):
    # B6 has 15 planes, each fixing 2 of the 6 atoms; the other 4 form one
    # orbit, found in 3 existence questions instead of listing 15 x 4! = 360 maps
    calls = []

    def counted(*args):
        calls.append(args)
        return _isomorphisms(*args)

    monkeypatch.setattr(axioms, "_isomorphisms", counted)
    v = axioms.check_plane_transitivity(atomic_sps(boolean(6)))
    assert v.passed
    assert len(calls) <= 15 * 3


def test_automorphism_counts():
    assert len(automorphisms(chain(4))) == 1  # chains are rigid
    assert len(automorphisms(boolean_square())) == 2
    # every permutation of the 4 incomparable atoms extends: 4! maps
    assert len(automorphisms(mo2())) == 24


def test_automorphisms_form_group(corpus_lattice):
    autos = automorphisms(corpus_lattice)
    table = {f.assignment for f in autos}
    assert tuple(range(corpus_lattice.size)) in table
    for f in autos:
        assert f.inverse().assignment in table
        for g in autos:
            assert f.compose(g).assignment in table
