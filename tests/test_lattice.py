import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subentity_lab import axioms, lattice
from subentity_lab.lattice import (
    EmptyInterval,
    NotALattice,
    NotAPartialOrder,
    _isomorphisms,
    _orbits,
    automorphisms,
    build_lattice,
    find_isomorphism,
    interval,
    join,
    meet,
)
from subentity_lab.sps import atomic_sps

from conftest import CORPUS, boolean, boolean_cube, boolean_square, chain, mo2, n5, o6


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
    assert meet(L, (1, 2)) == 0
    assert join(L, (1, 2)) == 3
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
        "meets": tuple(tuple(meets[a, b] for b in range(size)) for a in range(size)),
        "joins": tuple(tuple(joins[a, b] for b in range(size)) for a in range(size)),
        "bottom": bottom,
        "top": greatest(range(size), le),
        "atoms": atoms,
    }


@st.composite
def tangled_presentations(draw):
    """(size, pairs) on up to 10 elements, relabeled, with duplicate pairs and self-loops.

    An acyclic core, optionally with a bottom and a top, lists some of the
    pairs its closure implies against topological order, and may gain
    cycles, some with an element below and an element above them.
    """
    size = draw(st.integers(1, 10))
    label = draw(st.permutations(range(size)))
    node = st.integers(0, size - 1)
    core = sorted({tuple(sorted(e)) for e in draw(st.lists(st.tuples(node, node), max_size=20))})
    if draw(st.booleans()):
        core += [(0, x) for x in range(1, size)]
    if draw(st.booleans()):
        core += [(x, size - 1) for x in range(size - 1)]
    implied = sorted({(a, c) for a, b in core for b2, c in core if b == b2 and a < b < c},
                     reverse=True)  # upper ends first, so against topological order
    pairs = [(label[a], label[b]) for a, b in core + draw(st.lists(st.sampled_from(implied))
                                                          if implied else st.just([]))]
    for _ in range(draw(st.integers(0, 3)) if size > 1 else 0):
        cycle = draw(st.lists(node, min_size=2, max_size=4, unique=True))
        pairs += zip(cycle, cycle[1:] + cycle[:1])
        if draw(st.booleans()):
            pairs += [(draw(node), cycle[0]), (cycle[-1], draw(node))]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    return size, draw(st.permutations(pairs))


def assert_build_matches_bruteforce(size, pairs):
    """Check build_lattice against brute_lattice; True when the pairs make a lattice."""
    expected = brute_lattice(size, pairs)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as exc:
            build_lattice(size, pairs)
        assert str(exc.value) == str(expected)
        return False
    L = build_lattice(size, pairs)
    pairwise = {
        "meets": tuple(tuple(meet(L, (a, b)) for b in range(L.size)) for a in range(L.size)),
        "joins": tuple(tuple(join(L, (a, b)) for b in range(L.size)) for a in range(L.size)),
    }
    assert {key: pairwise[key] if key in pairwise else getattr(L, key)
            for key in expected} == expected
    assert L.down == tuple(sum(1 << a for a in range(L.size) if L.up[a] >> b & 1)
                           for b in range(L.size))
    assert L.by_up == {row: x for x, row in enumerate(L.up)}
    assert L.by_down == {row: x for x, row in enumerate(L.down)}
    return True


@settings(max_examples=400, derandomize=True, deadline=None)
@given(presentations())
def test_build_lattice_against_bruteforce(presentation):
    assert_build_matches_bruteforce(*presentation)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(tangled_presentations())
def test_build_lattice_against_bruteforce_tangled(presentation):
    assert_build_matches_bruteforce(*presentation)


def naturally_labeled_posets(n):
    """Every poset on 0..n-1 in which a < b implies a < b as integers, once each,
    as the tuple of its elements' strict down-sets (bit masks).

    Element k's strict down-set is any down-closed subset of 0..k-1.
    """
    posets = [()]
    for k in range(n):
        posets = [downs + (ideal,) for downs in posets for ideal in range(1 << k)
                  if all(downs[a] & ~ideal == 0 for a in range(k) if ideal >> a & 1)]
    return posets


def test_build_lattice_on_every_naturally_labeled_poset():
    counts, lattices = [], []
    for n in range(1, 7):
        posets = naturally_labeled_posets(n)
        counts.append(len(posets))
        lattices.append(0)
        for downs in posets:
            # the covers only, so that the build closes the order itself
            pairs = [(a, b) for b, below in enumerate(downs) for a in range(b)
                     if below >> a & 1 and not any(below >> c & 1 and downs[c] >> a & 1
                                                   for c in range(b))]
            lattices[-1] += assert_build_matches_bruteforce(n, pairs)
    assert counts == [1, 2, 7, 40, 357, 4824]  # OEIS A006455
    assert lattices == [1, 1, 1, 2, 7, 39]


def test_equality_and_hash_read_the_order():
    # one lattice presented by its covers, by its whole order and in another
    # pair order is one value; the same size with another order is not
    covers = boolean_cube()
    whole = build_lattice(8, [(a, b) for a in range(8) for b in range(8)
                              if a != b and covers.leq[a][b]][::-1])
    assert whole == covers and hash(whole) == hash(covers)
    assert len({covers, whole, boolean_cube()}) == 1
    assert chain(4) != boolean_square() and boolean(3) != boolean_cube()
    assert mo2() != build_lattice(6, [(0, x) for x in range(1, 5)] + [(x, 5) for x in range(1, 4)]
                                  + [(4, 3)])


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
        assert meet(L, (a, a)) == a
        assert join(L, (a, a)) == a
        for b in range(L.size):
            assert meet(L, (a, b)) == meet(L, (b, a))
            assert join(L, (a, b)) == join(L, (b, a))
            assert meet(L, (a, join(L, (a, b)))) == a
            assert join(L, (a, meet(L, (a, b)))) == a


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
    assert f == (0, 1, 2)
    assert find_isomorphism(boolean_square(), mo2()) is None
    assert find_isomorphism(chain(4), boolean_square()) is None  # equal sizes, other covers


def test_isomorphism_search_has_no_depth_limit():
    # one search level per element: 1 200 levels are past the default limit
    L = chain(1200)
    assert find_isomorphism(L, L) == tuple(range(1200))


def test_isomorphism_between_relabelings():
    # hexagon entered with a different labeling
    A = o6()
    B = build_lattice(6, [(5, 4), (4, 2), (2, 0), (5, 3), (3, 1), (1, 0)])
    f = find_isomorphism(A, B)
    assert f is not None
    for x in range(6):
        for y in range(6):
            assert A.leq[x][y] == B.leq[f[x]][f[y]]
    # oracle: some permutation works, and the found one is the lex-least such
    valid = [
        p for p in permutations(range(6))
        if all(A.leq[x][y] == B.leq[p[x]][p[y]] for x in range(6) for y in range(6))
    ]
    assert f == min(valid)
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
    got = automorphisms(L)
    assert got == brute
    # the stabilizer of each plane [0, s1 v s2] and of each single element
    planes = [interval(L, L.bottom, join(L, (s1, s2))) for s1 in L.atoms for s2 in L.atoms
              if s1 != s2]
    for fixed in planes + [{x} for x in range(L.size)]:
        got = automorphisms(L, fixed=fixed)
        assert got == [p for p in brute if all(p[x] == x for x in fixed)]
    # one pinned pair x -> y, which need not be a fixed point
    for x in range(L.size):
        for y in range(L.size):
            assert list(_isomorphisms(L, L, {x: y})) == [p for p in brute if p[x] == y]
    # orbits of the pointwise stabilizer, on the whole lattice and on the unfixed part
    rng = random.Random(L.size)
    seeded = [set(rng.sample(range(L.size), rng.randint(0, L.size))) for _ in range(8)]
    for fixed in planes + [{x} for x in range(L.size)] + seeded:
        stabilizer = [p for p in brute if all(p[x] == x for x in fixed)]
        orbit = {x: tuple(sorted({p[x] for p in stabilizer})) for x in range(L.size)}
        for points in (list(range(L.size)), [x for x in range(L.size) if x not in fixed]):
            expected = sorted(map(list, {orbit[x] for x in points}))
            assert _orbits(L, sum(1 << x for x in fixed), points) == expected


def plane_transitivity_queries(k, monkeypatch):
    """Existence queries to the isomorphism search while B_k passes plane transitivity."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _isomorphisms(*args)

    monkeypatch.setattr(lattice, "_isomorphisms", counted)
    v = axioms.check_plane_transitivity(atomic_sps(boolean(k)))
    assert v.passed
    return len(calls)


def test_plane_transitivity_on_b6_asks_a_few_questions_per_plane(monkeypatch):
    # B6 has 15 planes, each fixing 2 of the 6 atoms; the other 4 form one
    # orbit.  The atoms are the join-irreducibles, and exchanging two atoms
    # outside a plane is a swap that fixes it, so no plane asks a question
    assert plane_transitivity_queries(6, monkeypatch) == 0


@pytest.mark.parametrize("k", [4, 5, 7])
def test_plane_transitivity_queries_on_boolean_ladder(k, monkeypatch):
    # swaps of atoms decide every orbit: no questions, against 3(k - 3) when
    # only queries found maps and C(k, 2)(k - 3) with no maps kept
    assert plane_transitivity_queries(k, monkeypatch) == 0


def test_automorphism_counts():
    assert len(automorphisms(chain(4))) == 1  # chains are rigid
    assert len(automorphisms(boolean_square())) == 2
    # every permutation of the 4 incomparable atoms extends: 4! maps
    assert len(automorphisms(mo2())) == 24


def test_automorphisms_form_group(corpus_lattice):
    autos = automorphisms(corpus_lattice)
    table = set(autos)
    assert tuple(range(corpus_lattice.size)) in table
    for f in table:
        inverse = [0] * len(f)
        for x, y in enumerate(f):
            inverse[y] = x
        assert tuple(inverse) in table
        for g in table:
            assert tuple(f[g[x]] for x in range(len(g))) in table
