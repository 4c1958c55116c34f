import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subentity_lab.hilbert import (
    EPS_MATCH,
    DensityOperator,
    DimensionMismatch,
    Projection,
    born,
    jacobi_eigh,
    meet_projection,
)
from subentity_lab.lattice import build_lattice, meet
from subentity_lab.sps import (
    Def1MeetClosureViolation,
    Def1TopBottomViolation,
    SPSError,
    atomic_sps,
    build_sps,
    close_projections,
    property_preorder,
    quantum_sps,
    state_preorder,
)

from conftest import BELL, CORPUS, PLUS, Z0, Z1, boolean_square, chain, proj
from test_axioms import bounded_lattices


def two_state_square():
    L = boolean_square()
    return build_sps(L, 2, [[False, True, False, True], [False, False, True, True]])


def test_minimal_entity():
    S = build_sps(chain(2), 1, [[False, True]])
    assert S.xi[0] == frozenset({1})
    assert S.kappa[1] == frozenset({0})
    assert build_sps(chain(2), 1, [0b10]) == S  # a row as an int mask
    for row in (0b110, -1):  # bits beyond the lattice
        with pytest.raises(SPSError, match="dimensions"):
            build_sps(chain(2), 1, [row])


def test_meet_closure_violation():
    L = boolean_square()
    with pytest.raises(Def1MeetClosureViolation) as exc:
        build_sps(L, 1, [[False, True, True, True]])
    assert exc.value.state == 0
    assert set(exc.value.family) <= {1, 2, 3}
    # meet-closed but not upward closed: 1 <= 2 with 1 actual and 2 not
    with pytest.raises(Def1MeetClosureViolation) as exc:
        build_sps(chain(4), 1, [[False, True, False, True]])
    assert exc.value.family == (1, 2)


def test_top_bottom_violations():
    L = boolean_square()
    with pytest.raises(Def1TopBottomViolation):
        build_sps(L, 1, [[False, True, False, False]])  # top missing
    with pytest.raises(Def1TopBottomViolation):
        build_sps(L, 1, [[True, True, False, True]])  # bottom actual


def test_two_state_square_valid_and_duality():
    S = two_state_square()
    for p in range(S.num_states):
        for a in range(S.lattice.size):
            assert (a in S.xi[p]) == (p in S.kappa[a])


def test_state_preorder():
    S = two_state_square()
    assert state_preorder(S, 0, 0)
    assert not state_preorder(S, 0, 1)
    # a state whose actual-set is only the top sits above everything
    L = S.lattice
    T = build_sps(L, 3, [[False, True, False, True], [False, False, True, True],
                         [False, False, False, True]])
    assert all(state_preorder(T, p, 2) for p in range(3))


def test_property_preorder():
    S = two_state_square()
    assert property_preorder(S, 1, 1)
    assert all(property_preorder(S, 0, a) for a in range(4))  # bottom below all
    assert property_preorder(S, 1, 3)
    assert not property_preorder(S, 1, 2)


def test_preorders_are_preorders(corpus_lattice):
    S = atomic_sps(corpus_lattice)
    n, m = S.num_states, S.lattice.size
    for p in range(n):
        assert state_preorder(S, p, p)
        for q in range(n):
            for r in range(n):
                if state_preorder(S, p, q) and state_preorder(S, q, r):
                    assert state_preorder(S, p, r)
    for a in range(m):
        assert property_preorder(S, a, a)
        for b in range(m):
            for c in range(m):
                if property_preorder(S, a, b) and property_preorder(S, b, c):
                    assert property_preorder(S, a, c)


# --- quantum construction -------------------------------------------------


def test_quantum_sps_eigenstate():
    q = quantum_sps([proj(Z0)], [proj(Z0)])
    # lattice: 0, |0><0|, |1><1| (meet closure adds nothing; complement not added), identity
    S = q.sps
    actual_ranks = sorted(q.prop_ops[a].rank for a in S.xi[0])
    assert actual_ranks == [1, 2]  # the |0><0| property and the identity


def test_quantum_sps_superposition_not_actual():
    q = quantum_sps([proj(PLUS)], [proj(Z0)])
    actual = [q.prop_ops[a].rank for a in q.sps.xi[0]]
    assert actual == [2]  # only the identity is certain


def test_quantum_sps_bell_nonobjective():
    lifted = np.kron(proj(Z0), np.eye(2))
    q = quantum_sps([proj(BELL)], [lifted])
    actual = [q.prop_ops[a].rank for a in q.sps.xi[0]]
    assert actual == [4]  # Tr(W P) = 1/2, not certain


def test_quantum_sps_duplicate_states_reported():
    q = quantum_sps([proj(PLUS), np.eye(2) / 2], [proj(Z0)])
    assert q.duplicate_states == ((0, 1),)


def test_actuality_matches_exact_range_criterion():
    # Tr(WP) = 1 is equivalent to P W = W; cross-check against an
    # eigenvector-based oracle on a spread of operators
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, d + 1))
        Q, _ = np.linalg.qr(rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k)))
        P = Q @ Q.conj().T
        if rng.random() < 0.5:
            A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        else:
            # supported inside range(P), so actuality should hold
            A = Q @ (rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d)))
        H = A @ A.conj().T
        W = DensityOperator(H / np.trace(H).real)
        born_actual = np.trace(W.matrix @ P).real >= 1 - 1e-9
        # oracle: every eigenvector of W with nonzero weight lies in range(P)
        evals, vecs = jacobi_eigh(W.matrix)
        oracle = all(
            np.linalg.norm(P @ vecs[:, i] - vecs[:, i]) <= 1e-6
            for i in range(d) if evals[i] > 1e-9
        )
        assert born_actual == oracle


def test_property_on_another_space_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        quantum_sps([np.eye(2) / 2], [np.eye(3)])
    with pytest.raises(DimensionMismatch):
        close_projections([proj(Z0), np.eye(3)], 2)


# --- the closure against the round-based formulation -----------------------


def oracle_quantum_sps(states, props, eps=1e-9):
    """(lattice, projection matrices, xi, duplicate states) by the literal
    construction: meet every pair of the list each round until no new
    projection appears, dedupe by a linear scan, and read the order off
    the products P_j P_i = P_i."""
    def equal(A, B):
        return np.max(np.abs(A - B)) <= EPS_MATCH

    dim = states[0].shape[0]
    mats = []
    for M in [np.zeros((dim, dim)), np.eye(dim)] + list(props):
        if not any(equal(M, K) for K in mats):
            mats.append(np.asarray(M, dtype=complex))
    while True:
        new = []
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                M = meet_projection(mats[i], mats[j]).matrix
                if not any(equal(M, K) for K in mats + new):
                    new.append(M)
        if not new:
            break
        mats += new

    def sort_key(P):
        ent = np.round(P.matrix, 6)
        return (P.rank, tuple(ent.real.ravel()), tuple(ent.imag.ravel()))

    projs = sorted((Projection(M) for M in mats), key=sort_key)
    n = len(projs)
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i != j and equal(projs[j].matrix @ projs[i].matrix, projs[i].matrix)]
    xi = tuple(frozenset(a for a, P in enumerate(projs) if born(W, P) >= 1.0 - eps)
               for W in states)
    dupes = tuple((p, q) for p in range(len(xi)) for q in range(p + 1, len(xi))
                  if xi[p] == xi[q])
    return build_lattice(n, pairs), [P.matrix for P in projs], xi, dupes


@st.composite
def projection_families(draw):
    """Random projections of one kind on a 2- to 4-dimensional space, some of
    them repeated, and states that make some of them actual."""
    dim = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(("rank1", "coatoms", "aligned", "mixed")))
    count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    props = []
    for _ in range(count):
        if kind == "rank1":
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            props.append(proj(v / np.linalg.norm(v)))
        elif kind == "coatoms":
            props.append(np.eye(dim) - proj(U[:, rng.integers(dim)]))
        elif kind == "aligned":
            props.append(np.diag(rng.integers(0, 2, size=dim)).astype(complex))
        else:
            Q = U[:, rng.permutation(dim)[:rng.integers(1, dim + 1)]]
            props.append(Q @ Q.conj().T)
    props += props[:draw(st.integers(0, count))]
    states = [P / np.trace(P).real for P in props[:2] if np.trace(P).real > 0.5]
    X = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
    states += [X @ X.conj().T / np.trace(X @ X.conj().T).real, np.eye(dim) / dim]
    return states, props


@settings(max_examples=200, derandomize=True, deadline=None)
@given(projection_families())
def test_quantum_sps_against_round_based_closure(family):
    states, props = family
    lattice, mats, xi, dupes = oracle_quantum_sps(states, props)
    q = quantum_sps(states, props)
    assert q.sps.lattice == lattice
    assert q.sps.xi == xi
    assert q.duplicate_states == dupes
    closed = close_projections(props, states[0].shape[0])
    for got in (q.prop_ops, closed):
        assert len(got) == len(mats)
        assert all(np.max(np.abs(P.matrix - M)) <= EPS_MATCH for P, M in zip(got, mats))


# --- build_sps against the frozenset formulation --------------------------


def oracle_build_sps(lattice, num_states, actuality):
    """(xi, kappa) by the frozenset formulation, raising as build_sps does."""
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
        frozenset(p for p in range(num_states) if a in xi[p]) for a in range(lattice.size))
    return xi, kappa


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), exc.args, vars(exc)


@st.composite
def actuality_tables(draw):
    """A lattice and a table whose rows are principal filters, perturbed ones, or random."""
    L = build_lattice(*draw(bounded_lattices()))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("filter", "perturbed", "random")))
        if kind == "random":
            rows.append(draw(st.lists(st.booleans(), min_size=L.size, max_size=L.size)))
            continue
        row = list(L.leq[draw(st.integers(0, L.size - 1))])
        if kind == "perturbed":
            for a in draw(st.lists(st.integers(0, L.size - 1), min_size=1, max_size=2)):
                row[a] = not row[a]
        rows.append(row)
    return L, rows


@settings(max_examples=400, derandomize=True, deadline=None)
@given(actuality_tables())
def test_build_sps_against_frozenset_formulation(table):
    L, rows = table
    expected = _outcome(oracle_build_sps, L, len(rows), rows)
    got = _outcome(build_sps, L, len(rows), rows)
    # the same rows given as int masks build the same system, or raise the same
    masks = [sum(1 << a for a, actual in enumerate(row) if actual) for row in rows]
    assert _outcome(build_sps, L, len(rows), masks) == got
    if isinstance(expected[0], type):
        assert got == expected
        return
    assert (got.xi, got.kappa) == expected
    assert all(got.strongest[p] == meet(L, got.xi[p]) for p in range(len(rows)))
