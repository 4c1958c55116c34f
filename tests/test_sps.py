import numpy as np
import pytest

from subentity_lab.hilbert import DensityOperator, jacobi_eigh
from subentity_lab.sps import (
    Def1MeetClosureViolation,
    Def1TopBottomViolation,
    atomic_sps,
    build_sps,
    property_preorder,
    quantum_sps,
    state_preorder,
)

from conftest import BELL, CORPUS, PLUS, Z0, Z1, boolean_square, chain, proj


def two_state_square():
    L = boolean_square()
    return build_sps(L, 2, [[False, True, False, True], [False, False, True, True]])


def test_minimal_entity():
    S = build_sps(chain(2), 1, [[False, True]])
    assert S.xi[0] == frozenset({1})
    assert S.kappa[1] == frozenset({0})


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
