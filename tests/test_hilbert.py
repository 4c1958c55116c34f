import numpy as np
import pytest

from subentity_lab import hilbert as h
from subentity_lab.hilbert import (
    DensityOperator,
    DimensionMismatch,
    NotUnitary,
    PartsBelowRank,
    Projection,
    StateVector,
    born,
    decompositions_sample,
    eigendecomposition,
    is_entangled,
    jacobi_eigh,
    meet_projection,
    partial_trace,
    range_preorder,
    reduced_evolution,
    schmidt,
    tensor,
)
from subentity_lab.sps import quantum_sps

from conftest import BELL, MINUS, PLUS, Z0, Z1, ket, proj

X = np.array([[0, 1], [1, 0]], dtype=complex)
CNOT = np.eye(4)[[0, 1, 3, 2]].astype(complex)


def random_density(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    H = A @ A.conj().T
    return DensityOperator(H / np.trace(H).real)


def random_state(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


# --- reference eigensolver vs numpy oracle --------------------------------


@pytest.mark.parametrize("d", [2, 3, 4, 6, 9, 16])
def test_jacobi_matches_numpy(d):
    rng = np.random.default_rng(d)
    for _ in range(5):
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = (A + A.conj().T) / 2
        w, V = jacobi_eigh(H)
        assert np.allclose(w, np.linalg.eigvalsh(H), atol=1e-9)
        assert np.max(np.abs(V @ np.diag(w) @ V.conj().T - H)) < 1e-9
        assert np.max(np.abs(V.conj().T @ V - np.eye(d))) < 1e-10


# --- tensor ---------------------------------------------------------------


def test_tensor_identities():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))
    P = tensor(proj(Z0), proj(Z1))
    expect = np.zeros((4, 4))
    expect[1, 1] = 1  # left-major index convention: (0,1) -> 0*2+1
    assert np.array_equal(P, expect)
    out = tensor(X, np.eye(2)) @ np.kron(Z0, Z0)
    assert np.allclose(out, np.kron(Z1, Z0))


# --- partial trace --------------------------------------------------------


def test_partial_trace_examples():
    w = partial_trace(proj(np.kron(Z0, Z0)), 2, 2, "A")
    assert np.allclose(w.matrix, proj(Z0))
    w = partial_trace(proj(BELL), 2, 2, "A")
    assert np.allclose(w.matrix, np.eye(2) / 2)
    psi = np.sqrt(1 / 3) * np.kron(Z0, Z0) + np.sqrt(2 / 3) * np.kron(Z1, Z1)
    w = partial_trace(proj(psi), 2, 2, "A")
    assert np.allclose(w.matrix, np.diag([1 / 3, 2 / 3]), atol=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        partial_trace(proj(BELL), 3, 2)


def test_partial_trace_preserves_density_invariants():
    rng = np.random.default_rng(5)
    for dA, dB in [(2, 2), (2, 3), (3, 3), (4, 2)]:
        W = random_density(rng, dA * dB)
        for keep in ("A", "B"):
            R = partial_trace(W, dA, dB, keep)
            assert abs(np.trace(R.matrix).real - 1) < 1e-12
            assert np.max(np.abs(R.matrix - R.matrix.conj().T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(R.matrix)) > -1e-9


# --- Schmidt --------------------------------------------------------------


def test_schmidt_examples():
    f = schmidt(np.kron(PLUS, Z0), 2, 2)
    assert f.rank == 1 and abs(f.coefficients[0] - 1) < 1e-12
    f = schmidt(BELL, 2, 2)
    assert np.allclose(f.coefficients, [2 ** -0.5, 2 ** -0.5])
    psi = np.sqrt(1 / 3) * np.kron(Z0, Z0) + np.sqrt(2 / 3) * np.kron(Z1, Z1)
    f = schmidt(psi, 2, 2)
    assert np.allclose(f.coefficients, [np.sqrt(2 / 3), np.sqrt(1 / 3)])


def test_schmidt_reconstruction_and_ptrace_consistency():
    rng = np.random.default_rng(11)
    for dA, dB in [(2, 2), (2, 3), (3, 3), (3, 4)]:
        for _ in range(10):
            psi = random_state(rng, dA * dB)
            f = schmidt(psi, dA, dB)
            recon = sum(
                f.coefficients[k] * np.kron(f.left_basis[:, k], f.right_basis[:, k])
                for k in range(f.rank)
            )
            # phase-invariant comparison
            assert abs(abs(np.vdot(recon, psi)) - 1) < 1e-8
            assert np.min(np.abs(recon - psi)) < 1e-8 or abs(np.vdot(recon, psi).imag) < 1e-8
            red = partial_trace(proj(psi), dA, dB, "A")
            evals = sorted(np.linalg.eigvalsh(red.matrix), reverse=True)[: f.rank]
            assert np.allclose(f.coefficients ** 2, evals, atol=1e-9)
            for B in (f.left_basis, f.right_basis):
                assert np.max(np.abs(B.conj().T @ B - np.eye(f.rank))) < 1e-8


def test_is_entangled():
    assert not is_entangled(np.kron(Z0, Z1), 2, 2)
    assert is_entangled(BELL, 2, 2)
    lop = np.sqrt(0.999) * np.kron(Z0, Z0) + np.sqrt(0.001) * np.kron(Z1, Z1)
    assert is_entangled(lop, 2, 2)  # rank counts coefficients above eps, not weight


@pytest.mark.parametrize("eps,rank", [(1e-5, 2), (1e-10, 1)])
def test_schmidt_cuts_the_coefficient_not_its_square(eps, rank):
    # a coefficient of 1e-5 has a square of 1e-10, below EPS, yet is itself above it
    psi = np.sqrt(1 - eps ** 2) * np.kron(Z0, Z0) + eps * np.kron(Z1, Z1)
    f = schmidt(psi, 2, 2)
    assert f.rank == rank and is_entangled(psi, 2, 2) == (rank == 2)
    assert np.allclose(f.coefficients, [np.sqrt(1 - eps ** 2), eps][:rank], rtol=1e-9, atol=0)


def test_entanglement_iff_mixed_reduction():
    rng = np.random.default_rng(3)
    for _ in range(30):
        psi = random_state(rng, 6)
        red = partial_trace(proj(psi), 2, 3, "A")
        assert is_entangled(psi, 2, 3) == (h.purity(red) < 1 - 1e-9)


# --- eigendecomposition ---------------------------------------------------


def test_eigendecomposition_examples():
    assert [(round(p, 12), tuple(np.round(v, 6))) for p, v in
            eigendecomposition(DensityOperator(proj(Z0)))] == [(1.0, (1 + 0j, 0j))]
    pairs = eigendecomposition(DensityOperator(np.eye(2) / 2))
    assert [p for p, _ in pairs] == [0.5, 0.5]
    V = np.column_stack([v for _, v in pairs])
    assert np.max(np.abs(V.conj().T @ V - np.eye(2))) < 1e-10
    pairs = eigendecomposition(DensityOperator(np.diag([1 / 3, 2 / 3])))
    assert np.allclose([p for p, _ in pairs], [2 / 3, 1 / 3])
    assert abs(abs(pairs[0][1][1]) - 1) < 1e-12


def test_eigendecomposition_reconstructs():
    rng = np.random.default_rng(13)
    for d in (2, 3, 5):
        W = random_density(rng, d)
        R = sum(p * np.outer(v, v.conj()) for p, v in eigendecomposition(W))
        assert np.max(np.abs(R - W.matrix)) < 1e-8


# --- decompositions -------------------------------------------------------


def test_decompositions_pure_single_part():
    W = DensityOperator(proj(PLUS))
    [(terms,)] = [tuple(decompositions_sample(W, 1, 1, seed=0))]
    q, v = terms[0] if isinstance(terms, list) else terms
    assert abs(q - 1) < 1e-12
    assert abs(abs(np.vdot(v, PLUS)) - 1) < 1e-10


def test_decompositions_reconstruct():
    rng = np.random.default_rng(17)
    for d in (2, 3, 4):
        W = random_density(rng, d)
        for terms in decompositions_sample(W, d + 2, 4, seed=int(d)):
            R = sum(q * np.outer(v, v.conj()) for q, v in terms)
            assert np.max(np.abs(R - W.matrix)) < 1e-8
            assert abs(sum(q for q, _ in terms) - 1) < 1e-10
            assert all(q > 0 for q, _ in terms)


def test_decompositions_deterministic_and_guarded():
    W = DensityOperator(np.eye(2) / 2)
    a = decompositions_sample(W, 3, 2, seed=42)
    b = decompositions_sample(W, 3, 2, seed=42)
    for ta, tb in zip(a, b):
        for (qa, va), (qb, vb) in zip(ta, tb):
            assert qa == qb and np.array_equal(va, vb)
    with pytest.raises(PartsBelowRank):
        decompositions_sample(W, 1, 1, seed=0)


# --- born, range preorder -------------------------------------------------


def test_born_examples():
    W = DensityOperator(proj(BELL))
    assert born(W, Projection(np.eye(4))) >= 1 - 1e-12
    assert abs(born(W, Projection(np.kron(proj(Z0), np.eye(2)))) - 0.5) < 1e-12
    assert born(DensityOperator(proj(Z0)), Projection(proj(Z1))) <= 1e-12


def test_range_preorder():
    W = DensityOperator(np.eye(2) / 2)
    P0 = DensityOperator(proj(Z0))
    assert range_preorder(W, W)
    assert range_preorder(P0, W)
    assert not range_preorder(W, P0)
    W1 = DensityOperator(np.diag([0.5, 0.5, 0.0]))
    W2 = DensityOperator(np.eye(3) / 3)
    assert range_preorder(W1, W2)
    assert not range_preorder(W2, W1)


# --- reduced evolution ----------------------------------------------------


def test_reduced_evolution_controlled_flip():
    before, after = reduced_evolution(np.kron(PLUS, Z0), CNOT, 2, 2)
    assert abs(before - 1) < 1e-9
    assert abs(after - 0.5) < 1e-9


def test_reduced_evolution_identity_and_local():
    psi = np.kron(PLUS, Z0)
    before, after = reduced_evolution(psi, np.eye(4), 2, 2)
    assert abs(before - after) < 1e-12
    rng = np.random.default_rng(23)
    for _ in range(20):
        UA, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        UB, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        psi = random_state(rng, 4)
        before, after = reduced_evolution(psi, np.kron(UA, UB), 2, 2)
        assert abs(before - after) < 1e-9


def test_reduced_evolution_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        reduced_evolution(np.kron(PLUS, Z0), np.ones((4, 4)), 2, 2)


# --- covariance identity (algebraic heart of the canonical witness) --------


def test_born_covariance_with_partial_trace():
    rng = np.random.default_rng(29)
    for dA, dB in [(2, 2), (2, 3), (3, 3)]:
        for _ in range(25):
            W = random_density(rng, dA * dB)
            k = int(rng.integers(1, dA + 1))
            Q, _ = np.linalg.qr(rng.normal(size=(dA, k)) + 1j * rng.normal(size=(dA, k)))
            P = Q @ Q.conj().T
            lhs = np.trace(W.matrix @ np.kron(P, np.eye(dB))).real
            rhs = np.trace(partial_trace(W, dA, dB, "A").matrix @ P).real
            assert abs(lhs - rhs) <= 1e-10


# --- projection meet ------------------------------------------------------


def test_meet_projection():
    P = meet_projection(proj(Z0), proj(Z1))
    assert np.max(np.abs(P.matrix)) < 1e-9
    # two 2d planes in 3d intersect in a line
    A = Projection(np.diag([1.0, 1.0, 0.0]))
    B = Projection(np.diag([0.0, 1.0, 1.0]))
    M = meet_projection(A, B)
    assert M.rank == 1
    assert np.allclose(M.matrix, np.diag([0.0, 1.0, 0.0]), atol=1e-9)


def _outer_sum(vectors, dim):
    """The reference for V @ V^H: one outer product per selected vector."""
    R = np.zeros((dim, dim), dtype=complex)
    for v in vectors:
        R += np.outer(v, v.conj())
    return R


def test_projections_match_the_outer_product_loop():
    # only the summation order changes, so float64 rounding bounds the gap
    rng = np.random.default_rng(5)
    for dim in (2, 3, 4, 6):
        for _ in range(10):
            U, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            A, B = (rng.random(dim) < 0.6 for _ in range(2))
            PA, PB = U[:, A] @ U[:, A].conj().T, U[:, B] @ U[:, B].conj().T
            evals, vecs = np.linalg.eigh(2 * np.eye(dim) - PA - PB)
            R = _outer_sum([vecs[:, k] for k in range(dim) if evals[k] <= h.EPS_RECON], dim)
            M = meet_projection(PA, PB).matrix
            assert np.max(np.abs(M - (R + R.conj().T) / 2)) <= 1e-12
            assert np.max(np.abs(M - U[:, A & B] @ U[:, A & B].conj().T)) <= 1e-8
            weights = rng.random(dim) * (rng.random(dim) < 0.7)
            weights[0] += 0.1
            W = DensityOperator(U @ np.diag(weights / weights.sum()) @ U.conj().T)
            Q = _outer_sum([v for p, v in eigendecomposition(W) if p > h.EPS], dim)
            assert np.max(np.abs(h.support_projection(W) - Q)) <= 1e-12


def test_type_invariants_enforced():
    with pytest.raises(h.InvalidOperator):
        DensityOperator(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(h.InvalidOperator):
        Projection(np.array([[0.5, 0.0], [0.0, 0.0]]))  # not idempotent
    with pytest.raises(h.NormViolation):
        StateVector(np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entries_are_invalid_operators(bad):
    # NaN compares false against every tolerance, so only an entry check refuses it
    M = np.array([[bad, 0.0], [0.0, 0.0]])
    for check, arg in ((StateVector, M[0]), (DensityOperator, M), (Projection, M),
                       (h.check_unitary, M)):
        with pytest.raises(h.InvalidOperator, match="entries must be finite"):
            check(arg)


RAW = np.array([[0.5, 0.25j], [-0.25j, 0.5]])  # a density matrix, not wrapped
CARRIED = DensityOperator(RAW)
LINE = np.diag([1.0, 0.0, 0.0])


@pytest.mark.parametrize("op, args, carried", [
    (born, (np.full((2, 2), np.nan), np.eye(2)), None),
    (born, (5 * np.eye(2), np.eye(2)), None),
    (partial_trace, (np.ones((4, 3)), 2, 2), None),
    (meet_projection, (np.diag([1.0, 0.5, 0.0]), np.eye(3)), None),
    (quantum_sps, ([LINE], [np.diag([1.0, 1e-5, 0.0])]), None),
    (quantum_sps, ([LINE], [np.array([[1, 1e-3, 0], [0, 0, 0], [0, 0, 0]])]), None),
    (h.purity, (RAW,), (CARRIED,)),
    (eigendecomposition, (RAW,), (CARRIED,)),
    (h.support_projection, (RAW,), (CARRIED,)),
    (range_preorder, (proj(Z0), RAW), (DensityOperator(proj(Z0)), CARRIED)),
    (decompositions_sample, (RAW, 3, 2, 7), (CARRIED, 3, 2, 7)),
])
def test_a_raw_operand_is_read_as_its_carrier(op, args, carried):
    # a malformed raw operand is refused as its carrier refuses it, not read
    # unchecked (or reported as a near-degenerate meet); a valid one gives
    # what the carrier gives
    if carried is None:
        with pytest.raises(h.InvalidOperator):
            op(*args)
    else:
        np.testing.assert_equal(op(*args), op(*carried))
