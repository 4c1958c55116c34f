"""Finite-dimensional complex Hilbert machinery.

Carrier types that check their invariants on construction (state vectors,
density operators, projections), tensor products, partial traces, Schmidt
(biorthogonal) decomposition, density-operator decompositions, Born values,
range preorder, and reduced evolution.  The carriers and `check_unitary`
first refuse non-finite entries and non-square operators.  Spectra come
from one numpy eigh or eigvalsh call each, the Schmidt form from one SVD.
`jacobi_eigh`, a cyclic Jacobi rotation method, is the reference the
tests check numpy against; no library code calls it.

Every tolerance of the package is one of three constants.  EPS: density
operators' Hermiticity, the cutoff below which an eigenvalue, Schmidt
coefficient (not its square), amplitude or decomposition weight counts as
zero, degenerate eigenvalue clusters, and the default actuality tolerance
(Born value at least 1 - eps).  EPS_RECON: identities on recomputed
products, namely positivity, Hermiticity and idempotence of projections,
unitarity, range containment, and the null space taken as a meet of
projections.  EPS_MATCH: unit norms, unit and integer traces, and operator
equality (`find_operator`); a meet that has an operand's rank but differs
from it by more than EPS_MATCH is a NearDegenerateMeet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

EPS = 1e-9
EPS_RECON = 1e-8
EPS_MATCH = 1e-7


class HilbertError(Exception):
    pass


class DimensionMismatch(HilbertError):
    pass


class NormViolation(HilbertError):
    pass


class NotUnitary(HilbertError):
    pass


class PartsBelowRank(HilbertError):
    pass


class InvalidOperator(HilbertError):
    """Matrix fails the invariants of its declared operator type."""


class NearDegenerateMeet(HilbertError):
    """Range containment and operator equality disagree on a meet of two projections."""

    def __init__(self, gap):
        self.gap = gap  # the largest entry difference between projections that should be equal
        super().__init__(f"near-degenerate meet: equal projections differ by {gap:.3g}")


def _as_matrix(X):
    """The matrix of a DensityOperator or Projection, else X as a complex array."""
    return X.matrix if isinstance(X, (DensityOperator, Projection)) else np.asarray(X, complex)


def _entries(M, square=True):
    """M as a complex array, refused unless its entries are finite and, if square, it is square."""
    M = np.asarray(M, dtype=complex)
    if not np.isfinite(M).all():
        raise InvalidOperator("entries must be finite")
    if square and (M.ndim != 2 or M.shape[0] != M.shape[1]):
        raise InvalidOperator("operator must be square")
    return M


def find_operator(ops, M):
    """Index of the first of the matrices ops within EPS_MATCH of M entrywise, or None."""
    diffs = np.max(np.abs(np.asarray(ops) - M), axis=(1, 2)) if len(ops) else np.zeros(0)
    hits = np.flatnonzero(diffs <= EPS_MATCH)
    return int(hits[0]) if hits.size else None


def check_unitary(U):
    """Raise NotUnitary unless the square matrix U satisfies U^dagger U = I."""
    U = _entries(U)
    if np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))) > EPS_RECON:
        raise NotUnitary("not unitary within eps")


# ---------------------------------------------------------------------------
# carrier types


@dataclass(frozen=True)
class StateVector:
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _entries(self.amplitudes, square=False).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if abs(np.linalg.norm(amps) - 1.0) > EPS_MATCH:
            raise NormViolation(f"norm {np.linalg.norm(amps)} != 1")

    @property
    def dim(self):
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityOperator:
    matrix: np.ndarray

    def __post_init__(self):
        M = _entries(self.matrix)
        object.__setattr__(self, "matrix", M)
        if np.max(np.abs(M - M.conj().T)) > EPS:
            raise InvalidOperator("not Hermitian within eps")
        if abs(np.trace(M).real - 1.0) > EPS_MATCH:
            raise InvalidOperator(f"trace {np.trace(M).real} != 1")
        least = np.linalg.eigvalsh(M)[0]
        if least < -EPS_RECON:
            raise InvalidOperator(f"not positive semidefinite (min eigenvalue {least})")

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Projection:
    matrix: np.ndarray
    rank: int = field(init=False)  # the trace, set on construction

    def __post_init__(self):
        M = _entries(self.matrix)
        object.__setattr__(self, "matrix", M)
        if np.max(np.abs(M - M.conj().T)) > EPS_RECON:
            raise InvalidOperator("not Hermitian within eps")
        if np.max(np.abs(M @ M - M)) > EPS_RECON:
            raise InvalidOperator("not idempotent within eps")
        tr = np.trace(M).real
        r = int(round(tr))
        if abs(tr - r) > EPS_MATCH:
            raise InvalidOperator(f"trace {tr} is not an integer rank")
        object.__setattr__(self, "rank", r)

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SchmidtForm:
    coefficients: np.ndarray  # descending, above EPS
    left_basis: np.ndarray  # columns orthonormal in the first factor
    right_basis: np.ndarray  # columns orthonormal in the second factor

    @property
    def rank(self):
        return self.coefficients.size


# ---------------------------------------------------------------------------
# reference eigensolver


def jacobi_eigh(H, tol=1e-13, max_sweeps=60):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, eigenvector columns).  Each rotation is
    a complex Givens rotation annihilating one off-diagonal entry.  No
    library code calls it: it is the reference that numpy's eigh is
    checked against in the tests.
    """
    A = _as_matrix(H).copy()
    n = A.shape[0]
    V = np.eye(n, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(A))))
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(A[p, q]))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = A[p, q]
                if abs(g) <= tol * scale:
                    continue
                phase = g / abs(g)
                tau = (A[q, q].real - A[p, p].real) / (2.0 * abs(g))
                if tau >= 0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # columns: A <- A J with J[p,p]=c, J[p,q]=s*phase,
                # J[q,p]=-s*conj(phase), J[q,q]=c
                Ap = A[:, p].copy()
                Aq = A[:, q].copy()
                A[:, p] = c * Ap - s * np.conj(phase) * Aq
                A[:, q] = s * phase * Ap + c * Aq
                # rows: A <- J^dagger A
                Rp = A[p, :].copy()
                Rq = A[q, :].copy()
                A[p, :] = c * Rp - s * phase * Rq
                A[q, :] = s * np.conj(phase) * Rp + c * Rq
                Vp = V[:, p].copy()
                Vq = V[:, q].copy()
                V[:, p] = c * Vp - s * np.conj(phase) * Vq
                V[:, q] = s * phase * Vp + c * Vq
    evals = np.real(np.diag(A))
    order = np.argsort(evals, kind="stable")
    return evals[order], V[:, order]


def _phase_fix(v):
    """The unit factor that makes the first non-negligible amplitude of v real-positive."""
    for x in v:
        if abs(x) > EPS:
            return abs(x) / x
    return 1.0


def _canonical_phase(v):
    return v * _phase_fix(v)


def _canonicalize_degenerate(evals, vecs):
    """Deterministic basis inside each degenerate eigenspace.

    Within a cluster of equal eigenvalues, project the standard basis
    vectors in order onto the eigenspace and Gram-Schmidt them, so the
    output does not depend on the basis the eigensolver happened to pick.
    """
    n = evals.size
    out = vecs.copy()
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(evals[j] - evals[i]) <= EPS:
            j += 1
        if j - i > 1:
            block = vecs[:, i:j]
            proj = block @ block.conj().T
            chosen = []
            for k in range(vecs.shape[0]):
                w = proj[:, k]
                for u in chosen:
                    w = w - u * (u.conj() @ w)
                nrm = np.linalg.norm(w)
                if nrm > EPS_RECON:
                    chosen.append(w / nrm)
                if len(chosen) == j - i:
                    break
            if len(chosen) == j - i:
                out[:, i:j] = np.column_stack(chosen)
        i = j
    for k in range(n):
        out[:, k] = _canonical_phase(out[:, k])
    return out


def eigendecomposition(W):
    """Spectral decomposition of a density operator.

    Returns a list of (weight, unit vector) with weights descending,
    zero-weight terms dropped, and a deterministic basis in degenerate
    eigenspaces.
    """
    evals, vecs = np.linalg.eigh(W.matrix)
    vecs = _canonicalize_degenerate(evals, vecs)
    pairs = [(float(evals[k]), vecs[:, k]) for k in range(evals.size) if evals[k] > EPS]
    pairs.sort(key=lambda t: -t[0])
    return pairs


# ---------------------------------------------------------------------------
# operations


def tensor(A, B):
    """Kronecker product, left factor major: composite index = a*dB + b."""
    return np.kron(_as_matrix(A), _as_matrix(B))


def partial_trace(W, dA, dB, keep="A"):
    """Reduced density operator on the kept factor of a dA*dB system."""
    M = _as_matrix(W)
    if M.shape[0] != dA * dB:
        raise DimensionMismatch(f"operator dim {M.shape[0]} != {dA}*{dB}")
    T = M.reshape(dA, dB, dA, dB)
    if keep == "A":
        R = np.trace(T, axis1=1, axis2=3)
    elif keep == "B":
        R = np.trace(T, axis1=0, axis2=2)
    else:
        raise ValueError("keep must be 'A' or 'B'")
    R = (R + R.conj().T) / 2.0
    return DensityOperator(R)


def _unit_amplitudes(psi):
    return (psi if isinstance(psi, StateVector) else StateVector(psi)).amplitudes


def schmidt(psi, dA, dB):
    """Biorthogonal decomposition of a bipartite unit vector.

    The coefficients are the singular values of psi read as a dA x dB
    matrix, descending, those at most EPS dropped; the reconstruction sum
    of coeff * (left x right) equals psi.
    """
    amps = _unit_amplitudes(psi)
    if amps.size != dA * dB:
        raise DimensionMismatch(f"vector dim {amps.size} != {dA}*{dB}")
    lefts, coeffs, rights = np.linalg.svd(amps.reshape(dA, dB), full_matrices=False)
    r = int(np.count_nonzero(coeffs > EPS))
    # fold phases so each left vector is canonical and the pair still
    # reconstructs psi exactly (no global phase shuffling per term)
    ph = np.array([_phase_fix(lefts[:, k]) for k in range(r)])
    return SchmidtForm(coefficients=coeffs[:r], left_basis=lefts[:, :r] * ph,
                       right_basis=rights[:r].T * ph.conj())


def is_entangled(psi, dA, dB):
    """True iff the Schmidt rank exceeds 1."""
    return schmidt(psi, dA, dB).rank > 1


def born(W, P):
    """Tr(W P), the probability of actualizing the property, clamped to [0,1]."""
    WM, PM = _as_matrix(W), _as_matrix(P)
    if WM.shape != PM.shape:
        raise DimensionMismatch(f"{WM.shape} vs {PM.shape}")
    val = float(np.trace(WM @ PM).real)
    return min(1.0, max(0.0, val))


def support_projection(W):
    """Projection onto the span of the eigenvectors with eigenvalue above EPS."""
    evals, vecs = np.linalg.eigh(W.matrix)
    V = vecs[:, evals > EPS]
    return V @ V.conj().T


def range_preorder(W1, W2):
    """True iff range(W1) is contained in range(W2).

    Decided via the support projection Q2 of W2: containment holds iff
    Q2 W1 Q2 == W1 within EPS_RECON.
    """
    if W1.dim != W2.dim:
        raise DimensionMismatch(f"{W1.dim} vs {W2.dim}")
    Q2 = support_projection(W2)
    return bool(np.max(np.abs(Q2 @ W1.matrix @ Q2 - W1.matrix)) <= EPS_RECON)


def purity(W):
    return float(np.trace(W.matrix @ W.matrix).real)


def decompositions_sample(W, parts, count, seed):
    """Seeded sample of convex pure-state decompositions of W into `parts` terms.

    Each sample applies a random parts-by-rank isometry to the scaled
    eigenvectors, which preserves the reconstruction identity exactly.
    Deterministic per (seed, W, parts).
    """
    pairs = eigendecomposition(W)
    r = len(pairs)
    if parts < r:
        raise PartsBelowRank(f"parts {parts} below rank {r}")
    B = np.column_stack([math.sqrt(p) * v for p, v in pairs])  # dim x r
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        while True:
            Z = rng.normal(size=(parts, r)) + 1j * rng.normal(size=(parts, r))
            Q, _ = np.linalg.qr(Z)  # parts x r isometry, Q^dagger Q = I_r
            Wcols = B @ Q.T  # dim x parts, column j = sum_i Q[j,i] * b_i
            weights = np.sum(np.abs(Wcols) ** 2, axis=0)
            if np.min(weights) > EPS:
                break
        terms = []
        for j in range(parts):
            w = Wcols[:, j]
            q = float(weights[j])
            terms.append((q, _canonical_phase(w / math.sqrt(q))))
        terms.sort(key=lambda t: -t[0])
        samples.append(terms)
    return samples


def reduced_evolution(psi0, U, dA, dB):
    """Purity of the reduced operator on factor A before and after a unitary step."""
    amps = _unit_amplitudes(psi0)
    U = _as_matrix(U)
    if amps.size != dA * dB or U.shape != (dA * dB, dA * dB):
        raise DimensionMismatch("state/unitary dimensions do not match dA*dB")
    check_unitary(U)
    before = purity(partial_trace(np.outer(amps, amps.conj()), dA, dB, keep="A"))
    out = U @ amps
    after = purity(partial_trace(np.outer(out, out.conj()), dA, dB, keep="A"))
    return before, after


def meet_projection(P, Q):
    """Projection onto range(P) intersect range(Q).

    Computed as the null space of (I-P) + (I-Q), extracted from the
    eigendecomposition of that positive semidefinite sum.  The meet lies in
    both ranges, so it must equal each operand of its rank (and so they each
    other) within EPS_MATCH, or NearDegenerateMeet is raised.
    """
    PM, QM = _as_matrix(P), _as_matrix(Q)
    if PM.shape != QM.shape:
        raise DimensionMismatch(f"{PM.shape} vs {QM.shape}")
    n = PM.shape[0]
    S = (np.eye(n) - PM) + (np.eye(n) - QM)
    evals, vecs = np.linalg.eigh(S)
    V = vecs[:, evals <= EPS_RECON]
    R = V @ V.conj().T
    R = Projection((R + R.conj().T) / 2.0)
    same = [R.matrix] + [X for X in (PM, QM) if abs(X.trace().real - R.rank) < 0.5]
    gap = max((abs(A - B).max() for A, B in combinations(same, 2)), default=0.0)
    if gap > EPS_MATCH:
        raise NearDegenerateMeet(float(gap))
    return R
