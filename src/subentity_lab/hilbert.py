"""Finite-dimensional complex Hilbert machinery.

Carrier types that check their invariants on construction (state vectors,
density operators, projections), tensor products, partial traces, Schmidt
(biorthogonal) decomposition, density-operator decompositions, Born values,
range preorder, and reduced evolution.  Spectra come from numpy's eigh and
eigvalsh.  `jacobi_eigh`, a cyclic Jacobi rotation method, is the reference
the tests check numpy against; no library code calls it.

Every tolerance of the package is one of three constants.  EPS: density
operators' Hermiticity, the cutoff below which an eigenvalue, Schmidt
coefficient, amplitude or decomposition weight counts as zero, degenerate
eigenvalue clusters, and the default actuality tolerance (Born value at
least 1 - eps).  EPS_RECON: identities on recomputed products, namely
positivity, Hermiticity and idempotence of projections, unitarity, range
containment, and the null space taken as a meet of projections.  EPS_MATCH:
unit norms, unit and integer traces, and operator equality (`find_operator`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _as_complex(M):
    return np.asarray(M, dtype=complex)


def find_operator(ops, M):
    """Index of the first of the matrices ops within EPS_MATCH of M entrywise, or None."""
    diffs = np.max(np.abs(np.asarray(ops) - M), axis=(1, 2)) if len(ops) else np.zeros(0)
    hits = np.flatnonzero(diffs <= EPS_MATCH)
    return int(hits[0]) if hits.size else None


def check_unitary(U):
    """Raise NotUnitary unless the square matrix U satisfies U^dagger U = I."""
    if np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))) > EPS_RECON:
        raise NotUnitary("not unitary within eps")


# ---------------------------------------------------------------------------
# carrier types


@dataclass(frozen=True)
class StateVector:
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_complex(self.amplitudes).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if not np.all(np.isfinite(amps.view(float))):
            raise InvalidOperator("non-finite amplitude")
        if abs(np.linalg.norm(amps) - 1.0) > EPS_MATCH:
            raise NormViolation(f"norm {np.linalg.norm(amps)} != 1")

    @property
    def dim(self):
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityOperator:
    matrix: np.ndarray

    def __post_init__(self):
        M = _as_complex(self.matrix)
        object.__setattr__(self, "matrix", M)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise InvalidOperator("density operator must be square")
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
        M = _as_complex(self.matrix)
        object.__setattr__(self, "matrix", M)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise InvalidOperator("projection must be square")
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
    A = _as_complex(H).copy()
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
                w = proj @ np.eye(vecs.shape[0], dtype=complex)[:, k]
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
    return np.kron(_as_complex(A), _as_complex(B))


def partial_trace(W, dA, dB, keep="A"):
    """Reduced density operator on the kept factor of a dA*dB system."""
    M = W.matrix if isinstance(W, DensityOperator) else _as_complex(W)
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

    Coefficients are descending square roots of the reduced-operator
    eigenvalues; the reconstruction sum of coeff * (left x right) equals
    psi up to global phase.
    """
    amps = _unit_amplitudes(psi)
    if amps.size != dA * dB:
        raise DimensionMismatch(f"vector dim {amps.size} != {dA}*{dB}")
    M = amps.reshape(dA, dB)
    evals, vecs = np.linalg.eigh(M.conj().T @ M)
    order = np.argsort(-evals, kind="stable")
    coeffs = []
    lefts = []
    rights = []
    for k in order:
        if evals[k] <= EPS:
            continue
        sigma = math.sqrt(max(evals[k], 0.0))
        r = vecs[:, k]
        l = M @ r / sigma
        # fold phases so the left vector is canonical and the pair still
        # reconstructs psi exactly (no global phase shuffling per term)
        ph = _phase_fix(l)
        l, r = l * ph, r * ph
        coeffs.append(sigma)
        lefts.append(l)
        rights.append(r.conj())
    return SchmidtForm(
        coefficients=np.array(coeffs),
        left_basis=np.column_stack(lefts),
        right_basis=np.column_stack(rights),
    )


def is_entangled(psi, dA, dB):
    """True iff the Schmidt rank exceeds 1."""
    return schmidt(psi, dA, dB).rank > 1


def born(W, P):
    """Tr(W P), the probability of actualizing the property, clamped to [0,1]."""
    WM = W.matrix if isinstance(W, DensityOperator) else _as_complex(W)
    PM = P.matrix if isinstance(P, Projection) else _as_complex(P)
    if WM.shape != PM.shape:
        raise DimensionMismatch(f"{WM.shape} vs {PM.shape}")
    val = float(np.trace(WM @ PM).real)
    return min(1.0, max(0.0, val))


def support_projection(W):
    """Projection onto the span of the eigenvectors with eigenvalue above EPS."""
    V = np.column_stack([v for _, v in eigendecomposition(W)])
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
    U = _as_complex(U)
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
    eigendecomposition of that positive semidefinite sum.
    """
    PM = P.matrix if isinstance(P, Projection) else _as_complex(P)
    QM = Q.matrix if isinstance(Q, Projection) else _as_complex(Q)
    if PM.shape != QM.shape:
        raise DimensionMismatch(f"{PM.shape} vs {QM.shape}")
    n = PM.shape[0]
    S = (np.eye(n) - PM) + (np.eye(n) - QM)
    evals, vecs = np.linalg.eigh(S)
    V = vecs[:, evals <= EPS_RECON]
    R = V @ V.conj().T
    R = (R + R.conj().T) / 2.0
    return Projection(R)
