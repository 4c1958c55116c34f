"""quantum-completion: matrices -> completed model -> the checks on it.

Covers `hilbert` and `sps`.  Each case builds a seeded completed model
with build_completed_model, checks it with canonical_witness_check and
verify_witness, and runs schmidt, partial_trace, decompositions_sample
and reduced_evolution on a seeded vector of the same dimensions.  The
references (eigenvalues, reduced operators, purities) come from numpy
during set-up, never from the code under test.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from subentity_lab import hilbert, subentity

from harness import Case, Workload, expect, load_answers

DIMS = ((2, 2), (2, 3), (3, 3), (4, 2), (4, 4))
PARTS = ("rank1", "coatoms")
# Copies per cycle of each rung's one seeded input: the dA = 4 Boolean
# rungs are the 14 slowest, so the tail (11th-slowest of 30) sits inside
# them; the median sits inside 4x4-rank1.
COPIES = {"4x2-coatoms": 10, "4x4-coatoms": 4}
TOL = 1e-7


def rung_name(dims, parts):
    return f"{dims[0]}x{dims[1]}-{parts}"


def _unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _density(rng, n, rank):
    X = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    W = X @ X.conj().T
    return W / np.trace(W).real


def proj(v):
    return np.outer(v, v.conj())


def _reduce(M, dA, dB):
    return np.einsum("ijkj->ik", M.reshape(dA, dB, dA, dB))


def _purity(M):
    return float(np.trace(M @ M).real)


def make_inputs(rng, dims, parts):
    """Raw matrices for one case, plus the numpy references it is checked against."""
    dA, dB = dims
    d = dA * dB
    U = _unitary(rng, dA)
    if parts == "coatoms":
        # rotated coordinate coatoms: their meets give the Boolean 2^dA lattice
        props = [U @ (np.eye(dA) - proj(np.eye(dA)[i])) @ U.conj().T for i in range(dA)]
        aligned = [U[:, 0], U[:, 1]]
    else:
        vecs = [_unit(rng, dA) for _ in range(3)]
        props = [proj(v) for v in vecs]
        aligned = vecs[:2]
    # two states certain on chosen part properties, then mixed ranks 1, 2, full
    wholes = [np.kron(proj(v), _density(rng, dB, dB)) for v in aligned]
    wholes += [_density(rng, d, r) for r in (1, 2, d)]
    psi = _unit(rng, d)
    rho_a = _reduce(proj(psi), dA, dB)
    V = _unitary(rng, d)
    out = V @ psi
    return {
        "dims": dims,
        "wholes": wholes,
        "props": props,
        "psi": psi,
        "U": V,
        "W": wholes[-1],
        "ref_schmidt_sq": np.sort(np.linalg.eigvalsh(rho_a))[::-1],
        "ref_reduced": _reduce(wholes[-1], dA, dB),
        "ref_purity": (_purity(rho_a), _purity(_reduce(proj(out), dA, dB))),
    }


def quantum_case(inp, expected):
    dA, dB = inp["dims"]
    model = subentity.build_completed_model(inp["dims"], inp["wholes"], inp["props"])
    got = {
        "part_lattice": model.part.sps.lattice.size,
        "whole_lattice": model.whole.sps.lattice.size,
        "part_states": len(model.part.state_ops),
        "covariance": subentity.canonical_witness_check(model),
        "verified": subentity.verify_witness(model.part.sps, model.whole.sps, model.witness).ok,
    }
    expect(got == expected, f"model {got}, pinned {expected}")

    form = hilbert.schmidt(inp["psi"], dA, dB)
    ref = inp["ref_schmidt_sq"][:form.rank]
    expect(np.allclose(form.coefficients ** 2, ref, atol=TOL)
           and np.all(inp["ref_schmidt_sq"][form.rank:] <= TOL),
           "Schmidt coefficients disagree with eigvalsh")
    back = sum(c * np.kron(form.left_basis[:, k], form.right_basis[:, k])
               for k, c in enumerate(form.coefficients))
    expect(np.allclose(back, inp["psi"], atol=TOL), "Schmidt form does not rebuild psi")

    R = hilbert.partial_trace(inp["W"], dA, dB, keep="A")
    expect(np.allclose(R.matrix, inp["ref_reduced"], atol=TOL), "partial trace differs")

    samples = hilbert.decompositions_sample(R, dA + 1, 2, seed=dA * 10 + dB)
    for terms in samples:
        rebuilt = sum(q * proj(v) for q, v in terms)
        expect(np.allclose(rebuilt, R.matrix, atol=TOL), "decomposition does not rebuild W")

    before, after = hilbert.reduced_evolution(inp["psi"], inp["U"], dA, dB)
    expect(np.allclose((before, after), inp["ref_purity"], atol=TOL), "reduced purities differ")


def build(seed):
    rng = np.random.default_rng(seed)
    answers = load_answers()["quantum-completion"]
    cycle = []
    for dims in DIMS:
        for parts in PARTS:
            name = rung_name(dims, parts)
            case = Case(name, partial(quantum_case, make_inputs(rng, dims, parts), answers[name]))
            cycle += [case] * COPIES.get(name, 2)
    order = rng.permutation(len(cycle))
    cycle = [cycle[i] for i in order]
    name = rung_name((2, 2), "rank1")
    warmup = [Case(name, partial(quantum_case, make_inputs(rng, (2, 2), "rank1"), answers[name]))]
    return Workload(cycle, warmup)
