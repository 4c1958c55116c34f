"""Acceptance battery: one criterion per test, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
pass/fail lines on the terminal.
"""

import random
import time
from itertools import permutations, product
from pathlib import Path

import numpy as np

from subentity_lab.axioms import run_battery
from subentity_lab.hilbert import (
    DensityOperator,
    decompositions_sample,
    eigendecomposition,
    partial_trace,
    purity,
    reduced_evolution,
    schmidt,
    is_entangled,
)
from subentity_lab.lecce import (
    build_lecce_sps,
    certainly_domains,
    check_partition_property,
    partition_effects,
    partition_states,
    validate_world,
)
from subentity_lab.modelio import ModelIOError, parse_model, serialize_model
from subentity_lab.sps import atomic_sps
from subentity_lab.subentity import (
    build_completed_model,
    canonical_witness_check,
    search_witness,
    verify_witness,
)

from conftest import BELL, CORPUS, MINUS, PLUS, Z0, Z1, proj
import test_axioms as ax
from test_subentity import bell_whole_sps, oracle_witnesses, pure_part_sps

FIXTURES = Path(__file__).parent / "fixtures"


def _verdict(num, label, ok):
    print(f"\nACCEPTANCE {num} ({label}): {'pass' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed"


def test_acceptance_1_axiom_battery_gallery():
    t0 = time.perf_counter()
    ok = True
    for name, L in CORPUS.items():
        S = atomic_sps(L)
        verdicts = {v.axiom: v for v in run_battery(S)}
        comps = ax.oracle_orthocomplementations(L)
        ok &= verdicts["state_determination"].passed == ax.oracle_state_determination(S)
        ok &= verdicts["atomicity"].passed == ax.oracle_atomicity(S)
        ok &= verdicts["orthocomplementation"].passed == bool(comps)
        ok &= verdicts["covering_law"].passed == ax.oracle_covering_law(L)
        pt, ce = verdicts["plane_transitivity"], ax.oracle_plane_transitivity_counterexample(L)
        ok &= (pt.passed, pt.counterexample) == (ce is None, ce)
        if comps:
            ok &= verdicts["weak_modularity"].passed == ax.oracle_weak_modularity(L, comps[0])
            ok &= verdicts["irreducibility"].passed == ax.oracle_irreducibility(L, comps[0])
            ok &= verdicts["infinite_length"].passed is False
            ok &= (len(verdicts["infinite_length"].counterexample)
                   == ax.oracle_max_orthogonal(L, comps[0]))
    # pinned expectations
    o6v = {v.axiom: v for v in run_battery(atomic_sps(CORPUS["o6"]))}
    ok &= o6v["weak_modularity"].passed is False
    ok &= isinstance(o6v["weak_modularity"].counterexample, tuple)
    sqv = {v.axiom: v for v in run_battery(atomic_sps(CORPUS["boolean_square"]))}
    ok &= sqv["irreducibility"].passed is False
    ok &= sqv["irreducibility"].counterexample in CORPUS["boolean_square"].atoms
    ok &= len(sqv["infinite_length"].counterexample) == 2
    mo2v = {v.axiom: v for v in run_battery(atomic_sps(CORPUS["mo2"]))}
    ok &= len(mo2v["infinite_length"].counterexample) == 2
    elapsed = time.perf_counter() - t0
    _verdict(1, "axiom battery gallery", ok and elapsed < 5.0)


def test_acceptance_2_covariance_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    trials = 0
    for dA, dB in [(2, 2), (2, 3), (3, 3)]:
        for _ in range(350):
            A = rng.normal(size=(dA * dB, dA * dB)) + 1j * rng.normal(size=(dA * dB, dA * dB))
            H = A @ A.conj().T
            W = DensityOperator(H / np.trace(H).real)
            k = int(rng.integers(1, dA + 1))
            Q, _ = np.linalg.qr(rng.normal(size=(dA, k)) + 1j * rng.normal(size=(dA, k)))
            P = Q @ Q.conj().T
            lhs = np.trace(W.matrix @ np.kron(P, np.eye(dB))).real
            rhs = np.trace(partial_trace(W, dA, dB, "A").matrix @ P).real
            worst = max(worst, abs(lhs - rhs))
            trials += 1
    elapsed = time.perf_counter() - t0
    _verdict(2, f"covariance identity, {trials} trials, worst {worst:.2e}",
             trials >= 1000 and worst <= 1e-10 and elapsed < 10.0)


def test_acceptance_3_schmidt_ptrace_consistency():
    rng = np.random.default_rng(3)
    ok = True
    count = 0
    for dA, dB in [(2, 2), (2, 3), (3, 3), (3, 4)]:
        for _ in range(50):
            v = rng.normal(size=dA * dB) + 1j * rng.normal(size=dA * dB)
            psi = v / np.linalg.norm(v)
            f = schmidt(psi, dA, dB)
            red = partial_trace(DensityOperator(proj(psi)), dA, dB, "A")
            evals = sorted(np.linalg.eigvalsh(red.matrix), reverse=True)[: f.rank]
            ok &= bool(np.allclose(f.coefficients ** 2, evals, atol=1e-9))
            recon = sum(
                f.coefficients[k] * np.kron(f.left_basis[:, k], f.right_basis[:, k])
                for k in range(f.rank)
            )
            phase = np.vdot(recon, psi)
            ok &= abs(abs(phase) - 1) <= 1e-8
            ok &= float(np.max(np.abs(recon * phase / abs(phase) - psi))) <= 1e-8
            ok &= is_entangled(psi, dA, dB) == (purity(red) < 1 - 1e-9)
            count += 1
    _verdict(3, f"Schmidt consistency, {count} vectors", ok and count >= 200)


def test_acceptance_4_subentity_negative():
    t0 = time.perf_counter()
    part = pure_part_sps().sps
    whole = bell_whole_sps().sps
    found = search_witness(part, whole)
    oracle = oracle_witnesses(part, whole)
    elapsed = time.perf_counter() - t0
    _verdict(4, "no witness for pure-state part of an entangled compound",
             found is None and oracle == [] and elapsed < 60.0)


def test_acceptance_5_subentity_positive():
    model = build_completed_model(
        (2, 2),
        [proj(np.kron(Z0, Z0)), proj(np.kron(Z1, Z0)), proj(np.kron(PLUS, Z0)),
         proj(np.kron(MINUS, Z0)), proj(BELL)],
        [proj(Z0), proj(Z1), proj(PLUS), proj(MINUS)],
        eps=1e-9,
    )
    canonical_ok = verify_witness(model.part.sps, model.whole.sps, model.witness).ok
    cov_ok = canonical_witness_check(model)
    found = search_witness(model.part.sps, model.whole.sps)
    _verdict(5, "canonical witness for the completed model",
             canonical_ok and cov_ok and found is not None)


def test_acceptance_6_nonunitary_reduced_evolution():
    CNOT = np.eye(4)[[0, 1, 3, 2]].astype(complex)
    before, after = reduced_evolution(np.kron(PLUS, Z0), CNOT, 2, 2)
    ok = abs(before - 1) <= 1e-9 and abs(after - 0.5) <= 1e-9
    rng = np.random.default_rng(6)
    for _ in range(100):
        UA, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        UB, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        b, a = reduced_evolution(v / np.linalg.norm(v), np.kron(UA, UB), 2, 3)
        ok &= abs(b - a) <= 1e-9
    _verdict(6, "purity 1 -> 0.5 under the controlled flip; product invariance", ok)


def test_acceptance_7_decomposition_sampler():
    rng = np.random.default_rng(7)
    ok = True
    for d in (2, 3, 4):
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = A @ A.conj().T
        W = DensityOperator(H / np.trace(H).real)
        for parts in range(d, 7):
            for terms in decompositions_sample(W, parts, 3, seed=parts):
                R = sum(q * np.outer(v, v.conj()) for q, v in terms)
                ok &= float(np.max(np.abs(R - W.matrix))) <= 1e-8
                ok &= abs(sum(q for q, _ in terms) - 1) <= 1e-10
                ok &= all(q > 0 for q, _ in terms)
    # a pure input with parts=1 reproduces the eigendecomposition up to phase
    for v0 in (Z0, PLUS, np.array([0.6, 0.8j])):
        W = DensityOperator(proj(v0 / np.linalg.norm(v0)))
        [(q, v)] = decompositions_sample(W, 1, 1, seed=0)[0]
        (p_ref, v_ref), = eigendecomposition(W)
        ok &= abs(q - p_ref) <= 1e-12
        ok &= abs(abs(np.vdot(v, v_ref)) - 1) <= 1e-10
    _verdict(7, "decomposition sampler reconstructions", ok)


def test_acceptance_8_lecce_pipeline():
    t0 = time.perf_counter()
    w = parse_model((FIXTURES / "two_labs.labworld").read_bytes()).body["world"]
    ok = validate_world(w).ok
    states = partition_states(w)
    props, _ = partition_effects(w)
    ok &= sorted(sorted(S.member_devices) for S in states) == [["p1", "p2"], ["p3"]]
    ok &= sorted(sorted(E.member_devices) for E in props) == [["r1"], ["r2"], ["r3"]]
    e_t, s_y = certainly_domains(states, props, w.labs)
    for S in states:
        for E in props:
            ok &= (E.id in e_t[S.id]) == (S.id in s_y[E.id])
    part_ok, _ = check_partition_property(w, states)
    ok &= part_ok
    ok &= build_lecce_sps(w).sps is not None
    bad = parse_model((FIXTURES / "two_labs_mismatch.labworld").read_bytes()).body["world"]
    ok &= not validate_world(bad).ok
    elapsed = time.perf_counter() - t0
    _verdict(8, "laboratory-world pipeline", ok and elapsed < 1.0)


def test_acceptance_9_io_round_trip_and_fuzz():
    ok = True
    seeds = []
    for path in sorted(FIXTURES.iterdir()):
        data = path.read_bytes()
        seeds.append(data)
        doc = parse_model(data)
        ser = serialize_model(doc)
        ok &= parse_model(ser) == doc
        ok &= serialize_model(parse_model(ser)) == ser
    rng = random.Random(9)
    alphabet = b"[]=#ib 0123456789.+-\nWPUpsi yesno"
    crashes = 0
    for _ in range(10_000):
        base = bytearray(rng.choice(seeds))
        for _ in range(rng.randint(1, 10)):
            pos = rng.randrange(len(base) + 1) if base else 0
            op = rng.randrange(3)
            if op == 0 and base:
                del base[pos % len(base)]
            elif op == 1:
                base.insert(pos, rng.choice(alphabet))
            elif base:
                base[pos % len(base)] = rng.choice(alphabet)
        try:
            parse_model(bytes(base))
        except ModelIOError:
            pass
        except Exception:
            crashes += 1
    _verdict(9, "round-trip fixpoint and 10000-case fuzz", ok and crashes == 0)
